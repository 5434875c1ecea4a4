// Solver failover (DESIGN.md §9): the one supervision layer a
// deterministic backend needs. A FailoverSolver wraps a primary backend
// (canonically Z3). With `failover`, a NativeSolver answers any primary
// check that throws SolverBackendError or trips the per-check timeout;
// otherwise, or when the outer guard is spent, the check degrades to
// Sat::Unknown, and a degraded Unknown never enters the verdict cache.
// A verdict the primary produces, a genuine Unknown included, is
// returned as-is, so with no faults the verdicts and logical `solver.*`
// counters equal the bare backend's. The outer guard, verdict cache and
// tracer attach to the wrapper; each backend runs bare for the call.
#pragma once

#include <memory>
#include <string>

#include "smt/solver.hpp"

namespace faure::smt {

struct SupervisionOptions {
  bool failover = false;   // a NativeSolver answers failed primary checks
  double timeoutMs = 0.0;  // per-check deadline of the primary; 0 = none

  /// Default-constructed options are "off": nothing is wrapped.
  bool enabled() const { return failover || timeoutMs > 0.0; }
  /// Reads FAURE_FAILOVER and FAURE_SOLVER_TIMEOUT_MS.
  static SupervisionOptions fromEnv();
};

class FailoverSolver : public SolverBase {
 public:
  /// Borrows `primary` (it must outlive the wrapper) and shares its
  /// verdict cache; the primary's own wiring is detached per check only.
  FailoverSolver(SolverBase& primary, SupervisionOptions opts);
  /// Owns `primary` and takes over its verdict cache.
  FailoverSolver(std::unique_ptr<SolverBase> primary,
                 SupervisionOptions opts);

  const SupervisionOptions& options() const { return opts_; }
  uint64_t failovers() const { return failovers_; }  // native answered
  uint64_t degraded() const { return degraded_; }    // nobody answered

 protected:
  Sat checkUncached(const Formula& f) override;

 private:
  /// Runs one backend; on failure sets `failure` to why, or sets
  /// `outerSpent` when the outer guard ran out instead.
  Sat attempt(SolverBase& backend, const Formula& f, double timeoutMs,
              std::string& failure, bool& outerSpent);
  void note(std::string_view counter, std::string_view event,
            const std::string& why);

  std::unique_ptr<SolverBase> owned_;
  SolverBase& primary_;
  std::unique_ptr<SolverBase> native_;  // null without failover
  SupervisionOptions opts_;
  uint64_t failovers_ = 0;
  uint64_t degraded_ = 0;
};

/// The one way to wrap an owned solver: `solver` itself when `opts` are
/// off, else a FailoverSolver that owns it.
std::unique_ptr<SolverBase> supervise(std::unique_ptr<SolverBase> solver,
                                      const SupervisionOptions& opts);

}  // namespace faure::smt
