// Satisfiability for c-table conditions.
//
// The paper's implementation ships every tuple condition to Z3 to discard
// contradictory tuples (§6, step 3). This module provides:
//
//   * NativeSolver — a built-in decision procedure for the condition
//     fragment fauré actually generates: equalities/disequalities over the
//     c-domain, ordered comparisons on integers, and linear integer atoms
//     (x_ + y_ + z_ = 1). It is complete whenever every variable involved
//     in the residual arithmetic has a finite domain (link-state bits,
//     enumerated subnets/servers/ports — all of the paper's workloads);
//     otherwise it falls back to interval propagation and may answer
//     Unknown.
//   * Z3Solver (z3_solver.hpp, optional) — the paper-faithful backend.
//
// Answers are three-valued. Tuple pruning treats Unknown as "keep", so an
// incomplete answer can cost performance but never soundness.
#pragma once

#include <cstdint>
#include <memory>

#include "obs/trace.hpp"
#include "smt/formula.hpp"
#include "smt/transform.hpp"
#include "util/resource_guard.hpp"
#include "util/timer.hpp"
#include "value/value.hpp"

namespace faure::smt {

class VerdictCache;

enum class Sat : uint8_t { Unsat, Sat, Unknown };

std::string_view satText(Sat s);

/// Compatibility accessor over the solver's own counters. The canonical,
/// superset store for an *observed* run is the obs metrics registry
/// (`solver.*` names; see setTracer and DESIGN.md "Observability") —
/// when a tracer is attached every field here is mirrored there live,
/// plus a per-check latency histogram the struct cannot express.
struct SolverStats {
  uint64_t checks = 0;
  uint64_t unsat = 0;
  uint64_t unknown = 0;
  uint64_t enumerations = 0;
  /// Checks degraded to Unknown because a ResourceGuard budget tripped
  /// (always also counted in `unknown`).
  uint64_t budgetTrips = 0;
  double seconds = 0.0;
};

/// Interface shared by the native and Z3 backends.
class SolverBase {
 public:
  explicit SolverBase(const CVarRegistry& reg) : reg_(reg) {}
  virtual ~SolverBase() = default;

  SolverBase(const SolverBase&) = delete;
  SolverBase& operator=(const SolverBase&) = delete;

  /// Three-valued satisfiability of `f` under the registry's domains.
  /// With a VerdictCache attached, a memoized verdict is replayed through
  /// consumeDelegated — logical accounting (guard charges, stats, metric
  /// mirrors) is identical to recomputing; only wall time changes.
  Sat check(const Formula& f);

  /// True only when `f` is certainly unsatisfiable.
  bool definitelyUnsat(const Formula& f) { return check(f) == Sat::Unsat; }

  /// True when a ⇒ b is certain (i.e. a ∧ ¬b is Unsat). Unknown answers
  /// conservatively report "no". Memoized per ordered (a, b) pair when a
  /// VerdictCache is attached.
  bool implies(const Formula& a, const Formula& b);

  /// True when a ⟺ b is certain.
  bool equivalent(const Formula& a, const Formula& b);

  const CVarRegistry& registry() const { return reg_; }
  const SolverStats& stats() const { return stats_; }
  void resetStats() { stats_ = SolverStats{}; }

  /// Attaches a resource guard (util/resource_guard.hpp): every check()
  /// charges it, and a tripped guard degrades checks to Sat::Unknown —
  /// conservative for all callers (pruning keeps the tuple, implies()
  /// answers "no"). Null detaches; the guard must outlive the solver's
  /// use of it.
  void setGuard(ResourceGuard* guard) { guard_ = guard; }
  ResourceGuard* guard() const { return guard_; }

  /// Attaches a tracer (obs/trace.hpp): every check() mirrors its stats
  /// delta live into the tracer's metrics registry under `solver.*`
  /// (checks, unsat, unknown, budget_trips, enumerations, plus the
  /// `solver.check_seconds` latency histogram), and — with
  /// TracerOptions::fineSpans — records a `solver.check` span per call.
  /// Null detaches; the tracer must outlive the solver's use of it.
  void setTracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

  /// Attaches a verdict cache (smt/verdict_cache.hpp): check()/implies()
  /// consult it first and store non-degraded verdicts back. The cache
  /// must be bound to this solver's registry (throws EvalError
  /// otherwise) and may be shared across solvers — scenario forks share
  /// one cache, and verify/ containment reuses a session's cache across
  /// eval and verification. Null detaches; the cache must outlive the
  /// solver's use of it.
  void setVerdictCache(VerdictCache* cache);
  VerdictCache* verdictCache() const { return cache_; }

 protected:
  /// Backend decision procedure behind the caching check() wrapper.
  virtual Sat checkUncached(const Formula& f) = 0;
  /// Charges one check against the guard; returns false when this check
  /// must degrade to Unknown (records stats for the degraded check).
  bool admitCheck();

  /// RAII wrapped around one check() by each backend: accumulates the
  /// call's wall time into stats_.seconds and, when a tracer is
  /// attached, mirrors the stats delta into the registry (and opens a
  /// fine-grained span). Exception-safe.
  class CheckScope {
   public:
    explicit CheckScope(SolverBase* solver);
    ~CheckScope();
    CheckScope(const CheckScope&) = delete;
    CheckScope& operator=(const CheckScope&) = delete;

   private:
    SolverBase* solver_;
    SolverStats before_;
    util::Stopwatch watch_;
    obs::Span span_;
  };

  const CVarRegistry& reg_;
  SolverStats stats_;
  ResourceGuard* guard_ = nullptr;
  obs::Tracer* tracer_ = nullptr;
  VerdictCache* cache_ = nullptr;
  /// Whether the verdict being produced by the current checkUncached()
  /// call is a pure logical outcome. check()/implies() reset it before
  /// each call and only store into the verdict cache while it holds;
  /// FailoverSolver clears it when every backend failed and the check
  /// degraded to Unknown — a fault outcome that must never be admitted
  /// into the cache, exactly like a budget-degraded one.
  bool lastCheckCacheable_ = true;

 private:
  /// Accounts a verdict replayed from the verdict cache: charges the
  /// guard exactly as a fresh check would — a tripped solver-check
  /// budget degrades the verdict to Unknown — and records stats and
  /// registry mirrors as if this solver had decided it, with the
  /// `enumerations` of the original check and the lookup's `seconds`.
  /// A cache hit therefore changes only wall time, never the logical
  /// `solver.*` counter stream.
  Sat consumeDelegated(Sat verdict, double seconds, uint64_t enumerations);

  /// Registry handles, resolved once in setTracer; valid iff tracer_.
  struct MetricHandles {
    obs::Counter* checks = nullptr;
    obs::Counter* unsat = nullptr;
    obs::Counter* unknown = nullptr;
    obs::Counter* budgetTrips = nullptr;
    obs::Counter* enumerations = nullptr;
    obs::Histogram* checkSeconds = nullptr;
  };
  MetricHandles metrics_;
};

/// RAII: attaches `guard` to `solver` for a scope — unless the solver
/// already carries one (the caller's wiring wins) — and restores the
/// previous attachment on exit. Either pointer may be null (no-op).
class ResourceGuardScope {
 public:
  ResourceGuardScope(SolverBase* solver, ResourceGuard* guard)
      : solver_(solver),
        prev_(solver != nullptr ? solver->guard() : nullptr) {
    if (solver_ != nullptr && guard != nullptr && prev_ == nullptr) {
      solver_->setGuard(guard);
    }
  }
  ~ResourceGuardScope() {
    if (solver_ != nullptr) solver_->setGuard(prev_);
  }

  ResourceGuardScope(const ResourceGuardScope&) = delete;
  ResourceGuardScope& operator=(const ResourceGuardScope&) = delete;

 private:
  SolverBase* solver_;
  ResourceGuard* prev_;
};

/// RAII: attaches `tracer` to `solver` for a scope — unless the solver
/// already carries one (the caller's wiring wins) — and restores the
/// previous attachment on exit. Either pointer may be null (no-op).
class TracerScope {
 public:
  TracerScope(SolverBase* solver, obs::Tracer* tracer)
      : solver_(solver),
        prev_(solver != nullptr ? solver->tracer() : nullptr) {
    if (solver_ != nullptr && tracer != nullptr && prev_ == nullptr) {
      solver_->setTracer(tracer);
    }
  }
  ~TracerScope() {
    if (solver_ != nullptr) solver_->setTracer(prev_);
  }

  TracerScope(const TracerScope&) = delete;
  TracerScope& operator=(const TracerScope&) = delete;

 private:
  SolverBase* solver_;
  obs::Tracer* prev_;
};

/// Built-in backend. See file comment for the completeness envelope.
class NativeSolver : public SolverBase {
 public:
  struct Options {
    /// DNF conversion budget before falling back to model enumeration.
    size_t maxDnfCubes = 4096;
    /// Assignment budget for finite-domain enumeration.
    uint64_t maxEnum = 1u << 16;
  };

  explicit NativeSolver(const CVarRegistry& reg)
      : NativeSolver(reg, Options{}) {}
  NativeSolver(const CVarRegistry& reg, Options opts)
      : SolverBase(reg), opts_(opts) {}

 protected:
  Sat checkUncached(const Formula& f) override;

 private:
  Sat checkCube(const Cube& cube);
  Sat enumerate(const Formula& f);

  Options opts_;
};

/// Enumerates every total assignment of `vars` (all must have finite
/// domains) under which `f` does not fold to false, invoking `fn` with the
/// assignment. Used for possible-world expansion in the loss-less property
/// tests. Returns false if some variable has no finite domain.
bool forEachModel(const Formula& f, const CVarRegistry& reg,
                  const std::vector<CVarId>& vars,
                  const std::function<void(const Assignment&)>& fn);

}  // namespace faure::smt
