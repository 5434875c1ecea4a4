// Session: the high-level entry point tying the layers together — a
// database, a condition solver, and evaluation defaults — so common
// workflows are one-liners:
//
//   faure::Session s;
//   s.load("var x_ int 0 1\n"
//          "table F(flow sym, from int, to int)\n"
//          "row F f0 1 2 | x_ = 1\n");
//   s.run("R(f,a,b) :- F(f,a,b).\n"
//         "R(f,a,b) :- F(f,a,c), R(f,c,b).\n");   // IDB lands in the db
//   auto verdict = s.check("panic :- !R('f0', 1, 2).");
//
// For fine-grained control use the layer APIs directly (faurelog/eval.hpp,
// verify/verifier.hpp); Session is sugar, not a boundary.
#pragma once

#include <memory>
#include <string_view>

#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/scenario.hpp"
#include "smt/verdict_cache.hpp"
#include "verify/verifier.hpp"

namespace faure {

class Session {
 public:
  /// Backend for condition satisfiability.
  enum class Backend { Native, Z3 };

  explicit Session(Backend backend = Backend::Native);

  /// The underlying database (tables + c-variable registry).
  rel::Database& db() { return db_; }
  const rel::Database& db() const { return db_; }
  CVarRegistry& vars() { return db_.cvars(); }

  /// Evaluation defaults applied by run()/check().
  fl::EvalOptions& options() { return opts_; }

  /// Cost-based join planning for subsequent run() calls (DESIGN.md
  /// §11): PlanMode::On reorders body literals by estimated selectivity
  /// and probes persistent c-table indexes, PlanMode::Off runs the
  /// pristine program-order join path, PlanMode::Explain additionally
  /// dumps each chosen plan to stderr. Results are byte-identical in
  /// every mode; only wall-clock and the eval.plan.* metrics change.
  /// Shorthand for options().plan.
  void setPlanning(fl::PlanMode m) { opts_.plan = m; }

  /// Arms resource governance (util/resource_guard.hpp) for subsequent
  /// run()/check()/subsumed() calls; each call re-arms the guard, so a
  /// deadline applies per operation. Pass {} (all-zero limits) to
  /// disable. While disabled, behaviour is identical to an ungoverned
  /// session.
  void setResourceLimits(const ResourceLimits& limits);

  /// The session guard — observe trip state after a degraded call, or
  /// cancel() it from another thread to stop a running evaluation.
  ResourceGuard& guard() { return guard_; }

  /// Attaches a tracer (obs/trace.hpp) to the session: run()/check()/
  /// subsumed() open `session.*` spans, the evaluator and solver record
  /// their span trees and metrics into it, and guard budget trips become
  /// `budget.trip` events carrying the guard's machine-readable reason.
  /// Null detaches. The tracer must outlive the session (or a later
  /// setTracer(nullptr)).
  void setTracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

  /// When true (default), solver statistics — and with a tracer attached,
  /// the metrics registry — accumulate across operations: SolverStats
  /// after two run() calls covers both. resetStatsPerOperation(true) makes
  /// each run()/check()/subsumed() start from zero instead, so per-call
  /// stats can be read without bookkeeping deltas.
  void resetStatsPerOperation(bool enable) { resetPerOp_ = enable; }

  /// Zeroes solver statistics and (when a tracer is attached) every
  /// metric in its registry, keeping handles valid. Span/event history is
  /// untouched.
  void resetStats();

  /// The session solver (rebuilt if you exchange the registry wholesale).
  smt::SolverBase& solver();

  /// Solver failover (smt/failover_solver.hpp, DESIGN.md §9): rebuilds
  /// the session solver, wrapped in a FailoverSolver when opts are
  /// enabled (per-check timeout, optional native failover) and bare
  /// otherwise. The verdict cache and tracer stay attached; solver stats
  /// restart from zero. A session constructed while FAURE_FAILOVER /
  /// FAURE_SOLVER_TIMEOUT_MS are set starts supervised
  /// (SupervisionOptions::fromEnv()).
  void setSupervision(const smt::SupervisionOptions& opts);

  /// The failover wrapper when active, else null.
  smt::FailoverSolver* failoverSolver();

  /// Resizes the session's solver verdict cache (smt/verdict_cache.hpp):
  /// `entries` bounds the LRU map, 0 detaches caching entirely. The
  /// session starts with VerdictCache::capacityFromEnv() (the
  /// FAURE_SOLVER_CACHE variable, default 65536). The cache is shared by
  /// every run()/check()/subsumed() call, so a verification session
  /// amortizes the checks its evaluations already paid for. Resizing
  /// drops all cached verdicts. Results are byte-identical at any
  /// setting — only physical solver work (and solver.cache.* metrics)
  /// changes.
  void setSolverCache(size_t entries);
  smt::VerdictCache* solverCache() const { return cache_.get(); }

  /// Parses database text (docs/LANGUAGE.md) into the session database.
  /// Declarations and rows accumulate across calls; table redeclaration
  /// throws.
  void load(std::string_view databaseText);

  /// Evaluates a fauré-log program against the database; every derived
  /// relation is stored back into the database (so later programs can
  /// build on it) and the result is returned.
  fl::EvalResult run(std::string_view programText);

  /// Evaluates a constraint (panic program) against the database state —
  /// the §5 level-(iii) check.
  verify::StateCheck check(std::string_view constraintText,
                           std::string name = "constraint");

  /// Begins incremental what-if evaluation (DESIGN.md §10) over
  /// `programText`: evaluates it once and retains the derived strata so
  /// subsequent insertFact()/retractFact() + reevaluate() re-fire only
  /// the rules whose bodies touch a changed relation. Unlike run(), a
  /// watched evaluation never stores derived tables back into the
  /// database — the EDB stays pristine so every epoch re-derives from
  /// the same base. Returns the epoch-0 result. A later load(), run()
  /// or setSupervision() ends the watch (the engine would otherwise see
  /// a database or solver it did not track).
  fl::EvalResult watch(std::string_view programText);

  /// Delta API of the active watch — thin forwarding over
  /// fl::IncrementalEngine (incremental.hpp). All throw EvalError when
  /// no watch is active.
  bool insertFact(const std::string& pred, std::vector<Value> vals,
                  smt::Formula cond = smt::Formula::top());
  size_t retractFact(const std::string& pred,
                     const std::vector<Value>& vals);
  /// Parses and applies `+Fact(...)` / `-Fact(...)` directives
  /// (docs: textio.hpp edit scripts).
  void applyEdits(std::string_view editScript);
  /// Re-derives after staged edits; per the oracle contract the result
  /// is byte-identical to a full recompute (FAURE_INCREMENTAL=0).
  fl::EvalResult reevaluate();

  /// The active watch engine (stats, mode toggles), or null.
  fl::IncrementalEngine* incrementalEngine() { return inc_.get(); }

  /// Forks the session state into a concurrent scenario service
  /// (DESIGN.md §12): the returned ScenarioSet owns a deep copy of the
  /// current database plus `programText` parsed against it, inherits
  /// the session's evaluation defaults (options().threads becomes the
  /// scenario fan-out width), tracer, backend choice and resource
  /// limits (applied *per scenario*), and runs its own shared verdict
  /// cache. The session itself is never touched by scenario evaluation,
  /// so watches, runs and scenario batches compose freely.
  fl::ScenarioSet scenarios(std::string_view programText);

  /// Category (i)/(ii) tests against this session's registry.
  verify::Verdict subsumed(const verify::Constraint& target,
                           const std::vector<verify::Constraint>& known);
  verify::Verdict subsumedAfterUpdate(
      const verify::Constraint& target,
      const std::vector<verify::Constraint>& known, const verify::Update& u);

  /// Parses a constraint in this session's registry.
  verify::Constraint constraint(std::string name, std::string_view text);

 private:
  /// Re-arms the guard for one governed operation; returns the guard
  /// pointer to wire into options/solver, or nullptr when ungoverned.
  ResourceGuard* armGuard();

  /// Per-operation prologue: optional stats reset, then guard re-arm.
  ResourceGuard* beginOperation();

  Backend backend_;
  rel::Database db_;
  std::unique_ptr<smt::VerdictCache> cache_;  // before solver_: it outlives it
  std::unique_ptr<smt::SolverBase> solver_;
  fl::EvalOptions opts_;
  ResourceGuard guard_;
  obs::Tracer* tracer_ = nullptr;
  bool resetPerOp_ = false;
  std::unique_ptr<fl::IncrementalEngine> inc_;  // active watch, if any
};

}  // namespace faure
