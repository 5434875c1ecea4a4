#include "smt/failover_solver.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace faure::smt {

SupervisionOptions SupervisionOptions::fromEnv() {
  SupervisionOptions opts;
  const char* on = std::getenv("FAURE_FAILOVER");
  opts.failover = on != nullptr && *on != '\0' && *on != '0';
  if (const char* ms = std::getenv("FAURE_SOLVER_TIMEOUT_MS")) {
    opts.timeoutMs = std::strtod(ms, nullptr);
  }
  return opts;
}

namespace {

/// Detaches a backend's own guard, tracer and cache for one check (the
/// wrapper charges, mirrors and caches once) and restores them after.
struct BareScope {
  SolverBase& s;
  ResourceGuard* guard = s.guard();
  obs::Tracer* tracer = s.tracer();
  VerdictCache* cache = s.verdictCache();

  BareScope(SolverBase& backend, ResourceGuard* callGuard) : s(backend) {
    s.setGuard(callGuard);
    s.setTracer(nullptr);
    s.setVerdictCache(nullptr);
  }
  ~BareScope() {
    s.setGuard(guard);
    s.setTracer(tracer);
    s.setVerdictCache(cache);
  }
};

}  // namespace

FailoverSolver::FailoverSolver(SolverBase& primary, SupervisionOptions opts)
    : SolverBase(primary.registry()), primary_(primary), opts_(opts) {
  setVerdictCache(primary.verdictCache());
  if (opts_.failover) native_ = std::make_unique<NativeSolver>(reg_);
}

FailoverSolver::FailoverSolver(std::unique_ptr<SolverBase> primary,
                               SupervisionOptions opts)
    : FailoverSolver(*primary, opts) {
  primary->setVerdictCache(nullptr);
  owned_ = std::move(primary);
}

Sat FailoverSolver::attempt(SolverBase& backend, const Formula& f,
                            double timeoutMs, std::string& failure,
                            bool& outerSpent) {
  // The backend's own timeout, capped by the outer guard's remaining
  // time so it never outlives the operation's budget.
  double limit = timeoutMs / 1000.0;
  if (guard_ != nullptr && std::isfinite(guard_->remainingSeconds())) {
    double remaining = guard_->remainingSeconds();
    limit = std::max(limit > 0.0 ? std::min(limit, remaining) : remaining,
                     1e-9);  // already expired: trip at once
  }
  ResourceGuard deadline;
  if (limit > 0.0) deadline.arm(ResourceLimits{.deadlineSeconds = limit});
  BareScope bare(backend, limit > 0.0 ? &deadline : nullptr);
  const SolverStats before = backend.stats();
  Sat verdict = Sat::Unknown;
  try {
    verdict = backend.check(f);
  } catch (const SolverBackendError& e) {
    failure = e.what();  // engine trouble; any other error propagates
    return Sat::Unknown;
  }
  if (!deadline.tripped() &&
      backend.stats().budgetTrips == before.budgetTrips) {
    stats_.enumerations += backend.stats().enumerations - before.enumerations;
    return verdict;
  }
  if (guard_ != nullptr &&
      (!guard_->checkDeadline() || guard_->remainingSeconds() <= 0.0)) {
    outerSpent = true;
  } else {
    failure = "timeout(limit=" + util::formatSeconds(limit) + ")";
  }
  return Sat::Unknown;
}

void FailoverSolver::note(std::string_view counter, std::string_view event,
                          const std::string& why) {
  if (tracer_ == nullptr) return;
  tracer_->metrics().counter(counter).add();
  tracer_->event(event, why);
}

Sat FailoverSolver::checkUncached(const Formula& f) {
  CheckScope scope(this);
  if (!admitCheck()) return Sat::Unknown;
  std::string failure;
  bool outerSpent = false;
  Sat verdict = attempt(primary_, f, opts_.timeoutMs, failure, outerSpent);
  if (!failure.empty() && native_ != nullptr) {
    ++failovers_;
    note("solver.supervise.failovers", "supervise.failover", failure);
    failure.clear();
    verdict = attempt(*native_, f, 0.0, failure, outerSpent);
  }
  if (outerSpent) {
    // The operation's budget ran out, not the backend: degrade exactly
    // as the bare backend would, without failing over.
    ++stats_.budgetTrips;
  } else if (!failure.empty()) {
    // No backend answered: degrade, never raise, never cache.
    ++degraded_;
    note("solver.supervise.degraded", "supervise.degraded", failure);
    lastCheckCacheable_ = false;
  } else if (verdict == Sat::Unsat) {
    ++stats_.unsat;
  }
  if (verdict == Sat::Unknown) ++stats_.unknown;
  return verdict;
}

std::unique_ptr<SolverBase> supervise(std::unique_ptr<SolverBase> solver,
                                      const SupervisionOptions& opts) {
  if (solver == nullptr || !opts.enabled()) return solver;
  return std::make_unique<FailoverSolver>(std::move(solver), opts);
}

}  // namespace faure::smt
