// Tests for solver failover (smt/failover_solver.hpp): zero-fault
// identity with the bare backend, native failover on a throwing or
// timed-out primary, Unknown (never a throw, never cached) when no
// backend answers, outer budgets that degrade without failing over, the
// environment knobs, and the typed SolverBackendError surface
// (requireZ3Solver). The faulty primaries are test fakes.
#include "smt/failover_solver.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "obs/trace.hpp"
#include "smt/verdict_cache.hpp"
#include "smt/z3_solver.hpp"
#include "util/error.hpp"
#include "util/resource_guard.hpp"
#include "value/value.hpp"

namespace faure::smt {
namespace {

/// A backend that raises SolverBackendError for its first `failFirst`
/// checks (forever when negative), then behaves exactly like
/// NativeSolver.
class FlakySolver : public NativeSolver {
 public:
  FlakySolver(const CVarRegistry& reg, int failFirst)
      : NativeSolver(reg), remainingFailures_(failFirst) {}

  int calls = 0;  // checks that reached this backend

 protected:
  Sat checkUncached(const Formula& f) override {
    ++calls;
    if (remainingFailures_ != 0) {
      if (remainingFailures_ > 0) --remainingFailures_;
      throw SolverBackendError("flaky", "engine died");
    }
    return NativeSolver::checkUncached(f);
  }

 private:
  int remainingFailures_;
};

/// A backend that never answers: it waits out whatever deadline its
/// guard carries, then degrades like any backend whose budget tripped.
class HungSolver : public SolverBase {
 public:
  using SolverBase::SolverBase;

 protected:
  Sat checkUncached(const Formula&) override {
    CheckScope scope(this);
    ++stats_.checks;
    while (guard_ != nullptr && guard_->remainingSeconds() > 0.0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ++stats_.unknown;
    ++stats_.budgetTrips;
    return Sat::Unknown;
  }
};

class SupervisedSolverTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId x_ = reg_.declareInt("x_", 0, 1);
  CVarId y_ = reg_.declareInt("y_", 0, 3);

  Formula eq(CVarId v, int64_t n) {
    return Formula::cmp(Value::cvar(v), CmpOp::Eq, Value::fromInt(n));
  }

  std::vector<Formula> sampleFormulas() {
    return {
        eq(x_, 0),                                          // Sat
        Formula::conj2(eq(x_, 0), eq(x_, 1)),               // Unsat
        Formula::conj2(eq(y_, 2), eq(x_, 1)),               // Sat
        Formula::disj2(eq(y_, 5), Formula::bottom()),       // Unsat (domain)
        Formula::conj2(eq(y_, 3), Formula::neg(eq(x_, 0))), // Sat
    };
  }

  static SupervisionOptions failover(double timeoutMs = 0.0) {
    SupervisionOptions opts;
    opts.failover = true;
    opts.timeoutMs = timeoutMs;
    return opts;
  }

  static void expectSameLogicalStats(const SolverStats& a,
                                     const SolverStats& b) {
    // Seconds are wall-clock and excluded by design.
    EXPECT_EQ(a.checks, b.checks);
    EXPECT_EQ(a.unsat, b.unsat);
    EXPECT_EQ(a.unknown, b.unknown);
    EXPECT_EQ(a.enumerations, b.enumerations);
    EXPECT_EQ(a.budgetTrips, b.budgetTrips);
  }

  static std::vector<std::string> events(const obs::Tracer& tracer) {
    std::vector<std::string> out;
    for (const obs::EventRecord& e : tracer.events()) {
      out.push_back(e.name + " " + e.detail);
    }
    return out;
  }
};

TEST_F(SupervisedSolverTest, ZeroFaultsIsBitIdenticalToUnwrappedBackend) {
  obs::Tracer bareTrace;
  obs::Tracer supTrace;
  NativeSolver bare(reg_);
  bare.setTracer(&bareTrace);
  FailoverSolver sup(std::make_unique<NativeSolver>(reg_), failover(500));
  sup.setTracer(&supTrace);
  for (const Formula& f : sampleFormulas()) {
    EXPECT_EQ(sup.check(f), bare.check(f));
  }
  expectSameLogicalStats(sup.stats(), bare.stats());
  obs::MetricsSnapshot want = bareTrace.metrics().snapshot();
  obs::MetricsSnapshot got = supTrace.metrics().snapshot();
  for (const char* name : {"solver.checks", "solver.unsat", "solver.unknown",
                           "solver.budget_trips", "solver.enumerations"}) {
    EXPECT_EQ(got.counter(name), want.counter(name)) << name;
  }
  EXPECT_EQ(got.counter("solver.supervise.failovers"), 0u);
  EXPECT_EQ(got.counter("solver.supervise.degraded"), 0u);
  EXPECT_TRUE(supTrace.events().empty());
}

TEST_F(SupervisedSolverTest, PermanentPrimaryFailureFailsOverToNative) {
  obs::Tracer tracer;
  NativeSolver bare(reg_);
  FailoverSolver sup(std::make_unique<FlakySolver>(reg_, -1), failover());
  sup.setTracer(&tracer);
  for (const Formula& f : sampleFormulas()) {
    EXPECT_EQ(sup.check(f), bare.check(f));
  }
  EXPECT_EQ(sup.failovers(), sampleFormulas().size());
  EXPECT_EQ(sup.degraded(), 0u);
  // A failed primary does no solver work, so the logical stream still
  // matches a healthy backend's.
  expectSameLogicalStats(sup.stats(), bare.stats());
  EXPECT_EQ(tracer.metrics().snapshot().counter("solver.supervise.failovers"),
            sampleFormulas().size());
  ASSERT_FALSE(tracer.events().empty());
  EXPECT_EQ(tracer.events().front().name, "supervise.failover");
  EXPECT_NE(tracer.events().front().detail.find("engine died"),
            std::string::npos);
}

TEST_F(SupervisedSolverTest, ExhaustedChainDegradesToUnknownNeverThrows) {
  // No fallback: the primary's failure degrades the check to Unknown,
  // and the trace says why.
  obs::Tracer tracer;
  SupervisionOptions opts;
  opts.timeoutMs = 500;
  FailoverSolver sup(std::make_unique<FlakySolver>(reg_, -1), opts);
  sup.setTracer(&tracer);

  Sat v = Sat::Sat;
  EXPECT_NO_THROW(v = sup.check(eq(x_, 0)));
  EXPECT_EQ(v, Sat::Unknown);
  EXPECT_EQ(sup.degraded(), 1u);
  EXPECT_EQ(sup.failovers(), 0u);
  EXPECT_EQ(sup.stats().checks, 1u);
  EXPECT_EQ(sup.stats().unknown, 1u);
  EXPECT_EQ(sup.stats().budgetTrips, 0u);  // a fault, not a budget
  EXPECT_EQ(tracer.metrics().snapshot().counter("solver.supervise.degraded"),
            1u);
  ASSERT_EQ(events(tracer).size(), 1u);
  EXPECT_EQ(tracer.events()[0].name, "supervise.degraded");
  EXPECT_EQ(tracer.events()[0].detail,
            "solver backend 'flaky': engine died");
}

TEST_F(SupervisedSolverTest, SupervisionShapedVerdictsNeverEnterTheCache) {
  SupervisionOptions opts;
  opts.timeoutMs = 500;
  FailoverSolver sup(std::make_unique<FlakySolver>(reg_, -1), opts);
  VerdictCache cache(reg_, 64);
  sup.setVerdictCache(&cache);

  Formula f = Formula::conj2(eq(x_, 0), eq(x_, 1));
  EXPECT_EQ(sup.check(f), Sat::Unknown);  // degraded
  EXPECT_EQ(cache.stats().entries, 0u);   // so it must not be memoized
  EXPECT_FALSE(sup.implies(eq(x_, 0), eq(x_, 1)));
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(sup.check(f), Sat::Unknown);
  EXPECT_EQ(cache.stats().hits, 0u);
  EXPECT_EQ(sup.degraded(), 3u);
}

TEST_F(SupervisedSolverTest, CleanVerdictsAreStillCachedNormally) {
  VerdictCache cache(reg_, 64);
  auto native = std::make_unique<NativeSolver>(reg_);
  native->setVerdictCache(&cache);
  FailoverSolver sup(std::move(native), failover());
  EXPECT_EQ(sup.verdictCache(), &cache);  // moved to the wrapper

  Formula f = Formula::conj2(eq(x_, 0), eq(x_, 1));
  EXPECT_EQ(sup.check(f), Sat::Unsat);
  EXPECT_EQ(cache.stats().entries, 1u);
  EXPECT_EQ(sup.check(f), Sat::Unsat);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(SupervisedSolverTest, PrimaryDeadlineTripFailsOverToNative) {
  NativeSolver bare(reg_);
  obs::Tracer tracer;
  FailoverSolver sup(std::make_unique<HungSolver>(reg_), failover(5));
  sup.setTracer(&tracer);
  Formula f = Formula::conj2(eq(x_, 0), eq(x_, 1));
  EXPECT_EQ(sup.check(f), bare.check(f));
  EXPECT_EQ(sup.failovers(), 1u);
  expectSameLogicalStats(sup.stats(), bare.stats());
  ASSERT_EQ(events(tracer).size(), 1u);
  EXPECT_EQ(events(tracer)[0], "supervise.failover timeout(limit=5.00ms)");

  // Without failover the timed-out check degrades, naming its limit.
  obs::Tracer alone;
  SupervisionOptions opts;
  opts.timeoutMs = 5;
  FailoverSolver timed(std::make_unique<HungSolver>(reg_), opts);
  timed.setTracer(&alone);
  EXPECT_EQ(timed.check(f), Sat::Unknown);
  EXPECT_EQ(timed.degraded(), 1u);
  EXPECT_EQ(timed.stats().budgetTrips, 0u);
  ASSERT_EQ(events(alone).size(), 1u);
  EXPECT_EQ(events(alone)[0], "supervise.degraded timeout(limit=5.00ms)");
}

TEST_F(SupervisedSolverTest, SolverCheckBudgetDegradesExactlyLikeUnwrapped) {
  auto runWithBudget = [&](SolverBase& solver) {
    ResourceLimits limits;
    limits.maxSolverChecks = 2;
    ResourceGuard guard(limits);
    solver.setGuard(&guard);
    std::vector<Sat> out;
    for (const Formula& f : sampleFormulas()) out.push_back(solver.check(f));
    solver.setGuard(nullptr);
    return out;
  };
  NativeSolver bare(reg_);
  auto flaky = std::make_unique<FlakySolver>(reg_, 0);  // healthy
  FlakySolver* primary = flaky.get();
  FailoverSolver sup(std::move(flaky), failover());
  EXPECT_EQ(runWithBudget(sup), runWithBudget(bare));
  expectSameLogicalStats(sup.stats(), bare.stats());
  EXPECT_EQ(primary->calls, 2);  // degraded checks reach no backend
  EXPECT_EQ(sup.failovers(), 0u);
}

TEST_F(SupervisedSolverTest, OuterDeadlineDegradesWithoutFailingOver) {
  // The primary's own timeout is generous; the operation's deadline is
  // what runs out, so the check degrades as a budget trip and the
  // native fallback never runs.
  obs::Tracer tracer;
  FailoverSolver sup(std::make_unique<HungSolver>(reg_), failover(60000));
  sup.setTracer(&tracer);
  ResourceLimits limits;
  limits.deadlineSeconds = 0.005;
  ResourceGuard guard(limits);
  sup.setGuard(&guard);
  VerdictCache cache(reg_, 64);
  sup.setVerdictCache(&cache);

  EXPECT_EQ(sup.check(eq(x_, 0)), Sat::Unknown);
  EXPECT_EQ(sup.stats().budgetTrips, 1u);
  EXPECT_EQ(sup.stats().unknown, 1u);
  EXPECT_EQ(sup.failovers(), 0u);
  EXPECT_EQ(sup.degraded(), 0u);
  EXPECT_EQ(cache.stats().entries, 0u);
  EXPECT_EQ(tracer.metrics().snapshot().counter("solver.supervise.failovers"),
            0u);
}

TEST_F(SupervisedSolverTest, FromEnvReadsTheSupervisionVariables) {
  // The suite may itself run with these exported; this test owns them.
  ::unsetenv("FAURE_SOLVER_TIMEOUT_MS");
  ::unsetenv("FAURE_FAILOVER");
  SupervisionOptions off = SupervisionOptions::fromEnv();
  EXPECT_FALSE(off.enabled());

  ::setenv("FAURE_SOLVER_TIMEOUT_MS", "250", 1);
  ::setenv("FAURE_FAILOVER", "1", 1);
  SupervisionOptions opts = SupervisionOptions::fromEnv();
  ::unsetenv("FAURE_SOLVER_TIMEOUT_MS");
  ::unsetenv("FAURE_FAILOVER");
  EXPECT_TRUE(opts.enabled());
  EXPECT_TRUE(opts.failover);
  EXPECT_EQ(opts.timeoutMs, 250.0);

  ::setenv("FAURE_FAILOVER", "0", 1);
  EXPECT_FALSE(SupervisionOptions::fromEnv().failover);
  ::unsetenv("FAURE_FAILOVER");

  // supervise() leaves a solver unwrapped when the options are off.
  auto native = std::make_unique<NativeSolver>(reg_);
  SolverBase* raw = native.get();
  EXPECT_EQ(supervise(std::move(native), off).get(), raw);
}

TEST_F(SupervisedSolverTest, BorrowedBackendWiringIsRestoredOnDestruction) {
  VerdictCache cache(reg_, 64);
  obs::Tracer ownTrace;
  ResourceGuard ownGuard;
  NativeSolver borrowed(reg_);
  borrowed.setVerdictCache(&cache);
  borrowed.setTracer(&ownTrace);
  borrowed.setGuard(&ownGuard);
  {
    obs::Tracer wrapTrace;
    FailoverSolver sup(borrowed, failover());
    sup.setTracer(&wrapTrace);
    EXPECT_EQ(sup.verdictCache(), &cache);  // adopted by the wrapper
    EXPECT_EQ(sup.check(eq(x_, 0)), Sat::Sat);
    // The check mirrored once, at the wrapper, and was cached once.
    EXPECT_EQ(wrapTrace.metrics().snapshot().counter("solver.checks"), 1u);
    EXPECT_EQ(ownTrace.metrics().snapshot().counter("solver.checks"), 0u);
    EXPECT_EQ(cache.stats().entries, 1u);
    EXPECT_EQ(borrowed.verdictCache(), &cache);
    EXPECT_EQ(borrowed.tracer(), &ownTrace);
    EXPECT_EQ(borrowed.guard(), &ownGuard);
  }
  EXPECT_EQ(borrowed.verdictCache(), &cache);
  EXPECT_EQ(borrowed.tracer(), &ownTrace);
  EXPECT_EQ(borrowed.guard(), &ownGuard);
}

TEST_F(SupervisedSolverTest, RequireZ3SolverThrowsATypedErrorWithoutZ3) {
  if (z3Available()) {
    EXPECT_NE(requireZ3Solver(reg_), nullptr);
    return;
  }
  try {
    requireZ3Solver(reg_);
    FAIL() << "expected SolverBackendError";
  } catch (const SolverBackendError& e) {
    EXPECT_EQ(e.backend(), "z3");
    EXPECT_NE(std::string(e.what()).find("z3"), std::string::npos);
  }
}

}  // namespace
}  // namespace faure::smt
