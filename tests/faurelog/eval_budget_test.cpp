// Degradation behaviour of the fauré-log evaluator under resource
// governance (EvalOptions::guard): budget exhaustion must return the
// tuples derived so far flagged incomplete — never crash, never hang —
// and an unconfigured/unlimited guard must not change results.
#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "util/error.hpp"
#include "util/resource_guard.hpp"
#include "util/timer.hpp"

namespace faure::fl {
namespace {

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

class EvalBudgetTest : public ::testing::Test {
 protected:
  rel::Database db_;

  dl::Program parse(const char* text) {
    return dl::parseProgram(text, db_.cvars());
  }

  EvalResult eval(const char* text, const EvalOptions& opts) {
    smt::NativeSolver solver(db_.cvars());
    return evalFaure(parse(text), db_, &solver, opts);
  }

  /// A chain graph 0 -> 1 -> ... -> n: transitive closure derives
  /// n*(n+1)/2 reachability tuples, enough work to trip small budgets.
  void loadChain(int n) {
    auto& e = db_.create(anySchema("E", 2));
    for (int i = 0; i < n; ++i) {
      e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
    }
  }

  static constexpr const char* kClosure =
      "R(x,y) :- E(x,y).\n"
      "R(x,y) :- E(x,z), R(z,y).\n";
};

TEST_F(EvalBudgetTest, TupleBudgetReturnsPartialResultFlaggedIncomplete) {
  loadChain(12);  // full closure: 78 tuples
  ResourceLimits limits;
  limits.maxTuples = 20;
  ResourceGuard guard(limits);
  EvalOptions opts;
  opts.guard = &guard;
  EvalResult res = eval(kClosure, opts);
  EXPECT_TRUE(res.incomplete);
  EXPECT_EQ(res.tripped, Budget::Tuples);
  EXPECT_EQ(res.degradeReason, "tuples(limit=20)");
  EXPECT_EQ(res.stats.budgetTrips, 1u);
  // Degrade, not die: the tuples derived before the trip are returned,
  // and each is genuinely derivable (spot-check the base edges).
  const auto& r = res.relation("R");
  EXPECT_GT(r.size(), 0u);
  EXPECT_LT(r.size(), 78u);
  EXPECT_TRUE(
      r.conditionOf({Value::fromInt(0), Value::fromInt(1)}).isTrue());
}

TEST_F(EvalBudgetTest, StepBudgetTripsOnJoinWork) {
  loadChain(12);
  ResourceLimits limits;
  limits.maxSteps = 10;
  ResourceGuard guard(limits);
  EvalOptions opts;
  opts.guard = &guard;
  EvalResult res = eval(kClosure, opts);
  EXPECT_TRUE(res.incomplete);
  EXPECT_EQ(res.tripped, Budget::Steps);
  EXPECT_EQ(guard.counters().steps, 11u);  // trip charge included
}

TEST_F(EvalBudgetTest, DeadlineReturnsPromptlyInsteadOfRunningToFixpoint) {
  loadChain(64);  // enough closure work to outlast a ~0 deadline
  ResourceLimits limits;
  limits.deadlineSeconds = 1e-4;
  ResourceGuard guard(limits);
  EvalOptions opts;
  opts.guard = &guard;
  util::Stopwatch watch;
  EvalResult res = eval(kClosure, opts);
  EXPECT_LT(watch.elapsed(), 2.0);
  EXPECT_TRUE(res.incomplete);
  EXPECT_EQ(res.tripped, Budget::Deadline);
}

TEST_F(EvalBudgetTest, CancellationStopsTheFixpoint) {
  loadChain(12);
  ResourceLimits limits;
  limits.maxSteps = 1u << 30;  // active guard, no budget will trip
  ResourceGuard guard(limits);
  guard.cancel();
  EvalOptions opts;
  opts.guard = &guard;
  EvalResult res = eval(kClosure, opts);
  EXPECT_TRUE(res.incomplete);
  EXPECT_EQ(res.tripped, Budget::Cancelled);
  EXPECT_EQ(res.degradeReason, "cancelled");
}

TEST_F(EvalBudgetTest, UnlimitedGuardMatchesUngovernedEvaluation) {
  loadChain(8);
  EvalResult plain = evalFaure(parse(kClosure), db_);

  ResourceLimits limits;
  limits.maxTuples = 1u << 30;
  limits.maxSteps = 1u << 30;
  limits.deadlineSeconds = 3600.0;
  ResourceGuard guard(limits);
  EvalOptions opts;
  opts.guard = &guard;
  smt::NativeSolver solver(db_.cvars());
  EvalResult governed = evalFaure(parse(kClosure), db_, &solver, opts);

  EXPECT_FALSE(plain.incomplete);
  EXPECT_FALSE(governed.incomplete);
  ASSERT_EQ(governed.relation("R").size(), plain.relation("R").size());
  for (const auto& row : plain.relation("R").rows()) {
    EXPECT_TRUE(governed.relation("R").conditionOf(row.vals).isTrue());
  }
}

TEST_F(EvalBudgetTest, ThrowOnBudgetRaisesBudgetExceeded) {
  loadChain(12);
  ResourceLimits limits;
  limits.maxTuples = 5;
  ResourceGuard guard(limits);
  EvalOptions opts;
  opts.guard = &guard;
  opts.throwOnBudget = true;
  try {
    eval(kClosure, opts);
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.budget(), "tuples");
    EXPECT_EQ(e.reason(), "tuples(limit=5)");
  }
}

TEST_F(EvalBudgetTest, FaultInjectionProducesDeterministicPartialResults) {
  loadChain(12);
  auto runWithFault = [&](uint64_t n) {
    ResourceGuard guard;
    guard.failAfter(n);
    EvalOptions opts;
    opts.guard = &guard;
    return eval(kClosure, opts);
  };
  EvalResult a = runWithFault(40);
  EvalResult b = runWithFault(40);
  EXPECT_TRUE(a.incomplete);
  EXPECT_EQ(a.tripped, Budget::Fault);
  EXPECT_EQ(a.relation("R").size(), b.relation("R").size());
  // A later fault admits at least as much work.
  EvalResult c = runWithFault(400);
  EXPECT_GE(c.relation("R").size(), a.relation("R").size());
}

TEST_F(EvalBudgetTest, SolverBudgetTripSurfacesThroughEvaluation) {
  // The evaluator shares its guard with the solver (ResourceGuardScope):
  // when the solver-check budget trips mid-evaluation, pruning degrades
  // to "keep" and the eval-side charges report the trip.
  loadChain(12);
  db_.cvars().declareInt("x_", 0, 1);
  ResourceLimits limits;
  limits.maxSolverChecks = 3;
  ResourceGuard guard(limits);
  EvalOptions opts;
  opts.guard = &guard;
  smt::NativeSolver solver(db_.cvars());
  EvalResult res =
      evalFaure(parse("R(x,y) :- E(x,y), x_ = 0.\n"
                      "R(x,y) :- E(x,z), R(z,y), x_ = 0.\n"),
                db_, &solver, opts);
  EXPECT_TRUE(res.incomplete);
  EXPECT_EQ(res.tripped, Budget::SolverChecks);
  EXPECT_GE(solver.stats().budgetTrips, 1u);
}

}  // namespace
}  // namespace faure::fl
