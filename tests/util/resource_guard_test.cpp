// Unit tests for resource governance (util/resource_guard.hpp): budget
// accounting, deadline sampling, cancellation, fault injection, and the
// strict-mode error type.
#include "util/resource_guard.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "util/error.hpp"
#include "util/timer.hpp"

namespace faure {
namespace {

TEST(ResourceGuardTest, DefaultGuardIsInactiveAndNeverTrips) {
  ResourceGuard g;
  EXPECT_FALSE(g.active());
  for (int i = 0; i < 1000; ++i) {
    EXPECT_TRUE(g.chargeSteps());
    EXPECT_TRUE(g.chargeTuples());
    EXPECT_TRUE(g.chargeSolverChecks());
    EXPECT_TRUE(g.chargeMemory(1 << 20));
    EXPECT_TRUE(g.checkDeadline());
  }
  EXPECT_FALSE(g.tripped());
  EXPECT_EQ(g.trippedBudget(), Budget::None);
  EXPECT_EQ(g.reason(), "");
  // Inactive guards do not count work.
  EXPECT_EQ(g.counters().charges, 0u);
}

TEST(ResourceGuardTest, StepBudgetTripsExactlyAtTheLimit) {
  ResourceLimits limits;
  limits.maxSteps = 10;
  ResourceGuard g(limits);
  EXPECT_TRUE(g.active());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(g.chargeSteps());
  EXPECT_FALSE(g.chargeSteps());
  EXPECT_EQ(g.trippedBudget(), Budget::Steps);
  EXPECT_EQ(g.reason(), "steps(limit=10)");
  // Tripped guards stay tripped for every class.
  EXPECT_FALSE(g.chargeTuples());
  EXPECT_FALSE(g.checkDeadline());
}

TEST(ResourceGuardTest, DeadlineReasonUsesTheShortestDecimal) {
  for (auto [seconds, want] :
       {std::pair<double, const char*>{0.05, "deadline(limit=0.05s)"},
        {0.015, "deadline(limit=0.015s)"}}) {
    ResourceLimits limits;
    limits.deadlineSeconds = seconds;
    ResourceGuard g(limits);
    std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
    EXPECT_FALSE(g.checkDeadline());
    EXPECT_EQ(g.reason(), want);
  }
}

TEST(ResourceGuardTest, BudgetClassesAreIndependent) {
  ResourceLimits limits;
  limits.maxTuples = 2;
  ResourceGuard g(limits);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(g.chargeSteps());
  EXPECT_TRUE(g.chargeTuples(2));
  EXPECT_FALSE(g.chargeTuples());
  EXPECT_EQ(g.trippedBudget(), Budget::Tuples);
}

TEST(ResourceGuardTest, MemoryChargesAccumulateBytes) {
  ResourceLimits limits;
  limits.maxMemoryBytes = 1024;
  ResourceGuard g(limits);
  EXPECT_TRUE(g.chargeMemory(512));
  EXPECT_TRUE(g.chargeMemory(512));
  EXPECT_FALSE(g.chargeMemory(1));
  EXPECT_EQ(g.trippedBudget(), Budget::Memory);
}

TEST(ResourceGuardTest, DeadlineTripsAndIsObservedPromptly) {
  ResourceLimits limits;
  limits.deadlineSeconds = 0.02;
  ResourceGuard g(limits);
  util::Stopwatch watch;
  // The engine charges in a loop; the guard must trip within ~2x the
  // configured deadline even with amortized clock sampling.
  while (g.chargeSteps()) {
    ASSERT_LT(watch.elapsed(), 2.0) << "deadline never observed";
  }
  EXPECT_EQ(g.trippedBudget(), Budget::Deadline);
  EXPECT_LT(watch.elapsed(), 2 * 0.02 + 0.05);
  EXPECT_EQ(g.remainingSeconds(), 0.0);
}

TEST(ResourceGuardTest, RemainingSecondsIsInfiniteWithoutDeadline) {
  ResourceLimits limits;
  limits.maxSteps = 5;
  ResourceGuard g(limits);
  EXPECT_TRUE(std::isinf(g.remainingSeconds()));
}

TEST(ResourceGuardTest, CancellationTripsAtTheNextCharge) {
  ResourceLimits limits;
  limits.maxSteps = 1u << 30;  // active, but no budget will trip
  ResourceGuard g(limits);
  EXPECT_TRUE(g.chargeSteps());
  g.cancel();
  EXPECT_FALSE(g.chargeSteps());
  EXPECT_EQ(g.trippedBudget(), Budget::Cancelled);
  EXPECT_EQ(g.reason(), "cancelled");
}

TEST(ResourceGuardTest, FaultInjectionTripsOnTheNthCharge) {
  ResourceGuard g;
  g.failAfter(3);
  EXPECT_TRUE(g.active());
  EXPECT_TRUE(g.chargeSteps());
  EXPECT_TRUE(g.chargeTuples());  // classes share the fault clock
  EXPECT_FALSE(g.chargeSolverChecks());
  EXPECT_EQ(g.trippedBudget(), Budget::Fault);
  EXPECT_NE(g.reason().find("fault-injection"), std::string::npos);
}

TEST(ResourceGuardTest, RearmClearsTheTripAndRestartsCounters) {
  ResourceLimits limits;
  limits.maxSteps = 1;
  ResourceGuard g(limits);
  EXPECT_TRUE(g.chargeSteps());
  EXPECT_FALSE(g.chargeSteps());
  g.rearm();
  EXPECT_FALSE(g.tripped());
  EXPECT_EQ(g.counters().steps, 0u);
  EXPECT_TRUE(g.chargeSteps());
  EXPECT_FALSE(g.chargeSteps());
}

TEST(ResourceGuardTest, ArmWithEmptyLimitsDeactivates) {
  ResourceLimits limits;
  limits.maxSteps = 1;
  ResourceGuard g(limits);
  g.arm(ResourceLimits{});
  EXPECT_FALSE(g.active());
  for (int i = 0; i < 10; ++i) EXPECT_TRUE(g.chargeSteps());
}

TEST(ResourceGuardTest, FromEnvReadsAllKnobs) {
  ::setenv("FAURE_DEADLINE", "1.5", 1);
  ::setenv("FAURE_MAX_STEPS", "100", 1);
  ::setenv("FAURE_MAX_TUPLES", "200", 1);
  ::setenv("FAURE_MAX_SOLVER_CHECKS", "300", 1);
  ::setenv("FAURE_MAX_MEMORY", "400", 1);
  ::setenv("FAURE_FAIL_AFTER", "500", 1);
  ResourceLimits limits = ResourceLimits::fromEnv();
  EXPECT_DOUBLE_EQ(limits.deadlineSeconds, 1.5);
  EXPECT_EQ(limits.maxSteps, 100u);
  EXPECT_EQ(limits.maxTuples, 200u);
  EXPECT_EQ(limits.maxSolverChecks, 300u);
  EXPECT_EQ(limits.maxMemoryBytes, 400u);
  EXPECT_EQ(limits.failAfter, 500u);
  ::unsetenv("FAURE_DEADLINE");
  ::unsetenv("FAURE_MAX_STEPS");
  ::unsetenv("FAURE_MAX_TUPLES");
  ::unsetenv("FAURE_MAX_SOLVER_CHECKS");
  ::unsetenv("FAURE_MAX_MEMORY");
  ::unsetenv("FAURE_FAIL_AFTER");
  EXPECT_FALSE(ResourceLimits::fromEnv().any());
}

TEST(ResourceGuardTest, ThrowTrippedCarriesKindAndLimit) {
  ResourceLimits limits;
  limits.maxTuples = 7;
  ResourceGuard g(limits);
  while (g.chargeTuples()) {
  }
  try {
    g.throwTripped();
    FAIL() << "expected BudgetExceeded";
  } catch (const BudgetExceeded& e) {
    EXPECT_EQ(e.budget(), "tuples");
    EXPECT_EQ(e.reason(), "tuples(limit=7)");
    EXPECT_NE(std::string(e.what()).find("tuples(limit=7)"),
              std::string::npos);
  }
  // BudgetExceeded is catchable through the family hierarchy.
  ResourceGuard h;
  h.failAfter(1);
  h.chargeSteps();
  EXPECT_THROW(h.throwTripped(), ResourceError);
  EXPECT_THROW(h.throwTripped(), Error);
}

TEST(ResourceGuardTest, OnTripCallbackFiresOnceWithReason) {
  ResourceLimits limits;
  limits.maxTuples = 2;
  ResourceGuard guard(limits);
  int fired = 0;
  Budget seenKind = Budget::None;
  std::string seenReason;
  guard.onTrip([&](Budget kind, const std::string& reason) {
    ++fired;
    seenKind = kind;
    seenReason = reason;
  });
  EXPECT_TRUE(guard.chargeTuples(1));
  EXPECT_TRUE(guard.chargeTuples(1));
  EXPECT_FALSE(guard.chargeTuples(1));  // trips here
  EXPECT_FALSE(guard.chargeTuples(1));  // already tripped: no re-fire
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(seenKind, Budget::Tuples);
  EXPECT_EQ(seenReason, guard.reason());
  EXPECT_EQ(seenReason, "tuples(limit=2)");

  // rearm() restores the budget; the callback stays attached.
  guard.rearm();
  EXPECT_TRUE(guard.chargeTuples(2));
  EXPECT_FALSE(guard.chargeTuples(1));
  EXPECT_EQ(fired, 2);

  guard.onTrip(nullptr);  // detach
  guard.rearm();
  guard.chargeTuples(3);
  EXPECT_EQ(fired, 2);
}

}  // namespace
}  // namespace faure
