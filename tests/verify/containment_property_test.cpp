// Differential property test for §5: on positive constraint programs
// (where the classical canonical-database method is applicable), the
// fauré-log containment-by-evaluation reduction must agree with it.
#include <gtest/gtest.h>

#include "datalog/containment.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"
#include "verify/containment.hpp"

namespace faure::verify {
namespace {

/// Random positive 0-ary constraint over relations R0..R2 (arity 3) with
/// a mix of shared variables and constants.
dl::Program randomConstraint(util::Rng& rng, CVarRegistry& reg) {
  const char* consts[] = {"Mkt", "CS", "GS", "Web"};
  int atoms = 1 + static_cast<int>(rng.below(3));
  std::string text = "panic :- ";
  for (int i = 0; i < atoms; ++i) {
    if (i > 0) text += ", ";
    text += "R" + std::to_string(rng.below(3)) + "(";
    for (int a = 0; a < 3; ++a) {
      if (a > 0) text += ", ";
      if (rng.chance(0.35)) {
        text += consts[rng.below(4)];
      } else {
        // Shared variable pool keeps joins non-trivial.
        text += "v" + std::to_string(rng.below(4));
      }
    }
    text += ")";
  }
  text += ".";
  return dl::parseProgram(text, reg);
}

class ContainmentAgreement : public ::testing::TestWithParam<int> {};

TEST_P(ContainmentAgreement, ReductionMatchesClassical) {
  util::Rng rng(static_cast<uint64_t>(GetParam()) * 0x7f4a7c15u + 5);
  CVarRegistry reg;
  int agreeHold = 0;
  int agreeFail = 0;
  for (int trial = 0; trial < 40; ++trial) {
    dl::Program a = randomConstraint(rng, reg);
    dl::Program b = randomConstraint(rng, reg);
    bool classical = dl::constraintSubsumedCanonical(a, b);
    SubsumptionResult reduction =
        subsumes(Constraint{"a", a}, {Constraint{"b", b}}, reg);
    EXPECT_EQ(classical, reduction.subsumed)
        << "A:\n"
        << a.toString(&reg) << "B:\n"
        << b.toString(&reg);
    (classical ? agreeHold : agreeFail)++;
  }
  // The generator must exercise both outcomes for the test to mean
  // anything.
  EXPECT_GT(agreeFail, 0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ContainmentAgreement, ::testing::Range(0, 8));

TEST(ContainmentAgreementFixed, PositiveHoldingPairProduced) {
  // Deterministic sanity case where subsumption holds both ways.
  CVarRegistry reg;
  dl::Program specific =
      dl::parseProgram("panic :- R0(Mkt, CS, v0).", reg);
  dl::Program general = dl::parseProgram("panic :- R0(v0, v1, v2).", reg);
  EXPECT_TRUE(dl::constraintSubsumedCanonical(specific, general));
  EXPECT_TRUE(subsumes(Constraint{"s", specific}, {Constraint{"g", general}},
                       reg)
                  .subsumed);
  EXPECT_FALSE(dl::constraintSubsumedCanonical(general, specific));
  EXPECT_FALSE(subsumes(Constraint{"g", general}, {Constraint{"s", specific}},
                        reg)
                   .subsumed);
}

// The constraint union (DESIGN.md §5) concatenates the library's rules
// in constraint order, so constraints that share an IDB predicate name
// extend one another's definitions: here only C3 derives panic, from
// the Bad rules of C1 and C2.
std::vector<Constraint> sharedIdbLibrary(CVarRegistry& reg) {
  return {
      Constraint{"c1", dl::parseProgram("Bad(x) :- R0(x, CS, v).\n"
                                        "panic :- Bad(x), R1(x, x, x).\n",
                                        reg)},
      Constraint{"c2", dl::parseProgram("Bad(x) :- R0(x, GS, v).\n", reg)},
      Constraint{"c3", dl::parseProgram("panic :- Bad(x).\n", reg)},
  };
}

TEST(ConstraintUnion, SharedIdbNamesCoverAcrossConstraints) {
  CVarRegistry reg;
  dl::Program target = dl::parseProgram(
      "panic :- R0(Mkt, CS, v).\n"
      "panic :- R0(y, GS, Web).\n",
      reg);
  SubsumptionResult r =
      subsumes(Constraint{"t", target}, sharedIdbLibrary(reg), reg);
  EXPECT_TRUE(r.subsumed);
  EXPECT_FALSE(r.incomplete);
}

TEST(ConstraintUnion, SharedIdbNamesReportFirstUncoveredRule) {
  CVarRegistry reg;
  dl::Program target = dl::parseProgram(
      "panic :- R0(x, CS, v).\n"
      "panic :- R0(x, Web, v).\n"
      "panic :- R0(x, GS, v).\n",
      reg);
  SubsumptionResult r =
      subsumes(Constraint{"t", target}, sharedIdbLibrary(reg), reg);
  EXPECT_FALSE(r.subsumed);
  EXPECT_FALSE(r.incomplete);
  EXPECT_EQ(r.uncoveredRule, 1u);
  EXPECT_EQ(r.witness.toString(&reg), "panic :- R0(x, Web, v).");
}

/// The message of the EvalError `subsumes` throws ("" when it does not).
std::string subsumesError(const char* target, const char* known) {
  CVarRegistry reg;
  try {
    subsumes(Constraint{"t", dl::parseProgram(target, reg)},
             {Constraint{"k", dl::parseProgram(known, reg)}}, reg);
  } catch (const EvalError& e) {
    return e.what();
  }
  return "";
}

// The union is compiled once, before any canonical database exists
// (DESIGN.md §13): its own faults come first, and its arities meet each
// goal rule's canonical database when that rule evaluates.
TEST(ConstraintUnion, CompileErrorsPrecedeCanonicalArityErrors) {
  const char* target = "panic :- R(x, y).\n";
  EXPECT_EQ(subsumesError(target, "panic :- R(a, b, c).\n"),
            "eval error: predicate 'R' used with arity 3 and 2");
  const char* cyclic =
      "panic :- R(a, b, c), !P(a).\n"
      "P(a) :- R(a, b, c), !Q(a).\n"
      "Q(a) :- R(a, b, c), !P(a).\n";
  EXPECT_EQ(subsumesError(target, cyclic),
            "eval error: program is not stratifiable (recursion through "
            "negation involving 'Q')");
}

}  // namespace
}  // namespace faure::verify
