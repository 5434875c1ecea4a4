// Edge cases and hardening tests for the fauré-log evaluator.
#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "obs/trace.hpp"
#include "smt/solver.hpp"
#include "util/error.hpp"

namespace faure::fl {
namespace {

using smt::CmpOp;
using smt::Formula;

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

class EvalEdgeTest : public ::testing::Test {
 protected:
  rel::Database db_;
  dl::Program parse(const char* text) {
    return dl::parseProgram(text, db_.cvars());
  }
};

TEST_F(EvalEdgeTest, EmptyProgram) {
  auto res = evalFaure(parse(""), db_);
  EXPECT_TRUE(res.idb.empty());
}

TEST_F(EvalEdgeTest, FactOnlyProgram) {
  auto res = evalFaure(parse("Lb(Mkt, CS).\nLb(R&D, GS).\n"), db_);
  EXPECT_EQ(res.relation("Lb").size(), 2u);
}

TEST_F(EvalEdgeTest, BodylessRuleWithComparisonDerivesConditionally) {
  // A rule whose body is only a comparison derives its head under that
  // condition — the degenerate case of constraint rules.
  db_.cvars().declareInt("x_", 0, 1);
  auto res = evalFaure(parse("panic :- x_ = 1."), db_);
  Formula cond;
  ASSERT_TRUE(res.derived("panic", &cond));
  CVarId x = db_.cvars().find("x_");
  EXPECT_EQ(cond,
            Formula::cmp(Value::cvar(x), CmpOp::Eq, Value::fromInt(1)));
}

TEST_F(EvalEdgeTest, PrefixConstantsMatchAndCompare) {
  auto& t = db_.create(anySchema("T", 1));
  t.insertConcrete({Value::parsePrefix("10.0.0.0/8")});
  t.insertConcrete({Value::parsePrefix("10.0.0.0/16")});
  auto res = evalFaure(parse("Q(x) :- T(x), x != 10.0.0.0/16."), db_);
  ASSERT_EQ(res.relation("Q").size(), 1u);
  EXPECT_EQ(res.relation("Q").rows()[0].vals[0],
            Value::parsePrefix("10.0.0.0/8"));
}

TEST_F(EvalEdgeTest, PathConstantsInRules) {
  auto& t = db_.create(anySchema("T", 2));
  t.insertConcrete({Value::fromInt(1), Value::path({"A", "B"})});
  t.insertConcrete({Value::fromInt(2), Value::path({"C"})});
  auto res = evalFaure(parse("Q(x) :- T(x, [A B])."), db_);
  ASSERT_EQ(res.relation("Q").size(), 1u);
  EXPECT_EQ(res.relation("Q").rows()[0].vals[0], Value::fromInt(1));
}

TEST_F(EvalEdgeTest, ThreeStrataPipeline) {
  auto& e = db_.create(anySchema("E", 2));
  e.insertConcrete({Value::fromInt(1), Value::fromInt(2)});
  e.insertConcrete({Value::fromInt(2), Value::fromInt(3)});
  auto res = evalFaure(parse("Src(x) :- E(x,y).\n"
                             "NotSrc(y) :- E(x,y), !Src(y).\n"
                             "Alarm(y) :- NotSrc(y), !Whitelist(y).\n"
                             "Whitelist(3).\n"),
                       db_);
  // Src = {1,2}; NotSrc = {3}; Whitelist = {3}; Alarm empty.
  EXPECT_EQ(res.relation("Src").size(), 2u);
  EXPECT_EQ(res.relation("NotSrc").size(), 1u);
  EXPECT_TRUE(res.relation("Alarm").empty());
}

TEST_F(EvalEdgeTest, NegationOverSameStratumThrows) {
  db_.create(anySchema("E", 2));
  EXPECT_THROW(
      evalFaure(parse("Win(x) :- E(x,y), !Win(y)."), db_), EvalError);
}

TEST_F(EvalEdgeTest, SelfJoinOnCVarData) {
  // E(x, x) against a row (a_, b_): matches with condition a_ = b_.
  CVarId a = db_.cvars().declareInt("a_", 0, 3);
  CVarId b = db_.cvars().declareInt("b_", 0, 3);
  auto& e = db_.create(anySchema("E", 2));
  e.insertConcrete({Value::cvar(a), Value::cvar(b)});
  auto res = evalFaure(parse("Loop(x) :- E(x, x)."), db_);
  ASSERT_EQ(res.relation("Loop").size(), 1u);
  EXPECT_EQ(res.relation("Loop").rows()[0].cond,
            Formula::cmp(Value::cvar(a), CmpOp::Eq, Value::cvar(b)));
}

TEST_F(EvalEdgeTest, CVarJoinAcrossLiterals) {
  // Join through a variable bound to a c-variable: conditions must link
  // the two unknowns.
  CVarId a = db_.cvars().declareInt("a_", 0, 3);
  CVarId b = db_.cvars().declareInt("b_", 0, 3);
  auto& e = db_.create(anySchema("E", 2));
  auto& f = db_.create(anySchema("F", 2));
  e.insertConcrete({Value::fromInt(1), Value::cvar(a)});
  f.insertConcrete({Value::cvar(b), Value::fromInt(9)});
  auto res = evalFaure(parse("Q(x, z) :- E(x, y), F(y, z)."), db_);
  ASSERT_EQ(res.relation("Q").size(), 1u);
  EXPECT_EQ(res.relation("Q").rows()[0].cond,
            Formula::cmp(Value::cvar(a), CmpOp::Eq, Value::cvar(b)));
}

TEST_F(EvalEdgeTest, ConsolidateOffKeepsDuplicates) {
  CVarId x = db_.cvars().declareInt("x_", 0, 1);
  auto& e = db_.create(anySchema("E", 1));
  auto& f = db_.create(anySchema("F", 1));
  e.insert({Value::fromInt(7)}, Formula::cmp(Value::cvar(x), CmpOp::Eq,
                                             Value::fromInt(0)));
  f.insert({Value::fromInt(7)}, Formula::cmp(Value::cvar(x), CmpOp::Eq,
                                             Value::fromInt(1)));
  smt::NativeSolver solver(db_.cvars());
  EvalOptions opts;
  opts.consolidate = false;
  auto res = evalFaure(parse("Q(v) :- E(v).\nQ(v) :- F(v).\n"), db_,
                       &solver, opts);
  EXPECT_EQ(res.relation("Q").size(), 2u);
  // conditionOf still reports the OR of the duplicates.
  smt::NativeSolver judge(db_.cvars());
  EXPECT_TRUE(judge.implies(smt::Formula::top(),
                            res.relation("Q").conditionOf(
                                {Value::fromInt(7)})));
}

TEST_F(EvalEdgeTest, SimplifyResultsCollapsesValidConditions) {
  CVarId x = db_.cvars().declareInt("x_", 0, 1);
  auto& e = db_.create(anySchema("E", 1));
  auto& f = db_.create(anySchema("F", 1));
  e.insert({Value::fromInt(7)}, Formula::cmp(Value::cvar(x), CmpOp::Eq,
                                             Value::fromInt(0)));
  f.insert({Value::fromInt(7)}, Formula::cmp(Value::cvar(x), CmpOp::Eq,
                                             Value::fromInt(1)));
  smt::NativeSolver solver(db_.cvars());
  EvalOptions opts;
  opts.simplifyResults = true;
  auto res = evalFaure(parse("Q(v) :- E(v).\nQ(v) :- F(v).\n"), db_,
                       &solver, opts);
  ASSERT_EQ(res.relation("Q").size(), 1u);
  EXPECT_TRUE(res.relation("Q").rows()[0].cond.isTrue());
}

TEST_F(EvalEdgeTest, HeadCVarsSurviveIntoResults) {
  // The Vt(x_, CS, p_) pattern: heads may introduce c-variables.
  db_.cvars().declare("s_", ValueType::Sym);
  auto& r = db_.create(anySchema("R", 1));
  r.insertConcrete({Value::sym("Mkt")});
  auto res = evalFaure(parse("V(s_, CS) :- R(s_)."), db_);
  ASSERT_EQ(res.relation("V").size(), 1u);
  EXPECT_TRUE(res.relation("V").rows()[0].vals[0].isCVar());
  EXPECT_EQ(res.relation("V").rows()[0].vals[1], Value::sym("CS"));
}

TEST_F(EvalEdgeTest, ArityMismatchAgainstEdbThrows) {
  db_.create(anySchema("E", 2));
  EXPECT_THROW(evalFaure(parse("Q(x) :- E(x)."), db_), EvalError);
}

TEST_F(EvalEdgeTest, IterationCapTriggers) {
  auto& e = db_.create(anySchema("E", 2));
  for (int i = 0; i < 20; ++i) {
    e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
  }
  smt::NativeSolver solver(db_.cvars());
  EvalOptions opts;
  opts.maxIterations = 2;
  EXPECT_THROW(evalFaure(parse("R(x,y) :- E(x,y).\n"
                               "R(x,y) :- E(x,z), R(z,y).\n"),
                         db_, &solver, opts),
               EvalError);
}

TEST_F(EvalEdgeTest, ComparisonBetweenTwoBoundVars) {
  auto& e = db_.create(anySchema("E", 2));
  e.insertConcrete({Value::fromInt(3), Value::fromInt(5)});
  e.insertConcrete({Value::fromInt(5), Value::fromInt(3)});
  auto res = evalFaure(parse("Inc(x,y) :- E(x,y), x < y."), db_);
  ASSERT_EQ(res.relation("Inc").size(), 1u);
  EXPECT_EQ(res.relation("Inc").rows()[0].vals[0], Value::fromInt(3));
}

TEST_F(EvalEdgeTest, OrderedComparisonOnSymbolsThrows) {
  auto& e = db_.create(anySchema("E", 2));
  e.insertConcrete({Value::sym("A"), Value::sym("B")});
  EXPECT_THROW(evalFaure(parse("Q(x,y) :- E(x,y), x < y."), db_), TypeError);
}

// A firing with an empty positive relation is not planned (DESIGN.md
// §11); the next four pin what that skip must leave unchanged.

TEST_F(EvalEdgeTest, RuleOverEmptyEdbRelationDerivesNothing) {
  db_.create(anySchema("E", 1));
  auto& f = db_.create(anySchema("F", 1));
  f.insertConcrete({Value::fromInt(1)});
  for (PlanMode mode : {PlanMode::Off, PlanMode::On}) {
    smt::NativeSolver solver(db_.cvars());
    EvalOptions opts;
    opts.plan = mode;
    auto res = evalFaure(parse("H(x) :- F(x), E(x).\n"), db_, &solver, opts);
    EXPECT_EQ(res.relation("H").size(), 0u);
    EXPECT_EQ(res.stats.derivations, 0u);
  }
}

TEST_F(EvalEdgeTest, UnknownRelationBeforeEmptyOneStillThrows) {
  db_.create(anySchema("E", 1));
  try {
    evalFaure(parse("H(x) :- Missing(x), E(x).\n"), db_);
    FAIL() << "expected EvalError";
  } catch (const EvalError& e) {
    EXPECT_NE(std::string(e.what()).find("unknown relation 'Missing'"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(EvalEdgeTest, RecursiveRuleWhoseDeltaEmptiesKeepsItsTable) {
  // A and B share a stratum. B stops growing after the first round, so
  // from the second round on the firing with its delta at B(z,y) has an
  // empty range, while the one with its delta at A(x,z) keeps deriving.
  CVarId x = db_.cvars().declareInt("x_", 0, 1);
  Formula cond = Formula::cmp(Value::cvar(x), CmpOp::Eq, Value::fromInt(1));
  auto& e = db_.create(anySchema("E", 2));
  e.insertConcrete({Value::fromInt(0), Value::fromInt(1)});
  auto& f = db_.create(anySchema("F", 2));
  for (int i = 1; i < 6; ++i) {
    f.append({Value::fromInt(i), Value::fromInt(i + 1)},
             i == 5 ? cond : Formula::top());
  }
  const char* program =
      "A(x,y) :- E(x,y).\n"
      "B(x,y) :- F(x,y).\n"
      "A(x,y) :- A(x,z), B(z,y).\n";
  for (PlanMode mode : {PlanMode::Off, PlanMode::On}) {
    smt::NativeSolver solver(db_.cvars());
    EvalOptions opts;
    opts.plan = mode;
    auto res = evalFaure(parse(program), db_, &solver, opts);
    const rel::CTable& a = res.relation("A");
    ASSERT_EQ(a.size(), 6u);
    for (int y = 1; y <= 6; ++y) {
      EXPECT_EQ(a.conditionOf({Value::fromInt(0), Value::fromInt(y)}),
                y == 6 ? cond : Formula::top())
          << y;
    }
    EXPECT_EQ(res.relation("B").size(), 5u);
    EXPECT_EQ(res.stats.derivations, 12u);  // (0,2) twice in round 2
    EXPECT_EQ(res.stats.iterations, 7u);
  }
}

TEST_F(EvalEdgeTest, TracedEmptyFiringKeepsRuleEntriesButIsNotPlanned) {
  auto& f = db_.create(anySchema("F", 2));
  f.insertConcrete({Value::fromInt(1), Value::fromInt(2)});
  db_.create(anySchema("E", 1));
  obs::Tracer tracer;
  smt::NativeSolver solver(db_.cvars());
  EvalOptions opts;
  opts.tracer = &tracer;
  opts.plan = PlanMode::On;
  auto res = evalFaure(parse("H(x) :- F(x, y), E(y).\n"), db_, &solver, opts);
  EXPECT_EQ(res.relation("H").size(), 0u);
  bool sawRuleSpan = false;
  for (const auto& span : tracer.spans()) {
    if (span.name == "rule[0:H]") sawRuleSpan = true;
  }
  EXPECT_TRUE(sawRuleSpan);
  obs::MetricsSnapshot snap = tracer.metrics().snapshot();
  for (const char* name :
       {"eval.rule[0:H].derivations", "eval.rule[0:H].inserted",
        "eval.rule[0:H].pruned_unsat", "eval.rule[0:H].subsumed"}) {
    bool present = false;
    for (const auto& [key, value] : snap.counters) {
      if (key == name) {
        present = true;
        EXPECT_EQ(value, 0u) << name;
      }
    }
    EXPECT_TRUE(present) << name;
  }
  // The firing over the empty E is neither planned nor indexed.
  EXPECT_EQ(snap.counter("eval.plan.plans"), 0u);
  EXPECT_EQ(snap.counter("eval.plan.index_builds"), 0u);
}

}  // namespace
}  // namespace faure::fl
