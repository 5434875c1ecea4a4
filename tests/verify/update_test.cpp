// Tests for the update rewrite (verify/update.hpp) — Listing 4 semantics:
// C' holds before the update iff C holds after it.
#include "verify/update.hpp"

#include <gtest/gtest.h>

#include "faurelog/eval.hpp"
#include "verify/verifier.hpp"
#include "util/error.hpp"

namespace faure::verify {
namespace {

using dl::Term;

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

Term sym(const char* s) { return Term::constant_(Value::sym(s)); }

/// Applies an update concretely to a ground database.
void applyUpdate(rel::Database& db, const Update& u) {
  for (const auto& op : u.ops) {
    std::vector<Value> vals;
    for (const auto& t : op.tuple) vals.push_back(t.asValue());
    if (!db.has(op.pred)) db.create(anySchema(op.pred, vals.size()));
    if (op.kind == UpdateOp::Kind::Insert) {
      db.table(op.pred).insertConcrete(vals);
    } else {
      db.table(op.pred).pruneIf(
          [&](const rel::Row& r) { return r.vals == vals; });
    }
  }
}

class UpdateTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  Constraint parse(const char* name, const char* text) {
    return Constraint::parse(name, text, reg_);
  }
};

TEST_F(UpdateTest, PositiveLiteralInsertAddsEqualityRule) {
  Constraint c = parse("c", "panic :- Lb(Mkt, CS).");
  Update u;
  u.insert("Lb", {sym("Mkt"), sym("CS")});
  Constraint c2 = rewriteForUpdate(c, u);
  // Two rules: the original plus the trivially-true tuple-equality one.
  ASSERT_EQ(c2.program.rules.size(), 2u);
  // One of them has an empty body (the equality folded away entirely).
  bool foundEmpty = false;
  for (const auto& r : c2.program.rules) {
    if (r.body.empty() && r.cmps.empty()) foundEmpty = true;
  }
  EXPECT_TRUE(foundEmpty);
}

TEST_F(UpdateTest, PositiveLiteralDeleteForksPerColumn) {
  Constraint c = parse("c", "panic :- Lb(x_, y_).");
  Update u;
  u.remove("Lb", {sym("Mkt"), sym("CS")});
  Constraint c2 = rewriteForUpdate(c, u);
  ASSERT_EQ(c2.program.rules.size(), 2u);
  for (const auto& r : c2.program.rules) {
    ASSERT_EQ(r.body.size(), 1u);
    ASSERT_EQ(r.cmps.size(), 1u);
    EXPECT_EQ(r.cmps[0].op, smt::CmpOp::Ne);
  }
}

TEST_F(UpdateTest, NegatedLiteralRewrite) {
  // The paper's T2 under Listing 4's update.
  reg_.declare("y_", ValueType::Sym, {Value::sym("CS"), Value::sym("GS")});
  Constraint t2 = parse("T2", "panic :- R(R&D, y_, 7000), !Lb(R&D, y_).");
  Update u;
  u.insert("Lb", {sym("R&D"), sym("GS")});
  u.remove("Lb", {sym("Mkt"), sym("CS")});
  Constraint t2p = rewriteForUpdate(t2, u);
  // Expected single surviving rule: panic :- R(R&D,y_,7000),
  // !Lb(R&D,y_), y_ != GS. (The R&D != R&D fork and the R&D = Mkt branch
  // both fold away.)
  ASSERT_EQ(t2p.program.rules.size(), 1u);
  const auto& r = t2p.program.rules[0];
  EXPECT_EQ(r.body.size(), 2u);
  ASSERT_EQ(r.cmps.size(), 1u);
  EXPECT_EQ(r.cmps[0].op, smt::CmpOp::Ne);
}

TEST_F(UpdateTest, GroundTruthEquivalenceOnConcreteStates) {
  // For every small concrete state: C' before the update <=> C after it.
  reg_.declare("s_", ValueType::Sym, {Value::sym("A"), Value::sym("B")});
  Constraint c = parse("c", "panic :- R(A, s_), !Lb(A, s_).");
  Update u;
  u.insert("Lb", {sym("A"), sym("B")});
  u.remove("Lb", {sym("A"), sym("A")});
  Constraint cp = rewriteForUpdate(c, u);

  // Enumerate all states over R, Lb ⊆ {A} x {A,B}.
  for (int mask = 0; mask < 16; ++mask) {
    rel::Database before;
    before.cvars() = reg_;
    before.create(anySchema("R", 2));
    before.create(anySchema("Lb", 2));
    const char* servers[] = {"A", "B"};
    for (int i = 0; i < 2; ++i) {
      if (mask & (1 << i)) {
        before.table("R").insertConcrete(
            {Value::sym("A"), Value::sym(servers[i])});
      }
      if (mask & (4 << i)) {
        before.table("Lb").insertConcrete(
            {Value::sym("A"), Value::sym(servers[i])});
      }
    }
    rel::Database after;
    after.cvars() = reg_;
    after.put(before.table("R"));
    after.put(before.table("Lb"));
    applyUpdate(after, u);

    smt::NativeSolver s1(before.cvars());
    smt::NativeSolver s2(after.cvars());
    auto primeBefore = fl::evalFaure(cp.program, before, &s1,
                                     fl::EvalOptions{});
    auto origAfter = fl::evalFaure(c.program, after, &s2, fl::EvalOptions{});
    smt::Formula f1, f2;
    primeBefore.derived("panic", &f1);
    origAfter.derived("panic", &f2);
    smt::NativeSolver judge(before.cvars());
    EXPECT_TRUE(judge.equivalent(f1, f2)) << "state mask " << mask;
  }
}

TEST_F(UpdateTest, InsertKillingNegatedLiteralDropsRule) {
  // T1 under +Fw(s,v): !Fw('s','v') has no surviving variant, so the rule
  // is false in every post-update state and is dropped; the other rule
  // of the constraint survives untouched.
  Constraint t1 = parse("T1",
                        "panic :- R('s', 'v', p_), !Fw('s', 'v').\n"
                        "panic :- R('s', 'w', p_), !Fw('s', 'w').");
  Update u;
  u.insert("Fw", {sym("s"), sym("v")});
  Constraint t1p = rewriteForUpdate(t1, u);
  ASSERT_EQ(t1p.program.rules.size(), 1u);
  EXPECT_EQ(t1p.program.rules[0].toString(),
            t1.program.rules[1].toString());
}

TEST_F(UpdateTest, CheckWithUpdateHoldsWhenEveryRuleDies) {
  Constraint t1 = parse("T1", "panic :- R('s', 'v', p_), !Fw('s', 'v').");
  Update u;
  u.insert("Fw", {sym("s"), sym("v")});
  EXPECT_TRUE(rewriteForUpdate(t1, u).program.rules.empty());
  RelativeVerifier v(reg_);
  EXPECT_EQ(v.checkWithUpdate(t1, {}, u), Verdict::Holds);
}

TEST_F(UpdateTest, RuleOverEmptiedDerivedPredicateDies) {
  // Two levels: the update kills Bad's only rule, so Bad is empty after
  // it and the goal rule reading Bad must die too, not see Bad as an
  // unconstrained base relation.
  Constraint c = parse("T1",
                       "Bad(p_) :- R('s', 'v', p_), !Fw('s', 'v').\n"
                       "panic :- Bad(p_).");
  Update u;
  u.insert("Fw", {sym("s"), sym("v")});
  EXPECT_TRUE(rewriteForUpdate(c, u).program.rules.empty());
  RelativeVerifier v(reg_);
  EXPECT_EQ(v.checkWithUpdate(c, {}, u), Verdict::Holds);
}

TEST_F(UpdateTest, NegatedLiteralOverEmptiedDerivedPredicateIsDropped) {
  Constraint c = parse("T1",
                       "Bad(p_) :- R('s', 'v', p_), !Fw('s', 'v').\n"
                       "panic :- R('s', 'w', p_), !Bad(p_).");
  Update u;
  u.insert("Fw", {sym("s"), sym("v")});
  Constraint cp = rewriteForUpdate(c, u);
  ASSERT_EQ(cp.program.rules.size(), 1u);
  EXPECT_EQ(cp.program.rules[0].toString(),
            parse("E", "panic :- R('s', 'w', p_).")
                .program.rules[0]
                .toString());
}

TEST_F(UpdateTest, ArityMismatchThrows) {
  Constraint c = parse("c", "panic :- Lb(Mkt, CS).");
  Update u;
  u.insert("Lb", {sym("Mkt")});
  EXPECT_THROW(rewriteForUpdate(c, u), EvalError);
}

TEST_F(UpdateTest, ProgramVariableInTupleThrows) {
  Constraint c = parse("c", "panic :- Lb(Mkt, CS).");
  Update u;
  u.insert("Lb", {Term::variable("x"), sym("CS")});
  EXPECT_THROW(rewriteForUpdate(c, u), EvalError);
}

TEST_F(UpdateTest, UnrelatedPredicatesUntouched) {
  Constraint c = parse("c", "panic :- R(Mkt, CS, p_), !Fw(Mkt, CS).");
  Update u;
  u.insert("Lb", {sym("R&D"), sym("GS")});
  Constraint c2 = rewriteForUpdate(c, u);
  ASSERT_EQ(c2.program.rules.size(), 1u);
  EXPECT_EQ(c2.program.rules[0].toString(), c.program.rules[0].toString());
}

}  // namespace
}  // namespace faure::verify
