// Unit tests for the condition-formula AST and its constructor
// normalization (smt/formula.hpp).
#include "smt/formula.hpp"

#include <gtest/gtest.h>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace faure::smt {
namespace {

using faure::Value;

class FormulaTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId x_ = reg_.declareInt("x_", 0, 1);
  CVarId y_ = reg_.declareInt("y_", 0, 1);
  CVarId p_ = reg_.declare("p_", ValueType::Int);

  Value xv() const { return Value::cvar(x_); }
  Value yv() const { return Value::cvar(y_); }
  Value pv() const { return Value::cvar(p_); }
};

TEST_F(FormulaTest, DefaultIsTrue) {
  Formula f;
  EXPECT_TRUE(f.isTrue());
  EXPECT_EQ(f, Formula::top());
}

TEST_F(FormulaTest, ConstantComparisonFolds) {
  EXPECT_TRUE(Formula::cmp(Value::fromInt(3), CmpOp::Eq, Value::fromInt(3))
                  .isTrue());
  EXPECT_TRUE(Formula::cmp(Value::fromInt(3), CmpOp::Eq, Value::fromInt(4))
                  .isFalse());
  EXPECT_TRUE(Formula::cmp(Value::fromInt(3), CmpOp::Lt, Value::fromInt(4))
                  .isTrue());
}

TEST_F(FormulaTest, SymbolEqualityFolds) {
  EXPECT_TRUE(
      Formula::cmp(Value::sym("Mkt"), CmpOp::Eq, Value::sym("Mkt")).isTrue());
  EXPECT_TRUE(
      Formula::cmp(Value::sym("Mkt"), CmpOp::Eq, Value::sym("CS")).isFalse());
  EXPECT_TRUE(
      Formula::cmp(Value::sym("Mkt"), CmpOp::Ne, Value::sym("CS")).isTrue());
}

TEST_F(FormulaTest, OrderedComparisonOnSymbolsThrows) {
  EXPECT_THROW(
      Formula::cmp(Value::sym("A"), CmpOp::Lt, Value::sym("B")), TypeError);
}

TEST_F(FormulaTest, SameVariableFolds) {
  EXPECT_TRUE(Formula::cmp(xv(), CmpOp::Eq, xv()).isTrue());
  EXPECT_TRUE(Formula::cmp(xv(), CmpOp::Ne, xv()).isFalse());
  EXPECT_TRUE(Formula::cmp(xv(), CmpOp::Le, xv()).isTrue());
  EXPECT_TRUE(Formula::cmp(xv(), CmpOp::Lt, xv()).isFalse());
}

TEST_F(FormulaTest, NormalizesConstantToRight) {
  Formula a = Formula::cmp(Value::fromInt(5), CmpOp::Lt, xv());
  Formula b = Formula::cmp(xv(), CmpOp::Gt, Value::fromInt(5));
  EXPECT_EQ(a, b);
}

TEST_F(FormulaTest, NormalizesVariableOrder) {
  Formula a = Formula::cmp(yv(), CmpOp::Eq, xv());
  Formula b = Formula::cmp(xv(), CmpOp::Eq, yv());
  EXPECT_EQ(a, b);
}

TEST_F(FormulaTest, ConjunctionFlattensAndDedups) {
  Formula atom = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  Formula f = Formula::conj({atom, Formula::conj({atom, Formula::top()})});
  EXPECT_EQ(f, atom);
}

TEST_F(FormulaTest, ConjunctionOrderInsensitive) {
  Formula a = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  Formula b = Formula::cmp(yv(), CmpOp::Eq, Value::fromInt(0));
  EXPECT_EQ(Formula::conj({a, b}), Formula::conj({b, a}));
  EXPECT_EQ(Formula::disj({a, b}), Formula::disj({b, a}));
}

TEST_F(FormulaTest, ConjunctionWithFalseIsFalse) {
  Formula a = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  EXPECT_TRUE(Formula::conj({a, Formula::bottom()}).isFalse());
}

TEST_F(FormulaTest, ConjunctionOfComplementsIsFalse) {
  Formula a = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  EXPECT_TRUE(Formula::conj({a, Formula::neg(a)}).isFalse());
}

TEST_F(FormulaTest, DisjunctionOfComplementsIsTrue) {
  Formula a = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  EXPECT_TRUE(Formula::disj({a, Formula::neg(a)}).isTrue());
}

TEST_F(FormulaTest, CmpComplementsFoldAcrossOperandFlipping) {
  // 5 < x normalizes to x > 5, whose complement is x <= 5.
  Formula a = Formula::cmp(Value::fromInt(5), CmpOp::Lt, xv());
  Formula b = Formula::cmp(xv(), CmpOp::Le, Value::fromInt(5));
  EXPECT_TRUE(Formula::conj({a, b}).isFalse());
  EXPECT_TRUE(Formula::conj2(b, a).isFalse());
  EXPECT_TRUE(Formula::disj({b, a}).isTrue());
  EXPECT_TRUE(Formula::disj2(a, b).isTrue());
  // y < x normalizes to x > y; its complement is x <= y.
  Formula c = Formula::cmp(yv(), CmpOp::Lt, xv());
  Formula d = Formula::cmp(xv(), CmpOp::Le, yv());
  EXPECT_TRUE(Formula::conj2(c, d).isFalse());
  EXPECT_TRUE(Formula::disj2(d, c).isTrue());
  // Same sides, non-complementary operators: no folding.
  Formula e = Formula::cmp(xv(), CmpOp::Lt, Value::fromInt(5));
  EXPECT_EQ(Formula::conj2(a, e).kind(), Formula::Kind::And);
  EXPECT_EQ(Formula::disj2(a, e).kind(), Formula::Kind::Or);
}

TEST_F(FormulaTest, LinComplementsFoldAfterSignNormalization) {
  // x + y - 1 = 0 and -x - y + 1 != 0 (normalized to x + y - 1 != 0).
  Formula eq = Formula::lin(LinTerm::make({{x_, 1}, {y_, 1}}, -1), CmpOp::Eq);
  Formula ne =
      Formula::lin(LinTerm::make({{x_, -1}, {y_, -1}}, 1), CmpOp::Ne);
  EXPECT_EQ(ne, Formula::neg(eq));
  EXPECT_TRUE(Formula::conj2(eq, ne).isFalse());
  EXPECT_TRUE(Formula::disj({ne, eq}).isTrue());
  // Ordered operators keep the sign: -x + 2y < 0 against -x + 2y >= 0.
  LinTerm t = LinTerm::make({{x_, -1}, {y_, 2}}, 0);
  Formula lt = Formula::lin(t, CmpOp::Lt);
  Formula ge = Formula::lin(t, CmpOp::Ge);
  EXPECT_TRUE(Formula::conj({lt, ge}).isFalse());
  EXPECT_TRUE(Formula::disj2(ge, lt).isTrue());
  // A mirrored term under an ordered operator is a different atom.
  Formula mirrored = Formula::lin(t.scaled(-1), CmpOp::Ge);
  EXPECT_EQ(Formula::conj2(lt, mirrored).kind(), Formula::Kind::And);
  // -x + 3 < 0 lowers to the Cmp atom x > 3; x <= 3 is its complement.
  Formula lowered = Formula::lin(LinTerm::make({{x_, -1}}, 3), CmpOp::Lt);
  EXPECT_EQ(lowered, Formula::cmp(xv(), CmpOp::Gt, Value::fromInt(3)));
  EXPECT_TRUE(
      Formula::conj2(lowered, Formula::cmp(xv(), CmpOp::Le, Value::fromInt(3)))
          .isFalse());
}

TEST_F(FormulaTest, CompoundChildBesideFlattenedComplementIsKept) {
  // !(a | b) is !a & !b, but flattening spreads it over siblings, so the
  // conjunction is not folded: it stays a three-child And.
  Formula a = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  Formula b = Formula::cmp(yv(), CmpOp::Eq, Value::fromInt(0));
  Formula f =
      Formula::conj({Formula::disj2(a, b), Formula::neg(a), Formula::neg(b)});
  EXPECT_EQ(f.toString(&reg_), "(y_ = 0 | x_ = 1) & y_ != 0 & x_ != 1");
  Formula g =
      Formula::disj({Formula::conj2(a, b), Formula::neg(a), Formula::neg(b)});
  EXPECT_EQ(g.toString(&reg_), "(y_ = 0 & x_ = 1) | y_ != 0 | x_ != 1");
}

TEST_F(FormulaTest, BinaryConstructorsMatchNary) {
  // Random formulas over two variables and a few constants, built with
  // every constructor; conj2/disj2 must return the very node conj/disj
  // builds, and two distinct atoms fold exactly when one is the other's
  // negation.
  util::Rng rng(20211110);
  const CmpOp ops[] = {CmpOp::Eq, CmpOp::Ne, CmpOp::Lt,
                       CmpOp::Le, CmpOp::Gt, CmpOp::Ge};
  auto randomAtom = [&]() {
    CmpOp op = ops[rng.below(6)];
    switch (rng.below(3)) {
      case 0:
        return Formula::cmp(rng.chance(0.5) ? xv() : yv(), op,
                            Value::fromInt(rng.range(0, 2)));
      case 1:
        return Formula::cmp(rng.chance(0.5) ? xv() : pv(), op,
                            rng.chance(0.5) ? yv() : Value::fromInt(1));
      default:
        return Formula::lin(LinTerm::make({{x_, rng.range(-2, 2)},
                                           {y_, rng.range(-2, 2)},
                                           {p_, rng.range(-1, 1)}},
                                          rng.range(-2, 2)),
                            op);
    }
  };
  std::vector<Formula> pool = {Formula::top(), Formula::bottom()};
  for (int i = 0; i < 40; ++i) pool.push_back(randomAtom());
  for (int i = 0; i < 160; ++i) {
    const Formula& a = pool[rng.below(pool.size())];
    const Formula& b = pool[rng.below(pool.size())];
    switch (rng.below(3)) {
      case 0:
        pool.push_back(Formula::conj({a, b, pool[rng.below(pool.size())]}));
        break;
      case 1:
        pool.push_back(Formula::disj({a, b}));
        break;
      default:
        pool.push_back(Formula::neg(a));
        break;
    }
  }
  for (int i = 0; i < 4000; ++i) {
    const Formula& a = pool[rng.below(pool.size())];
    const Formula& b = pool[rng.below(pool.size())];
    ASSERT_EQ(Formula::conj2(a, b), Formula::conj({a, b}))
        << a.toString(&reg_) << " AND " << b.toString(&reg_);
    ASSERT_EQ(Formula::disj2(a, b), Formula::disj({a, b}))
        << a.toString(&reg_) << " OR " << b.toString(&reg_);
    if (a.isAtom() && b.isAtom() && a != b) {
      EXPECT_EQ(Formula::conj2(a, b).isFalse(), Formula::neg(a) == b);
      EXPECT_EQ(Formula::disj2(a, b).isTrue(), Formula::neg(a) == b);
    }
  }
}

TEST_F(FormulaTest, NegationPushesIntoComparison) {
  Formula a = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  Formula na = Formula::neg(a);
  EXPECT_EQ(na, Formula::cmp(xv(), CmpOp::Ne, Value::fromInt(1)));
  EXPECT_EQ(Formula::neg(na), a);
}

TEST_F(FormulaTest, DeMorgan) {
  Formula a = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  Formula b = Formula::cmp(yv(), CmpOp::Eq, Value::fromInt(0));
  Formula f = Formula::neg(Formula::conj({a, b}));
  EXPECT_EQ(f, Formula::disj({Formula::neg(a), Formula::neg(b)}));
}

TEST_F(FormulaTest, LinearFoldsConstant) {
  EXPECT_TRUE(Formula::lin(LinTerm::make({}, 0), CmpOp::Eq).isTrue());
  EXPECT_TRUE(Formula::lin(LinTerm::make({}, 1), CmpOp::Eq).isFalse());
  EXPECT_TRUE(Formula::lin(LinTerm::make({}, -1), CmpOp::Lt).isTrue());
}

TEST_F(FormulaTest, LinearLowersSingleUnitVariable) {
  // x - 1 = 0 should lower to x = 1.
  Formula f = Formula::lin(LinTerm::make({{x_, 1}}, -1), CmpOp::Eq);
  EXPECT_EQ(f, Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1)));
  // -x + 1 = 0 also lowers to x = 1.
  Formula g = Formula::lin(LinTerm::make({{x_, -1}}, 1), CmpOp::Eq);
  EXPECT_EQ(g, Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1)));
}

TEST_F(FormulaTest, LinTermArithmetic) {
  LinTerm a = LinTerm::make({{x_, 1}, {y_, 2}}, 3);
  LinTerm b = LinTerm::make({{y_, 2}, {x_, 1}}, 3);
  EXPECT_EQ(a, b);
  LinTerm diff = a.minus(b);
  EXPECT_TRUE(diff.isConstant());
  EXPECT_EQ(diff.cst, 0);
  LinTerm sum = a.plus(a);
  EXPECT_EQ(sum, a.scaled(2));
}

TEST_F(FormulaTest, LinTermMergesDuplicateEntries) {
  LinTerm t = LinTerm::make({{x_, 1}, {x_, 2}, {y_, 1}, {y_, -1}}, 0);
  ASSERT_EQ(t.coefs.size(), 1u);
  EXPECT_EQ(t.coefs[0].first, x_);
  EXPECT_EQ(t.coefs[0].second, 3);
}

TEST_F(FormulaTest, ToStringUsesRegistryNames) {
  Formula f = Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1));
  EXPECT_EQ(f.toString(&reg_), "x_ = 1");
  Formula g = Formula::lin(LinTerm::make({{x_, 1}, {y_, 1}}, -1), CmpOp::Eq);
  EXPECT_EQ(g.toString(&reg_), "x_ + y_ - 1 = 0");
}

TEST_F(FormulaTest, CollectVars) {
  Formula f = Formula::conj2(
      Formula::cmp(xv(), CmpOp::Eq, Value::fromInt(1)),
      Formula::lin(LinTerm::make({{y_, 1}, {p_, 1}}, 0), CmpOp::Ge));
  std::vector<CVarId> vars;
  f.collectVars(vars);
  EXPECT_EQ(vars.size(), 3u);
}

}  // namespace
}  // namespace faure::smt
