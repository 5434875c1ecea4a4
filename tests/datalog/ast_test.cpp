// AST construction and printing tests (datalog/ast.hpp).
#include "datalog/ast.hpp"

#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "util/error.hpp"

namespace faure::dl {
namespace {

TEST(AstTest, TermFactories) {
  Term c = Term::constant_(Value::fromInt(5));
  Term v = Term::variable("x");
  Term cv = Term::cvariable(3);
  EXPECT_TRUE(c.isConst());
  EXPECT_TRUE(v.isVar());
  EXPECT_TRUE(cv.isCVar());
  EXPECT_EQ(c.asValue(), Value::fromInt(5));
  EXPECT_EQ(cv.asValue(), Value::cvar(3));
  EXPECT_THROW(v.asValue(), EvalError);
}

TEST(AstTest, TermEquality) {
  EXPECT_EQ(Term::variable("x"), Term::variable("x"));
  EXPECT_FALSE(Term::variable("x") == Term::variable("y"));
  EXPECT_FALSE(Term::variable("x") == Term::constant_(Value::sym("x")));
  EXPECT_EQ(Term::cvariable(1), Term::cvariable(1));
}

TEST(AstTest, LinExprHelpers) {
  LinExpr e = LinExpr::of(Term::variable("x"));
  EXPECT_TRUE(e.isSingleTerm());
  LinExpr k = LinExpr::constant(4);
  EXPECT_FALSE(k.isSingleTerm());
  EXPECT_EQ(k.cst, 4);
}

TEST(AstTest, RuleToStringForms) {
  CVarRegistry reg;
  EXPECT_EQ(parseRule("Lb(R&D, GS).", reg).toString(&reg), "Lb(R&D, GS).");
  EXPECT_EQ(parseRule("panic :- R(x), !F(x).", reg).toString(&reg),
            "panic :- R(x), !F(x).");
  EXPECT_EQ(parseRule("T(f) :- R(f), x_ + y_ = 1.", reg).toString(&reg),
            "T(f) :- R(f), x_ + y_ = 1.");
  EXPECT_EQ(parseRule("Q(z) :- P(1.2.3.4, [A B], 'two words', z).", reg)
                .toString(&reg),
            "Q(z) :- P(1.2.3.4, [A B], two words, z).");
}

TEST(AstTest, ComparisonToString) {
  CVarRegistry reg;
  Rule r = parseRule("T(x) :- R(x), 2*x_ - 3 >= x.", reg);
  ASSERT_EQ(r.cmps.size(), 1u);
  EXPECT_EQ(r.cmps[0].toString(&reg), "2*x_ - 3 >= x");
}

TEST(AstTest, ProgramPredicateHelpers) {
  CVarRegistry reg;
  Program p = parseProgram(
      "A(x) :- E(x).\n"
      "B(x) :- A(x), F(x).\n"
      "A(x) :- G(x).\n",
      reg);
  EXPECT_EQ(p.idbPredicates(), (std::vector<std::string>{"A", "B"}));
  auto preds = p.predicates();
  EXPECT_EQ(preds.size(), 5u);  // A B E F G
}

TEST(AstTest, ProgramAppend) {
  CVarRegistry reg;
  Program a = parseProgram("A(x) :- E(x).\n", reg);
  Program b = parseProgram("B(x) :- F(x).\nC(x) :- G(x).\n", reg);
  a.append(b);
  ASSERT_EQ(a.rules.size(), 3u);
  EXPECT_EQ(a.rules[0].head.pred, "A");  // rule order kept
  EXPECT_EQ(a.rules[1].head.pred, "B");
  EXPECT_EQ(a.rules[2].head.pred, "C");
  EXPECT_EQ(b.rules.size(), 2u);  // argument untouched
}

TEST(AstTest, ProgramAppendSelfDoubles) {
  CVarRegistry reg;
  Program p = parseProgram("A(x) :- E(x).\nB(x) :- A(x), F(x).\n", reg);
  std::string once = p.toString(&reg);
  p.append(p);
  ASSERT_EQ(p.rules.size(), 4u);
  EXPECT_EQ(p.toString(&reg), once + once);
  Program empty;
  empty.append(empty);
  EXPECT_TRUE(empty.rules.empty());
}

TEST(AstTest, ProgramToStringReparses) {
  CVarRegistry reg;
  const char* text =
      "R(f,n1,n2) :- F(f,n1,n2).\n"
      "R(f,n1,n2) :- F(f,n1,n3), R(f,n3,n2).\n"
      "T1(f,n1,n2) :- R(f,n1,n2), x_ + y_ + z_ = 1.\n"
      "panic :- R(Mkt, CS, p_), !Fw(Mkt, CS).\n";
  Program p = parseProgram(text, reg);
  Program p2 = parseProgram(p.toString(&reg), reg);
  EXPECT_EQ(p2.toString(&reg), p.toString(&reg));
  EXPECT_EQ(p2.rules.size(), p.rules.size());
}

}  // namespace
}  // namespace faure::dl
