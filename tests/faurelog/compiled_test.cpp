// Tests for compiled programs (faurelog/compiled.hpp): the lowering
// agrees with the datalog layer's analysis (slots, strata, error
// messages), ground comparisons are built once per rule, and the owners
// that evaluate one program many times — IncrementalEngine epochs and
// ScenarioSet forks — share one compiled instance.
#include "faurelog/compiled.hpp"

#include <gtest/gtest.h>

#include <string>

#include "datalog/analysis.hpp"
#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/scenario.hpp"
#include "faurelog/textio.hpp"
#include "smt/interner.hpp"
#include "util/error.hpp"

namespace faure::fl {
namespace {

constexpr const char* kDb =
    "var l_ int 0 1\n"
    "table F(flow sym, from int, to int)\n"
    "table Acl(app sym, port int)\n"
    "row F f0 1 2 | l_ = 1\n"
    "row F f0 1 4 | l_ = 0\n"
    "row F f0 4 2\n"
    "row F f0 2 3\n"
    "row Acl web 80\n"
    "row Acl legacy 8080\n";

constexpr const char* kProgram =
    "R(f,a,b) :- F(f,a,b).\n"
    "R(f,a,b) :- F(f,a,c), R(f,c,b).\n"
    "Deliver(f) :- R(f,1,3).\n"
    "Open(app,p) :- Acl(app,p), p < 1024.\n"
    "Lockdown(app) :- Acl(app,p), !Open(app,p).\n";

class CompiledTest : public ::testing::Test {
 protected:
  rel::Database db_ = parseDatabase(kDb);

  dl::Program parse(const char* text) {
    return dl::parseProgram(text, db_.cvars());
  }

  /// The message of the EvalError `fn` throws ("" when it does not).
  template <class Fn>
  static std::string errorOf(Fn&& fn) {
    try {
      fn();
    } catch (const EvalError& e) {
      return e.what();
    }
    return "";
  }
};

TEST_F(CompiledTest, SlotsFollowRuleVariablesOrder) {
  dl::Program p = parse(
      "H(z, x) :- A(x, y), B(y, z, w), !C(w, x), w = 3.\n"
      "H(a, b) :- A(b, a), a + b < c, B(c, c, d).\n");
  CompiledProgram cp = CompiledProgram::compile(p);
  ASSERT_EQ(cp.rules().size(), p.rules.size());
  for (size_t ri = 0; ri < p.rules.size(); ++ri) {
    const CompiledRule& cr = cp.rules()[ri];
    const std::vector<std::string> vars = dl::ruleVariables(p.rules[ri]);
    EXPECT_EQ(cr.vars, vars);
    EXPECT_EQ(cr.shape.slotCount, vars.size());
    // Every lowered term carries its variable's slot.
    for (size_t a = 0; a < cr.headArgs.size(); ++a) {
      const dl::Term& t = p.rules[ri].head.args[a];
      ASSERT_EQ(cr.headArgs[a].isVar(), t.isVar());
      if (t.isVar()) {
        EXPECT_EQ(vars[cr.headArgs[a].slot], t.var);
      }
    }
  }
}

TEST_F(CompiledTest, StrataEqualDatalogStratify) {
  for (const char* text :
       {kProgram,
        "B(x) :- A(x).\nA(x) :- E(x).\nC(x) :- E(x), !B(x).\n"
        "D(x) :- C(x), !A(x).\nD(x) :- D(x), E(x).\n",
        "P(x) :- E(x).\n"}) {
    dl::Program p = parse(text);
    dl::Stratification want = dl::stratify(p);
    CompiledProgram cp = CompiledProgram::compile(p);
    EXPECT_EQ(cp.strata().rules, want.ruleStrata) << text;
    for (uint32_t id = 0; id < cp.predicateCount(); ++id) {
      auto it = want.stratumOf.find(cp.predName(id));
      EXPECT_EQ(cp.strata().of[id],
                it == want.stratumOf.end() ? -1 : it->second)
          << cp.predName(id);
    }
  }
}

TEST_F(CompiledTest, IncrementalRefinementIsUnchanged) {
  rel::Database db = parseDatabase(kDb);
  smt::NativeSolver solver(db.cvars());
  IncrementalEngine eng(dl::parseProgram(kProgram, db.cvars()), db, &solver);
  // {R}, {Deliver}, {Open}, {Lockdown}: SCC units in dependency order,
  // ties broken by negation stratum, then lowest rule index.
  const Strata& units = eng.program()->units;
  EXPECT_EQ(units.rules,
            (std::vector<std::vector<size_t>>{{0, 1}, {2}, {3}, {4}}));
  // A later rule's head that an earlier rule reads comes first.
  dl::Program p = dl::parseProgram(
      "B(x) :- A(x).\nA(x) :- E(x).\nC(x) :- E(x), !B(x).\n", db.cvars());
  db.create(rel::Schema("E", {rel::Attribute{"a0", ValueType::Any}}));
  IncrementalEngine eng2(std::move(p), db, &solver);
  EXPECT_EQ(eng2.program()->units.rules,
            (std::vector<std::vector<size_t>>{{1}, {0}, {2}}));
}

TEST_F(CompiledTest, ErrorsKeepDatalogMessages) {
  // Unsafe rule.
  dl::Program unsafe = parse("H(x, y) :- A(x).\n");
  std::string want = errorOf([&] { dl::checkSafety(unsafe); });
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(errorOf([&] { CompiledProgram::compile(unsafe); }), want);
  EXPECT_EQ(errorOf([&] { evalFaure(unsafe, db_); }), want);

  // Arity mismatch inside the program, and against the database.
  dl::Program arity = parse("H(x) :- A(x).\nG(x) :- A(x, x).\n");
  want = errorOf([&] { dl::checkArities(arity); });
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(errorOf([&] { CompiledProgram::compile(arity); }), want);
  dl::Program edb = parse("H(x) :- F(x, x).\n");
  want = errorOf([&] { dl::checkArities(edb, {{"F", 3}}); });
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(errorOf([&] { evalFaure(edb, db_); }), want);
  // Compiled without the schema, the evaluation reports the same.
  CompiledProgram loose = CompiledProgram::compile(edb);
  smt::NativeSolver solver(db_.cvars());
  EXPECT_EQ(errorOf([&] { evalFaure(loose, db_, &solver); }), want);

  // Recursion through negation.
  dl::Program cyclic = parse("P(x) :- E(x), !Q(x).\nQ(x) :- E(x), !P(x).\n");
  want = errorOf([&] { dl::stratify(cyclic); });
  ASSERT_FALSE(want.empty());
  EXPECT_EQ(errorOf([&] { CompiledProgram::compile(cyclic); }), want);

  // An unknown relation is reported when a firing reaches it.
  EXPECT_EQ(errorOf([&] { evalFaure(parse("H(f) :- F(f, a, b), Nope(a)."),
                                    db_); }),
            "eval error: unknown relation 'Nope'");
}

TEST_F(CompiledTest, GroundComparisonIsBuiltOncePerRule) {
  // q6's shape: one comparison over rule c-variables only, the same
  // formula for every frame.
  db_.cvars().declareInt("x_", 0, 1);
  db_.cvars().declareInt("y_", 0, 1);
  db_.cvars().declareInt("z_", 0, 1);
  db_.create(rel::Schema("E", {rel::Attribute{"a0", ValueType::Any}}));
  EvalOptions opts;
  opts.pruneWithSolver = false;
  opts.mergeSubsumption = false;
  // Intern calls of one evaluation of `text` over `rows` frames.
  auto internCalls = [&](const char* text, int rows) {
    rel::Database db = db_.clone();
    for (int i = 0; i < rows; ++i) {
      db.table("E").insertConcrete({Value::fromInt(i)});
    }
    CompiledProgram cp =
        CompiledProgram::compile(dl::parseProgram(text, db.cvars()), &db);
    auto& interner = smt::FormulaInterner::instance();
    auto before = interner.stats();
    EvalResult res = evalFaure(cp, db, nullptr, opts);
    auto after = interner.stats();
    EXPECT_EQ(res.relation("T1").size(), static_cast<size_t>(rows));
    return (after.hits + after.misses) - (before.hits + before.misses);
  };
  const char* q6 = "T1(n) :- E(n), x_ + y_ + z_ = 1.";
  internCalls(q6, 1);  // first use interns process-wide constants too
  const uint64_t one = internCalls(q6, 1);
  EXPECT_GE(one, 1u);                    // the comparison's formula
  EXPECT_EQ(internCalls(q6, 40), one);  // not one more per frame
}

TEST_F(CompiledTest, OwnersEvaluateOneCompiledProgram) {
  smt::NativeSolver solver(db_.cvars());
  // IncrementalEngine: every epoch evaluates the engine's program.
  IncrementalEngine eng(parse(kProgram), db_, &solver);
  const IncrementalProgram* program = eng.program().get();
  eng.reevaluate();
  eng.insertFact("Acl", {Value::sym("mail"), Value::fromInt(25)});
  eng.reevaluate();
  eng.retractFact("F", {Value::sym("f0"), Value::fromInt(2),
                        Value::fromInt(3)});
  eng.reevaluate();
  EXPECT_EQ(eng.program().get(), program);

  // ScenarioSet: the base run and every fork share the set's program.
  ScenarioSetOptions sopts;
  sopts.eval.threads = 2;
  ScenarioSet set(parse(kProgram), db_.clone(), sopts);
  std::vector<ScenarioOutcome> out =
      set.evaluate({{"a", "+Acl(mail, 25)\n"},
                    {"b", "-F(f0, 2, 3)\n+Acl(ssh, 22)\n"},
                    {"c", ""}});
  for (const ScenarioOutcome& o : out) EXPECT_EQ(o.exitCode, 0) << o.message;
  EXPECT_EQ(set.program().use_count(), 1);  // no fork kept a copy
}

}  // namespace
}  // namespace faure::fl
