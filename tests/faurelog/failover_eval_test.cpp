// Solver failover through evaluation (DESIGN.md §9): with
// EvalOptions::supervision enabled, evalFaure wraps the caller's solver
// for the run. With no faults the results and the logical `solver.*`
// counters must equal an unwrapped run; with a primary that throws on
// every check, the native fallback must carry the run to the same
// results.
#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "obs/trace.hpp"
#include "smt/verdict_cache.hpp"
#include "util/error.hpp"

namespace faure::fl {
namespace {

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

constexpr const char* kClosure =
    "R(x,y) :- E(x,y).\n"
    "R(x,y) :- E(x,z), R(z,y).\n"
    "Far(x,y) :- R(x,y), x < y, y > 8.\n"
    "Stuck(x,y) :- E(x,y), !Far(x,y).\n";

/// A primary whose engine dies on every check.
class DeadSolver : public smt::NativeSolver {
 public:
  using smt::NativeSolver::NativeSolver;

 protected:
  smt::Sat checkUncached(const smt::Formula&) override {
    throw SolverBackendError("dead", "engine died");
  }
};

class FailoverEvalTest : public ::testing::Test {
 protected:
  rel::Database db_;

  void SetUp() override {
    // A chain graph with a c-variable condition on every third edge, so
    // closure derives condition-bearing tuples and the solver step has
    // real work to do.
    CVarId x = db_.cvars().declareInt("x_", 0, 1);
    auto& e = db_.create(anySchema("E", 2));
    for (int i = 0; i < 18; ++i) {
      if (i % 3 == 0) {
        e.insert({Value::fromInt(i), Value::fromInt(i + 1)},
                 smt::Formula::cmp(Value::cvar(x), smt::CmpOp::Eq,
                                   Value::fromInt(i % 2)));
      } else {
        e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
      }
    }
  }

  struct Run {
    EvalResult res;
    obs::MetricsSnapshot metrics;
  };

  Run eval(smt::SolverBase& solver, EvalOptions opts) {
    smt::VerdictCache cache(db_.cvars(), 4096);
    solver.setVerdictCache(&cache);
    obs::Tracer tracer;
    opts.tracer = &tracer;
    Run r;
    r.res = evalFaure(dl::parseProgram(kClosure, db_.cvars()), db_, &solver,
                      opts);
    r.metrics = tracer.metrics().snapshot();
    solver.setVerdictCache(nullptr);
    return r;
  }

  Run plain() {
    smt::NativeSolver solver(db_.cvars());
    return eval(solver, {});
  }

  static void expectIdentical(const Run& a, const Run& b) {
    ASSERT_EQ(a.res.idb.size(), b.res.idb.size());
    for (const auto& [name, table] : a.res.idb) {
      auto it = b.res.idb.find(name);
      ASSERT_NE(it, b.res.idb.end()) << "missing relation " << name;
      const auto& rows = table.rows();
      const auto& other = it->second.rows();
      ASSERT_EQ(rows.size(), other.size()) << "size of " << name;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].vals, other[i].vals) << name << " row " << i;
        EXPECT_EQ(rows[i].cond, other[i].cond) << name << " row " << i;
      }
    }
    EXPECT_EQ(a.res.stats.derivations, b.res.stats.derivations);
    EXPECT_EQ(a.res.stats.inserted, b.res.stats.inserted);
    EXPECT_EQ(a.res.stats.prunedUnsat, b.res.stats.prunedUnsat);
    EXPECT_EQ(a.res.stats.subsumed, b.res.stats.subsumed);
    EXPECT_EQ(a.res.stats.iterations, b.res.stats.iterations);
    EXPECT_EQ(a.res.incomplete, b.res.incomplete);
  }

  static EvalOptions supervised() {
    EvalOptions opts;
    smt::SupervisionOptions sup;
    sup.failover = true;
    sup.timeoutMs = 500;
    opts.supervision = sup;
    return opts;
  }
};

TEST_F(FailoverEvalTest, SupervisionWithZeroFaultsIsBitIdentical) {
  Run want = plain();
  smt::NativeSolver solver(db_.cvars());
  Run got = eval(solver, supervised());
  expectIdentical(want, got);
  // Including the logical solver stream — the wrapper must not add,
  // drop, or re-order a single check.
  for (const char* name : {"solver.checks", "solver.unsat", "solver.unknown",
                           "solver.budget_trips", "solver.enumerations"}) {
    EXPECT_EQ(got.metrics.counter(name), want.metrics.counter(name)) << name;
  }
  EXPECT_GT(got.metrics.counter("solver.checks"), 0u);
  EXPECT_EQ(got.metrics.counter("solver.supervise.failovers"), 0u);
  // The caller's solver keeps its own wiring.
  EXPECT_EQ(solver.tracer(), nullptr);
  EXPECT_EQ(solver.guard(), nullptr);
}

TEST_F(FailoverEvalTest, PermanentPrimaryCrashCompletesViaFailover) {
  // Every check against the primary dies; the native fallback carries
  // the whole run and the results still match a healthy evaluation.
  Run want = plain();
  DeadSolver dead(db_.cvars());
  Run got = eval(dead, supervised());
  expectIdentical(want, got);
  EXPECT_FALSE(got.res.incomplete);
  EXPECT_GT(got.metrics.counter("solver.supervise.failovers"), 0u);
  EXPECT_EQ(got.metrics.counter("solver.supervise.degraded"), 0u);

  // Without supervision the same primary's failure is a hard error.
  EXPECT_THROW(eval(dead, {}), SolverBackendError);
}

}  // namespace
}  // namespace faure::fl
