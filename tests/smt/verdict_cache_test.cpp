// Hash-consed formulas + the solver verdict cache (DESIGN.md §8).
//
// Covers the contract that makes caching invisible: pointer-identity of
// interned nodes, hit/miss/eviction bookkeeping, LRU order, the
// budget-trip exclusion (degraded Unknown is a resource outcome, never a
// verdict), registry-epoch invalidation, and the end-to-end promise that
// evaluation results and the logical solver.* counter stream are
// identical with the cache on or off.
#include <gtest/gtest.h>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "smt/interner.hpp"
#include "smt/solver.hpp"
#include "smt/verdict_cache.hpp"
#include "util/error.hpp"
#include "util/resource_guard.hpp"
#include "util/thread_pool.hpp"

namespace faure::smt {
namespace {

class VerdictCacheTest : public ::testing::Test {
 protected:
  CVarRegistry reg_;
  CVarId x_ = reg_.declareInt("x_", 0, 1);
  CVarId y_ = reg_.declareInt("y_", 0, 1);

  static Formula eq(CVarId v, int64_t k) {
    return Formula::cmp(Value::cvar(v), CmpOp::Eq, Value::fromInt(k));
  }
};

// ---------------------------------------------------------------------
// FormulaInterner: structural equality is pointer identity.

TEST_F(VerdictCacheTest, InternerSharesStructurallyEqualNodes) {
  Formula a = Formula::conj2(eq(x_, 1), eq(y_, 0));
  Formula b = Formula::conj2(eq(x_, 1), eq(y_, 0));
  EXPECT_EQ(&a.node(), &b.node());  // one shared node
  EXPECT_EQ(a, b);                  // operator== is that pointer compare

  Formula c = Formula::conj2(eq(x_, 1), eq(y_, 1));
  EXPECT_NE(&a.node(), &c.node());
  EXPECT_NE(a, c);
}

TEST_F(VerdictCacheTest, InternerSharesTrueAndFalseSingletons) {
  EXPECT_EQ(&Formula::top().node(), &Formula::top().node());
  EXPECT_EQ(&Formula::bottom().node(), &Formula::bottom().node());
  // Simplification reaches the same singletons.
  Formula t = Formula::disj2(Formula::top(), eq(x_, 1));
  EXPECT_EQ(&t.node(), &Formula::top().node());
}

TEST_F(VerdictCacheTest, InternerCountsHitsAndMisses) {
  FormulaInterner::Stats before = FormulaInterner::instance().stats();
  Formula a = Formula::conj2(eq(x_, 1), Formula::neg(eq(y_, 1)));
  Formula b = Formula::conj2(eq(x_, 1), Formula::neg(eq(y_, 1)));
  (void)a;
  (void)b;
  FormulaInterner::Stats after = FormulaInterner::instance().stats();
  EXPECT_GT(after.hits, before.hits);    // b's nodes all existed
  EXPECT_GE(after.misses, before.misses);
}

// ---------------------------------------------------------------------
// VerdictCache bookkeeping.

TEST_F(VerdictCacheTest, MissThenStoreThenHit) {
  VerdictCache cache(reg_, 8);
  Formula f = eq(x_, 1);
  EXPECT_FALSE(cache.lookupCheck(f).has_value());
  cache.storeCheck(f, Sat::Sat, 3);
  auto hit = cache.lookupCheck(f);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->sat, Sat::Sat);
  EXPECT_EQ(hit->enumerations, 3u);
  VerdictCache::Stats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
}

TEST_F(VerdictCacheTest, ImpliesKeysAreOrderedPairs) {
  VerdictCache cache(reg_, 8);
  Formula a = eq(x_, 1);
  Formula b = eq(y_, 1);
  cache.storeImplies(a, b, Sat::Unsat, 0);
  EXPECT_TRUE(cache.lookupImplies(a, b).has_value());
  EXPECT_FALSE(cache.lookupImplies(b, a).has_value());  // ordered
  // The pair key is also distinct from the single-formula key.
  EXPECT_FALSE(cache.lookupCheck(a).has_value());
}

TEST_F(VerdictCacheTest, LruEvictsLeastRecentlyUsed) {
  VerdictCache cache(reg_, 2);
  Formula a = eq(x_, 0);
  Formula b = eq(x_, 1);
  Formula c = eq(y_, 0);
  cache.storeCheck(a, Sat::Sat, 0);
  cache.storeCheck(b, Sat::Sat, 0);
  ASSERT_TRUE(cache.lookupCheck(a).has_value());  // a is now MRU
  cache.storeCheck(c, Sat::Sat, 0);               // evicts b, not a
  EXPECT_TRUE(cache.lookupCheck(a).has_value());
  EXPECT_FALSE(cache.lookupCheck(b).has_value());
  EXPECT_TRUE(cache.lookupCheck(c).has_value());
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(cache.stats().entries, 2u);
}

TEST_F(VerdictCacheTest, ZeroCapacityNeverStores) {
  VerdictCache cache(reg_, 0);
  Formula f = eq(x_, 1);
  cache.storeCheck(f, Sat::Sat, 0);
  EXPECT_FALSE(cache.lookupCheck(f).has_value());
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------
// Registry-epoch invalidation.

TEST_F(VerdictCacheTest, DomainMutationInvalidates) {
  CVarRegistry reg;
  CVarId v = reg.declareInt("v_", 0, 1);
  VerdictCache cache(reg, 8);
  Formula f = Formula::cmp(Value::cvar(v), CmpOp::Eq, Value::fromInt(2));
  cache.storeCheck(f, Sat::Unsat, 2);  // true for domain {0,1}
  ASSERT_TRUE(cache.lookupCheck(f).has_value());

  // Growing v's domain to include 2 flips the verdict: the cache must
  // drop everything rather than replay a stale Unsat.
  reg.setDomain(v, {Value::fromInt(0), Value::fromInt(1), Value::fromInt(2)});
  EXPECT_FALSE(cache.lookupCheck(f).has_value());
  EXPECT_EQ(cache.stats().invalidations, 1u);
  EXPECT_EQ(cache.stats().entries, 0u);
}

TEST_F(VerdictCacheTest, FreshDeclarationsDoNotInvalidate) {
  CVarRegistry reg;
  CVarId v = reg.declareInt("v_", 0, 1);
  VerdictCache cache(reg, 8);
  Formula f = Formula::cmp(Value::cvar(v), CmpOp::Eq, Value::fromInt(1));
  cache.storeCheck(f, Sat::Sat, 2);
  reg.declareInt("w_", 0, 7);  // cannot affect f's verdict
  EXPECT_TRUE(cache.lookupCheck(f).has_value());
  EXPECT_EQ(cache.stats().invalidations, 0u);
}

// ---------------------------------------------------------------------
// Solver integration: hits replay the logical stream exactly.

TEST_F(VerdictCacheTest, SetVerdictCacheRejectsForeignRegistry) {
  CVarRegistry other;
  VerdictCache cache(other, 8);
  NativeSolver solver(reg_);
  EXPECT_THROW(solver.setVerdictCache(&cache), EvalError);
}

TEST_F(VerdictCacheTest, RepeatedChecksHitTheCache) {
  VerdictCache cache(reg_, 64);
  NativeSolver solver(reg_);
  solver.setVerdictCache(&cache);
  Formula f = Formula::conj2(eq(x_, 1), eq(x_, 0));  // unsat
  EXPECT_EQ(solver.check(f), Sat::Unsat);
  EXPECT_EQ(solver.check(f), Sat::Unsat);
  EXPECT_EQ(solver.check(f), Sat::Unsat);
  EXPECT_EQ(cache.stats().hits, 2u);
  EXPECT_EQ(cache.stats().misses, 1u);
  // Logical accounting is unchanged: three checks, three unsats.
  EXPECT_EQ(solver.stats().checks, 3u);
  EXPECT_EQ(solver.stats().unsat, 3u);
}

TEST_F(VerdictCacheTest, CachedStreamMatchesUncachedStream) {
  // The same check/implies sequence against a cached and an uncached
  // solver must produce identical SolverStats (minus wall time).
  VerdictCache cache(reg_, 64);
  NativeSolver cached(reg_);
  cached.setVerdictCache(&cache);
  NativeSolver plain(reg_);

  auto drive = [&](SolverBase& s) {
    Formula sat = Formula::disj2(eq(x_, 0), eq(x_, 1));
    Formula unsat = Formula::conj2(eq(y_, 0), eq(y_, 1));
    for (int i = 0; i < 3; ++i) {
      s.check(sat);
      s.check(unsat);
      s.implies(eq(x_, 1), Formula::disj2(eq(x_, 0), eq(x_, 1)));
      s.implies(eq(x_, 1), eq(y_, 1));
    }
  };
  drive(cached);
  drive(plain);
  EXPECT_EQ(cached.stats().checks, plain.stats().checks);
  EXPECT_EQ(cached.stats().unsat, plain.stats().unsat);
  EXPECT_EQ(cached.stats().unknown, plain.stats().unknown);
  EXPECT_EQ(cached.stats().enumerations, plain.stats().enumerations);
  EXPECT_EQ(cached.stats().budgetTrips, plain.stats().budgetTrips);
  EXPECT_GT(cache.stats().hits, 0u);  // the cache did real work
}

TEST_F(VerdictCacheTest, BudgetTrippedUnknownIsNotCached) {
  VerdictCache cache(reg_, 64);
  NativeSolver solver(reg_);
  solver.setVerdictCache(&cache);

  ResourceLimits limits;
  limits.maxSolverChecks = 2;
  ResourceGuard guard(limits);
  solver.setGuard(&guard);

  Formula f = Formula::disj2(eq(x_, 0), eq(x_, 1));
  EXPECT_EQ(solver.check(f), Sat::Sat);      // physical check, charge 1
  EXPECT_EQ(solver.check(f), Sat::Sat);      // cache hit, still charge 2
  Formula g = Formula::conj2(eq(y_, 0), eq(y_, 1));
  EXPECT_EQ(solver.check(g), Sat::Unknown);  // budget-tripped: degraded
  EXPECT_GT(solver.stats().budgetTrips, 0u);
  // The degraded Unknown must not be stored: an unconstrained solver
  // still decides g.
  EXPECT_FALSE(cache.lookupCheck(g).has_value());
  solver.setGuard(nullptr);
  EXPECT_EQ(solver.check(g), Sat::Unsat);
}

TEST_F(VerdictCacheTest, CacheHitStillChargesTheGuard) {
  // A replayed verdict charges the solver-check budget exactly like a
  // physical check, so governed runs degrade at the same point with the
  // cache on or off.
  VerdictCache cache(reg_, 64);
  Formula f = Formula::disj2(eq(x_, 0), eq(x_, 1));
  {
    NativeSolver warm(reg_);
    warm.setVerdictCache(&cache);
    EXPECT_EQ(warm.check(f), Sat::Sat);  // prime the cache
  }
  NativeSolver solver(reg_);
  solver.setVerdictCache(&cache);
  ResourceLimits limits;
  limits.maxSolverChecks = 1;
  ResourceGuard guard(limits);
  solver.setGuard(&guard);
  EXPECT_EQ(solver.check(f), Sat::Sat);      // hit, charges the budget
  EXPECT_EQ(solver.check(f), Sat::Unknown);  // budget exhausted: degraded
  EXPECT_GT(solver.stats().budgetTrips, 0u);
}

TEST_F(VerdictCacheTest, ConcurrentSolversShareOneCache) {
  // Scenario forks run one solver each over the same registry and share
  // one cache (faurelog/scenario.hpp). Whichever fork misses first, every
  // fork reads the same verdicts and keeps the uncached logical stream.
  std::vector<Formula> corpus;
  for (int64_t k = 0; k < 3; ++k) {
    corpus.push_back(Formula::conj2(eq(x_, k), eq(y_, 1 - k)));
    corpus.push_back(Formula::disj2(eq(x_, k), Formula::neg(eq(y_, k))));
  }
  auto drive = [&](SolverBase& s) {
    std::vector<Sat> out;
    for (int round = 0; round < 20; ++round) {
      for (const Formula& f : corpus) out.push_back(s.check(f));
      out.push_back(s.implies(corpus[0], corpus[1]) ? Sat::Unsat : Sat::Sat);
    }
    return out;
  };
  NativeSolver plain(reg_);
  const std::vector<Sat> expected = drive(plain);

  VerdictCache cache(reg_, 64);
  constexpr size_t kForks = 8;
  std::vector<std::vector<Sat>> verdicts(kForks);
  std::vector<SolverStats> stats(kForks);
  std::vector<std::function<void(size_t)>> tasks;
  for (size_t i = 0; i < kForks; ++i) {
    tasks.emplace_back([&, i](size_t) {
      NativeSolver fork(reg_);
      fork.setVerdictCache(&cache);
      verdicts[i] = drive(fork);
      stats[i] = fork.stats();
    });
  }
  util::ThreadPool pool(3);
  pool.run(std::move(tasks));
  for (size_t i = 0; i < kForks; ++i) {
    EXPECT_EQ(verdicts[i], expected) << "fork " << i;
    EXPECT_EQ(stats[i].checks, plain.stats().checks) << "fork " << i;
    EXPECT_EQ(stats[i].unsat, plain.stats().unsat) << "fork " << i;
  }
  EXPECT_GT(cache.stats().hits, 0u);
}

// ---------------------------------------------------------------------
// End to end: evaluation is byte-identical with the cache on or off.

rel::Schema anySchema(const std::string& name, size_t arity) {
  std::vector<rel::Attribute> attrs(arity);
  for (size_t i = 0; i < arity; ++i) {
    attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
  }
  return rel::Schema(name, attrs);
}

struct EvalRun {
  fl::EvalResult res;
  SolverStats solver;
};

class CachedEvalTest : public ::testing::Test {
 protected:
  static constexpr const char* kProgram =
      "R(a,b) :- E(a,b).\n"
      "R(a,b) :- E(a,c), R(c,b).\n";

  void loadChain(rel::Database& db, int n) {
    CVarId x = db.cvars().declareInt("x_", 0, 1);
    auto& e = db.create(anySchema("E", 2));
    for (int i = 0; i < n; ++i) {
      if (i % 3 == 0) {
        e.insert({Value::fromInt(i), Value::fromInt(i + 1)},
                 Formula::cmp(Value::cvar(x), CmpOp::Eq,
                              Value::fromInt(i % 2)));
      } else {
        e.insertConcrete({Value::fromInt(i), Value::fromInt(i + 1)});
      }
    }
  }

  EvalRun eval(size_t cacheEntries) {
    rel::Database db;
    loadChain(db, 12);
    NativeSolver solver(db.cvars());
    std::unique_ptr<VerdictCache> cache;
    if (cacheEntries > 0) {
      cache = std::make_unique<VerdictCache>(db.cvars(), cacheEntries);
      solver.setVerdictCache(cache.get());
    }
    EvalRun r;
    r.res = fl::evalFaure(dl::parseProgram(kProgram, db.cvars()), db, &solver,
                          fl::EvalOptions{});
    r.solver = solver.stats();
    return r;
  }

  static void expectIdentical(const EvalRun& a, const EvalRun& b,
                              const std::string& label) {
    SCOPED_TRACE(label);
    ASSERT_EQ(a.res.idb.size(), b.res.idb.size());
    for (const auto& [name, table] : a.res.idb) {
      auto it = b.res.idb.find(name);
      ASSERT_NE(it, b.res.idb.end());
      const auto& rows = table.rows();
      const auto& other = it->second.rows();
      ASSERT_EQ(rows.size(), other.size()) << name;
      for (size_t i = 0; i < rows.size(); ++i) {
        EXPECT_EQ(rows[i].vals, other[i].vals) << name << " row " << i;
        EXPECT_EQ(rows[i].cond, other[i].cond) << name << " row " << i;
      }
    }
    EXPECT_EQ(a.res.stats.derivations, b.res.stats.derivations);
    EXPECT_EQ(a.res.stats.inserted, b.res.stats.inserted);
    EXPECT_EQ(a.res.stats.prunedUnsat, b.res.stats.prunedUnsat);
    EXPECT_EQ(a.res.stats.iterations, b.res.stats.iterations);
    EXPECT_EQ(a.res.stats.solverChecks, b.res.stats.solverChecks);
    EXPECT_EQ(a.solver.checks, b.solver.checks);
    EXPECT_EQ(a.solver.unsat, b.solver.unsat);
    EXPECT_EQ(a.solver.unknown, b.solver.unknown);
    EXPECT_EQ(a.solver.enumerations, b.solver.enumerations);
  }
};

TEST_F(CachedEvalTest, CacheOnOffIdentical) {
  expectIdentical(eval(0), eval(size_t{1} << 12), "cache on vs off");
}

}  // namespace
}  // namespace faure::smt
