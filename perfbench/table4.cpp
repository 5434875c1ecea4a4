// table4: the paper's q4-q8 pipeline (net::runTable4) on a synthetic RIB
// of 10000 prefixes, a fresh database per repetition. Condition
// construction, joins and row dedup dominate; the verdict cache answers
// almost every solver check, so a solver change should not move it.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "net/pipeline.hpp"
#include "smt/verdict_cache.hpp"

namespace faurebench {

using namespace faure;

namespace {

struct Rep {
  double setupSeconds = 0.0;
  double wallSeconds = 0.0;
  net::Table4Result result;
  size_t digest = 0;
  double physicalCheckSeconds = 0.0;
};

size_t digestOf(const rel::Database& db) {
  std::string all;
  for (const char* name : {"R", "T1", "T2", "T3"}) {
    all += name;
    all += '\n';
    all += db.table(name).toString(&db.cvars());
  }
  return std::hash<std::string>{}(all);
}

/// One repetition on a fresh database. The derived tables are digested
/// after the clock stops. With `report`, the pipeline's interner work is
/// added to it.
Rep runOnce(const net::RibConfig& cfg, fl::PlanMode plan,
            obs::Tracer* tracer, Report* report = nullptr) {
  Rep rep;
  rel::Database db;
  net::RibGenResult rib;
  rep.setupSeconds = timed([&] { rib = net::generateRib(db, cfg); });
  TimedSolver solver(db.cvars());
  smt::VerdictCache cache(db.cvars(), Pinned::kCacheEntries);
  solver.setVerdictCache(&cache);
  fl::EvalOptions opts = pinnedEvalOptions(tracer);
  opts.plan = plan;
  InternerDelta interner;
  rep.wallSeconds =
      timed([&] { rep.result = net::runTable4(db, rib, solver, opts); });
  rep.physicalCheckSeconds = solver.physicalSeconds();
  if (report != nullptr) interner.take(*report);
  rep.digest = digestOf(db);
  return rep;
}

void setPipelineLayers(Report& r, const net::Table4Result& t) {
  auto total = [](const net::QueryTiming& q) {
    return q.sqlSeconds + q.solverSeconds;
  };
  r.setLayer("net.pipeline.q45_s", total(t.q45), "s");
  r.setLayer("net.pipeline.q6_s", total(t.q6), "s");
  r.setLayer("net.pipeline.q7_s", total(t.q7), "s");
  r.setLayer("net.pipeline.q8_s", total(t.q8), "s");
  r.setLayer("net.pipeline.sql_s",
             t.q45.sqlSeconds + t.q6.sqlSeconds + t.q7.sqlSeconds +
                 t.q8.sqlSeconds,
             "s");
  r.setLayer("net.pipeline.solver_s",
             t.q45.solverSeconds + t.q6.solverSeconds + t.q7.solverSeconds +
                 t.q8.solverSeconds,
             "s");
}

}  // namespace

void runTable4(const Args& a, Report& r) {
  net::RibConfig cfg;
  cfg.numPrefixes = a.smoke ? 300 : 10000;
  cfg.seed = a.seed;
  std::printf("workload table4 prefixes=%zu seed=%llu\n", cfg.numPrefixes,
              static_cast<unsigned long long>(a.seed));

  std::vector<Rep> reps;
  HostProbe probe;
  if (!a.trace) {
    double busy = 0.0;
    do {
      reps.push_back(runOnce(cfg, fl::PlanMode::On, nullptr));
      busy += reps.back().wallSeconds;
      probe.every(busy);
    } while (busy + reps.back().wallSeconds <= a.seconds);
  } else {
    // Same work untraced, then traced: timings from the first, counts
    // from the second.
    reps.push_back(runOnce(cfg, fl::PlanMode::On, nullptr));
    obs::Tracer tracer;
    reps.push_back(runOnce(cfg, fl::PlanMode::On, &tracer, &r));
    takeRegistry(tracer, r);
    const Rep& plain = reps[0];
    const Rep& traced = reps[1];
    r.setLayer("net.rib_gen_s", plain.setupSeconds, "s");
    setPipelineLayers(r, plain.result);
    r.setLayer("net.pipeline.q6_tuples",
               static_cast<double>(traced.result.q6.tuples), "count");
    r.setLayer("net.pipeline.q7_tuples",
               static_cast<double>(traced.result.q7.tuples), "count");
    r.setLayer("net.pipeline.q8_tuples",
               static_cast<double>(traced.result.q8.tuples), "count");
    r.setLayer("smt.physical_check_s", plain.physicalCheckSeconds, "s");
    r.setLayer("obs.trace_overhead", traced.wallSeconds / plain.wallSeconds,
               "ratio", "base: untraced pipeline wall " +
                            std::to_string(plain.wallSeconds) + " s");
  }

  std::vector<double> walls, setups;
  std::printf("runs");
  for (const Rep& rep : reps) {
    walls.push_back(rep.wallSeconds);
    setups.push_back(rep.setupSeconds);
    std::printf(" %.3fs", rep.wallSeconds);
  }
  std::printf("\n");
  if (!a.trace) {
    while (setups.size() < kMinSetups) {
      setups.push_back(timeSetup([&] {
        auto db = std::make_unique<rel::Database>();
        net::generateRib(*db, cfg);
        return db;
      }));
    }
    setEndToEnd(r, setups, walls, static_cast<double>(reps.size()), probe);
    r.setNamed("table4.total_s", median(walls), "s",
               "median of " + std::to_string(walls.size()) + " runs");
  }

  // Oracle, outside every timed region: the plan-off evaluation must
  // derive byte-identical tables.
  const size_t expected = runOnce(cfg, fl::PlanMode::Off, nullptr).digest;
  r.attempted = reps.size();
  for (const Rep& rep : reps) {
    if (rep.digest != expected || rep.result.incomplete) ++r.failed;
  }
}

}  // namespace faurebench
