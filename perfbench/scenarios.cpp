// scenarios: batches of 8 independent 3-epoch what-if scenarios on the
// 60-link chain network, answered by one fl::ScenarioSet at fan-out
// width 4. The only workload that forks (Database::clone, adoptState),
// runs util::ThreadPool, and contends on the shared VerdictCache and the
// sharded interner. The shared epoch 0 (prepare) is timed on its own.
#include <cstdio>
#include <memory>

#include "common.hpp"
#include "datalog/parser.hpp"
#include "faurelog/scenario.hpp"
#include "faurelog/textio.hpp"

namespace faurebench {

using namespace faure;

namespace {

constexpr size_t kBatch = 8;
constexpr size_t kEpochs = 3;

/// Scenario j of batch b: even scenarios flap one link (at epoch
/// (j/2) mod 3) between Acl edits, odd ones edit only the Acl policy.
fl::Scenario makeScenario(size_t links, uint64_t seed, size_t b, size_t j) {
  EditStream stream(links, seed * 1000003ULL + b * kBatch + j);
  fl::Scenario s;
  s.id = std::to_string(b) + "." + std::to_string(j);
  for (size_t e = 0; e < kEpochs; ++e) {
    s.edits += stream.next(j % 2 == 0 && e == (j / 2) % kEpochs) + "\n";
  }
  return s;
}

std::vector<fl::Scenario> makeBatch(size_t links, uint64_t seed, size_t b) {
  std::vector<fl::Scenario> out;
  for (size_t j = 0; j < kBatch; ++j) {
    out.push_back(makeScenario(links, seed, b, j));
  }
  return out;
}

struct Loaded {
  std::unique_ptr<fl::ScenarioSet> set;
  double parseSeconds = 0.0;
  double loadSeconds = 0.0;
};

Loaded load(size_t links, uint64_t seed, obs::Tracer* tracer) {
  Loaded l;
  const std::string text = chainNetworkText(links, seed);
  rel::Database db;
  l.loadSeconds = timed([&] { db = fl::parseDatabase(text); });
  dl::Program program;
  l.parseSeconds = timed(
      [&] { program = dl::parseProgram(chainProgramText(links), db.cvars()); });
  fl::ScenarioSetOptions opts;
  opts.eval = pinnedEvalOptions(tracer);
  opts.eval.threads = scenarioWidth();  // the fan-out width
  opts.limits = ResourceLimits{};
  opts.supervision = smt::SupervisionOptions{};
  opts.mode = 1;
  opts.cacheEntries = Pinned::kCacheEntries;
  opts.solverName = "native";
  l.set = std::make_unique<fl::ScenarioSet>(std::move(program), std::move(db),
                                            std::move(opts));
  return l;
}

/// Answers the batch solo (width 1 is the single-scenario path) and
/// counts outcomes that differ from `batched`; returns the solo seconds.
double soloCheck(fl::ScenarioSet& set, const std::vector<fl::Scenario>& batch,
                 const std::vector<fl::ScenarioOutcome>& batched,
                 const std::vector<size_t>& which, Report& r) {
  double seconds = 0.0;
  for (size_t k : which) {
    std::vector<fl::ScenarioOutcome> solo;
    seconds += timed([&] { solo = set.evaluate({batch[k]}); });
    if (solo.at(0).exitCode != batched[k].exitCode ||
        solo.at(0).output != batched[k].output) {
      ++r.failed;
    }
  }
  return seconds;
}

void countBatch(const std::vector<fl::ScenarioOutcome>& outs, Report& r) {
  for (const fl::ScenarioOutcome& o : outs) {
    ++r.attempted;
    if (o.exitCode != 0 || o.epochs != kEpochs + 1) ++r.failed;
  }
}

}  // namespace

void runScenarios(const Args& a, Report& r) {
  const size_t links = a.smoke ? 24 : 60;
  const unsigned width = scenarioWidth();
  std::printf(
      "workload scenarios links=%zu seed=%llu batch=%zu epochs=%zu "
      "width=%u\n",
      links, static_cast<unsigned long long>(a.seed), kBatch, kEpochs, width);

  if (!a.trace) {
    auto setup = [&] { return load(links, a.seed, nullptr); };
    std::vector<double> setups;
    Loaded l = load(links, a.seed, nullptr);
    const double prepareS = timed([&] { l.set->prepare(); });
    std::vector<double> walls;
    HostProbe probe;
    // Forks intern into the shared, only-growing interner, so memory
    // follows the number of batches a run gets through; peak RSS is taken
    // after a fixed two. (Later batches add spread too: which worker's
    // malloc arena keeps which freed fork depends on thread timing.)
    constexpr size_t kRssBatches = 2;
    double peakRss = 0.0;
    double busy = 0.0;
    for (size_t b = 0; busy < a.seconds; ++b) {
      const std::vector<fl::Scenario> batch = makeBatch(links, a.seed, b);
      std::vector<fl::ScenarioOutcome> outs;
      walls.push_back(timed([&] { outs = l.set->evaluate(batch); }));
      busy += walls.back();
      if (walls.size() == kRssBatches) peakRss = peakRssMb();
      // Oracle, outside the timed region: every fourth batch, one of its
      // scenarios (a different one each time) replayed solo.
      countBatch(outs, r);
      if (b % 4 == 0) soloCheck(*l.set, batch, outs, {b / 4 % kBatch}, r);
      setups.push_back(timeSetup(setup));
      probe.every(busy);
    }
    while (setups.size() < kMinSetups) setups.push_back(timeSetup(setup));
    const double answered = static_cast<double>(walls.size() * kBatch);
    setEndToEnd(r, setups, walls, answered, probe, peakRss,
                /*fannedOut=*/true);
    r.setNamed("scenarios.prepare_s", prepareS, "s", "shared epoch 0");
    r.setNamed("scenarios.per_s", answered / busy, "1/s",
               std::to_string(walls.size() * kBatch) + " scenarios in " +
                   std::to_string(walls.size()) + " batches");
    return;
  }

  // Trace run: a fixed number of batches untraced, then traced. Timings
  // from the first pass, counts from the second; the solver counters
  // (shared-cache hits depend on thread timing) and the interner cover
  // the serial epoch 0 only.
  const size_t nBatches = 2;
  std::vector<std::vector<fl::Scenario>> batches;
  for (size_t b = 0; b < nBatches; ++b) {
    batches.push_back(makeBatch(links, a.seed, b));
  }
  double walls[2] = {0.0, 0.0};
  for (int pass = 0; pass < 2; ++pass) {
    obs::Tracer tracer;
    const bool traced = pass == 1;
    Loaded l = load(links, a.seed, traced ? &tracer : nullptr);
    InternerDelta interner;
    const double prepareS = timed([&] { l.set->prepare(); });
    if (traced) {
      interner.take(r);
      takeRegistry(tracer, r);
      tracer.metrics().reset();
    }
    std::vector<std::vector<fl::ScenarioOutcome>> outcomes;
    std::vector<double> batchWalls;
    for (const auto& batch : batches) {
      std::vector<fl::ScenarioOutcome> outs;
      batchWalls.push_back(timed([&] { outs = l.set->evaluate(batch); }));
      outcomes.push_back(std::move(outs));
      walls[pass] += batchWalls.back();
    }
    if (traced) {
      takeRegistry(tracer, r, /*solver=*/false);
      for (const auto& outs : outcomes) {
        for (const fl::ScenarioOutcome& o : outs) {
          r.addLayer("faurelog.incremental.refired_rules",
                     static_cast<double>(o.inc.refiredRules));
          r.addLayer("faurelog.incremental.skipped_rules",
                     static_cast<double>(o.inc.skippedRules));
          r.addLayer("faurelog.incremental.dirty_strata",
                     static_cast<double>(o.inc.dirtyStrata));
          r.addLayer("faurelog.incremental.reused_strata",
                     static_cast<double>(o.inc.reusedStrata));
        }
      }
      continue;
    }
    r.setLayer("datalog.parse_s", l.parseSeconds, "s");
    r.setLayer("faurelog.textio.load_s", l.loadSeconds, "s");
    r.setLayer("faurelog.incremental.epoch0_s", prepareS, "s");
    r.setLayer("faurelog.scenario.evaluate_s", walls[0], "s");
    std::vector<double> clones;
    for (int i = 0; i < 5; ++i) {
      clones.push_back(timed([&] { l.set->base().clone(); }));
    }
    r.setLayer("relational.db_clone_s", median(clones), "s",
               "median of 5 clones of the base snapshot");
    // Every scenario of the first batch solo: the oracle, and the sum of
    // solo times behind the fan-out efficiency.
    std::vector<size_t> all;
    for (size_t k = 0; k < kBatch; ++k) all.push_back(k);
    const double solo = soloCheck(*l.set, batches[0], outcomes[0], all, r);
    r.setLayer("faurelog.scenario.fanout_efficiency",
               solo / (width * batchWalls[0]), "ratio",
               "base: width " + std::to_string(width) + " x batch wall " +
                   std::to_string(batchWalls[0]) + " s");
    for (size_t b = 0; b < nBatches; ++b) {
      countBatch(outcomes[b], r);
      if (b > 0) soloCheck(*l.set, batches[b], outcomes[b], {b % kBatch}, r);
    }
  }
  r.setLayer("obs.trace_overhead", walls[1] / walls[0], "ratio",
             "base: untraced batches " + std::to_string(walls[0]) + " s");
}

}  // namespace faurebench
