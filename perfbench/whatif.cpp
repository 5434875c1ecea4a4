// whatif: one operator applies a seeded edit stream to the 120-link chain
// network (fl::IncrementalEngine::apply, then reevaluate). Three edits
// in four are Acl edits, which write a leaf policy relation and leave
// recursion alone; every fourth is a link flap, which dirties the
// recursive R unit. 120 links is the size where incremental evaluation
// wins least.
#include <cstdio>
#include <map>
#include <memory>

#include "common.hpp"
#include "datalog/parser.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/textio.hpp"
#include "smt/verdict_cache.hpp"

namespace faurebench {

using namespace faure;

namespace {

bool isLinkEpoch(size_t e) { return e % 4 == 3; }

size_t digestOf(const fl::EvalResult& res, const CVarRegistry& reg) {
  std::string all;
  for (const auto& [name, table] : res.idb) {
    all += name;
    all += '\n';
    all += table.toString(&reg);
  }
  return std::hash<std::string>{}(all);
}

/// One operator session: the parsed network, its solver and the engine.
struct Session {
  rel::Database db;
  std::unique_ptr<TimedSolver> solver;
  std::unique_ptr<smt::VerdictCache> cache;
  std::unique_ptr<fl::IncrementalEngine> engine;
  double parseSeconds = 0.0;  // datalog
  double loadSeconds = 0.0;   // textio

  Session(size_t links, uint64_t seed, bool incremental,
          obs::Tracer* tracer) {
    const std::string text = chainNetworkText(links, seed);
    loadSeconds = timed([&] { db = fl::parseDatabase(text); });
    dl::Program program;
    parseSeconds = timed(
        [&] { program = dl::parseProgram(chainProgramText(links), db.cvars()); });
    solver = std::make_unique<TimedSolver>(db.cvars());
    cache = std::make_unique<smt::VerdictCache>(db.cvars(),
                                                Pinned::kCacheEntries);
    solver->setVerdictCache(cache.get());
    engine = std::make_unique<fl::IncrementalEngine>(
        std::move(program), db, solver.get(), pinnedEvalOptions(tracer));
    engine->setIncremental(incremental);
  }

  fl::Edit parse(const std::string& line) {
    return fl::parseEditScript(line, db).at(0);
  }
};

}  // namespace

void runWhatif(const Args& a, Report& r) {
  const size_t links = a.smoke ? 30 : 120;
  std::printf("workload whatif links=%zu seed=%llu link_flap_every=4\n",
              links, static_cast<unsigned long long>(a.seed));

  std::vector<std::string> script;    // edits, in order
  std::map<size_t, size_t> digests;   // epoch (0 = initial) -> digest
  // The oracle checks epoch 0, a link epoch and a policy epoch after a
  // few flaps, and the last epoch.
  auto checkpoint = [](size_t e) { return e == 27 || e == 32; };
  auto record = [&](size_t epoch, const fl::EvalResult& res,
                    const CVarRegistry& reg) {
    digests[epoch] = res.incomplete ? 0 : digestOf(res, reg);
  };

  if (!a.trace) {
    // A request is one operator round: three Acl edits and a link flap,
    // each applied and re-evaluated in turn; every epoch is an answer.
    auto setup = [&] {
      return std::make_unique<Session>(links, a.seed, true, nullptr);
    };
    std::vector<double> setups;
    Session s(links, a.seed, true, nullptr);
    record(0, s.engine->reevaluate(), s.db.cvars());
    EditStream stream(links, a.seed);
    std::vector<double> policy, link, all, rounds;
    fl::EvalResult res;
    HostProbe probe;
    // The engine's interner only grows, so memory follows the number of
    // rounds a run gets through; peak RSS is taken after a fixed six.
    constexpr size_t kRssRounds = 6;
    double peakRss = 0.0;
    double busy = 0.0;
    for (size_t e = 0; busy < a.seconds || e % 4 != 0; ++e) {
      script.push_back(stream.next(isLinkEpoch(e)));
      const fl::Edit edit = s.parse(script.back());
      const double t = timed([&] {
        s.engine->apply(edit);
        res = s.engine->reevaluate();
      });
      (isLinkEpoch(e) ? link : policy).push_back(t);
      all.push_back(t);
      busy += t;
      if (e % 4 == 0) rounds.push_back(0.0);
      rounds.back() += t;
      if (checkpoint(e)) record(e + 1, res, s.db.cvars());
      if (isLinkEpoch(e)) {
        if (rounds.size() == kRssRounds) peakRss = peakRssMb();
        for (int k = 0; k < 3; ++k) setups.push_back(timeSetup(setup));
      }
      probe.every(busy);
    }
    record(script.size(), res, s.db.cvars());
    while (setups.size() < kMinSetups) setups.push_back(timeSetup(setup));
    setEndToEnd(r, setups, rounds, static_cast<double>(all.size()), probe,
                peakRss);
    r.setNamed("whatif.policy_epoch_p50_ms", median(policy) * 1000.0, "ms",
               std::to_string(policy.size()) + " epochs");
    r.setNamed("whatif.link_epoch_p50_ms", median(link) * 1000.0, "ms",
               std::to_string(link.size()) + " epochs");
    setTail(r, "whatif.epoch_tail_ms", all, "epochs");
  } else {
    // A fixed edit prefix, untraced then traced: timings from the first
    // pass, counts from the second.
    const size_t epochs = a.smoke ? 12 : 24;
    EditStream stream(links, a.seed);
    for (size_t e = 0; e < epochs; ++e) {
      script.push_back(stream.next(isLinkEpoch(e)));
    }
    double walls[2] = {0.0, 0.0};
    for (int pass = 0; pass < 2; ++pass) {
      obs::Tracer tracer;
      const bool traced = pass == 1;
      Session s(links, a.seed, true, traced ? &tracer : nullptr);
      fl::EvalResult res;
      const double epoch0 = timed([&] { res = s.engine->reevaluate(); });
      const double physical0 = s.solver->physicalSeconds();
      if (!traced) record(0, res, s.db.cvars());
      tracer.metrics().reset();  // counts cover the edit epochs only
      InternerDelta interner;
      double applyS = 0.0, reevalS = 0.0, loadS = s.loadSeconds;
      for (size_t e = 0; e < epochs; ++e) {
        fl::Edit edit;
        loadS += timed([&] { edit = s.parse(script[e]); });
        applyS += timed([&] { s.engine->apply(edit); });
        reevalS += timed([&] { res = s.engine->reevaluate(); });
        if (!traced && (checkpoint(e) || e + 1 == epochs)) {
          record(e + 1, res, s.db.cvars());
        }
      }
      walls[pass] = applyS + reevalS;
      if (!traced) {
        r.setLayer("datalog.parse_s", s.parseSeconds, "s");
        r.setLayer("faurelog.textio.load_s", loadS, "s");
        r.setLayer("faurelog.incremental.apply_s", applyS, "s");
        r.setLayer("faurelog.incremental.reevaluate_s", reevalS, "s");
        r.setLayer("faurelog.incremental.epoch0_s", epoch0, "s");
        r.setLayer("smt.physical_check_s",
                   s.solver->physicalSeconds() - physical0, "s");
        continue;
      }
      interner.take(r);
      takeRegistry(tracer, r);
      const fl::IncStats& inc = s.engine->stats();
      r.setLayer("faurelog.incremental.refired_rules",
                 static_cast<double>(inc.refiredRules), "count");
      r.setLayer("faurelog.incremental.skipped_rules",
                 static_cast<double>(inc.skippedRules), "count");
      r.setLayer("faurelog.incremental.dirty_strata",
                 static_cast<double>(inc.dirtyStrata), "count");
      r.setLayer("faurelog.incremental.reused_strata",
                 static_cast<double>(inc.reusedStrata), "count");
    }
    r.setLayer("obs.trace_overhead", walls[1] / walls[0], "ratio",
               "base: untraced edit epochs " + std::to_string(walls[0]) +
                   " s");
  }

  // Oracle, outside every timed region: the full-recompute engine replays
  // the same edits and must derive byte-identical tables at every
  // recorded epoch.
  Session oracle(links, a.seed, false, nullptr);
  r.attempted = script.size();
  for (size_t epoch = 0; epoch <= script.size(); ++epoch) {
    if (epoch > 0) oracle.engine->apply(oracle.parse(script[epoch - 1]));
    auto it = digests.find(epoch);
    if (it == digests.end()) continue;
    if (digestOf(oracle.engine->reevaluate(), oracle.db.cvars()) !=
        it->second) {
      ++r.failed;
    }
  }
}

}  // namespace faurebench
