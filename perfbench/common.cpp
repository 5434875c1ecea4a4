#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <iterator>
#include <thread>

#include "obs/metrics.hpp"

namespace faurebench {

using namespace faure;

fl::EvalOptions pinnedEvalOptions(obs::Tracer* tracer) {
  fl::EvalOptions o;
  o.threads = Pinned::kEvalThreads;
  o.plan = fl::PlanMode::On;
  o.supervision = smt::SupervisionOptions{};  // enabled = false
  o.guard = nullptr;
  o.tracer = tracer;
  return o;
}

unsigned scenarioWidth() {
  unsigned n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  return std::min(Pinned::kScenarioWidth, n);
}

std::string configLine() {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "config solver=native cache_entries=%zu eval_threads=%u "
                "scenario_width=%u plan=on incremental=on supervision=off "
                "limits=none",
                Pinned::kCacheEntries, Pinned::kEvalThreads, scenarioWidth());
  return buf;
}

std::string hostLine() {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "host nproc=%u compiler=\"gcc %s\" build_type=%s "
                "comparable=%s",
                std::thread::hardware_concurrency(), __VERSION__,
                FAUREBENCH_BUILD_TYPE,
                FAUREBENCH_COMPARABLE ? "yes"
                                      : "no (sanitizer, coverage or debug "
                                        "build)");
  return buf;
}

// ---- metrics ---------------------------------------------------------

void Report::setNamed(const std::string& name, double v,
                      const std::string& unit, const std::string& note) {
  named.push_back({name, Metric{v, unit, note}});
}

void Report::setLayer(const std::string& name, double v,
                      const std::string& unit, const std::string& note) {
  layers[name] = Metric{v, unit, note};
}

void Report::addLayer(const std::string& name, double v) {
  layers[name].value += v;
}

const std::vector<std::pair<std::string, std::string>>& layerCatalogue() {
  static const std::vector<std::pair<std::string, std::string>> kAll = {
      {"datalog.parse_s", "s"},
      {"faurelog.textio.load_s", "s"},
      {"net.rib_gen_s", "s"},
      {"net.pipeline.q45_s", "s"},
      {"net.pipeline.q6_s", "s"},
      {"net.pipeline.q7_s", "s"},
      {"net.pipeline.q8_s", "s"},
      {"net.pipeline.sql_s", "s"},
      {"net.pipeline.solver_s", "s"},
      {"net.pipeline.q6_tuples", "count"},
      {"net.pipeline.q7_tuples", "count"},
      {"net.pipeline.q8_tuples", "count"},
      {"smt.interner.intern_calls", "count"},
      {"smt.interner.new_nodes", "count"},
      {"smt.interner.live_nodes", "count"},
      {"smt.checks_logical", "count"},
      {"smt.checks_physical", "count"},
      {"smt.cache_lookups", "count"},
      {"smt.cache_hit_ratio", "ratio"},
      {"smt.enumerations", "count"},
      {"smt.physical_check_s", "s"},
      {"faurelog.eval.derivations", "count"},
      {"faurelog.eval.inserted", "count"},
      {"faurelog.eval.pruned_unsat", "count"},
      {"faurelog.eval.subsumed", "count"},
      {"faurelog.eval.rounds", "count"},
      {"faurelog.plan.probes", "count"},
      {"faurelog.plan.hits", "count"},
      {"faurelog.plan.index_builds", "count"},
      {"faurelog.incremental.apply_s", "s"},
      {"faurelog.incremental.reevaluate_s", "s"},
      {"faurelog.incremental.epoch0_s", "s"},
      {"faurelog.incremental.refired_rules", "count"},
      {"faurelog.incremental.skipped_rules", "count"},
      {"faurelog.incremental.dirty_strata", "count"},
      {"faurelog.incremental.reused_strata", "count"},
      {"faurelog.scenario.evaluate_s", "s"},
      {"relational.db_clone_s", "s"},
      {"faurelog.scenario.fanout_efficiency", "ratio"},
      {"verify.unfold_s", "s"},
      {"verify.rewrite_s", "s"},
      {"verify.holds", "count"},
      {"verify.unknown", "count"},
      {"verify.violated", "count"},
      {"obs.trace_overhead", "ratio"},
  };
  return kAll;
}

double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const size_t n = xs.size();
  return n % 2 == 1 ? xs[n / 2] : 0.5 * (xs[n / 2 - 1] + xs[n / 2]);
}

Tail tailOf(std::vector<double> xs) {
  Tail t;
  t.samples = xs.size();
  if (xs.size() < 11) return t;
  std::sort(xs.begin(), xs.end());
  // Highest of these percentiles whose nearest-rank sample still has at
  // least ten samples above it.
  static const double kLadder[] = {99.9, 99.0, 95.0, 90.0, 75.0, 50.0};
  const size_t n = xs.size();
  for (double p : kLadder) {
    size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n));
    if (rank == 0) rank = 1;
    if (n - rank >= 10) {
      t.valid = true;
      t.percentile = p;
      t.value = xs[rank - 1];
      return t;
    }
  }
  return t;
}

void setTail(Report& r, const std::string& name,
             const std::vector<double>& seconds, const std::string& what) {
  const Tail t = tailOf(seconds);
  char note[96];
  if (t.valid) {
    std::snprintf(note, sizeof(note), "p%g of %zu %s", t.percentile,
                  t.samples, what.c_str());
  } else {
    std::snprintf(note, sizeof(note), "fewer than 11 %s", what.c_str());
  }
  r.setNamed(name, t.value * 1000.0, "ms", note);
}

double peakRssMb() {
  struct rusage ru {};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

void setEndToEnd(Report& r, const std::vector<double>& setups,
                 const std::vector<double>& opSeconds, double answers,
                 HostProbe& probe, double peakRss, bool fannedOut) {
  if (probe.samples() < HostProbe::kMinSamples) {
    probe.sample(static_cast<int>(HostProbe::kMinSamples - probe.samples()));
  }
  double busy = 0.0;
  for (double s : opSeconds) busy += s;
  const double setup = median(setups);
  const double op = median(opSeconds) * 1000.0;
  const double rate = busy > 0.0 ? answers / busy : 0.0;
  const double slow = probe.slowdown();
  const double opSlow = fannedOut ? 1.0 : slow;
  r.setNamed("wall.setup_s", setup, "s",
             "median of " + std::to_string(setups.size()) + " set-ups");
  r.setNamed("wall.op_p50_ms", op, "ms",
             std::to_string(opSeconds.size()) + " requests");
  r.setNamed("wall.answers_per_s", rate, "1/s");
  r.setNamed("host.probe_ms", probe.medianSeconds() * 1000.0, "ms",
             "median of " + std::to_string(probe.samples()) + " samples");
  r.setNamed("host.slowdown", slow, "ratio",
             "base: " +
                 std::to_string(HostProbe::kNominalSeconds * 1000.0) +
                 " ms idle-host probe");
  r.endToEnd["setup_s"] = {setup / slow, "s", ""};
  r.endToEnd["op_p50_ms"] = {op / opSlow, "ms", ""};
  r.endToEnd["answers_per_s"] = {rate * opSlow, "1/s", ""};
  r.endToEnd["peak_rss_mb"] = {peakRss > 0.0 ? peakRss : peakRssMb(), "MB",
                               ""};
}

// ---- the host probe --------------------------------------------------

namespace {

/// A fixed, single-threaded kernel of the engine's kind of work: format
/// 20000 short tuple-like keys, count them in an open-addressing hash
/// table of 5000 distinct keys, keep a quarter and sort those. It uses
/// only static storage, so its time does not depend on the state of the
/// heap the workload left behind. About 1.5 ms on an idle host.
constexpr size_t kProbeKeys = 20000;
constexpr size_t kProbeSlots = 1 << 14;
struct ProbeKey {
  char text[24];
};
ProbeKey probeKeys[kProbeKeys / 4];
const ProbeKey* probeOrder[kProbeKeys / 4];
uint64_t probeSlots[kProbeSlots];
uint32_t probeCounts[kProbeSlots];
volatile size_t probeSink;  // keeps the kernel's work observable

size_t formatKey(char* out, uint64_t a, uint64_t b) {
  size_t n = 0;
  out[n++] = 'R';
  out[n++] = '(';
  const uint64_t parts[2] = {a, b};
  for (int p = 0; p < 2; ++p) {
    char digits[24];
    size_t d = 0;
    uint64_t v = parts[p];
    do {
      digits[d++] = static_cast<char>('0' + v % 10);
      v /= 10;
    } while (v != 0);
    while (d > 0) out[n++] = digits[--d];
    out[n++] = p == 0 ? ',' : ')';
  }
  out[n] = '\0';
  return n;
}

double probeKernel() {
  util::Stopwatch w;
  std::fill(std::begin(probeSlots), std::end(probeSlots), 0);
  uint64_t x = 7;
  size_t kept = 0, distinct = 0;
  for (size_t i = 0; i < kProbeKeys; ++i) {
    x = x * 6364136223846793005ULL + 1;
    char key[24];
    const size_t len = formatKey(key, x % 5000 / 97, x % 5000 % 97);
    uint64_t h = 1469598103934665603ULL;  // FNV-1a
    for (size_t k = 0; k < len; ++k) {
      h = (h ^ static_cast<unsigned char>(key[k])) * 1099511628211ULL;
    }
    h |= 1;
    size_t slot = h & (kProbeSlots - 1);
    while (probeSlots[slot] != 0 && probeSlots[slot] != h) {
      slot = (slot + 1) & (kProbeSlots - 1);
    }
    if (probeSlots[slot] == 0) {
      probeSlots[slot] = h;
      probeCounts[slot] = 0;
      ++distinct;
    }
    probeCounts[slot] += static_cast<uint32_t>(i);
    if (i % 4 == 0) {
      std::memcpy(probeKeys[kept].text, key, len + 1);
      probeOrder[kept] = &probeKeys[kept];
      ++kept;
    }
  }
  std::sort(probeOrder, probeOrder + kept,
            [](const ProbeKey* l, const ProbeKey* r) {
              return std::strcmp(l->text, r->text) < 0;
            });
  probeSink = distinct + static_cast<size_t>(probeOrder[0]->text[2]);
  return w.elapsed();
}

}  // namespace

HostProbe::HostProbe() { probeKernel(); }

void HostProbe::sample(int n) {
  for (int i = 0; i < n; ++i) {
    probeKernel();  // refills the caches the workload took over
    seconds_.push_back(probeKernel());
  }
}

void HostProbe::every(double busySeconds) {
  int due = 0;
  for (; next_ <= busySeconds; next_ += kPeriod) ++due;
  sample(std::min(due, kMaxBurst));
}

double HostProbe::medianSeconds() const { return median(seconds_); }

double HostProbe::slowdown() const {
  return seconds_.empty() ? 1.0 : medianSeconds() / kNominalSeconds;
}

// ---- probes ----------------------------------------------------------

smt::Sat TimedSolver::checkUncached(const smt::Formula& f) {
  CheckScope scope(this);
  if (!admitCheck()) return smt::Sat::Unknown;
  const uint64_t enumBefore = inner_.stats().enumerations;
  util::Stopwatch watch;
  smt::Sat result = inner_.check(f);
  physicalSeconds_ += watch.elapsed();
  stats_.enumerations += inner_.stats().enumerations - enumBefore;
  if (result == smt::Sat::Unsat) ++stats_.unsat;
  if (result == smt::Sat::Unknown) ++stats_.unknown;
  return result;
}

InternerDelta::InternerDelta()
    : start_(smt::FormulaInterner::instance().stats()) {}

void InternerDelta::take(Report& r) const {
  const auto now = smt::FormulaInterner::instance().stats();
  r.addLayer("smt.interner.intern_calls",
             static_cast<double>((now.hits + now.misses) -
                                 (start_.hits + start_.misses)));
  r.addLayer("smt.interner.new_nodes",
             static_cast<double>(now.misses - start_.misses));
  r.setLayer("smt.interner.live_nodes", static_cast<double>(now.entries),
             "count");
}

void takeRegistry(const obs::Tracer& tracer, Report& r, bool solver) {
  const obs::MetricsSnapshot snap = tracer.metrics().snapshot();
  auto c = [&snap](const char* name) {
    return static_cast<double>(snap.counter(name));
  };
  r.addLayer("faurelog.eval.derivations", c("eval.derivations"));
  r.addLayer("faurelog.eval.inserted", c("eval.inserted"));
  r.addLayer("faurelog.eval.pruned_unsat", c("eval.pruned_unsat"));
  r.addLayer("faurelog.eval.subsumed", c("eval.subsumed"));
  r.addLayer("faurelog.eval.rounds", c("eval.rounds"));
  r.addLayer("faurelog.plan.probes", c("eval.plan.probes"));
  r.addLayer("faurelog.plan.hits", c("eval.plan.hits"));
  r.addLayer("faurelog.plan.index_builds", c("eval.plan.index_builds"));
  if (!solver) return;
  const double logical = c("solver.checks");
  const double hits = c("solver.cache.hits");
  const double lookups = hits + c("solver.cache.misses");
  r.addLayer("smt.checks_logical", logical);
  r.addLayer("smt.checks_physical", logical - hits);
  r.addLayer("smt.cache_lookups", lookups);
  r.addLayer("smt.enumerations", c("solver.enumerations"));
  r.cacheHits += hits;
}

void takeSolver(const TimedSolver& s, Report& r) {
  r.addLayer("smt.physical_check_s", s.physicalSeconds());
}

double timed(const std::function<void()>& fn) {
  util::Stopwatch w;
  fn();
  return w.elapsed();
}

}  // namespace faurebench
