// Shared pieces of the engine benchmark: arguments, the pinned engine
// configuration, the metric sheet every workload fills in, sample
// statistics, and the benchmark-side probes (timed solver, interner
// deltas, peak RSS).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "faurelog/eval.hpp"
#include "obs/trace.hpp"
#include "smt/interner.hpp"
#include "smt/solver.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace faurebench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Small inputs and few operations, for the benchmark's own test.
  bool smoke = false;
};

/// The engine configuration every workload pins explicitly, so no
/// FAURE_* environment variable can change what is measured.
struct Pinned {
  static constexpr size_t kCacheEntries = 65536;
  static constexpr unsigned kEvalThreads = 1;
  static constexpr unsigned kScenarioWidth = 4;
};

/// setup_s is the median of at least this many set-ups, spread over the
/// run: the host's speed drifts, and set-ups taken all at once would
/// sample one moment of it.
constexpr size_t kMinSetups = 9;

/// The speed of the host while a run measures. On a shared host the same
/// code runs up to twice as slow for minutes at a time while neighbours
/// load the memory system, so one run's wall times say as much about the
/// host as about the engine. The probe times a fixed kernel that is not
/// engine code (string formatting, hashing, small allocations and a sort,
/// the kind of work the engine's layers do) at points spread over the
/// run; the gated end-to-end times are scaled by kNominalSeconds over the
/// probe's median, so they read as wall times on an idle host. A change
/// to the engine moves them in full, since the kernel does not call it.
class HostProbe {
 public:
  /// The kernel's time, about, on an idle 4-vCPU 2.1 GHz Xeon host, the
  /// host this benchmark was built on.
  static constexpr double kNominalSeconds = 0.0015;
  /// The fewest samples a run's median is taken over.
  static constexpr size_t kMinSamples = 5;
  /// Seconds of request time between samples, and the most samples one
  /// long request earns.
  static constexpr double kPeriod = 0.25;
  static constexpr int kMaxBurst = 4;

  /// Runs the kernel once untimed, so caches and the allocator are warm.
  HostProbe();
  /// Times the kernel `n` times.
  void sample(int n);
  /// Call after each request with the request time so far: samples once
  /// for each multiple of kPeriod passed since the last call, at most
  /// kMaxBurst times.
  void every(double busySeconds);

  size_t samples() const { return seconds_.size(); }
  double medianSeconds() const;
  /// Median kernel time over kNominalSeconds: 1 on an idle host.
  double slowdown() const;

 private:
  std::vector<double> seconds_;
  double next_ = kPeriod;
};

/// Seconds one set-up takes; what `setup` returns is destroyed after the
/// clock stops.
template <typename Setup>
double timeSetup(Setup setup) {
  faure::util::Stopwatch w;
  auto made = setup();
  return w.elapsed();
}
/// EvalOptions with every environment-defaulted knob set: serial
/// evaluation, join planning on, no supervision, no guard.
faure::fl::EvalOptions pinnedEvalOptions(faure::obs::Tracer* tracer);

/// Scenario fan-out width: Pinned::kScenarioWidth, capped at nproc.
unsigned scenarioWidth();

/// One line of the human-readable configuration/host header.
std::string configLine();
std::string hostLine();

// ---- metrics ---------------------------------------------------------

/// What one run reports. Workloads fill `named` (the workload's own
/// end-to-end metrics, printed for people), `endToEnd` (the gated
/// metrics of BENCHMARK.json) or `layers` (BENCHMARK.json per_layer).
struct Report {
  struct Metric {
    double value = 0.0;
    std::string unit;
    std::string note;  // base of a ratio, percentile of a tail, ...
  };
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Verdict-cache hits behind smt.cache_hit_ratio (lookups are its base).
  double cacheHits = 0.0;
  std::vector<std::pair<std::string, Metric>> named;
  std::map<std::string, Metric> endToEnd;
  std::map<std::string, Metric> layers;

  void setNamed(const std::string& name, double v, const std::string& unit,
                const std::string& note = "");
  void setLayer(const std::string& name, double v, const std::string& unit,
                const std::string& note = "");
  void addLayer(const std::string& name, double v);
};

/// Every per-layer metric, with its unit, in output order. A workload
/// that does not exercise a layer reports 0 for it.
const std::vector<std::pair<std::string, std::string>>& layerCatalogue();

double median(std::vector<double> xs);

/// The highest percentile of `xs` with at least ten samples beyond it
/// (none when there are fewer than eleven samples).
struct Tail {
  bool valid = false;
  double percentile = 0.0;
  double value = 0.0;
  size_t samples = 0;
};
Tail tailOf(std::vector<double> xs);

/// Sets the named metric `name` (ms) to the tail of `seconds`, noting its
/// percentile and how many `what` it was taken over.
void setTail(Report& r, const std::string& name,
             const std::vector<double>& seconds, const std::string& what);

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// Sets the gated end-to-end metrics from a run's measurements:
/// `setups` (seconds per set-up), `opSeconds` (one entry per request)
/// and `answers` (answers the requests produced), each scaled by the
/// probe's slowdown (topped up to HostProbe::kMinSamples samples). The
/// wall times as measured, and the probe, are printed beside them as
/// named metrics. `peakRss` is peak_rss_mb as the workload took it, or 0
/// to take it now. With `fannedOut` the requests ran on several threads,
/// whose cores the single-threaded probe does not sample, so only the
/// set-ups are scaled.
void setEndToEnd(Report& r, const std::vector<double>& setups,
                 const std::vector<double>& opSeconds, double answers,
                 HostProbe& probe, double peakRss = 0.0,
                 bool fannedOut = false);

// ---- probes ----------------------------------------------------------

/// A SolverBase that forwards every physical (cache-missing) check to a
/// NativeSolver and times it; the verdict cache sits in front of it as
/// usual, so a hit never reaches checkUncached.
class TimedSolver : public faure::smt::SolverBase {
 public:
  explicit TimedSolver(const faure::CVarRegistry& reg)
      : SolverBase(reg), inner_(reg) {}

  double physicalSeconds() const { return physicalSeconds_; }

 protected:
  faure::smt::Sat checkUncached(const faure::smt::Formula& f) override;

 private:
  faure::smt::NativeSolver inner_;
  double physicalSeconds_ = 0.0;
};

/// Interner work between construction and take().
class InternerDelta {
 public:
  InternerDelta();
  void take(Report& r) const;

 private:
  faure::smt::FormulaInterner::Stats start_;
};

/// Adds the program's own counters from a traced pass's registry to the
/// faurelog.eval/plan layers and, with `solver`, to the smt layer.
void takeRegistry(const faure::obs::Tracer& tracer, Report& r,
                  bool solver = true);

/// Adds a solver's physical-check probe to the smt layer.
void takeSolver(const TimedSolver& s, Report& r);

/// Seconds spent in fn().
double timed(const std::function<void()>& fn);

// ---- the what-if network (whatif and scenarios) ----------------------

/// A forwarding chain 1..links+1 for flow f0 (every seventh of the first
/// 42 links protected by an l<k>_ fast-reroute pair) plus an Acl
/// relation of links/2 seeded (app, port) rows, in .fdb text.
std::string chainNetworkText(size_t links, uint64_t seed);

/// Reachability over the chain plus the Acl policy units: recursive
/// {R}, {Deliver}, and the leaf policy units {Open}, {Lockdown}.
std::string chainProgramText(size_t links);

/// Seeded edits against the chain network, one `faure whatif` directive
/// per call. The stream tracks the network it edits so its cost stays
/// level over a long run: an Acl edit inserts a fresh row or retracts an
/// existing one with equal odds, and a link flap re-inserts the link the
/// previous flap took down, or takes one near the chain's end down.
class EditStream {
 public:
  EditStream(size_t links, uint64_t seed);
  std::string next(bool linkFlap);

 private:
  size_t links_;
  faure::util::Rng rng_;
  std::vector<std::pair<uint64_t, int64_t>> acl_;  // (app, port)
  std::optional<size_t> down_;                     // link index
};

// ---- workloads -------------------------------------------------------

void runTable4(const Args& a, Report& r);
void runWhatif(const Args& a, Report& r);
void runScenarios(const Args& a, Report& r);
void runVerify(const Args& a, Report& r);

}  // namespace faurebench
