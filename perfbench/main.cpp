// faurebench: one seeded, in-process benchmark of the whole engine.
//
//   faurebench --workload table4|whatif|scenarios|verify --seed N
//              --seconds S --trace 0|1 [--smoke]
//
// --trace 0 measures the untraced end-to-end metrics for S seconds;
// --trace 1 runs a fixed amount of the workload's work twice (untraced,
// then with an obs::Tracer attached) and reports the per-layer metrics.
// Every run checks its answers against an oracle outside the timed
// region. The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}};
// the exit code is 1 when an answer check failed, 2 on a usage error.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include <unistd.h>

#include "common.hpp"

using namespace faurebench;

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "faurebench: %s\nusage: faurebench --workload "
               "table4|whatif|scenarios|verify --seed N --seconds S "
               "--trace 0|1 [--smoke]\n",
               msg);
  return 2;
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void printMetric(const std::string& name, const Report::Metric& m) {
  std::printf("metric %-40s %16.6f %s%s%s\n", name.c_str(), m.value,
              m.unit.c_str(), m.note.empty() ? "" : "  # ",
              m.note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Args a;
  bool haveSeed = false, haveSeconds = false, haveTrace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      a.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      a.workload = v;
    } else if (arg == "--seed") {
      a.seed = std::strtoull(v, &end, 10);
      haveSeed = end != v && *end == '\0';
    } else if (arg == "--seconds") {
      a.seconds = std::strtod(v, &end);
      haveSeconds = end != v && *end == '\0' && a.seconds > 0.0;
    } else if (arg == "--trace") {
      haveTrace = std::strcmp(v, "0") == 0 || std::strcmp(v, "1") == 0;
      a.trace = std::strcmp(v, "1") == 0;
    } else {
      return usage(("unknown argument " + arg).c_str());
    }
  }
  void (*run)(const Args&, Report&) = nullptr;
  if (a.workload == "table4") run = runTable4;
  if (a.workload == "whatif") run = runWhatif;
  if (a.workload == "scenarios") run = runScenarios;
  if (a.workload == "verify") run = runVerify;
  if (run == nullptr) return usage("unknown or missing --workload");
  if (!haveSeed || !haveSeconds || !haveTrace) {
    return usage("--seed, --seconds and --trace are required");
  }

  // Some layers read FAURE_* defaults where no API knob reaches (verify's
  // internal evaluations take thread count and plan mode from them), so
  // the variables go before anything runs; the rest is pinned explicitly.
  std::vector<std::string> inherited;
  for (char** e = environ; *e != nullptr; ++e) {
    if (std::strncmp(*e, "FAURE_", 6) == 0) {
      inherited.emplace_back(*e, std::strcspn(*e, "="));
    }
  }
  for (const std::string& name : inherited) unsetenv(name.c_str());

  std::printf("faurebench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              a.workload.c_str(), static_cast<unsigned long long>(a.seed),
              a.seconds, a.trace ? 1 : 0, a.smoke ? " smoke" : "");
  std::printf("%s env_cleared=%zu\n%s\n", configLine().c_str(),
              inherited.size(), hostLine().c_str());
  std::fflush(stdout);

  Report r;
  try {
    run(a, r);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "faurebench: %s failed: %s\n", a.workload.c_str(),
                 e.what());
    return 1;
  }

  r.setNamed("failed_ratio",
             r.attempted > 0 ? static_cast<double>(r.failed) /
                                   static_cast<double>(r.attempted)
                             : 1.0,
             "ratio",
             std::to_string(r.failed) + " of " + std::to_string(r.attempted) +
                 " operations");
  const std::map<std::string, Report::Metric>* out = &r.endToEnd;
  if (a.trace) {
    const double lookups = r.layers["smt.cache_lookups"].value;
    r.setLayer("smt.cache_hit_ratio",
               lookups > 0.0 ? r.cacheHits / lookups : 0.0, "ratio",
               "base: " + jsonNumber(lookups) + " cache lookups");
    std::map<std::string, Report::Metric> layers;
    for (const auto& [name, unit] : layerCatalogue()) {
      Report::Metric m = r.layers[name];
      m.unit = unit;
      layers[name] = m;
    }
    r.layers = std::move(layers);
    out = &r.layers;
  } else {
    for (const auto& [name, m] : r.endToEnd) r.setNamed(name, m.value, m.unit);
  }
  if (!a.trace) {
    for (const auto& [name, m] : r.named) printMetric(name, m);
  } else {
    for (const auto& [name, unit] : layerCatalogue()) {
      printMetric(name, r.layers[name]);
    }
  }

  const bool correct = r.failed == 0 && r.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": " + std::to_string(r.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : *out) {
    if (!first) json += ", ";
    first = false;
    json += "\"" + name + "\": {\"value\": " + jsonNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
