// `faure` — command-line front end to the library.
//
//   faure run <db.fdb> <program.fl> [options]   evaluate a fauré-log
//                                               program on a database
//   faure whatif <db.fdb> <program.fl> <edits.fl>
//                                               evaluate, then replay a
//                                               +Fact/-Fact edit script
//                                               incrementally (§10)
//   faure serve <db.fdb> <program.fl>           concurrent scenario
//                                               service (§12): EVAL/GO
//                                               line protocol on stdin
//                                               or a unix socket
//   faure check <db.fdb> <constraint.fl>        state-level constraint
//                                               verdict (§5 level iii)
//   faure worlds <db.fdb> [cap]                 enumerate possible worlds
//   faure fmt <db.fdb>                          parse and reprint
//
// `whatif` prints the derived relations once per epoch (the initial
// state, then after each edit) under `== epoch N: ... ==` headers. The
// incremental engine re-fires only strata affected by each edit;
// FAURE_INCREMENTAL=0 or --full-recompute selects the full-recompute
// oracle, whose output is byte-identical (DESIGN.md §10).
//
// `whatif --scenarios FILE` evaluates N independent edit scripts (one
// per `---`-delimited block of FILE) concurrently against one shared
// base snapshot (DESIGN.md §12), printing each scenario's epochs —
// byte-identical to N single whatif runs — under
// `=== scenario I: exit E ===` frames in input order. `serve` exposes
// the same engine as a long-lived service: `EVAL <id> <script>` queues
// a scenario (`;` separates edits), an empty line or `GO` evaluates
// the queued batch concurrently and answers
// `RESULT <id> <exit> <nbytes> [reason]` + nbytes payload per request
// in queue order, `PING` answers `PONG`, `QUIT`/EOF drains the queue
// and closes, `SHUTDOWN` additionally stops a socket server
// (--socket PATH listens on a unix socket instead of stdin/stdout).
//
// Options for `run`:
//   --relation NAME   print only this derived relation
//   --simplify        semantically simplify result conditions
//   --solver z3       use the Z3 backend (if built in)
//   --stats           print evaluation + solver statistics
//   --plan MODE       cost-based join planning: on | off | explain
//                     (run and whatif; default FAURE_PLAN env, else on)
//
// Observability (run and check; see DESIGN.md "Observability"):
//   --trace           human-readable span tree on stderr
//   --trace=FILE      Chrome trace_event JSON to FILE (about://tracing)
//   --metrics         JSON run report on stdout (replaces normal output,
//                     so the stream stays parseable)
//   --metrics=FILE    JSON run report to FILE, normal output kept
// FAURE_TRACE_FINE=1 additionally records per-join / per-solver-check
// spans (they dominate the span count on solver-heavy runs).
//
// Resource governance (run and check; see DESIGN.md "Resource
// governance & degradation"): on budget exhaustion the engine degrades —
// run prints the tuples derived so far plus `incomplete: <reason>` and
// exits 2; check answers `unknown` with the reason.
//   --deadline S            wall-clock deadline in seconds
//   --max-steps N           relational work budget
//   --max-tuples N          derivation budget
//   --max-solver-checks N   satisfiability-check budget
//   --fail-after N          deterministic fault injection (testing)
// Environment defaults: FAURE_DEADLINE, FAURE_MAX_STEPS,
// FAURE_MAX_TUPLES, FAURE_MAX_SOLVER_CHECKS, FAURE_MAX_MEMORY,
// FAURE_FAIL_AFTER.
//
// Solver failover (see DESIGN.md §9): either flag wraps the solver in
// an smt::FailoverSolver. A primary check that throws or times out is
// answered by the native solver with --failover, else it degrades to
// unknown:
//   --solver-timeout-ms MS  per-check deadline of the primary solver
//   --failover              the native solver answers failed checks
// Environment defaults: FAURE_SOLVER_TIMEOUT_MS, FAURE_FAILOVER.
//
// Numeric flag values are strict: the whole value must be a number
// (counts unsigned, durations finite), else `invalid value` and exit 1.
// An unknown flag is named (`unknown option '<flag>'`) before the usage.
//
// Exit codes (stable contract, tested by tests/cli):
//   0  definite result — run completed; check verdict is holds /
//      violated / conditionally-violated
//   1  hard error — bad usage, unreadable input, parse failure
//   2  degraded result — run incomplete (budget) or check verdict
//      unknown: rerun with more resources
//
// Database files use the textio format (see src/faurelog/textio.hpp);
// programs are fauré-log text (see src/datalog/lexer.hpp).
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <type_traits>

#include "datalog/parser.hpp"
#include "faurelog/eval.hpp"
#include "faurelog/incremental.hpp"
#include "faurelog/scenario.hpp"
#include "faurelog/textio.hpp"
#include "obs/report.hpp"
#include "obs/trace.hpp"
#include "relational/worlds.hpp"
#include "smt/failover_solver.hpp"
#include "smt/verdict_cache.hpp"
#include "smt/z3_solver.hpp"
#include "util/error.hpp"
#include "util/resource_guard.hpp"
#include "verify/verifier.hpp"

using namespace faure;

namespace {

std::string readFile(const char* path) {
  std::ifstream in(path);
  if (!in) throw Error(std::string("cannot open '") + path + "'");
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

int usage() {
  std::fprintf(
      stderr,
      "usage:\n"
      "  faure run <db.fdb> <program.fl> [--relation NAME] [--simplify]\n"
      "            [--solver native|z3] [--stats] [--db-out FILE]\n"
      "            [--plan MODE] [--solver-cache N]\n"
      "            [observability options] [budget options]\n"
      "  faure whatif <db.fdb> <program.fl> <edits.fl> [--relation NAME]\n"
      "            [--incremental | --full-recompute] [--solver native|z3]\n"
      "            [--stats] [--plan MODE] [--solver-cache N]\n"
      "            [observability options] [budget options]\n"
      "            (default mode: FAURE_INCREMENTAL env, on unless \"0\";\n"
      "             both modes print byte-identical epochs)\n"
      "  faure whatif <db.fdb> <program.fl> --scenarios FILE\n"
      "            [--threads N | -jN] [whatif flags]\n"
      "            evaluate one scenario per ----delimited block of FILE\n"
      "            concurrently against a shared base snapshot; output is\n"
      "            byte-identical to N single whatif runs (framed per\n"
      "            scenario, input order)\n"
      "  faure serve <db.fdb> <program.fl> [--socket PATH]\n"
      "            [--threads N | -jN] [whatif flags]\n"
      "            scenario service: EVAL/GO/PING/QUIT/SHUTDOWN line\n"
      "            protocol on stdin/stdout, or on a unix socket\n"
      "  faure check <db.fdb> <constraint.fl> [--stats] [--solver-cache N]\n"
      "            [observability options] [budget options]\n"
      "  faure worlds <db.fdb> [cap]\n"
      "  faure fmt <db.fdb>\n"
      "scenario fan-out (DESIGN.md \"Concurrent scenario service\";\n"
      "evaluation itself is serial):\n"
      "  --threads N / -jN  scenarios evaluated at once (whatif --scenarios,\n"
      "                     serve); 0 = hardware concurrency. Default:\n"
      "                     FAURE_THREADS env, else 1. Results are\n"
      "                     identical for every N.\n"
      "join planning (DESIGN.md \"Cost-based join planning\"):\n"
      "  --plan MODE  on: reorder body literals by estimated selectivity\n"
      "               and probe persistent c-table indexes; off: pristine\n"
      "               program-order joins; explain: plan and dump each\n"
      "               chosen plan to stderr. Default: FAURE_PLAN env,\n"
      "               else on. Results are identical in every mode.\n"
      "solver verdict cache (DESIGN.md \"Condition performance\"):\n"
      "  --solver-cache N  memoized check()/implies() verdicts (LRU\n"
      "                    entries); 0 disables. Default: FAURE_SOLVER_CACHE\n"
      "                    env, else 65536. Results are identical for\n"
      "                    every N; only physical solver work changes.\n"
      "observability options (DESIGN.md \"Observability\"):\n"
      "  --trace[=FILE]    span tree on stderr / Chrome trace to FILE\n"
      "  --metrics[=FILE]  JSON run report on stdout / to FILE\n"
      "budget options (degrade to incomplete/unknown, never hang):\n"
      "  --deadline S  --max-steps N  --max-tuples N\n"
      "  --max-solver-checks N  --fail-after N\n"
      "solver failover (DESIGN.md \"Solver failover\"):\n"
      "  --solver-timeout-ms MS  --failover\n"
      "exit codes: 0 definite result, 1 hard error, 2 degraded result\n"
      "            (run incomplete / check verdict unknown)\n");
  return 1;
}

/// Names a flag the command does not take, then prints the usage.
int unknownOption(const char* flag) {
  std::fprintf(stderr, "faure: unknown option '%s'\n", flag);
  return usage();
}

/// The value of the flag at argv[i], advancing i past it.
const char* flagValue(int argc, char** argv, int& i) {
  if (i + 1 >= argc) {
    throw Error(std::string("missing value for ") + argv[i]);
  }
  return argv[++i];
}

/// Strict numeric value of `flag`: the whole of `text` must be a
/// number — an unsigned decimal for an integral T (a count), a finite
/// one for a floating-point T.
template <typename T>
T parseNumber(const char* flag, const char* text) {
  // strto* would skip leading blanks and take a sign; a count takes
  // neither, a duration only the sign.
  const bool digit = text[0] >= '0' && text[0] <= '9';
  char* end = nullptr;
  errno = 0;
  bool ok = false;
  T value{};
  if constexpr (std::is_integral_v<T>) {
    unsigned long long v = std::strtoull(text, &end, 10);
    ok = digit && errno == 0 && v <= std::numeric_limits<T>::max();
    value = static_cast<T>(v);
  } else {
    value = static_cast<T>(std::strtod(text, &end));
    ok = (digit || std::strchr("+-.", text[0]) != nullptr) &&
         end != text && std::isfinite(value);
  }
  if (!ok || *end != '\0') {
    throw Error(std::string("invalid value '") + text + "' for " + flag);
  }
  return value;
}

/// Parses one budget flag at argv[i] (advancing i past its value);
/// returns false when argv[i] is not a budget flag.
bool parseBudgetFlag(int argc, char** argv, int& i, ResourceLimits& limits) {
  const char* flag = argv[i];
  auto count = [&](uint64_t& out) {
    out = parseNumber<uint64_t>(flag, flagValue(argc, argv, i));
  };
  if (std::strcmp(flag, "--deadline") == 0) {
    limits.deadlineSeconds =
        parseNumber<double>(flag, flagValue(argc, argv, i));
  } else if (std::strcmp(flag, "--max-steps") == 0) {
    count(limits.maxSteps);
  } else if (std::strcmp(flag, "--max-tuples") == 0) {
    count(limits.maxTuples);
  } else if (std::strcmp(flag, "--max-solver-checks") == 0) {
    count(limits.maxSolverChecks);
  } else if (std::strcmp(flag, "--fail-after") == 0) {
    count(limits.failAfter);
  } else {
    return false;
  }
  return true;
}

/// Parses a thread-count flag (`--threads N`, `--threads=N`, `-jN`,
/// `-j N`) at argv[i], advancing i past any separate value; returns
/// false when argv[i] is not a thread flag.
bool parseThreadsFlag(int argc, char** argv, int& i,
                      std::optional<unsigned>& threads) {
  if (std::strncmp(argv[i], "--threads=", 10) == 0) {
    threads = parseNumber<unsigned>("--threads", argv[i] + 10);
  } else if (std::strcmp(argv[i], "--threads") == 0) {
    threads = parseNumber<unsigned>("--threads", flagValue(argc, argv, i));
  } else if (std::strncmp(argv[i], "-j", 2) == 0) {
    const char* value =
        argv[i][2] != '\0' ? argv[i] + 2 : flagValue(argc, argv, i);
    threads = parseNumber<unsigned>("-j", value);
  } else {
    return false;
  }
  return true;
}

/// Parses `--solver-cache N` / `--solver-cache=N` (verdict-cache LRU
/// entries; 0 disables) at argv[i], advancing i past any separate value;
/// returns false when argv[i] is not the cache flag.
bool parseSolverCacheFlag(int argc, char** argv, int& i, size_t& entries) {
  if (std::strncmp(argv[i], "--solver-cache=", 15) == 0) {
    entries = parseNumber<size_t>("--solver-cache", argv[i] + 15);
  } else if (std::strcmp(argv[i], "--solver-cache") == 0) {
    entries =
        parseNumber<size_t>("--solver-cache", flagValue(argc, argv, i));
  } else {
    return false;
  }
  return true;
}

/// Parses `--plan MODE` / `--plan=MODE` (MODE: on|off|explain; the
/// cost-based join planner, DESIGN.md §11) at argv[i], advancing i past
/// any separate value; returns false when argv[i] is not the plan flag.
bool parsePlanFlag(int argc, char** argv, int& i,
                   std::optional<fl::PlanMode>& plan) {
  const char* value = nullptr;
  if (std::strncmp(argv[i], "--plan=", 7) == 0) {
    value = argv[i] + 7;
  } else if (std::strcmp(argv[i], "--plan") == 0) {
    value = flagValue(argc, argv, i);
  } else {
    return false;
  }
  if (std::strcmp(value, "off") == 0) {
    plan = fl::PlanMode::Off;
  } else if (std::strcmp(value, "on") == 0) {
    plan = fl::PlanMode::On;
  } else if (std::strcmp(value, "explain") == 0) {
    plan = fl::PlanMode::Explain;
  } else {
    throw Error("--plan expects on, off or explain");
  }
  return true;
}

const char* planModeName(fl::PlanMode m) {
  switch (m) {
    case fl::PlanMode::Off:
      return "off";
    case fl::PlanMode::Explain:
      return "explain";
    case fl::PlanMode::On:
      break;
  }
  return "on";
}

/// Parses one failover flag at argv[i] (advancing i past its value);
/// returns false when argv[i] is not one. `sup` starts from
/// SupervisionOptions::fromEnv(), so flags override the FAURE_*
/// environment defaults.
bool parseSupervisionFlag(int argc, char** argv, int& i,
                          smt::SupervisionOptions& sup) {
  if (std::strcmp(argv[i], "--solver-timeout-ms") == 0) {
    sup.timeoutMs = parseNumber<double>("--solver-timeout-ms",
                                        flagValue(argc, argv, i));
  } else if (std::strcmp(argv[i], "--failover") == 0) {
    sup.failover = true;
  } else {
    return false;
  }
  return true;
}

/// Supervision entry for the run report / --stats.
void addSupervisionMeta(obs::ReportMeta& meta,
                        const smt::SupervisionOptions& sup) {
  if (sup.enabled()) meta.add("supervision", "on");
}

void printSuperviseStats(const obs::MetricsSnapshot& snap) {
  std::printf("supervise: %llu failovers, %llu degraded\n",
              static_cast<unsigned long long>(
                  snap.counter("solver.supervise.failovers")),
              static_cast<unsigned long long>(
                  snap.counter("solver.supervise.degraded")));
}

/// Observability flags shared by run and check.
struct ObsFlags {
  bool stats = false;
  bool trace = false;
  const char* traceFile = nullptr;  // null: human tree on stderr
  bool metrics = false;
  const char* metricsFile = nullptr;  // null: report on stdout

  bool any() const { return stats || trace || metrics; }
  /// Bare --metrics owns stdout: normal output is suppressed so the
  /// stream is a single parseable JSON document.
  bool quietStdout() const { return metrics && metricsFile == nullptr; }
};

bool parseObsFlag(const char* arg, ObsFlags& obs) {
  if (std::strcmp(arg, "--stats") == 0) {
    obs.stats = true;
  } else if (std::strcmp(arg, "--trace") == 0) {
    obs.trace = true;
  } else if (std::strncmp(arg, "--trace=", 8) == 0) {
    obs.trace = true;
    obs.traceFile = arg + 8;
  } else if (std::strcmp(arg, "--metrics") == 0) {
    obs.metrics = true;
  } else if (std::strncmp(arg, "--metrics=", 10) == 0) {
    obs.metrics = true;
    obs.metricsFile = arg + 10;
  } else {
    return false;
  }
  return true;
}

/// One tracer per invocation when any observability output is requested
/// (--stats reads its numbers back from the registry).
std::unique_ptr<obs::Tracer> makeTracer(const ObsFlags& flags) {
  if (!flags.any()) return nullptr;
  obs::TracerOptions topts;
  const char* fine = std::getenv("FAURE_TRACE_FINE");
  topts.fineSpans = fine != nullptr && *fine != '\0' && *fine != '0';
  return std::make_unique<obs::Tracer>(topts);
}

void writeFileOrThrow(const char* path, const std::string& text) {
  std::ofstream out(path);
  if (!out) throw Error(std::string("cannot write '") + path + "'");
  out << text;
}

/// Emits the requested --trace / --metrics artifacts. Called after the
/// top-level span is closed so the exported tree is complete.
void exportObs(const obs::Tracer& tracer, const ObsFlags& flags,
               const obs::ReportMeta& meta) {
  if (flags.trace) {
    if (flags.traceFile != nullptr) {
      writeFileOrThrow(flags.traceFile, tracer.chromeTrace());
    } else {
      std::fputs(tracer.dumpTree().c_str(), stderr);
    }
  }
  if (flags.metrics) {
    std::string report = obs::runReportJson(tracer, meta);
    if (flags.metricsFile != nullptr) {
      writeFileOrThrow(flags.metricsFile, report);
    } else {
      std::printf("%s\n", report.c_str());
    }
  }
}

/// `--stats` output, sourced from the metrics registry (the canonical
/// store; the line format predates it and is kept stable for scripts).
void printSolverStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "solver: %llu checks, %llu unsat, %llu unknown, "
      "%llu budget-trips, %llu enumerations, %.3fs\n",
      static_cast<unsigned long long>(snap.counter("solver.checks")),
      static_cast<unsigned long long>(snap.counter("solver.unsat")),
      static_cast<unsigned long long>(snap.counter("solver.unknown")),
      static_cast<unsigned long long>(snap.counter("solver.budget_trips")),
      static_cast<unsigned long long>(snap.counter("solver.enumerations")),
      snap.histogram("solver.check_seconds").sum);
}

void printEvalStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "stats: %llu derivations, %llu inserted, %llu pruned-unsat, "
      "%llu subsumed, %zu rounds, %llu budget-trips, sql %.3fs, "
      "solver %.3fs (%llu checks)\n",
      static_cast<unsigned long long>(snap.counter("eval.derivations")),
      static_cast<unsigned long long>(snap.counter("eval.inserted")),
      static_cast<unsigned long long>(snap.counter("eval.pruned_unsat")),
      static_cast<unsigned long long>(snap.counter("eval.subsumed")),
      static_cast<size_t>(snap.counter("eval.rounds")),
      static_cast<unsigned long long>(snap.counter("eval.budget_trips")),
      snap.histogram("eval.sql_seconds").sum,
      snap.histogram("eval.solver_seconds").sum,
      static_cast<unsigned long long>(snap.counter("solver.checks")));
}

std::unique_ptr<smt::SolverBase> makeSolver(const rel::Database& db,
                                            const char* which) {
  if (std::strcmp(which, "z3") == 0) {
    auto z3 = smt::makeZ3Solver(db.cvars());
    if (z3 == nullptr) throw Error("this build has no Z3 backend");
    return z3;
  }
  if (std::strcmp(which, "native") != 0) {
    throw Error(std::string("unknown solver '") + which + "'");
  }
  return std::make_unique<smt::NativeSolver>(db.cvars());
}

int cmdRun(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* relation = nullptr;
  const char* solverName = "native";
  const char* dbOut = nullptr;
  bool simplify = false;
  std::optional<fl::PlanMode> plan;
  size_t cacheEntries = smt::VerdictCache::capacityFromEnv();
  ObsFlags obsFlags;
  ResourceLimits limits = ResourceLimits::fromEnv();
  smt::SupervisionOptions sup = smt::SupervisionOptions::fromEnv();
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--relation") == 0) {
      relation = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--simplify") == 0) {
      simplify = true;
    } else if (std::strcmp(argv[i], "--solver") == 0) {
      solverName = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--db-out") == 0) {
      dbOut = flagValue(argc, argv, i);
    } else if (parsePlanFlag(argc, argv, i, plan)) {
      continue;
    } else if (parseSolverCacheFlag(argc, argv, i, cacheEntries)) {
      continue;
    } else if (parseObsFlag(argv[i], obsFlags)) {
      continue;
    } else if (parseBudgetFlag(argc, argv, i, limits)) {
      continue;
    } else if (parseSupervisionFlag(argc, argv, i, sup)) {
      continue;
    } else {
      return unknownOption(argv[i]);
    }
  }
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  auto solver = makeSolver(db, solverName);
  std::unique_ptr<smt::VerdictCache> cache;
  if (cacheEntries > 0) {
    cache = std::make_unique<smt::VerdictCache>(db.cvars(), cacheEntries);
    solver->setVerdictCache(cache.get());
  }
  solver = smt::supervise(std::move(solver), sup);
  std::unique_ptr<obs::Tracer> tracer = makeTracer(obsFlags);
  ResourceGuard guard(limits);
  fl::EvalOptions opts;
  opts.simplifyResults = simplify;
  opts.plan = plan;
  opts.tracer = tracer.get();
  if (guard.active()) {
    opts.guard = &guard;
    solver->setGuard(&guard);
    if (tracer != nullptr) {
      guard.onTrip([&tracer](Budget, const std::string& reason) {
        tracer->event("budget.trip", reason);
      });
    }
  }
  fl::EvalResult res;
  {
    obs::Span top(tracer.get(), "run");
    if (top) {
      top.note("database", argv[0]);
      top.note("program", argv[1]);
    }
    res = fl::evalFaure(program, db, solver.get(), opts);
  }
  for (const auto& [pred, table] : res.idb) {
    if (obsFlags.quietStdout()) break;
    if (relation != nullptr && pred != relation) continue;
    std::printf("%s\n", table.toString(&db.cvars()).c_str());
  }
  if (dbOut != nullptr) {
    // Write the input state plus every derived relation: later `faure`
    // invocations can query the results (the q6/q7 nesting pattern).
    for (auto& [pred, table] : res.idb) db.put(std::move(table));
    std::ofstream out(dbOut);
    if (!out) throw Error(std::string("cannot write '") + dbOut + "'");
    out << fl::formatDatabase(db);
  }
  if (obsFlags.stats && !obsFlags.quietStdout()) {
    obs::MetricsSnapshot snap = tracer->metrics().snapshot();
    printEvalStats(snap);
    printSolverStats(snap);
    if (sup.enabled()) printSuperviseStats(snap);
  }
  if (tracer != nullptr) {
    obs::ReportMeta meta;
    meta.command = "run";
    meta.add("database", argv[0]);
    meta.add("program", argv[1]);
    meta.add("solver", solverName);
    meta.add("plan", planModeName(fl::resolvePlanMode(opts.plan)));
    addSupervisionMeta(meta, sup);
    if (res.incomplete) meta.add("incomplete", res.degradeReason);
    exportObs(*tracer, obsFlags, meta);
  }
  if (res.incomplete) {
    std::fprintf(stderr,
                 "incomplete: %s — results above are the tuples derived "
                 "before the budget tripped\n",
                 res.degradeReason.c_str());
    return 2;
  }
  return 0;
}

void printIncStats(const fl::IncStats& inc) {
  std::printf(
      "incremental: %llu epochs (%llu full), %llu refired rules, "
      "%llu skipped rules, %llu reused strata, %llu dirty strata, "
      "+%llu/-%llu edits\n",
      static_cast<unsigned long long>(inc.epochs),
      static_cast<unsigned long long>(inc.fullRecomputes),
      static_cast<unsigned long long>(inc.refiredRules),
      static_cast<unsigned long long>(inc.skippedRules),
      static_cast<unsigned long long>(inc.reusedStrata),
      static_cast<unsigned long long>(inc.dirtyStrata),
      static_cast<unsigned long long>(inc.deltaInserts),
      static_cast<unsigned long long>(inc.deltaRetracts));
}

int cmdWhatifBatch(int argc, char** argv);

int cmdWhatif(int argc, char** argv) {
  // `--scenarios FILE` anywhere switches to batch mode: no positional
  // edit script, one scenario per `---`-delimited block of FILE.
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenarios") == 0 ||
        std::strncmp(argv[i], "--scenarios=", 12) == 0) {
      return cmdWhatifBatch(argc, argv);
    }
  }
  if (argc < 3) return usage();
  const char* relation = nullptr;
  const char* solverName = "native";
  std::optional<fl::PlanMode> plan;
  size_t cacheEntries = smt::VerdictCache::capacityFromEnv();
  ObsFlags obsFlags;
  ResourceLimits limits = ResourceLimits::fromEnv();
  smt::SupervisionOptions sup = smt::SupervisionOptions::fromEnv();
  int mode = -1;  // -1: FAURE_INCREMENTAL env; 0: oracle; 1: incremental
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--relation") == 0) {
      relation = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--solver") == 0) {
      solverName = flagValue(argc, argv, i);
    } else if (std::strcmp(argv[i], "--incremental") == 0) {
      mode = 1;
    } else if (std::strcmp(argv[i], "--full-recompute") == 0) {
      mode = 0;
    } else if (parsePlanFlag(argc, argv, i, plan)) {
      continue;
    } else if (parseSolverCacheFlag(argc, argv, i, cacheEntries)) {
      continue;
    } else if (parseObsFlag(argv[i], obsFlags)) {
      continue;
    } else if (parseBudgetFlag(argc, argv, i, limits)) {
      continue;
    } else if (parseSupervisionFlag(argc, argv, i, sup)) {
      continue;
    } else {
      return unknownOption(argv[i]);
    }
  }
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  std::vector<fl::Edit> edits = fl::parseEditScript(readFile(argv[2]), db);
  auto solver = makeSolver(db, solverName);
  std::unique_ptr<smt::VerdictCache> cache;
  if (cacheEntries > 0) {
    cache = std::make_unique<smt::VerdictCache>(db.cvars(), cacheEntries);
    solver->setVerdictCache(cache.get());
  }
  solver = smt::supervise(std::move(solver), sup);
  std::unique_ptr<obs::Tracer> tracer = makeTracer(obsFlags);
  ResourceGuard guard(limits);
  fl::EvalOptions opts;
  opts.plan = plan;
  opts.tracer = tracer.get();
  if (guard.active()) {
    opts.guard = &guard;
    solver->setGuard(&guard);
    if (tracer != nullptr) {
      guard.onTrip([&tracer](Budget, const std::string& reason) {
        tracer->event("budget.trip", reason);
      });
    }
  }
  fl::IncrementalEngine eng(std::move(program), db, solver.get(), opts);
  if (mode >= 0) eng.setIncremental(mode == 1);

  auto printEpoch = [&](const fl::EvalResult& res) {
    for (const auto& [pred, table] : res.idb) {
      if (obsFlags.quietStdout()) break;
      if (relation != nullptr && pred != relation) continue;
      std::printf("%s\n", table.toString(&db.cvars()).c_str());
    }
  };

  int exitCode = 0;
  size_t epochsRun = 0;
  std::string degradeReason;
  {
    obs::Span top(tracer.get(), "whatif");
    if (top) {
      top.note("database", argv[0]);
      top.note("program", argv[1]);
      top.note("edits", argv[2]);
    }
    if (!obsFlags.quietStdout()) std::printf("== epoch 0: initial ==\n");
    // Budgets are per epoch: every reevaluation gets the full allowance,
    // like one Session operation.
    if (guard.active()) guard.rearm();
    fl::EvalResult res = eng.reevaluate();
    ++epochsRun;
    printEpoch(res);
    if (res.incomplete) {
      exitCode = 2;
      degradeReason = res.degradeReason;
    }
    for (size_t e = 0; exitCode == 0 && e < edits.size(); ++e) {
      eng.apply(edits[e]);
      if (!obsFlags.quietStdout()) {
        std::printf("== epoch %zu: %s ==\n", e + 1,
                    fl::formatEdit(edits[e], db.cvars()).c_str());
      }
      if (guard.active()) guard.rearm();
      res = eng.reevaluate();
      ++epochsRun;
      printEpoch(res);
      if (res.incomplete) {
        exitCode = 2;
        degradeReason = res.degradeReason;
      }
    }
  }
  if (obsFlags.stats && !obsFlags.quietStdout()) {
    obs::MetricsSnapshot snap = tracer->metrics().snapshot();
    printEvalStats(snap);
    printSolverStats(snap);
    printIncStats(eng.stats());
    if (sup.enabled()) printSuperviseStats(snap);
  }
  if (tracer != nullptr) {
    obs::ReportMeta meta;
    meta.command = "whatif";
    meta.add("database", argv[0]);
    meta.add("program", argv[1]);
    meta.add("edits", argv[2]);
    meta.add("solver", solverName);
    meta.add("plan", planModeName(fl::resolvePlanMode(opts.plan)));
    meta.add("incremental", eng.incremental() ? "on" : "off");
    meta.add("epochs", std::to_string(epochsRun));
    addSupervisionMeta(meta, sup);
    if (exitCode == 2) meta.add("incomplete", degradeReason);
    exportObs(*tracer, obsFlags, meta);
  }
  if (exitCode == 2) {
    std::fprintf(stderr,
                 "incomplete: %s — the epoch above holds only the tuples "
                 "derived before the budget tripped; later edits were not "
                 "replayed\n",
                 degradeReason.c_str());
  }
  return exitCode;
}

/// Flags shared by `whatif --scenarios` and `serve` (the scenario
/// engine takes the same knobs as single-scenario whatif).
struct ScenarioCliFlags {
  const char* relation = nullptr;
  const char* solverName = "native";
  std::optional<unsigned> threads;
  std::optional<fl::PlanMode> plan;
  size_t cacheEntries = smt::VerdictCache::capacityFromEnv();
  ObsFlags obs;
  ResourceLimits limits = ResourceLimits::fromEnv();
  smt::SupervisionOptions sup = smt::SupervisionOptions::fromEnv();
  int mode = -1;  // -1: FAURE_INCREMENTAL env; 0: oracle; 1: incremental
};

bool parseScenarioCommonFlag(int argc, char** argv, int& i,
                             ScenarioCliFlags& f) {
  if (std::strcmp(argv[i], "--relation") == 0) {
    f.relation = flagValue(argc, argv, i);
  } else if (std::strcmp(argv[i], "--solver") == 0) {
    f.solverName = flagValue(argc, argv, i);
  } else if (std::strcmp(argv[i], "--incremental") == 0) {
    f.mode = 1;
  } else if (std::strcmp(argv[i], "--full-recompute") == 0) {
    f.mode = 0;
  } else if (parseThreadsFlag(argc, argv, i, f.threads)) {
  } else if (parsePlanFlag(argc, argv, i, f.plan)) {
  } else if (parseSolverCacheFlag(argc, argv, i, f.cacheEntries)) {
  } else if (parseObsFlag(argv[i], f.obs)) {
  } else if (parseBudgetFlag(argc, argv, i, f.limits)) {
  } else if (parseSupervisionFlag(argc, argv, i, f.sup)) {
  } else {
    return false;
  }
  return true;
}

fl::ScenarioSetOptions buildScenarioOptions(const ScenarioCliFlags& f,
                                            obs::Tracer* tracer) {
  fl::ScenarioSetOptions sopts;
  sopts.eval.threads = f.threads;  // the fan-out width
  sopts.eval.plan = f.plan;
  sopts.eval.tracer = tracer;
  sopts.limits = f.limits;
  sopts.supervision = f.sup;
  sopts.mode = f.mode;
  if (f.relation != nullptr) sopts.relation = f.relation;
  sopts.cacheEntries = f.cacheEntries;
  sopts.solverName = f.solverName;
  return sopts;
}

void printServeStats(const obs::MetricsSnapshot& snap) {
  std::printf(
      "serve: %llu scenarios, %llu epochs, %llu degraded, %llu errors\n",
      static_cast<unsigned long long>(snap.counter("serve.scenarios")),
      static_cast<unsigned long long>(snap.counter("serve.epochs")),
      static_cast<unsigned long long>(snap.counter("serve.degraded")),
      static_cast<unsigned long long>(snap.counter("serve.errors")));
}

/// `faure whatif <db> <prog> --scenarios FILE`: batch front end over
/// fl::ScenarioSet. Exit code aggregates the per-scenario contract:
/// 1 if any scenario hard-errored, else 2 if any degraded, else 0.
int cmdWhatifBatch(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* scenariosFile = nullptr;
  ScenarioCliFlags flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--scenarios") == 0) {
      scenariosFile = flagValue(argc, argv, i);
    } else if (std::strncmp(argv[i], "--scenarios=", 12) == 0) {
      scenariosFile = argv[i] + 12;
    } else if (parseScenarioCommonFlag(argc, argv, i, flags)) {
      continue;
    } else {
      return unknownOption(argv[i]);
    }
  }
  if (scenariosFile == nullptr) return usage();
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  std::vector<fl::Scenario> scenarios =
      fl::parseScenarioFile(readFile(scenariosFile));
  std::unique_ptr<obs::Tracer> tracer = makeTracer(flags.obs);
  fl::ScenarioSet set(std::move(program), std::move(db),
                      buildScenarioOptions(flags, tracer.get()));
  std::vector<fl::ScenarioOutcome> results;
  {
    obs::Span top(tracer.get(), "whatif.batch");
    if (top) {
      top.note("database", argv[0]);
      top.note("program", argv[1]);
      top.note("scenarios", scenariosFile);
    }
    results = set.evaluate(scenarios);
  }
  int exitCode = 0;
  for (const fl::ScenarioOutcome& r : results) {
    if (!flags.obs.quietStdout()) {
      std::printf("=== scenario %s: exit %d ===\n", r.id.c_str(),
                  r.exitCode);
      std::fwrite(r.output.data(), 1, r.output.size(), stdout);
    }
    if (!r.message.empty()) {
      std::fprintf(stderr, "scenario %s: %s\n", r.id.c_str(),
                   r.message.c_str());
    }
    if (r.exitCode == 1) {
      exitCode = 1;
    } else if (r.exitCode == 2 && exitCode == 0) {
      exitCode = 2;
    }
  }
  if (flags.obs.stats && !flags.obs.quietStdout()) {
    obs::MetricsSnapshot snap = tracer->metrics().snapshot();
    printEvalStats(snap);
    printSolverStats(snap);
    printServeStats(snap);
    if (flags.sup.enabled()) printSuperviseStats(snap);
  }
  if (tracer != nullptr) {
    fl::EvalOptions fanout;
    fanout.threads = flags.threads;
    obs::ReportMeta meta;
    meta.command = "whatif";
    meta.add("database", argv[0]);
    meta.add("program", argv[1]);
    meta.add("scenarios", scenariosFile);
    meta.add("scenario_count", std::to_string(results.size()));
    meta.add("solver", flags.solverName);
    meta.add("threads", std::to_string(fl::resolveThreads(fanout)));
    meta.add("plan", planModeName(fl::resolvePlanMode(flags.plan)));
    addSupervisionMeta(meta, flags.sup);
    exportObs(*tracer, flags.obs, meta);
  }
  return exitCode;
}

/// One client conversation over the serve line protocol (see the file
/// header). Returns true when the client asked for SHUTDOWN. Queued
/// requests are always drained before returning — graceful shutdown
/// never drops accepted work.
bool serveLoop(fl::ScenarioSet& set, FILE* in, FILE* out) {
  std::vector<fl::Scenario> queue;
  bool shutdown = false;
  auto flush = [&] {
    if (queue.empty()) return;
    std::vector<fl::ScenarioOutcome> results = set.evaluate(queue);
    for (const fl::ScenarioOutcome& r : results) {
      std::string reason = r.message;
      for (char& c : reason) {  // RESULT is line-framed
        if (c == '\n' || c == '\r') c = ' ';
      }
      std::fprintf(out, "RESULT %s %d %zu%s%s\n", r.id.c_str(), r.exitCode,
                   r.output.size(), reason.empty() ? "" : " ",
                   reason.c_str());
      std::fwrite(r.output.data(), 1, r.output.size(), out);
    }
    std::fflush(out);
    queue.clear();
  };
  char* line = nullptr;
  size_t cap = 0;
  ssize_t len;
  while ((len = ::getline(&line, &cap, in)) != -1) {
    std::string_view cmd(line, static_cast<size_t>(len));
    while (!cmd.empty() && (cmd.back() == '\n' || cmd.back() == '\r')) {
      cmd.remove_suffix(1);
    }
    if (cmd.empty() || cmd == "GO") {
      flush();
    } else if (cmd == "PING") {
      std::fputs("PONG\n", out);
      std::fflush(out);
    } else if (cmd == "QUIT") {
      break;
    } else if (cmd == "SHUTDOWN") {
      shutdown = true;
      break;
    } else if (cmd.rfind("EVAL ", 0) == 0) {
      std::string_view rest = cmd.substr(5);
      size_t sp = rest.find(' ');
      std::string id(rest.substr(0, sp));
      std::string script(sp == std::string_view::npos
                             ? std::string_view()
                             : rest.substr(sp + 1));
      for (char& c : script) {  // `;` separates edits on the wire
        if (c == ';') c = '\n';
      }
      if (id.empty()) {
        std::fputs("ERR EVAL needs an id\n", out);
        std::fflush(out);
      } else {
        queue.push_back({std::move(id), std::move(script)});
      }
    } else {
      std::fprintf(out, "ERR unknown command: %.*s\n",
                   static_cast<int>(cmd.size()), cmd.data());
      std::fflush(out);
    }
  }
  std::free(line);
  flush();
  return shutdown;
}

/// Accept loop for `serve --socket PATH`: one client at a time (each
/// batch already fans out internally), until a client sends SHUTDOWN.
int serveOnSocket(fl::ScenarioSet& set, const char* path) {
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) throw Error(std::string("socket: ") + std::strerror(errno));
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (std::strlen(path) >= sizeof(addr.sun_path)) {
    ::close(fd);
    throw Error(std::string("--socket path too long: ") + path);
  }
  std::strncpy(addr.sun_path, path, sizeof(addr.sun_path) - 1);
  ::unlink(path);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 8) != 0) {
    std::string err = std::strerror(errno);
    ::close(fd);
    throw Error("cannot listen on '" + std::string(path) + "': " + err);
  }
  // Handshake on stdout so scripts can wait for the socket to exist.
  std::printf("READY %s\n", path);
  std::fflush(stdout);
  bool shutdown = false;
  while (!shutdown) {
    int client = ::accept(fd, nullptr, nullptr);
    if (client < 0) break;
    FILE* cin = ::fdopen(client, "r");
    FILE* cout = cin != nullptr ? ::fdopen(::dup(client), "w") : nullptr;
    if (cout == nullptr) {
      if (cin != nullptr) {
        std::fclose(cin);
      } else {
        ::close(client);
      }
      continue;
    }
    shutdown = serveLoop(set, cin, cout);
    std::fclose(cout);
    std::fclose(cin);
  }
  ::close(fd);
  ::unlink(path);
  return 0;
}

int cmdServe(int argc, char** argv) {
  if (argc < 2) return usage();
  const char* socketPath = nullptr;
  ScenarioCliFlags flags;
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--socket") == 0) {
      socketPath = flagValue(argc, argv, i);
    } else if (std::strncmp(argv[i], "--socket=", 9) == 0) {
      socketPath = argv[i] + 9;
    } else if (parseScenarioCommonFlag(argc, argv, i, flags)) {
      continue;
    } else {
      return unknownOption(argv[i]);
    }
  }
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  dl::Program program = dl::parseProgram(readFile(argv[1]), db.cvars());
  std::unique_ptr<obs::Tracer> tracer = makeTracer(flags.obs);
  fl::ScenarioSet set(std::move(program), std::move(db),
                      buildScenarioOptions(flags, tracer.get()));
  // Front-load the shared epoch 0 so the first request pays only its
  // own marginal cost.
  set.prepare();
  if (socketPath != nullptr) return serveOnSocket(set, socketPath);
  std::printf("READY\n");
  std::fflush(stdout);
  serveLoop(set, stdin, stdout);
  return 0;
}

int cmdCheck(int argc, char** argv) {
  if (argc < 2) return usage();
  ObsFlags obsFlags;
  size_t cacheEntries = smt::VerdictCache::capacityFromEnv();
  ResourceLimits limits = ResourceLimits::fromEnv();
  smt::SupervisionOptions sup = smt::SupervisionOptions::fromEnv();
  for (int i = 2; i < argc; ++i) {
    if (parseObsFlag(argv[i], obsFlags)) {
      continue;
    } else if (parseSolverCacheFlag(argc, argv, i, cacheEntries)) {
      continue;
    } else if (parseBudgetFlag(argc, argv, i, limits)) {
      continue;
    } else if (parseSupervisionFlag(argc, argv, i, sup)) {
      continue;
    } else {
      return unknownOption(argv[i]);
    }
  }
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  verify::Constraint c =
      verify::Constraint::parse("constraint", readFile(argv[1]), db.cvars());
  std::unique_ptr<smt::SolverBase> solver =
      std::make_unique<smt::NativeSolver>(db.cvars());
  std::unique_ptr<smt::VerdictCache> cache;
  if (cacheEntries > 0) {
    cache = std::make_unique<smt::VerdictCache>(db.cvars(), cacheEntries);
    solver->setVerdictCache(cache.get());
  }
  solver = smt::supervise(std::move(solver), sup);
  std::unique_ptr<obs::Tracer> tracer = makeTracer(obsFlags);
  solver->setTracer(tracer.get());
  ResourceGuard guard(limits);
  if (guard.active()) {
    solver->setGuard(&guard);
    if (tracer != nullptr) {
      guard.onTrip([&tracer](Budget, const std::string& reason) {
        tracer->event("budget.trip", reason);
      });
    }
  }
  verify::StateCheck check;
  {
    obs::Span top(tracer.get(), "check");
    if (top) {
      top.note("database", argv[0]);
      top.note("constraint", argv[1]);
    }
    check = verify::RelativeVerifier::checkOnState(c, db, *solver);
  }
  if (!obsFlags.quietStdout()) {
    std::printf("verdict: %s\n",
                std::string(verify::verdictText(check.verdict)).c_str());
    if (check.verdict == verify::Verdict::ConditionallyViolated) {
      std::printf("violated exactly when: %s\n",
                  check.condition.toString(&db.cvars()).c_str());
    }
    if (check.incomplete) {
      std::printf("reason: %s (budget tripped; rerun with more resources)\n",
                  check.reason.c_str());
    }
    if (obsFlags.stats) {
      obs::MetricsSnapshot snap = tracer->metrics().snapshot();
      printSolverStats(snap);
      if (sup.enabled()) printSuperviseStats(snap);
    }
  }
  if (tracer != nullptr) {
    obs::ReportMeta meta;
    meta.command = "check";
    meta.add("database", argv[0]);
    meta.add("constraint", argv[1]);
    meta.add("verdict", std::string(verify::verdictText(check.verdict)));
    addSupervisionMeta(meta, sup);
    if (check.incomplete) meta.add("incomplete", check.reason);
    exportObs(*tracer, obsFlags, meta);
  }
  // Exit-code contract (see the file header): any *definite* verdict —
  // holds, violated, conditionally-violated — is a successful analysis
  // and exits 0; unknown means "rerun with more resources" and exits 2.
  return check.verdict == verify::Verdict::Unknown ? 2 : 0;
}

int cmdWorlds(int argc, char** argv) {
  if (argc < 1 || argc > 2) return usage();
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  uint64_t cap = argc == 2 ? parseNumber<uint64_t>("cap", argv[1]) : 1024;
  size_t count = 0;
  bool ok = rel::forEachWorld(
      db, cap, [&](const smt::Assignment& a, const rel::World& world) {
        std::printf("---- world %zu ----\n", count++);
        for (const auto& [var, val] : a) {
          std::printf("  %s = %s\n", db.cvars().info(var).name.c_str(),
                      val.toString(&db.cvars()).c_str());
        }
        for (const auto& [name, rows] : world) {
          for (const auto& row : rows) {
            std::printf("  %s(", name.c_str());
            for (size_t i = 0; i < row.size(); ++i) {
              std::printf("%s%s", i > 0 ? ", " : "",
                          row[i].toString(&db.cvars()).c_str());
            }
            std::printf(")\n");
          }
        }
      });
  if (!ok) {
    std::fprintf(stderr,
                 "world space not enumerable (unbounded domain or more "
                 "than %llu worlds)\n",
                 static_cast<unsigned long long>(cap));
    return 1;
  }
  std::printf("%zu possible worlds\n", count);
  return 0;
}

int cmdFmt(int argc, char** argv) {
  if (argc != 1) return usage();
  rel::Database db = fl::parseDatabase(readFile(argv[0]));
  std::printf("%s", fl::formatDatabase(db).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  try {
    if (std::strcmp(argv[1], "run") == 0) return cmdRun(argc - 2, argv + 2);
    if (std::strcmp(argv[1], "whatif") == 0) {
      return cmdWhatif(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "serve") == 0) {
      return cmdServe(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "check") == 0) {
      return cmdCheck(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "worlds") == 0) {
      return cmdWorlds(argc - 2, argv + 2);
    }
    if (std::strcmp(argv[1], "fmt") == 0) return cmdFmt(argc - 2, argv + 2);
    return usage();
  } catch (const Error& e) {
    std::fprintf(stderr, "faure: %s\n", e.what());
    return 1;
  }
}
