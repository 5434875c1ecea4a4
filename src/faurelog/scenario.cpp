#include "faurelog/scenario.hpp"

#include <functional>
#include <utility>

#include "faurelog/textio.hpp"
#include "obs/trace.hpp"
#include "smt/z3_solver.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace faure::fl {

namespace {

bool whitespaceOnly(std::string_view s) {
  return s.find_first_not_of(" \t\r\n") == std::string_view::npos;
}

/// Renders the derived relations exactly as the CLI prints an epoch.
std::string renderTables(const EvalResult& res, const CVarRegistry& reg,
                         const std::string& relation) {
  std::string out;
  for (const auto& [pred, table] : res.idb) {
    if (!relation.empty() && pred != relation) continue;
    out += table.toString(&reg);
    out += '\n';
  }
  return out;
}

}  // namespace

std::vector<Scenario> parseScenarioFile(std::string_view text) {
  std::vector<std::string> blocks;
  std::string cur;
  size_t pos = 0;
  while (pos <= text.size()) {
    size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    std::string_view trimmed = line;
    while (!trimmed.empty() &&
           (trimmed.back() == '\r' || trimmed.back() == ' ')) {
      trimmed.remove_suffix(1);
    }
    if (trimmed == "---") {
      blocks.push_back(std::move(cur));
      cur.clear();
    } else {
      cur += line;
      cur += '\n';
    }
    if (eol == std::string_view::npos) break;
    pos = eol + 1;
  }
  blocks.push_back(std::move(cur));
  // A file that starts or ends with the delimiter (or trails off in
  // blank lines) did not mean an empty scenario there; interior empty
  // blocks stay — they are valid epoch-0-only scenarios.
  if (!blocks.empty() && whitespaceOnly(blocks.front())) {
    blocks.erase(blocks.begin());
  }
  if (!blocks.empty() && whitespaceOnly(blocks.back())) blocks.pop_back();
  std::vector<Scenario> out;
  out.reserve(blocks.size());
  for (size_t i = 0; i < blocks.size(); ++i) {
    out.push_back({std::to_string(i + 1), std::move(blocks[i])});
  }
  return out;
}

ScenarioSet::ScenarioSet(dl::Program program, rel::Database base,
                         ScenarioSetOptions opts)
    : p_(std::move(program)),
      base_(std::make_unique<rel::Database>(std::move(base))),
      opts_(std::move(opts)) {
  if (opts_.cacheEntries > 0) {
    cache_ = std::make_unique<smt::VerdictCache>(base_->cvars(),
                                                 opts_.cacheEntries);
  }
  // Fail fast on a bad solver name instead of from a worker thread.
  makeForkSolver();
}

std::unique_ptr<smt::SolverBase> ScenarioSet::makeForkSolver() {
  std::unique_ptr<smt::SolverBase> solver;
  if (opts_.solverName == "z3") {
    solver = smt::makeZ3Solver(base_->cvars());
    if (solver == nullptr) throw EvalError("this build has no Z3 backend");
  } else if (opts_.solverName == "native") {
    solver = std::make_unique<smt::NativeSolver>(base_->cvars());
  } else {
    throw EvalError("unknown solver '" + opts_.solverName + "'");
  }
  if (cache_ != nullptr) solver->setVerdictCache(cache_.get());
  return smt::supervise(std::move(solver), opts_.supervision);
}

const EvalResult& ScenarioSet::prepare() {
  if (prepared_) return baseResult_;
  obs::Span span(opts_.eval.tracer, "serve.prepare");
  auto solver = makeForkSolver();
  ResourceGuard guard(opts_.limits);
  EvalOptions eopts = opts_.eval;
  if (guard.active()) {
    eopts.guard = &guard;
    solver->setGuard(&guard);
  }
  IncrementalEngine eng(p_, *base_, solver.get(), eopts);
  if (opts_.mode >= 0) eng.setIncremental(opts_.mode == 1);
  baseResult_ = eng.reevaluate();
  baseState_ = eng.state();
  baseOutput_ = "== epoch 0: initial ==\n" +
                renderTables(baseResult_, base_->cvars(), opts_.relation);
  prepared_ = true;
  return baseResult_;
}

ScenarioOutcome ScenarioSet::evaluateOne(const Scenario& s) {
  obs::Span span(opts_.eval.tracer, "serve.scenario");
  if (span) span.note("id", s.id);
  ScenarioOutcome out;
  out.id = s.id;
  out.output = baseOutput_;
  out.epochs = 1;
  if (baseResult_.incomplete) {
    // The shared epoch 0 tripped its budget. Each single run under the
    // same limits would print the same partial epoch and exit 2 without
    // replaying its edits; replicate that verbatim.
    out.exitCode = 2;
    out.message = baseResult_.degradeReason;
    return out;
  }
  rel::Database fork = base_->clone();
  std::vector<Edit> edits;
  try {
    edits = parseEditScript(s.edits, fork);
  } catch (const Error& e) {
    // The single-scenario path parses the script before printing
    // anything, so a parse error means no output at all.
    out.exitCode = 1;
    out.output.clear();
    out.epochs = 0;
    out.message = e.what();
    return out;
  }
  if (edits.empty()) return out;  // epoch 0 only — served from the snapshot
  auto solver = makeForkSolver();
  ResourceGuard guard(opts_.limits);
  EvalOptions eopts = opts_.eval;
  if (guard.active()) {
    eopts.guard = &guard;
    solver->setGuard(&guard);
  }
  IncrementalEngine eng(p_, fork, solver.get(), eopts);
  if (opts_.mode >= 0) eng.setIncremental(opts_.mode == 1);
  eng.adoptState(baseState_);
  try {
    for (size_t e = 0; e < edits.size(); ++e) {
      eng.apply(edits[e]);
      out.output += "== epoch " + std::to_string(e + 1) + ": " +
                    formatEdit(edits[e], fork.cvars()) + " ==\n";
      // Budgets are per epoch, like one CLI epoch or Session operation.
      if (guard.active()) guard.rearm();
      EvalResult res = eng.reevaluate();
      ++out.epochs;
      out.output += renderTables(res, fork.cvars(), opts_.relation);
      if (res.incomplete) {
        out.exitCode = 2;
        out.message = res.degradeReason;
        break;  // later edits are not replayed, matching the CLI
      }
    }
  } catch (const Error& e) {
    // A hard engine/solver error mid-scenario: the single run would
    // have printed the epochs so far and died with exit 1.
    out.exitCode = 1;
    out.message = e.what();
  }
  out.inc = eng.stats();
  return out;
}

std::vector<ScenarioOutcome> ScenarioSet::evaluate(
    const std::vector<Scenario>& scenarios) {
  prepare();
  obs::Span span(opts_.eval.tracer, "serve.batch");
  std::vector<ScenarioOutcome> out(scenarios.size());
  auto runOne = [&](size_t i) {
    try {
      out[i] = evaluateOne(scenarios[i]);
    } catch (const Error& e) {
      out[i].id = scenarios[i].id;
      out[i].exitCode = 1;
      out[i].output.clear();
      out[i].message = e.what();
    }
  };
  size_t width = std::min(resolveThreads(opts_.eval), scenarios.size());
  if (width <= 1) {
    for (size_t i = 0; i < scenarios.size(); ++i) runOne(i);
  } else {
    util::ThreadPool pool(width - 1);  // the caller participates
    std::vector<std::function<void(size_t)>> tasks;
    tasks.reserve(scenarios.size());
    for (size_t i = 0; i < scenarios.size(); ++i) {
      tasks.emplace_back([&runOne, i](size_t) { runOne(i); });
    }
    pool.run(std::move(tasks));
  }
  if (opts_.eval.tracer != nullptr) {
    obs::Registry& m = opts_.eval.tracer->metrics();
    m.counter("serve.scenarios").add(out.size());
    for (const ScenarioOutcome& o : out) {
      m.counter("serve.epochs").add(o.epochs);
      if (o.exitCode == 2) m.counter("serve.degraded").add();
      if (o.exitCode == 1) m.counter("serve.errors").add();
    }
  }
  return out;
}

}  // namespace faure::fl
