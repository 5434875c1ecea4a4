#include "faurelog/incremental.hpp"

#include <algorithm>
#include <cstdlib>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace faure::fl {

namespace {

bool incrementalFromEnv() {
  const char* env = std::getenv("FAURE_INCREMENTAL");
  return env == nullptr || std::string_view(env) != "0";
}

/// Refines the compiled negation strata into the topologically-ordered
/// SCC condensation of the predicate dependency graph.
///
/// Stratification bumps a stratum only across negation, so independent
/// positive rule families (two teams' rules over disjoint relations)
/// all share stratum 0 — at that granularity nothing can be skipped.
/// Here every set of mutually recursive predicates becomes its own
/// evaluation unit; units are emitted in a deterministic dependency
/// order (Kahn's algorithm, the ready unit with the lowest negation
/// stratum, then the lowest rule index, first), so refinement preserves
/// both the negation semantics (a negated body is always in an earlier
/// unit) and reproducibility (the same program always yields the same
/// partition).
Strata refineStrata(const CompiledProgram& p) {
  const Strata& base = p.strata();
  const size_t n = p.predicateCount();
  const auto& rules = p.rules();
  // Predicate dependency edges over the IDB: body -> head.
  std::vector<std::vector<uint32_t>> succ(n);
  for (const CompiledRule& r : rules) {
    for (uint32_t pred : r.bodyPreds) {
      if (p.defined(pred) && pred != r.head) succ[pred].push_back(r.head);
    }
  }
  // Reachability (programs are small; clarity over asymptotics).
  std::vector<std::vector<char>> reach(n);
  for (uint32_t pred = 0; pred < n; ++pred) {
    if (!p.defined(pred)) continue;
    std::vector<char>& r = reach[pred];
    r.assign(n, 0);
    std::vector<uint32_t> work{pred};
    while (!work.empty()) {
      uint32_t cur = work.back();
      work.pop_back();
      for (uint32_t next : succ[cur]) {
        if (r[next] == 0) {
          r[next] = 1;
          work.push_back(next);
        }
      }
    }
  }
  // Components: predicates that reach each other.
  std::vector<int> comp(n, -1);
  int comps = 0;
  for (uint32_t a = 0; a < n; ++a) {
    if (!p.defined(a) || comp[a] >= 0) continue;
    comp[a] = comps;
    for (uint32_t b = 0; b < n; ++b) {
      if (reach[a].empty() || reach[a][b] == 0 || reach[b].empty()) continue;
      if (reach[b][a] != 0) comp[b] = comps;
    }
    ++comps;
  }
  // Component metadata + DAG.
  struct Comp {
    int negStratum = 0;
    size_t minRule = SIZE_MAX;
    std::vector<char> deps;  // components this one waits on
  };
  std::vector<Comp> info(static_cast<size_t>(comps));
  for (Comp& c : info) c.deps.assign(static_cast<size_t>(comps), 0);
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    const CompiledRule& rule = rules[ri];
    const int own = comp[rule.head];
    Comp& c = info[static_cast<size_t>(own)];
    c.minRule = std::min(c.minRule, ri);
    c.negStratum = base.of[rule.head];
    for (uint32_t pred : rule.bodyPreds) {
      if (p.defined(pred) && comp[pred] != own) {
        c.deps[static_cast<size_t>(comp[pred])] = 1;
      }
    }
  }
  // Kahn's algorithm with a deterministic priority.
  Strata out;
  out.of.assign(n, -1);
  std::vector<char> emitted(static_cast<size_t>(comps), 0);
  for (int unit = 0; unit < comps; ++unit) {
    int best = -1;
    for (int c = 0; c < comps; ++c) {
      if (emitted[static_cast<size_t>(c)] != 0) continue;
      bool ready = true;
      for (int d = 0; d < comps && ready; ++d) {
        if (info[static_cast<size_t>(c)].deps[static_cast<size_t>(d)] != 0 &&
            emitted[static_cast<size_t>(d)] == 0) {
          ready = false;
        }
      }
      if (!ready) continue;
      const Comp& ci = info[static_cast<size_t>(c)];
      if (best < 0 ||
          std::make_pair(ci.negStratum, ci.minRule) <
              std::make_pair(info[static_cast<size_t>(best)].negStratum,
                             info[static_cast<size_t>(best)].minRule)) {
        best = c;
      }
    }
    // The base is a valid stratification, so the condensation is
    // acyclic and something is always ready.
    std::vector<size_t> unitRules;
    std::vector<uint32_t> heads;
    for (size_t ri = 0; ri < rules.size(); ++ri) {
      const uint32_t head = rules[ri].head;
      if (comp[head] != best) continue;
      unitRules.push_back(ri);
      if (std::find(heads.begin(), heads.end(), head) == heads.end()) {
        heads.push_back(head);
      }
    }
    for (uint32_t pred = 0; pred < n; ++pred) {
      if (comp[pred] == best) out.of[pred] = unit;
    }
    out.rules.push_back(std::move(unitRules));
    out.heads.push_back(std::move(heads));
    emitted[static_cast<size_t>(best)] = 1;
  }
  return out;
}

}  // namespace

IncrementalProgram::IncrementalProgram(dl::Program program,
                                       const rel::Database& schema)
    : compiled(CompiledProgram::compile(std::move(program), &schema)),
      units(refineStrata(compiled)),
      readers(compiled.predicateCount()) {
  const auto& rules = compiled.rules();
  for (size_t ri = 0; ri < rules.size(); ++ri) {
    for (uint32_t pred : rules[ri].bodyPreds) {
      std::vector<size_t>& r = readers[pred];
      if (r.empty() || r.back() != ri) r.push_back(ri);
    }
  }
}

IncrementalEngine::IncrementalEngine(dl::Program program, rel::Database& db,
                                     smt::SolverBase* solver, EvalOptions opts)
    : IncrementalEngine(
          std::make_shared<const IncrementalProgram>(std::move(program), db),
          db, solver, std::move(opts)) {}

IncrementalEngine::IncrementalEngine(
    std::shared_ptr<const IncrementalProgram> program, rel::Database& db,
    smt::SolverBase* solver, EvalOptions opts)
    : program_(std::move(program)),
      db_(db),
      solver_(solver),
      opts_(opts),
      enabled_(incrementalFromEnv()) {
  if (opts_.simplifyResults) {
    throw EvalError(
        "IncrementalEngine: simplifyResults rewrites conditions globally; "
        "per-stratum reuse cannot honour the byte-identity oracle under it");
  }
}

bool IncrementalEngine::insertFact(const std::string& pred,
                                   std::vector<Value> vals,
                                   smt::Formula cond) {
  if (!db_.has(pred)) {
    throw EvalError("insertFact: no relation '" + pred + "' in the database");
  }
  bool changed = db_.table(pred).insert(std::move(vals), std::move(cond));
  dirty_.insert(pred);
  ++pendingInserts_;
  return changed;
}

size_t IncrementalEngine::retractFact(const std::string& pred,
                                      const std::vector<Value>& vals) {
  if (!db_.has(pred)) {
    throw EvalError("retractFact: no relation '" + pred + "' in the database");
  }
  size_t removed = db_.table(pred).eraseWithData(vals);
  dirty_.insert(pred);
  ++pendingRetracts_;
  return removed;
}

void IncrementalEngine::apply(const Edit& edit) {
  if (edit.kind == Edit::Kind::Insert) {
    insertFact(edit.pred, edit.vals, edit.cond);
  } else {
    retractFact(edit.pred, edit.vals);
  }
}

void IncrementalEngine::invalidate() { state_.valid = false; }

void IncrementalEngine::adoptState(const IncrementalState& state) {
  state_ = state;
}

EvalResult IncrementalEngine::reevaluate() {
  const CompiledProgram& cp = program_->compiled;
  const Strata& units = program_->units;
  // Affected-predicate closure over the delta index: start from the
  // edited base relations, add the head of every rule whose body
  // touches an affected predicate, iterate to fixpoint. (The closure
  // runs on predicates, so it terminates in |preds| rounds.)
  std::vector<char> affected(cp.predicateCount(), 0);
  std::vector<uint32_t> work;
  for (const std::string& name : dirty_) {
    uint32_t pred = cp.predId(name);
    if (pred == CompiledProgram::kNoPred) continue;  // read by no rule
    affected[pred] = 1;
    work.push_back(pred);
  }
  while (!work.empty()) {
    uint32_t pred = work.back();
    work.pop_back();
    for (size_t ri : program_->readers[pred]) {
      uint32_t head = cp.rules()[ri].head;
      if (affected[head] == 0) {
        affected[head] = 1;
        work.push_back(head);
      }
    }
  }

  bool full = !enabled_ || !state_.valid;
  std::vector<char> run;
  StrataPlan plan;
  if (!full) {
    run.assign(units.rules.size(), 0);
    for (size_t s = 0; s < run.size(); ++s) {
      for (uint32_t head : units.heads[s]) run[s] |= affected[head];
    }
    for (size_t s = 0; s < run.size() && !full; ++s) {
      if (run[s]) continue;
      for (uint32_t head : units.heads[s]) {
        auto it = state_.idb.find(cp.predName(head));
        if (it == state_.idb.end()) {
          // The retained epoch never materialised this head — do not
          // guess; fall back to a full run.
          full = true;
          break;
        }
        plan.retained.emplace(it->first, it->second);
      }
    }
  }
  if (full) {
    plan.retained.clear();
    run.assign(units.rules.size(), 1);
  }
  // Both modes evaluate the SAME refined partition — only the run/skip
  // flags differ — so the oracle comparison is apples to apples at the
  // byte level.
  plan.strata = &units;
  plan.runStratum = run;

  EvalResult result =
      evalFaurePlanned(cp, db_, solver_, opts_, std::move(plan));

  uint64_t refired = 0, skipped = 0, dirtyStrata = 0, reused = 0;
  for (size_t s = 0; s < units.rules.size(); ++s) {
    if (run[s]) {
      ++dirtyStrata;
      refired += units.rules[s].size();
    } else {
      ++reused;
      skipped += units.rules[s].size();
    }
  }

  ++inc_.epochs;
  if (full) ++inc_.fullRecomputes;
  inc_.refiredRules += refired;
  inc_.skippedRules += skipped;
  inc_.dirtyStrata += dirtyStrata;
  inc_.reusedStrata += reused;
  inc_.deltaInserts += pendingInserts_;
  inc_.deltaRetracts += pendingRetracts_;
  if (opts_.tracer != nullptr) {
    obs::Registry& m = opts_.tracer->metrics();
    m.counter("eval.inc.epochs").add();
    if (full) m.counter("eval.inc.full_recomputes").add();
    m.counter("eval.inc.refired_rules").add(refired);
    m.counter("eval.inc.skipped_rules").add(skipped);
    m.counter("eval.inc.dirty_strata").add(dirtyStrata);
    m.counter("eval.inc.reused_strata").add(reused);
    m.counter("eval.inc.delta_inserts").add(pendingInserts_);
    m.counter("eval.inc.delta_retracts").add(pendingRetracts_);
  }
  dirty_.clear();
  pendingInserts_ = 0;
  pendingRetracts_ = 0;

  if (result.incomplete) {
    // A budget-tripped epoch holds only a partial IDB; reusing it would
    // launder incompleteness into later epochs as silent wrong answers.
    state_.valid = false;
    state_.idb.clear();
    state_.provenance.clear();
    return result;
  }
  state_.idb = result.idb;
  state_.provenance.clear();
  for (const auto& [pred, table] : result.idb) {
    state_.provenance[pred] = table.size();
  }
  state_.valid = true;
  return result;
}

}  // namespace faure::fl
