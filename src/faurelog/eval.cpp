#include "faurelog/eval.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <optional>
#include <set>

#include "relational/algebra.hpp"
#include "smt/simplify.hpp"
#include "smt/verdict_cache.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "util/timer.hpp"

namespace faure::fl {

const rel::CTable& EvalResult::relation(const std::string& pred) const {
  static const rel::CTable kEmpty;
  auto it = idb.find(pred);
  return it == idb.end() ? kEmpty : it->second;
}

bool EvalResult::derived(const std::string& goal, smt::Formula* cond) const {
  const rel::CTable& t = relation(goal);
  if (cond != nullptr) {
    std::vector<smt::Formula> conds;
    for (const auto& row : t.rows()) conds.push_back(row.cond);
    *cond = smt::Formula::disj(std::move(conds));
  }
  return !t.empty();
}

namespace {

/// A partial c-valuation: values for the rule's program variables (slots
/// fill in literal order) plus the accumulated condition.
struct CFrame {
  std::vector<Value> vals;
  smt::Formula cond;
};

/// Internal control-flow signal: a guard budget tripped mid-fixpoint.
/// Caught in run(), where the partial IDB becomes the degraded result.
struct BudgetTrip {};

/// A derived-tuple candidate of one rule firing: the grounded head
/// values and the accumulated condition, not yet checked or deduplicated.
struct Candidate {
  std::vector<Value> vals;
  smt::Formula cond;
};

class FaureEvaluator {
 public:
  FaureEvaluator(const CompiledProgram& p, const rel::Database& db,
                 smt::SolverBase* solver, const EvalOptions& opts,
                 StrataPlan* plan = nullptr)
      : p_(p),
        db_(db),
        solver_(solver),
        opts_(opts),
        plan_(plan),
        guard_(opts.guard),
        tracer_(opts.tracer),
        planMode_(resolvePlanMode(opts.plan)) {
    if (solver_ == nullptr &&
        (opts_.pruneWithSolver || opts_.mergeSubsumption)) {
      throw EvalError(
          "evalFaure: solver required for pruning / merge subsumption");
    }
    // Supervision (DESIGN.md §9): wrap the caller's solver for the
    // duration of this evaluation.
    if (opts_.supervision && opts_.supervision->enabled() &&
        solver_ != nullptr &&
        dynamic_cast<smt::FailoverSolver*>(solver_) == nullptr) {
      supervisionWrap_ =
          std::make_unique<smt::FailoverSolver>(*solver_, *opts_.supervision);
      solver_ = supervisionWrap_.get();
    }
    cache_ = solver_ != nullptr ? solver_->verdictCache() : nullptr;
    if (cache_ != nullptr) cacheBefore_ = cache_->stats();
  }

  EvalResult run() {
    obs::Span evalSpan(tracer_, "eval");
    util::Stopwatch total;
    double solverBefore = solver_ != nullptr ? solver_->stats().seconds : 0.0;
    uint64_t checksBefore = solver_ != nullptr ? solver_->stats().checks : 0;

    // Solver work counts against the same guard: a deadline that expires
    // inside a condition check trips the whole evaluation, not just the
    // one answer. Likewise solver metrics land in the same registry.
    // Restored on exit so callers keep their own wiring.
    smt::ResourceGuardScope solverGuard(solver_, guard_);
    smt::TracerScope solverTracer(solver_, tracer_);

    resolveRelations();
    // A plan may bring its own (refined) partition of the same rules.
    strata_ = plan_ != nullptr && plan_->strata != nullptr ? plan_->strata
                                                           : &p_.strata();
    if (evalSpan) {
      evalSpan.note("rules", std::to_string(p_.rules().size()));
      evalSpan.note("strata", std::to_string(strata_->rules.size()));
    }
    if (plan_ != nullptr) {
      if (plan_->runStratum.size() != strata_->rules.size()) {
        throw EvalError("evalFaurePlanned: plan covers " +
                        std::to_string(plan_->runStratum.size()) +
                        " strata but the program stratifies into " +
                        std::to_string(strata_->rules.size()));
      }
      // Retained tables must land before any stratum runs: a dirty
      // stratum reads the skipped lower strata through findRelation.
      for (auto& [pred, table] : plan_->retained) {
        rel::CTable& t =
            idb_.insert_or_assign(pred, std::move(table)).first->second;
        uint32_t id = p_.predId(pred);
        if (id != CompiledProgram::kNoPred) idbById_[id] = &t;
      }
      if (evalSpan) {
        size_t live = 0;
        for (char f : plan_->runStratum) live += f != 0;
        evalSpan.note("planned_strata", std::to_string(live));
      }
    }

    bool degraded = false;
    try {
      for (size_t s = 0; s < strata_->rules.size(); ++s) {
        if (plan_ != nullptr && !plan_->runStratum[s]) continue;
        evalStratum(s);
      }
    } catch (const BudgetTrip&) {
      degraded = true;
      ++stats_.budgetTrips;
    }
    // Timing totals + registry mirror; called on every exit path so a
    // strict-budget throw still leaves complete metrics behind.
    auto finish = [&] {
      if (solver_ != nullptr) {
        stats_.solverSeconds = solver_->stats().seconds - solverBefore;
        stats_.solverChecks = solver_->stats().checks - checksBefore;
      }
      stats_.sqlSeconds = std::max(0.0, total.elapsed() - stats_.solverSeconds);
      flushMetrics(degraded);
    };
    if (degraded && opts_.throwOnBudget) {
      if (evalSpan) evalSpan.note("incomplete", guard_->reason());
      finish();
      guard_->throwTripped();
    }
    if (opts_.consolidate) {
      for (auto& [pred, table] : idb_) table.consolidate();
    }
    if (opts_.simplifyResults && !degraded) {
      if (solver_ == nullptr) {
        throw EvalError("evalFaure: simplifyResults requires a solver");
      }
      for (auto& [pred, table] : idb_) {
        for (size_t i = 0; i < table.size(); ++i) {
          table.setCondition(
              i, smt::simplify(table.rows()[i].cond, *solver_));
        }
        table.pruneIf(
            [](const rel::Row& row) { return row.cond.isFalse(); });
      }
    }
    finish();

    EvalResult result;
    result.idb = std::move(idb_);
    result.stats = stats_;
    if (degraded) {
      result.incomplete = true;
      result.tripped = guard_->trippedBudget();
      result.degradeReason = guard_->reason();
      if (evalSpan) evalSpan.note("incomplete", result.degradeReason);
    }
    return result;
  }

 private:
  struct Range {
    size_t lo = 0;
    size_t hi = 0;
  };

  /// Calls fn(r) for each row of an ascending row list that lies in
  /// `range`. Index buckets are walked from the front; wild-row vectors
  /// start at a binary search.
  template <class Rows, class Fn>
  static void forRowsIn(const Rows& rows, Range range, Fn&& fn) {
    for (size_t r : rows) {
      if (r >= range.hi) break;
      if (r >= range.lo) fn(r);
    }
  }
  template <class Fn>
  static void forRowsIn(const std::vector<size_t>& rows, Range range,
                        Fn&& fn) {
    auto it = std::lower_bound(rows.begin(), rows.end(), range.lo);
    for (; it != rows.end() && *it < range.hi; ++it) fn(*it);
  }

  /// Resolves each predicate's EDB relation in `db_` and checks its
  /// arity against the program's (dl::checkArities' message), so no
  /// firing looks a relation up by name.
  void resolveRelations() {
    const size_t n = p_.predicateCount();
    edb_.assign(n, nullptr);
    idbById_.assign(n, nullptr);
    deltaStart_.assign(n, 0);
    fullEnd_.assign(n, 0);
    for (uint32_t id = 0; id < n; ++id) {
      const rel::CTable* t = db_.find(p_.predName(id));
      if (t != nullptr && t->schema().arity() != p_.arity(id)) {
        throw EvalError("predicate '" + p_.predName(id) +
                        "' used with arity " + std::to_string(p_.arity(id)) +
                        " and " + std::to_string(t->schema().arity()));
      }
      edb_[id] = t;
    }
    if (opts_.openWorldNegation != nullptr) {
      negFacts_.assign(n, nullptr);
      for (const auto& [pred, facts] : opts_.openWorldNegation->facts) {
        uint32_t id = p_.predId(pred);
        if (id != CompiledProgram::kNoPred) negFacts_[id] = &facts;
      }
    }
  }

  const rel::CTable* findRelation(uint32_t pred) const {
    return idbById_[pred] != nullptr ? idbById_[pred] : edb_[pred];
  }

  // IDB table for `pred`; if an EDB relation with the same name exists its
  // rows seed the table (the paper's q19 appends a fact to the EDB Lb).
  rel::CTable& idbTable(uint32_t pred) {
    if (idbById_[pred] != nullptr) return *idbById_[pred];
    const std::string& name = p_.predName(pred);
    const size_t arity = p_.arity(pred);
    rel::CTable* t = nullptr;
    if (const rel::CTable* edb = edb_[pred]; edb != nullptr) {
      if (edb->schema().arity() != arity) {
        throw EvalError("arity mismatch redefining '" + name + "'");
      }
      t = &idb_.emplace(name, *edb).first->second;
    } else {
      std::vector<rel::Attribute> attrs(arity);
      for (size_t i = 0; i < arity; ++i) {
        attrs[i] = rel::Attribute{"a" + std::to_string(i), ValueType::Any};
      }
      t = &idb_.emplace(name, rel::CTable(rel::Schema(name, attrs)))
               .first->second;
    }
    idbById_[pred] = t;
    return *t;
  }

  bool inStratum(uint32_t pred) const {
    return strata_->of[pred] == static_cast<int>(curStratum_);
  }

  void evalStratum(size_t s) {
    const auto& ruleIdx = strata_->rules[s];
    if (ruleIdx.empty()) return;
    curStratum_ = s;
    const std::vector<uint32_t>& heads = strata_->heads[s];
    obs::Span span;
    obs::Counter* rounds = nullptr;
    if (tracer_ != nullptr) {
      std::string tag = "stratum[" + std::to_string(s) + "]";
      rounds = &tracer_->metrics().counter("eval." + tag + ".rounds");
      span = obs::Span(tracer_, tag);
      span.note("rules", std::to_string(ruleIdx.size()));
    }
    for (uint32_t pred : heads) {
      idbTable(pred);
      deltaStart_[pred] = 0;
    }

    bool first = true;
    std::vector<size_t> recursivePositions;
    for (size_t iter = 0; iter < opts_.maxIterations; ++iter) {
      ++stats_.iterations;
      if (rounds != nullptr) rounds->add();
      chargeSteps(1);
      for (uint32_t pred : heads) fullEnd_[pred] = idbById_[pred]->size();
      bool changed = false;
      for (size_t ri : ruleIdx) {
        const CompiledRule& rule = p_.rules()[ri];
        recursivePositions.clear();
        for (const RuleShape::LitShape& ls : rule.shape.lits) {
          if (inStratum(rule.bodyPreds[ls.body])) {
            recursivePositions.push_back(ls.body);
          }
        }
        if (!first && recursivePositions.empty()) continue;
        if (first || !opts_.semiNaive || recursivePositions.empty()) {
          changed |= evalRule(ri, rule, SIZE_MAX);
        } else {
          for (size_t pos : recursivePositions) {
            changed |= evalRule(ri, rule, pos);
          }
        }
      }
      for (uint32_t pred : heads) deltaStart_[pred] = fullEnd_[pred];
      first = false;
      if (!changed) {
        bool grew = false;
        for (uint32_t pred : heads) {
          if (idbById_[pred]->size() != fullEnd_[pred]) grew = true;
        }
        if (!grew) return;
      }
    }
    throw EvalError("fauré-log fixed point did not converge (cap reached)");
  }

  Range rangeFor(uint32_t pred, size_t deltaPos, size_t thisIndex,
                 const rel::CTable& table) const {
    if (!inStratum(pred)) return Range{0, table.size()};
    size_t end = fullEnd_[pred];
    if (deltaPos == thisIndex) return Range{deltaStart_[pred], end};
    return Range{0, end};
  }

  // ---- cost-based join planning (plan.hpp, DESIGN.md §11) ----
  //
  // planFor() resolves the physical plan for one (rule, delta position)
  // firing from the round's live cardinalities and ensures every
  // persistent index the plan probes is built/extended before the join
  // runs. Three execution paths follow:
  //   off          — planMode_ == Off or no plan: the pristine
  //                  program-order join path, byte-for-byte the
  //                  pre-planner evaluator;
  //   unreordered  — plan kept program order: joinLiteral probes the
  //                  persistent index on its serial key columns instead
  //                  of rebuilding a local one per firing. Enumeration
  //                  order is identical, so no sort is needed;
  //   reordered    — plannedEnumerate() walks literals in plan order,
  //                  pruning only combinations serial evaluation
  //                  provably prunes, then replays each survivor
  //                  through the serial condition sequence (dropping
  //                  the rest) and sorts by serial enumeration rank.
  //                  The resulting frame stream — values, conditions,
  //                  order — is exactly the serial one.

  /// Per-firing physical plan.
  struct PlanContext {
    const RuleShape* shape = nullptr;
    RulePlan plan;
    size_t deltaLit = SIZE_MAX;
    /// Per positive literal (program order): the relation snapshot.
    std::vector<const rel::CTable*> tables;
    /// Unreordered path: persistent index on each literal's serial key
    /// columns (null when the literal has none).
    std::vector<const rel::JoinIndex*> serialIndex;
    /// Reordered path: persistent index per plan *step* (null = scan).
    std::vector<const rel::JoinIndex*> stepIndex;
  };

  /// What planFor() decided for one firing.
  enum class Planned {
    None,   // no plan: the pristine path runs (and reports errors)
    Empty,  // some positive literal ranges over no rows: nothing derives
    Ready,  // ctx_ holds the plan
  };

  /// Builds (or extends) the persistent index of `table` keyed on
  /// `keyArgs`, with build-vs-extension accounting.
  const rel::JoinIndex* ensureIndex(const rel::CTable& table,
                                    const std::vector<size_t>& keyArgs) {
    const rel::JoinIndex* existing = table.findJoinIndex(keyArgs);
    size_t before = existing != nullptr ? existing->builtUpTo() : 0;
    const rel::JoinIndex& idx = table.ensureJoinIndex(keyArgs);
    if (existing == nullptr) {
      ++planStats_.indexBuilds;
    } else if (idx.builtUpTo() > before) {
      ++planStats_.indexExtensions;
    }
    return &idx;
  }

  /// Resolves the plan for one (rule, delta position) firing into ctx_,
  /// ensuring every index it will probe. None when planning is off or
  /// the rule has nothing to plan (the caller falls back to the pristine
  /// path, which also owns error reporting for unknown relations).
  Planned planFor(size_t ri, const CompiledRule& rule, size_t deltaPos) {
    if (planMode_ == PlanMode::Off) return Planned::None;
    const RuleShape& shape = rule.shape;
    PlanContext& ctx = ctx_;
    ctx.tables.clear();
    ctx.deltaLit = SIZE_MAX;
    litStats_.clear();
    bool joinsEmpty = false;
    for (size_t lp = 0; lp < shape.lits.size(); ++lp) {
      const size_t body = shape.lits[lp].body;
      const uint32_t pred = rule.bodyPreds[body];
      const rel::CTable* table = findRelation(pred);
      if (table == nullptr) return Planned::None;  // pristine path reports
      Range range = rangeFor(pred, deltaPos, body, *table);
      if (range.lo == range.hi) joinsEmpty = true;
      if (body == deltaPos) ctx.deltaLit = lp;
      litStats_.push_back(LitStats{table, range.hi - range.lo});
      ctx.tables.push_back(table);
    }
    // Checked only once every positive relation resolved, so an unknown
    // one still reaches the pristine path's error.
    if (joinsEmpty) return Planned::Empty;
    if (shape.lits.empty()) return Planned::None;
    ctx.shape = &shape;
    ctx.plan = planRule(shape, ctx.deltaLit, litStats_);
    ++planStats_.plans;
    if (ctx.plan.reordered) ++planStats_.reorders;
    for (const PlannedLiteral& pl : ctx.plan.order) {
      planStats_.estRows += static_cast<uint64_t>(
          std::llround(std::max(0.0, pl.estRows)));
    }
    ctx.serialIndex.clear();
    ctx.stepIndex.clear();
    if (ctx.plan.reordered) {
      ctx.stepIndex.resize(ctx.plan.order.size(), nullptr);
      for (size_t step = 0; step < ctx.plan.order.size(); ++step) {
        const PlannedLiteral& pl = ctx.plan.order[step];
        if (pl.keyArgs.empty()) continue;
        ctx.stepIndex[step] = ensureIndex(*ctx.tables[pl.lit], pl.keyArgs);
      }
    } else {
      ctx.serialIndex.resize(shape.lits.size(), nullptr);
      for (size_t lp = 0; lp < shape.lits.size(); ++lp) {
        const auto& keys = shape.lits[lp].serialKeyArgs;
        if (keys.empty()) continue;
        ctx.serialIndex[lp] = ensureIndex(*ctx.tables[lp], keys);
      }
    }
    if (planMode_ == PlanMode::Explain &&
        explained_.insert({ri, deltaPos}).second) {
      std::cerr << explainPlan(p_.source().rules[ri], shape, ctx.plan,
                               ctx.deltaLit, litStats_);
    }
    return Planned::Ready;
  }

  static const Value& valueOf(const SlotTerm& t, const CFrame& f) {
    return t.isVar() ? f.vals[t.slot] : t.value;
  }

  /// Candidate generation — the pure part of one rule application: join
  /// positives over the round snapshot, filter comparisons and
  /// negations, ground heads. Reads only snapshot-bounded table state
  /// (rangeFor), so every candidate is collected before derive() grows
  /// the head table.
  std::vector<Candidate> collectCandidates(const CompiledRule& rule,
                                           size_t deltaPos,
                                           const PlanContext* pctx) {
    const RuleShape& shape = rule.shape;
    std::vector<CFrame> frames;
    if (pctx != nullptr && pctx->plan.reordered) {
      frames = plannedEnumerate(rule, *pctx, deltaPos);
    } else {
      frames.push_back(
          CFrame{std::vector<Value>(shape.slotCount), smt::Formula::top()});
      for (size_t lp = 0; lp < shape.lits.size() && !frames.empty(); ++lp) {
        const RuleShape::LitShape& ls = shape.lits[lp];
        const uint32_t pred = rule.bodyPreds[ls.body];
        const rel::CTable* table = findRelation(pred);
        if (table == nullptr) {
          throw EvalError("unknown relation '" + p_.predName(pred) + "'");
        }
        const rel::JoinIndex* pidx =
            pctx != nullptr && lp < pctx->serialIndex.size()
                ? pctx->serialIndex[lp]
                : nullptr;
        Range range = rangeFor(pred, deltaPos, ls.body, *table);
        if (tracer_ != nullptr && tracer_->options().fineSpans) {
          obs::Span join(tracer_, "join");
          join.note("pred", p_.predName(pred));
          joinLiteral(ls, *table, range, frames, pidx);
        } else {
          joinLiteral(ls, *table, range, frames, pidx);
        }
      }
    }
    if (pctx != nullptr) planStats_.actualRows += frames.size();
    // Explicit comparisons become condition atoms; a ground one is the
    // same formula for every frame.
    for (const CompiledComparison& cmp : rule.cmps) {
      if (frames.empty()) break;
      std::optional<smt::Formula> ground;
      if (cmp.ground != SIZE_MAX) ground = p_.groundComparison(cmp);
      std::vector<CFrame> kept;
      for (auto& f : frames) {
        smt::Formula cond = smt::Formula::conj2(
            f.cond, ground ? *ground : comparisonFormula(cmp, f.vals));
        if (cond.isFalse()) continue;
        f.cond = std::move(cond);
        kept.push_back(std::move(f));
      }
      frames = std::move(kept);
    }
    // Negated literals.
    for (const CompiledNegation& neg : rule.negations) {
      applyNegation(neg, frames);
    }
    // Ground heads.
    std::vector<Candidate> cands;
    cands.reserve(frames.size());
    for (auto& f : frames) {
      Candidate c;
      c.vals.reserve(rule.headArgs.size());
      for (const SlotTerm& t : rule.headArgs) c.vals.push_back(valueOf(t, f));
      c.cond = std::move(f.cond);
      cands.push_back(std::move(c));
    }
    return cands;
  }

  bool evalRule(size_t ri, const CompiledRule& rule, size_t deltaPos) {
    obs::Span span;
    if (tracer_ != nullptr) {
      curRule_ = &ruleMetrics(ri);
      span = obs::Span(tracer_, ruleTag(ri));
    }
    Planned planned = planFor(ri, rule, deltaPos);
    if (planned == Planned::Empty) {
      curRule_ = nullptr;
      return false;
    }
    std::vector<Candidate> cands = collectCandidates(
        rule, deltaPos, planned == Planned::Ready ? &ctx_ : nullptr);
    bool changed = false;
    rel::CTable& out = *idbById_[rule.head];
    for (auto& c : cands) {
      changed |= derive(out, std::move(c.vals), std::move(c.cond));
    }
    curRule_ = nullptr;
    return changed;
  }

  // Budget charging: null guard compiles to a flag test, so the
  // ungoverned path stays hot. A trip aborts the fixpoint via BudgetTrip;
  // everything derived so far remains in idb_ as the partial result.
  void chargeSteps(uint64_t n) {
    if (guard_ != nullptr && !guard_->chargeSteps(n)) throw BudgetTrip{};
  }

  void chargeTuple() {
    if (guard_ != nullptr && !guard_->chargeTuples(1)) throw BudgetTrip{};
  }

  void chargeMemory(uint64_t bytes) {
    if (guard_ != nullptr && !guard_->chargeMemory(bytes)) throw BudgetTrip{};
  }

  /// Appends one candidate unless subsumed or contradictory: syntactic
  /// subsumption, then the solver step, then semantic subsumption.
  bool derive(rel::CTable& out, std::vector<Value> vals, smt::Formula cond) {
    if (cond.isFalse()) return false;
    ++stats_.derivations;
    if (curRule_ != nullptr) curRule_->derivations->add();
    chargeTuple();
    // Syntactic subsumption first: most re-derivations repeat a condition
    // (or a weaker conjunction of one) already recorded for the data part.
    smt::Formula existing = out.conditionOf(vals);
    if (smt::impliesSyntactically(cond, existing)) {
      ++stats_.subsumed;
      if (curRule_ != nullptr) curRule_->subsumed->add();
      return false;
    }
    if (opts_.pruneWithSolver) {
      if (solver_->check(cond) == smt::Sat::Unsat) {
        ++stats_.prunedUnsat;
        if (curRule_ != nullptr) curRule_->prunedUnsat->add();
        return false;
      }
    }
    bool smallEnough =
        existing.kind() != smt::Formula::Kind::Or ||
        existing.node().kids.size() <= opts_.maxSubsumptionDisjuncts;
    if (opts_.mergeSubsumption && !existing.isFalse() && smallEnough &&
        solver_->implies(cond, existing)) {
      ++stats_.subsumed;
      if (curRule_ != nullptr) curRule_->subsumed->add();
      return false;
    }
    size_t rowBytes = sizeof(rel::Row) + vals.size() * sizeof(Value);
    bool appended = out.append(std::move(vals), std::move(cond));
    if (appended) {
      ++stats_.inserted;
      if (curRule_ != nullptr) curRule_->inserted->add();
      chargeMemory(rowBytes);
    }
    return appended;
  }

  // The c-domain match of two values: the condition under which they are
  // equal (True for equal constants, False for distinct constants, an
  // equality atom when a c-variable is involved).
  static smt::Formula matchValues(const Value& a, const Value& b) {
    return smt::Formula::cmp(a, smt::CmpOp::Eq, b);
  }

  /// Joins the frames with one positive literal, whose argument kinds
  /// and key columns the rule's shape fixed at compile time. `pidx`
  /// (planned, unreordered path) is the persistent index over the
  /// literal's key columns: probing it enumerates exactly the rows the
  /// local per-firing index would — same buckets, same ascending order,
  /// filtered to `range` — without the O(range) rebuild. Null keeps the
  /// pristine local-index path.
  void joinLiteral(const RuleShape::LitShape& ls, const rel::CTable& table,
                   Range range, std::vector<CFrame>& frames,
                   const rel::JoinIndex* pidx = nullptr) {
    using Kind = RuleShape::Arg::Kind;
    // Key positions: Fixed constants and variables bound BEFORE this
    // literal. A Fixed position holding a rule c-variable matches any row
    // value, and a variable first bound within this atom has no frame
    // value yet — neither can key the index.
    const std::vector<size_t>& keyArgs = ls.serialKeyArgs;
    const auto& rows = table.rows();
    std::vector<CFrame> out;

    auto extend = [&](const CFrame& f, const rel::Row& row) {
      chargeSteps(1);
      smt::Formula cond = smt::Formula::conj2(f.cond, row.cond);
      if (cond.isFalse()) return;
      CFrame nf{f.vals, smt::Formula()};
      for (size_t a = 0; a < ls.args.size(); ++a) {
        const RuleShape::Arg& arg = ls.args[a];
        const Value& v = row.vals[a];
        Value lhs;
        switch (arg.kind) {
          case Kind::Fixed:
            lhs = arg.value;
            break;
          case Kind::BoundVar:
            lhs = nf.vals[arg.slot];
            break;
          case Kind::FreeVar:
            nf.vals[arg.slot] = v;
            continue;
        }
        smt::Formula eq = matchValues(lhs, v);
        if (eq.isFalse()) return;
        cond = smt::Formula::conj2(cond, eq);
        if (cond.isFalse()) return;
      }
      nf.cond = std::move(cond);
      out.push_back(std::move(nf));
    };

    if (keyArgs.empty()) {
      for (const auto& f : frames) {
        for (size_t r = range.lo; r < range.hi; ++r) extend(f, rows[r]);
      }
    } else {
      // Probe the persistent index when the plan supplies one covering
      // the range, else hash the range into a per-firing index. Either
      // way a frame meets its bucket's rows, then the wild rows (a
      // c-variable in a key position matches any probe), each ascending
      // and restricted to the range — the same rows in the same order.
      const bool persistent = pidx != nullptr && pidx->keyArgs() == keyArgs &&
                              pidx->builtUpTo() >= range.hi;
      rel::RowIndex localRows;
      std::vector<size_t> localWild;
      if (!persistent) {
        for (size_t r = range.lo; r < range.hi; ++r) {
          size_t h = 0;
          if (rel::JoinIndex::keyHash(rows[r].vals, keyArgs, h)) {
            localRows.add(h, r);
          } else {
            localWild.push_back(r);
          }
        }
      }
      const std::vector<size_t>& wildRows =
          persistent ? pidx->wildRows() : localWild;
      uint64_t probes = 0;
      uint64_t hits = 0;
      for (const auto& f : frames) {
        // A probe value that is itself a c-variable matches any row value,
        // so the index cannot be used for this frame.
        bool probeWild = false;
        size_t h = rel::JoinIndex::hashInit();
        for (size_t a : keyArgs) {
          const RuleShape::Arg& arg = ls.args[a];
          const Value& v =
              arg.kind == Kind::Fixed ? arg.value : f.vals[arg.slot];
          if (v.isCVar()) {
            probeWild = true;
            break;
          }
          h = rel::JoinIndex::hashStep(h, v);
        }
        if (probeWild) {
          for (size_t r = range.lo; r < range.hi; ++r) extend(f, rows[r]);
          continue;
        }
        ++probes;
        forRowsIn(persistent ? pidx->probe(h) : localRows.find(h), range,
                  [&](size_t r) {
                    ++hits;
                    extend(f, rows[r]);
                  });
        forRowsIn(wildRows, range, [&](size_t r) { extend(f, rows[r]); });
      }
      if (persistent) {
        planStats_.probes += probes;
        planStats_.hits += hits;
      }
    }
    frames = std::move(out);
  }

  /// Reordered-plan enumeration. Three phases, together byte-identical
  /// to the serial program-order join (DESIGN.md §11):
  ///
  ///  1. Enumerate row combinations in *plan* order, probing persistent
  ///     indexes. Pruning is restricted to conditions that are provably
  ///     serial-fatal: a constant-vs-constant mismatch on a probe column
  ///     (the serial equality atom folds false), and the conjunction of
  ///     the rows' own conditions folding false (Formula::conj's
  ///     false-folding is subset-monotone — a complement pair among a
  ///     subset of serial's conjuncts persists in the full set). Hash
  ///     collisions with equal-looking buckets and wild rows are
  ///     enumerated, never dropped: the combination set is a superset of
  ///     the serial survivors.
  ///  2. Replay each combination through the serial condition sequence
  ///     — program order, the exact conj2/equality-atom chain of
  ///     joinLiteral's extend — which filters the superset down to
  ///     exactly the serial frame set with exactly the serial formulas.
  ///  3. Sort by serial enumeration rank: per literal in program order,
  ///     the row index, with bucket rows ordered before wild rows when
  ///     the serial path would key that literal (serial enumerates its
  ///     per-frame bucket ascending, then wild rows ascending).
  ///     Lexicographic rank order equals serial frame order; ties are
  ///     impossible (distinct row tuples).
  ///
  /// Step budget: one charge per row attempted in phase 1, none in the
  /// replay — under a reordered plan the charge stream intentionally
  /// tracks the *physical* work, so budget trip points may differ from
  /// plan=off (results never do; the determinism matrix runs
  /// unbudgeted).
  std::vector<CFrame> plannedEnumerate(const CompiledRule& rule,
                                       const PlanContext& ctx,
                                       size_t deltaPos) {
    const RuleShape& shape = *ctx.shape;
    size_t nLits = shape.lits.size();

    struct Combo {
      std::vector<size_t> rows;  // by literal position, program order
      smt::Formula acc;          // conjunction of the rows' conditions
    };
    std::vector<Combo> combos{
        Combo{std::vector<size_t>(nLits, SIZE_MAX), smt::Formula::top()}};

    uint64_t probes = 0;
    uint64_t hits = 0;

    for (size_t step = 0; step < ctx.plan.order.size() && !combos.empty();
         ++step) {
      const PlannedLiteral& pl = ctx.plan.order[step];
      const RuleShape::LitShape& ls = shape.lits[pl.lit];
      const rel::CTable& table = *ctx.tables[pl.lit];
      const auto& rows = table.rows();
      Range range =
          rangeFor(rule.bodyPreds[ls.body], deltaPos, ls.body, table);
      const rel::JoinIndex* idx = ctx.stepIndex[step];

      std::vector<Combo> next;
      std::vector<const Value*> probeVals(pl.probes.size());
      for (const Combo& c : combos) {
        bool wildProbe = pl.probes.empty();
        for (size_t i = 0; i < pl.probes.size(); ++i) {
          const PlannedProbe& p = pl.probes[i];
          probeVals[i] =
              p.fixed ? &p.fixedValue
                      : &ctx.tables[p.srcLit]->rows()[c.rows[p.srcLit]]
                             .vals[p.srcArg];
          if (probeVals[i]->isCVar()) wildProbe = true;
        }
        auto tryRow = [&](size_t r) {
          chargeSteps(1);
          const rel::Row& row = rows[r];
          for (size_t i = 0; i < pl.probes.size(); ++i) {
            const Value& pv = *probeVals[i];
            const Value& rv = row.vals[pl.probes[i].arg];
            // Constant mismatch on a probe column: the serial equality
            // atom folds false — provably serial-fatal, safe to drop.
            if (pv.isConstant() && rv.isConstant() && !(pv == rv)) return;
          }
          smt::Formula acc = smt::Formula::conj2(c.acc, row.cond);
          if (acc.isFalse()) return;  // subset-monotone: serial folds too
          Combo nc;
          nc.rows = c.rows;
          nc.rows[pl.lit] = r;
          nc.acc = std::move(acc);
          next.push_back(std::move(nc));
        };
        if (wildProbe || idx == nullptr) {
          for (size_t r = range.lo; r < range.hi; ++r) tryRow(r);
        } else {
          ++probes;
          size_t h = rel::JoinIndex::hashInit();
          for (const Value* v : probeVals) {
            h = rel::JoinIndex::hashStep(h, *v);
          }
          forRowsIn(idx->probe(h), range, [&](size_t r) {
            ++hits;
            tryRow(r);
          });
          forRowsIn(idx->wildRows(), range, [&](size_t r) { tryRow(r); });
        }
      }
      combos = std::move(next);
    }
    planStats_.probes += probes;
    planStats_.hits += hits;

    // Phase 2 + 3: serial replay, then canonical sort.
    struct Built {
      CFrame frame;
      std::vector<uint64_t> rank;
    };
    std::vector<Built> built;
    built.reserve(combos.size());
    for (const Combo& c : combos) {
      Built b;
      b.frame =
          CFrame{std::vector<Value>(shape.slotCount), smt::Formula::top()};
      b.rank.reserve(nLits);
      bool alive = true;
      for (size_t lp = 0; lp < nLits && alive; ++lp) {
        const RuleShape::LitShape& ls = shape.lits[lp];
        const rel::Row& row = ctx.tables[lp]->rows()[c.rows[lp]];
        // Rank before binding: serial keys this literal on values the
        // frame holds *entering* the literal.
        uint64_t rk = c.rows[lp];
        if (!ls.serialKeyArgs.empty()) {
          bool probeWild = false;
          for (size_t a : ls.serialKeyArgs) {
            const RuleShape::Arg& arg = ls.args[a];
            const Value& v = arg.kind == RuleShape::Arg::Kind::Fixed
                                 ? arg.value
                                 : b.frame.vals[arg.slot];
            if (v.isCVar()) {
              probeWild = true;
              break;
            }
          }
          if (!probeWild) {
            for (size_t a : ls.serialKeyArgs) {
              if (row.vals[a].isCVar()) {
                rk |= uint64_t{1} << 63;
                break;
              }
            }
          }
        }
        b.rank.push_back(rk);
        // Serial extend replay: the exact conj2 sequence of joinLiteral.
        smt::Formula cond = smt::Formula::conj2(b.frame.cond, row.cond);
        if (cond.isFalse()) {
          alive = false;
          break;
        }
        for (size_t a = 0; a < ls.args.size() && alive; ++a) {
          const RuleShape::Arg& arg = ls.args[a];
          const Value& v = row.vals[a];
          Value lhs;
          switch (arg.kind) {
            case RuleShape::Arg::Kind::Fixed:
              lhs = arg.value;
              break;
            case RuleShape::Arg::Kind::BoundVar:
              lhs = b.frame.vals[arg.slot];
              break;
            case RuleShape::Arg::Kind::FreeVar:
              b.frame.vals[arg.slot] = v;
              continue;
          }
          smt::Formula eq = matchValues(lhs, v);
          if (eq.isFalse()) {
            alive = false;
            break;
          }
          cond = smt::Formula::conj2(cond, eq);
          if (cond.isFalse()) alive = false;
        }
        if (alive) b.frame.cond = std::move(cond);
      }
      if (alive) built.push_back(std::move(b));
    }
    std::sort(built.begin(), built.end(),
              [](const Built& a, const Built& b) { return a.rank < b.rank; });
    std::vector<CFrame> frames;
    frames.reserve(built.size());
    for (Built& b : built) frames.push_back(std::move(b.frame));
    return frames;
  }

  /// The negated literal's arguments under frame `f`.
  static std::vector<Value> groundArgs(const CompiledNegation& neg,
                                       const CFrame& f) {
    std::vector<Value> probe;
    probe.reserve(neg.args.size());
    for (const SlotTerm& t : neg.args) probe.push_back(valueOf(t, f));
    return probe;
  }

  void applyNegation(const CompiledNegation& neg,
                     std::vector<CFrame>& frames) {
    if (opts_.openWorldNegation != nullptr) {
      applyOpenWorldNegation(neg, frames);
      return;
    }
    const rel::CTable* table = findRelation(neg.pred);
    std::vector<CFrame> kept;
    for (auto& f : frames) {
      std::vector<Value> probe = groundArgs(neg, f);
      smt::Formula cond = f.cond;
      if (table != nullptr) {
        for (const auto& row : table->rows()) {
          chargeSteps(1);
          smt::Formula eq = rel::tupleEquality(probe, row.vals);
          if (eq.isFalse()) continue;
          cond = smt::Formula::conj2(
              cond, smt::Formula::neg(smt::Formula::conj2(row.cond, eq)));
          if (cond.isFalse()) break;
        }
      }
      if (cond.isFalse()) continue;
      f.cond = std::move(cond);
      kept.push_back(std::move(f));
    }
    frames = std::move(kept);
  }

  // Open-world negation (containment reduction, §5): ¬B(u) holds exactly
  // when u coincides with a listed negative fact of B.
  void applyOpenWorldNegation(const CompiledNegation& neg,
                              std::vector<CFrame>& frames) {
    const std::vector<std::vector<Value>>* facts = negFacts_[neg.pred];
    std::vector<CFrame> kept;
    for (auto& f : frames) {
      if (facts == nullptr) continue;  // nothing known absent: frame dies
      std::vector<Value> probe = groundArgs(neg, f);
      std::vector<smt::Formula> matches;
      for (const auto& fact : *facts) {
        if (fact.size() != probe.size()) {
          throw EvalError("negative fact arity mismatch for '" +
                          p_.predName(neg.pred) + "'");
        }
        smt::Formula eq = rel::tupleEquality(probe, fact);
        if (!eq.isFalse()) matches.push_back(std::move(eq));
      }
      smt::Formula cond =
          smt::Formula::conj2(f.cond, smt::Formula::disj(std::move(matches)));
      if (cond.isFalse()) continue;
      f.cond = std::move(cond);
      kept.push_back(std::move(f));
    }
    frames = std::move(kept);
  }

  // ---- observability (no-ops when tracer_ is null) ----

  /// Per-rule registry handles, resolved once per rule index so the hot
  /// derive() path is pointer bumps, not name lookups.
  struct RuleMetrics {
    obs::Counter* derivations = nullptr;
    obs::Counter* inserted = nullptr;
    obs::Counter* prunedUnsat = nullptr;
    obs::Counter* subsumed = nullptr;
  };

  /// Stable display tag for rule `ri`, e.g. "rule[2:Reach]".
  const std::string& ruleTag(size_t ri) {
    if (ruleTags_.empty()) ruleTags_.resize(p_.rules().size());
    std::string& tag = ruleTags_[ri];
    if (tag.empty()) {
      tag = "rule[" + std::to_string(ri) + ":" +
            p_.predName(p_.rules()[ri].head) + "]";
    }
    return tag;
  }

  RuleMetrics& ruleMetrics(size_t ri) {
    if (ruleMetrics_.empty()) ruleMetrics_.resize(p_.rules().size());
    RuleMetrics& m = ruleMetrics_[ri];
    if (m.derivations == nullptr) {
      obs::Registry& reg = tracer_->metrics();
      const std::string base = "eval." + ruleTag(ri) + ".";
      m.derivations = &reg.counter(base + "derivations");
      m.inserted = &reg.counter(base + "inserted");
      m.prunedUnsat = &reg.counter(base + "pruned_unsat");
      m.subsumed = &reg.counter(base + "subsumed");
    }
    return m;
  }

  /// Mirrors the aggregate EvalStats into the registry (`eval.*`). The
  /// per-rule and per-stratum counters accumulate live; the aggregates
  /// flush once per evaluation so both views stay consistent.
  void flushMetrics(bool degraded) {
    if (tracer_ == nullptr) return;
    obs::Registry& reg = tracer_->metrics();
    reg.counter("eval.evaluations").add();
    reg.counter("eval.derivations").add(stats_.derivations);
    reg.counter("eval.inserted").add(stats_.inserted);
    reg.counter("eval.pruned_unsat").add(stats_.prunedUnsat);
    reg.counter("eval.subsumed").add(stats_.subsumed);
    reg.counter("eval.rounds").add(stats_.iterations);
    reg.counter("eval.budget_trips").add(stats_.budgetTrips);
    if (degraded) reg.counter("eval.incomplete").add();
    reg.histogram("eval.sql_seconds").observe(stats_.sqlSeconds);
    reg.histogram("eval.solver_seconds").observe(stats_.solverSeconds);
    // Join-planner totals (DESIGN.md §11). Physical: which indexes get
    // built and how many probes hit depends on the plan, and the whole
    // point of the planner is to change physical work — the determinism
    // gate normalizes eval.plan.* away.
    if (planMode_ != PlanMode::Off) {
      reg.counter("eval.plan.plans").add(planStats_.plans);
      reg.counter("eval.plan.reorders").add(planStats_.reorders);
      reg.counter("eval.plan.index_builds").add(planStats_.indexBuilds);
      reg.counter("eval.plan.index_extensions")
          .add(planStats_.indexExtensions);
      reg.counter("eval.plan.probes").add(planStats_.probes);
      reg.counter("eval.plan.hits").add(planStats_.hits);
      reg.counter("eval.plan.est_rows").add(planStats_.estRows);
      reg.counter("eval.plan.actual_rows").add(planStats_.actualRows);
    }
    // Verdict-cache deltas for this evaluation. Physical like eval.plan.*
    // — a cache shared by scenario forks misses depending on which fork
    // reaches a formula first — so the determinism gate normalizes
    // solver.cache.* away; hit *verdicts* are deterministic.
    if (cache_ != nullptr) {
      smt::VerdictCache::Stats cs = cache_->stats();
      reg.counter("solver.cache.hits").add(cs.hits - cacheBefore_.hits);
      reg.counter("solver.cache.misses").add(cs.misses - cacheBefore_.misses);
      reg.counter("solver.cache.evictions")
          .add(cs.evictions - cacheBefore_.evictions);
      reg.gauge("solver.cache.entries").set(static_cast<double>(cs.entries));
    }
  }

  const CompiledProgram& p_;
  const rel::Database& db_;
  smt::SolverBase* solver_;
  EvalOptions opts_;
  StrataPlan* plan_ = nullptr;  // selective re-evaluation (incremental.hpp)
  ResourceGuard* guard_;
  obs::Tracer* tracer_;
  EvalStats stats_;
  std::map<std::string, rel::CTable> idb_;
  // Per predicate id, resolved once per evaluation: the EDB relation,
  // the IDB table (into idb_) once created, open-world negative facts,
  // and the current stratum's semi-naive delta bounds.
  std::vector<const rel::CTable*> edb_;
  std::vector<rel::CTable*> idbById_;
  std::vector<const std::vector<std::vector<Value>>*> negFacts_;
  std::vector<size_t> deltaStart_;
  std::vector<size_t> fullEnd_;
  const Strata* strata_ = nullptr;
  size_t curStratum_ = 0;
  std::vector<std::string> ruleTags_;
  std::vector<RuleMetrics> ruleMetrics_;
  RuleMetrics* curRule_ = nullptr;  // set around derive() by evalRule

  // Failover wrapper around the caller's (borrowed) solver; solver_
  // points at it when EvalOptions::supervision is enabled.
  std::unique_ptr<smt::FailoverSolver> supervisionWrap_;

  // The main solver's verdict cache (null when none attached), with its
  // stats snapshot at construction so flushMetrics reports this
  // evaluation's deltas.
  smt::VerdictCache* cache_ = nullptr;
  smt::VerdictCache::Stats cacheBefore_;

  // Cost-based planning (plan.hpp, DESIGN.md §11). ctx_ and litStats_
  // are reused by every firing; explained_ limits EXPLAIN output to one
  // dump per (rule, delta position) per evaluation.
  PlanMode planMode_ = PlanMode::Off;
  PlanContext ctx_;
  std::vector<LitStats> litStats_;
  std::set<std::pair<size_t, size_t>> explained_;
  struct PlanCounters {
    uint64_t plans = 0;
    uint64_t reorders = 0;
    uint64_t indexBuilds = 0;
    uint64_t indexExtensions = 0;
    uint64_t estRows = 0;
    uint64_t probes = 0;
    uint64_t hits = 0;
    uint64_t actualRows = 0;
  } planStats_;
};

}  // namespace

size_t resolveThreads(const EvalOptions& opts) {
  unsigned long t = 1;
  if (opts.threads.has_value()) {
    t = *opts.threads;
  } else if (const char* env = std::getenv("FAURE_THREADS");
             env != nullptr && *env != '\0') {
    t = std::strtoul(env, nullptr, 10);
  }
  if (t == 0) return util::ThreadPool::hardwareConcurrency();
  return static_cast<size_t>(t);
}

EvalResult evalFaure(const CompiledProgram& p, const rel::Database& db,
                     smt::SolverBase* solver, const EvalOptions& opts) {
  return FaureEvaluator(p, db, solver, opts).run();
}

EvalResult evalFaure(const dl::Program& p, const rel::Database& db,
                     smt::SolverBase* solver, const EvalOptions& opts) {
  return evalFaure(CompiledProgram::compile(p, &db), db, solver, opts);
}

EvalResult evalFaure(const dl::Program& p, const rel::Database& db) {
  smt::NativeSolver solver(db.cvars());
  return evalFaure(p, db, &solver, EvalOptions{});
}

EvalResult evalFaurePlanned(const CompiledProgram& p, const rel::Database& db,
                            smt::SolverBase* solver, const EvalOptions& opts,
                            StrataPlan plan) {
  return FaureEvaluator(p, db, solver, opts, &plan).run();
}

}  // namespace faure::fl
