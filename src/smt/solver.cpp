#include "smt/solver.hpp"

#include <algorithm>
#include <cassert>
#include <functional>
#include <limits>
#include <optional>

#include "smt/verdict_cache.hpp"
#include "util/error.hpp"
#include "util/timer.hpp"

namespace faure::smt {

std::string_view satText(Sat s) {
  switch (s) {
    case Sat::Unsat:
      return "unsat";
    case Sat::Sat:
      return "sat";
    case Sat::Unknown:
      return "unknown";
  }
  return "?";
}

bool SolverBase::admitCheck() {
  ++stats_.checks;
  if (guard_ != nullptr && !guard_->chargeSolverChecks()) {
    ++stats_.unknown;
    ++stats_.budgetTrips;
    return false;
  }
  return true;
}

void SolverBase::setTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  if (tracer_ == nullptr) {
    metrics_ = MetricHandles{};
    return;
  }
  obs::Registry& reg = tracer_->metrics();
  metrics_.checks = &reg.counter("solver.checks");
  metrics_.unsat = &reg.counter("solver.unsat");
  metrics_.unknown = &reg.counter("solver.unknown");
  metrics_.budgetTrips = &reg.counter("solver.budget_trips");
  metrics_.enumerations = &reg.counter("solver.enumerations");
  metrics_.checkSeconds = &reg.histogram("solver.check_seconds");
}

SolverBase::CheckScope::CheckScope(SolverBase* solver)
    : solver_(solver), before_(solver->stats_) {
  if (solver_->tracer_ != nullptr &&
      solver_->tracer_->options().fineSpans) {
    span_ = obs::Span(solver_->tracer_, "solver.check");
  }
}

SolverBase::CheckScope::~CheckScope() {
  double seconds = watch_.elapsed();
  solver_->stats_.seconds += seconds;
  if (solver_->tracer_ == nullptr) return;
  const SolverStats& now = solver_->stats_;
  const MetricHandles& m = solver_->metrics_;
  m.checks->add(now.checks - before_.checks);
  m.unsat->add(now.unsat - before_.unsat);
  m.unknown->add(now.unknown - before_.unknown);
  m.budgetTrips->add(now.budgetTrips - before_.budgetTrips);
  m.enumerations->add(now.enumerations - before_.enumerations);
  m.checkSeconds->observe(seconds);
}

Sat SolverBase::consumeDelegated(Sat verdict, double seconds,
                                 uint64_t enumerations) {
  SolverStats before = stats_;
  Sat result = verdict;
  if (!admitCheck()) {
    result = Sat::Unknown;
  } else {
    stats_.enumerations += enumerations;
    if (result == Sat::Unsat) ++stats_.unsat;
    if (result == Sat::Unknown) ++stats_.unknown;
  }
  stats_.seconds += seconds;
  if (tracer_ != nullptr) {
    const SolverStats& now = stats_;
    metrics_.checks->add(now.checks - before.checks);
    metrics_.unsat->add(now.unsat - before.unsat);
    metrics_.unknown->add(now.unknown - before.unknown);
    metrics_.budgetTrips->add(now.budgetTrips - before.budgetTrips);
    metrics_.enumerations->add(now.enumerations - before.enumerations);
    metrics_.checkSeconds->observe(seconds);
  }
  return result;
}

void SolverBase::setVerdictCache(VerdictCache* cache) {
  if (cache != nullptr && &cache->registry() != &reg_) {
    throw EvalError(
        "setVerdictCache: cache is bound to a different c-variable "
        "registry");
  }
  cache_ = cache;
}

Sat SolverBase::check(const Formula& f) {
  // Cached replays and constants are pure logical outcomes; a fresh
  // checkUncached() may clear this (failover) or signal a budget
  // degrade through the budgetTrips delta.
  lastCheckCacheable_ = true;
  // Constants are cheaper than a cache probe; and an uncacheable miss
  // below would pollute the miss counter (physical-check estimate).
  if (cache_ == nullptr || f.isTrue() || f.isFalse()) {
    return checkUncached(f);
  }
  util::Stopwatch watch;
  if (auto hit = cache_->lookupCheck(f)) {
    // Replay with full logical accounting: guard charge (which may
    // still degrade this call to Unknown — budget behaviour is
    // identical to recomputing), stats and metric mirrors. Wall time is
    // the lookup's, the only thing a cache is allowed to change.
    return consumeDelegated(hit->sat, watch.elapsed(), hit->enumerations);
  }
  const SolverStats before = stats_;
  Sat result = checkUncached(f);
  // A verdict degraded by a budget trip (deadline mid-check, tripped
  // check budget, Z3 timeout) is a resource outcome, not a logical one:
  // never cache it. Every degrade path increments budgetTrips, so the
  // delta is exactly the signal. A failover wrapper whose backends all
  // failed clears lastCheckCacheable_ for the same reason.
  if (stats_.budgetTrips == before.budgetTrips && lastCheckCacheable_) {
    cache_->storeCheck(f, result, stats_.enumerations - before.enumerations);
  }
  return result;
}

bool SolverBase::implies(const Formula& a, const Formula& b) {
  if (a.isFalse() || b.isTrue()) return true;
  if (a == b) return true;
  if (cache_ == nullptr) {
    return check(Formula::conj2(a, Formula::neg(b))) == Sat::Unsat;
  }
  util::Stopwatch watch;
  if (auto hit = cache_->lookupImplies(a, b)) {
    // Same accounting as the uncached path's inner check; a guard trip
    // degrades to Unknown and therefore answers "no", exactly as an
    // uncached tripped check would.
    return consumeDelegated(hit->sat, watch.elapsed(), hit->enumerations) ==
           Sat::Unsat;
  }
  const SolverStats before = stats_;
  Sat result = check(Formula::conj2(a, Formula::neg(b)));
  if (stats_.budgetTrips == before.budgetTrips && lastCheckCacheable_) {
    cache_->storeImplies(a, b, result,
                         stats_.enumerations - before.enumerations);
  }
  return result == Sat::Unsat;
}

bool SolverBase::equivalent(const Formula& a, const Formula& b) {
  if (a == b) return true;
  return implies(a, b) && implies(b, a);
}

namespace {

int64_t satAdd(int64_t a, int64_t b) {
  if (a > 0 && b > std::numeric_limits<int64_t>::max() - a) {
    return std::numeric_limits<int64_t>::max();
  }
  if (a < 0 && b < std::numeric_limits<int64_t>::min() - a) {
    return std::numeric_limits<int64_t>::min();
  }
  return a + b;
}

int64_t satMul(int64_t a, int64_t b) {
  if (a == 0 || b == 0) return 0;
  // Conditions use tiny coefficients; clamp instead of trapping.
  long double p = static_cast<long double>(a) * static_cast<long double>(b);
  if (p > static_cast<long double>(std::numeric_limits<int64_t>::max())) {
    return std::numeric_limits<int64_t>::max();
  }
  if (p < static_cast<long double>(std::numeric_limits<int64_t>::min())) {
    return std::numeric_limits<int64_t>::min();
  }
  return a * b;
}

/// Theory state for one conjunction of atoms: union-find over c-variables
/// with per-class constant bindings, excluded constants, integer intervals
/// and a joint finite-candidate computation.
class CubeChecker {
 public:
  CubeChecker(const CVarRegistry& reg, uint64_t maxEnum, uint64_t* enumCount,
              ResourceGuard* guard)
      : reg_(reg), maxEnum_(maxEnum), enumCount_(enumCount), guard_(guard) {}

  Sat check(const Cube& cube) {
    for (const Formula& atom : cube) {
      if (atom.isFalse()) return Sat::Unsat;
    }
    // Saturation loop: substituting fresh bindings can simplify residual
    // atoms into new bindings, so re-run classification until stable.
    size_t maxRounds = cube.size() + reg_.size() + 2;
    for (size_t round = 0; round < maxRounds; ++round) {
      changed_ = false;
      residuals_.clear();
      nePairs_.clear();
      for (const Formula& atom : cube) {
        if (!classify(atom)) return Sat::Unsat;
      }
      if (!propagateSingletons()) return Sat::Unsat;
      if (!changed_) break;
    }
    // Every class must keep at least one candidate.
    for (size_t i = 0; i < classes_.size(); ++i) {
      size_t rep = find(i);
      if (rep != i) continue;
      if (classes_[rep].bound.has_value()) continue;
      auto cand = candidates(rep);
      if (cand.has_value() && cand->empty()) return Sat::Unsat;
    }
    if (residuals_.empty() && nePairs_.empty()) return Sat::Sat;
    return checkResiduals();
  }

 private:
  struct Cls {
    std::optional<Value> bound;
    std::vector<Value> excluded;
    int64_t lo = std::numeric_limits<int64_t>::min();
    int64_t hi = std::numeric_limits<int64_t>::max();
    ValueType type = ValueType::Any;
    std::vector<CVarId> members;
  };

  size_t slot(CVarId var) {
    auto it = slotOf_.find(var);
    if (it != slotOf_.end()) return it->second;
    size_t s = classes_.size();
    slotOf_.emplace(var, s);
    parent_.push_back(s);
    Cls c;
    c.members.push_back(var);
    const auto& info = reg_.info(var);
    c.type = info.type;
    classes_.push_back(std::move(c));
    return s;
  }

  size_t find(size_t s) {
    while (parent_[s] != s) {
      parent_[s] = parent_[parent_[s]];
      s = parent_[s];
    }
    return s;
  }

  static bool typeCompatible(ValueType a, ValueType b) {
    return a == ValueType::Any || b == ValueType::Any || a == b;
  }

  // Returns false on contradiction.
  bool bind(size_t rep, const Value& val) {
    Cls& c = classes_[rep];
    ValueType vt = val.constantType();
    if (!typeCompatible(c.type, vt)) return false;
    if (c.bound.has_value()) return *c.bound == val;
    if (vt == ValueType::Int) {
      int64_t x = val.asInt();
      if (x < c.lo || x > c.hi) return false;
    }
    for (const Value& e : c.excluded) {
      if (e == val) return false;
    }
    // Finite member domains must admit the value.
    for (CVarId m : c.members) {
      const auto& dom = reg_.info(m).domain;
      if (!dom.empty() &&
          std::find(dom.begin(), dom.end(), val) == dom.end()) {
        return false;
      }
    }
    c.bound = val;
    c.type = vt;
    changed_ = true;
    return true;
  }

  bool merge(size_t a, size_t b) {
    a = find(a);
    b = find(b);
    if (a == b) return true;
    Cls& ca = classes_[a];
    Cls& cb = classes_[b];
    if (!typeCompatible(ca.type, cb.type)) return false;
    if (ca.type == ValueType::Any) ca.type = cb.type;
    ca.lo = std::max(ca.lo, cb.lo);
    ca.hi = std::min(ca.hi, cb.hi);
    ca.excluded.insert(ca.excluded.end(), cb.excluded.begin(),
                       cb.excluded.end());
    ca.members.insert(ca.members.end(), cb.members.begin(), cb.members.end());
    std::optional<Value> pending = cb.bound;
    parent_[b] = a;
    changed_ = true;
    if (pending.has_value()) {
      std::optional<Value> mine = ca.bound;
      ca.bound.reset();
      if (!bind(a, *pending)) return false;
      if (mine.has_value() && *mine != *pending) return false;
    } else if (ca.bound.has_value()) {
      Value v = *ca.bound;
      ca.bound.reset();
      if (!bind(a, v)) return false;
    }
    return true;
  }

  bool exclude(size_t rep, const Value& val) {
    Cls& c = classes_[rep];
    if (c.bound.has_value()) return *c.bound != val;
    for (const Value& e : c.excluded) {
      if (e == val) return true;
    }
    c.excluded.push_back(val);
    return true;
  }

  bool tighten(size_t rep, CmpOp op, int64_t k) {
    Cls& c = classes_[rep];
    if (!typeCompatible(c.type, ValueType::Int)) return false;
    c.type = ValueType::Int;
    if (c.bound.has_value()) return evalIntCmp(c.bound->asInt(), op, k);
    switch (op) {
      case CmpOp::Lt:
        c.hi = std::min(c.hi, k - 1);
        break;
      case CmpOp::Le:
        c.hi = std::min(c.hi, k);
        break;
      case CmpOp::Gt:
        c.lo = std::max(c.lo, k + 1);
        break;
      case CmpOp::Ge:
        c.lo = std::max(c.lo, k);
        break;
      default:
        assert(false);
    }
    return c.lo <= c.hi;
  }

  // Substitutes current bindings into `f`.
  Formula reduce(const Formula& f) {
    Assignment a;
    std::vector<CVarId> vars;
    f.collectVars(vars);
    for (CVarId v : vars) {
      size_t rep = find(slot(v));
      if (classes_[rep].bound.has_value()) a.emplace(v, *classes_[rep].bound);
    }
    return a.empty() ? f : substitute(f, a);
  }

  // Dispatches one atom into the theory state; false on contradiction.
  bool classify(const Formula& atomIn) {
    Formula atom = reduce(atomIn);
    if (atom.isTrue()) return true;
    if (atom.isFalse()) return false;
    const FormulaNode& n = atom.node();
    if (n.kind == FormulaNode::Kind::Cmp) {
      // Constructor normalization guarantees lhs is a c-variable.
      size_t a = find(slot(n.lhs.asCVar()));
      if (n.rhs.isConstant()) {
        switch (n.op) {
          case CmpOp::Eq:
            return bind(a, n.rhs);
          case CmpOp::Ne:
            return exclude(a, n.rhs);
          default:
            if (n.rhs.kind() != Value::Kind::Int) return false;
            return tighten(a, n.op, n.rhs.asInt());
        }
      }
      size_t b = find(slot(n.rhs.asCVar()));
      switch (n.op) {
        case CmpOp::Eq:
          return merge(a, b);
        case CmpOp::Ne:
          if (find(a) == find(b)) return false;
          addNePair(find(a), find(b));
          return true;
        default: {
          // x < y  ⇒  x - y < 0: hand to the linear machinery.
          LinTerm t = LinTerm::make(
              {{n.lhs.asCVar(), 1}, {n.rhs.asCVar(), -1}}, 0);
          return classifyLin(t, n.op);
        }
      }
    }
    if (n.kind == FormulaNode::Kind::Lin) return classifyLin(n.lin, n.op);
    // Nested boolean structure inside a cube only appears when reduce()
    // re-expanded something; treat as residual for enumeration.
    residuals_.push_back(atom);
    return true;
  }

  bool classifyLin(const LinTerm& term, CmpOp op) {
    if (term.isConstant()) return evalIntCmp(term.cst, op, 0);
    // All linear variables are integers.
    for (const auto& [v, c] : term.coefs) {
      (void)c;
      size_t rep = find(slot(v));
      Cls& cls = classes_[rep];
      if (!typeCompatible(cls.type, ValueType::Int)) return false;
      if (cls.type == ValueType::Any) cls.type = ValueType::Int;
    }
    if (term.coefs.size() == 1) {
      auto [v, c] = term.coefs[0];
      size_t rep = find(slot(v));
      // c*v + cst op 0.
      if (op == CmpOp::Eq) {
        if ((-term.cst) % c != 0) return false;
        return bind(rep, Value::fromInt((-term.cst) / c));
      }
      if (op == CmpOp::Ne) {
        if ((-term.cst) % c != 0) return true;
        return exclude(rep, Value::fromInt((-term.cst) / c));
      }
      // Ordered: v op' bound with careful rounding.
      CmpOp vop = c > 0 ? op : flipOp(op);
      int64_t a = c > 0 ? c : -c;
      int64_t num = c > 0 ? -term.cst : term.cst;
      // c>0: v op num/a ; c<0: v flip(op) num/a, num possibly not divisible.
      auto floorDiv = [](int64_t x, int64_t y) {
        int64_t q = x / y;
        if ((x % y != 0) && ((x < 0) != (y < 0))) --q;
        return q;
      };
      switch (vop) {
        case CmpOp::Lt:
          // v < num/a  ⇔  v <= ceil(num/a) - 1  ⇔ v <= floorDiv(num-1, a)
          return tighten(rep, CmpOp::Le, floorDiv(num - 1, a));
        case CmpOp::Le:
          return tighten(rep, CmpOp::Le, floorDiv(num, a));
        case CmpOp::Gt:
          return tighten(rep, CmpOp::Ge, floorDiv(num, a) + 1);
        case CmpOp::Ge:
          // v >= num/a ⇔ v >= ceil(num/a) = floorDiv(num + a - 1, a)
          return tighten(rep, CmpOp::Ge, floorDiv(num + a - 1, a));
        default:
          return true;
      }
    }
    residuals_.push_back(Formula::lin(term, op));
    return true;
  }

  void addNePair(size_t a, size_t b) {
    if (a > b) std::swap(a, b);
    for (const auto& [x, y] : nePairs_) {
      if (x == a && y == b) return;
    }
    nePairs_.emplace_back(a, b);
  }

  /// Joint finite candidate set of a class, or nullopt when infinite.
  std::optional<std::vector<Value>> candidates(size_t rep) {
    const Cls& c = classes_[rep];
    if (c.bound.has_value()) return std::vector<Value>{*c.bound};
    std::optional<std::vector<Value>> cand;
    for (CVarId m : c.members) {
      const auto& dom = reg_.info(m).domain;
      if (dom.empty()) continue;
      if (!cand.has_value()) {
        cand = dom;
      } else {
        std::vector<Value> inter;
        for (const Value& v : *cand) {
          if (std::find(dom.begin(), dom.end(), v) != dom.end()) {
            inter.push_back(v);
          }
        }
        cand = std::move(inter);
      }
    }
    if (!cand.has_value()) {
      // No member has an explicit domain; a bounded integer interval is
      // still enumerable if small.
      if (c.type == ValueType::Int &&
          c.lo != std::numeric_limits<int64_t>::min() &&
          c.hi != std::numeric_limits<int64_t>::max() &&
          static_cast<uint64_t>(c.hi - c.lo) < maxEnum_) {
        std::vector<Value> vs;
        for (int64_t x = c.lo; x <= c.hi; ++x) vs.push_back(Value::fromInt(x));
        cand = std::move(vs);
      } else {
        return std::nullopt;
      }
    }
    // Filter by interval and exclusions.
    std::vector<Value> out;
    for (const Value& v : *cand) {
      if (c.type == ValueType::Int || v.kind() == Value::Kind::Int) {
        if (v.kind() != Value::Kind::Int) continue;
        if (v.asInt() < c.lo || v.asInt() > c.hi) continue;
      }
      if (std::find(c.excluded.begin(), c.excluded.end(), v) !=
          c.excluded.end()) {
        continue;
      }
      out.push_back(v);
    }
    return out;
  }

  bool propagateSingletons() {
    for (size_t i = 0; i < classes_.size(); ++i) {
      if (find(i) != i || classes_[i].bound.has_value()) continue;
      auto cand = candidates(i);
      if (!cand.has_value()) continue;
      if (cand->empty()) return false;
      if (cand->size() == 1 && !bind(i, (*cand)[0])) return false;
    }
    return true;
  }

  Sat checkResiduals() {
    // Classes involved in residual constraints.
    std::vector<size_t> involved;
    auto addInvolved = [&](size_t rep) {
      if (classes_[rep].bound.has_value()) return;
      if (std::find(involved.begin(), involved.end(), rep) == involved.end()) {
        involved.push_back(rep);
      }
    };
    for (const Formula& r : residuals_) {
      std::vector<CVarId> vars;
      r.collectVars(vars);
      for (CVarId v : vars) addInvolved(find(slot(v)));
    }
    for (const auto& [a, b] : nePairs_) {
      addInvolved(find(a));
      addInvolved(find(b));
    }

    // Try exhaustive finite-domain enumeration.
    std::vector<std::vector<Value>> cands;
    uint64_t total = 1;
    bool enumerable = true;
    for (size_t rep : involved) {
      auto c = candidates(rep);
      if (!c.has_value() || c->empty() ||
          total > maxEnum_ / std::max<size_t>(c->size(), 1)) {
        enumerable = false;
        break;
      }
      total *= c->size();
      cands.push_back(std::move(*c));
    }
    if (enumerable) {
      if (enumCount_ != nullptr) ++*enumCount_;
      std::vector<size_t> idx(involved.size(), 0);
      uint32_t sinceGuard = 0;
      while (true) {
        if (guard_ != nullptr && ++sinceGuard == 512) {
          sinceGuard = 0;
          if (!guard_->checkDeadline()) return Sat::Unknown;
        }
        if (assignmentWorks(involved, cands, idx)) return Sat::Sat;
        size_t k = 0;
        while (k < idx.size() && ++idx[k] == cands[k].size()) {
          idx[k] = 0;
          ++k;
        }
        if (k == idx.size()) return Sat::Unsat;
      }
    }

    // Interval refutation: any single impossible residual refutes the cube.
    for (const Formula& r : residuals_) {
      if (r.kind() == FormulaNode::Kind::Lin &&
          linImpossible(r.node().lin, r.node().op)) {
        return Sat::Unsat;
      }
    }
    return Sat::Unknown;
  }

  bool assignmentWorks(const std::vector<size_t>& involved,
                       const std::vector<std::vector<Value>>& cands,
                       const std::vector<size_t>& idx) {
    Assignment a;
    for (size_t i = 0; i < involved.size(); ++i) {
      const Value& v = cands[i][idx[i]];
      for (CVarId m : classes_[involved[i]].members) a.emplace(m, v);
    }
    // Also substitute already-bound classes so residuals fold to ground.
    for (size_t s = 0; s < classes_.size(); ++s) {
      size_t rep = find(s);
      if (classes_[rep].bound.has_value()) {
        for (CVarId m : classes_[s].members) a.emplace(m, *classes_[rep].bound);
      }
    }
    for (const Formula& r : residuals_) {
      Formula g = substitute(r, a);
      if (!g.isTrue()) return false;
    }
    for (const auto& [x, y] : nePairs_) {
      size_t ri = indexOf(involved, find(x));
      size_t rj = indexOf(involved, find(y));
      if (ri == SIZE_MAX || rj == SIZE_MAX) continue;  // one side bound: ok
      if (cands[ri][idx[ri]] == cands[rj][idx[rj]]) return false;
    }
    return true;
  }

  static size_t indexOf(const std::vector<size_t>& v, size_t x) {
    for (size_t i = 0; i < v.size(); ++i) {
      if (v[i] == x) return i;
    }
    return SIZE_MAX;
  }

  bool linImpossible(const LinTerm& term, CmpOp op) {
    int64_t mn = term.cst;
    int64_t mx = term.cst;
    for (const auto& [v, c] : term.coefs) {
      size_t rep = find(slot(v));
      const Cls& cls = classes_[rep];
      int64_t lo = cls.lo;
      int64_t hi = cls.hi;
      if (cls.bound.has_value()) lo = hi = cls.bound->asInt();
      auto cand = candidates(rep);
      if (cand.has_value() && !cand->empty()) {
        int64_t clo = std::numeric_limits<int64_t>::max();
        int64_t chi = std::numeric_limits<int64_t>::min();
        for (const Value& x : *cand) {
          if (x.kind() != Value::Kind::Int) return false;
          clo = std::min(clo, x.asInt());
          chi = std::max(chi, x.asInt());
        }
        lo = std::max(lo, clo);
        hi = std::min(hi, chi);
      }
      int64_t a = satMul(c, lo);
      int64_t b = satMul(c, hi);
      mn = satAdd(mn, std::min(a, b));
      mx = satAdd(mx, std::max(a, b));
    }
    switch (op) {
      case CmpOp::Eq:
        return mn > 0 || mx < 0;
      case CmpOp::Ne:
        return false;  // an interval refutation of != needs mn==mx==0
      case CmpOp::Lt:
        return mn >= 0;
      case CmpOp::Le:
        return mn > 0;
      case CmpOp::Gt:
        return mx <= 0;
      case CmpOp::Ge:
        return mx < 0;
    }
    return false;
  }

  const CVarRegistry& reg_;
  uint64_t maxEnum_;
  uint64_t* enumCount_;
  ResourceGuard* guard_;

  std::unordered_map<CVarId, size_t> slotOf_;
  std::vector<size_t> parent_;
  std::vector<Cls> classes_;
  std::vector<Formula> residuals_;
  std::vector<std::pair<size_t, size_t>> nePairs_;
  bool changed_ = false;
};

}  // namespace

Sat NativeSolver::checkUncached(const Formula& f) {
  CheckScope scope(this);
  if (!admitCheck()) return Sat::Unknown;
  Sat result;
  if (f.isTrue()) {
    result = Sat::Sat;
  } else if (f.isFalse()) {
    result = Sat::Unsat;
  } else {
    auto dnf = toDnf(f, opts_.maxDnfCubes);
    if (!dnf.has_value()) {
      result = enumerate(f);
    } else {
      bool anyUnknown = false;
      result = Sat::Unsat;
      for (const Cube& cube : *dnf) {
        if (guard_ != nullptr && !guard_->checkDeadline()) {
          anyUnknown = true;
          break;
        }
        CubeChecker checker(reg_, opts_.maxEnum, &stats_.enumerations,
                            guard_);
        Sat r = checker.check(cube);
        if (r == Sat::Sat) {
          result = Sat::Sat;
          break;
        }
        if (r == Sat::Unknown) anyUnknown = true;
      }
      if (result != Sat::Sat && anyUnknown) result = Sat::Unknown;
    }
  }
  if (guard_ != nullptr && guard_->tripped() && result == Sat::Unknown) {
    ++stats_.budgetTrips;
  }
  if (result == Sat::Unsat) ++stats_.unsat;
  if (result == Sat::Unknown) ++stats_.unknown;
  return result;
}

Sat NativeSolver::enumerate(const Formula& f) {
  std::vector<CVarId> vars;
  f.collectVars(vars);
  std::sort(vars.begin(), vars.end());
  vars.erase(std::unique(vars.begin(), vars.end()), vars.end());
  uint64_t total = 1;
  for (CVarId v : vars) {
    const auto& dom = reg_.info(v).domain;
    if (dom.empty() || total > opts_.maxEnum / dom.size()) {
      return Sat::Unknown;
    }
    total *= dom.size();
  }
  ++stats_.enumerations;
  bool sat = false;
  forEachModel(f, reg_, vars, [&](const Assignment&) { sat = true; });
  return sat ? Sat::Sat : Sat::Unsat;
}

namespace {

void modelRec(const Formula& f, const CVarRegistry& reg,
              const std::vector<CVarId>& vars, size_t i, Assignment& acc,
              const std::function<void(const Assignment&)>& fn) {
  if (f.isFalse()) return;
  if (i == vars.size()) {
    if (f.isTrue()) fn(acc);
    return;
  }
  CVarId v = vars[i];
  for (const Value& val : reg.info(v).domain) {
    acc[v] = val;
    Assignment one{{v, val}};
    modelRec(substitute(f, one), reg, vars, i + 1, acc, fn);
  }
  acc.erase(v);
}

}  // namespace

bool forEachModel(const Formula& f, const CVarRegistry& reg,
                  const std::vector<CVarId>& vars,
                  const std::function<void(const Assignment&)>& fn) {
  for (CVarId v : vars) {
    if (reg.info(v).domain.empty()) return false;
  }
  Assignment acc;
  modelRec(f, reg, vars, 0, acc, fn);
  return true;
}

}  // namespace faure::smt
