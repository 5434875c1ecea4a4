#include "faurelog/compiled.hpp"

#include <algorithm>

#include "datalog/analysis.hpp"
#include "util/error.hpp"

namespace faure::fl {

smt::Formula comparisonFormula(const CompiledComparison& cmp,
                               const std::vector<Value>& vals) {
  auto valueOf = [&](const SlotTerm& t) -> const Value& {
    return t.isVar() ? vals[t.slot] : t.value;
  };
  if (cmp.lhs.single && cmp.rhs.single) {
    return smt::Formula::cmp(valueOf(cmp.lhs.terms[0].first), cmp.op,
                             valueOf(cmp.rhs.terms[0].first));
  }
  // Arithmetic comparison: lhs - rhs  op  0 over integer values and
  // integer-typed c-variables.
  smt::LinTerm diff;
  auto accumulate = [&](const SlotLinExpr& e, int64_t sign) {
    diff.cst += sign * e.cst;
    std::vector<std::pair<CVarId, int64_t>> entries = diff.coefs;
    for (const auto& [t, c] : e.terms) {
      const Value& v = valueOf(t);
      if (v.isCVar()) {
        entries.emplace_back(v.asCVar(), sign * c);
      } else if (v.kind() == Value::Kind::Int) {
        diff.cst += sign * c * v.asInt();
      } else {
        throw TypeError("arithmetic on non-integer value " + v.toString());
      }
    }
    diff = smt::LinTerm::make(std::move(entries), diff.cst);
  };
  accumulate(cmp.lhs, 1);
  accumulate(cmp.rhs, -1);
  return smt::Formula::lin(std::move(diff), cmp.op);
}

CompiledProgram CompiledProgram::compile(dl::Program p,
                                         const rel::Database* schema) {
  dl::checkSafety(p);
  // The schema's arities, for the relations the program mentions.
  std::unordered_map<std::string, size_t> external;
  if (schema != nullptr) {
    auto note = [&](const dl::Atom& a) {
      if (const rel::CTable* t = schema->find(a.pred)) {
        external.try_emplace(a.pred, t->schema().arity());
      }
    };
    for (const dl::Rule& r : p.rules) {
      note(r.head);
      for (const dl::Literal& lit : r.body) note(lit.atom);
    }
  }
  dl::checkArities(p, external);
  dl::Stratification strat = dl::stratify(p);

  CompiledProgram cp;
  cp.source_ = std::move(p);
  const std::vector<dl::Rule>& rules = cp.source_.rules;
  cp.rules_.reserve(rules.size());
  // Arities are consistent by now, so any use gives a predicate's arity.
  auto intern = [&](const dl::Atom& a) -> uint32_t {
    auto [it, inserted] = cp.ids_.try_emplace(
        a.pred, static_cast<uint32_t>(cp.preds_.size()));
    if (inserted) cp.preds_.push_back(Pred{a.pred, a.args.size(), false});
    return it->second;
  };

  size_t groundCount = 0;
  for (const dl::Rule& r : rules) {
    CompiledRule cr;
    cr.vars = dl::ruleVariables(r);
    auto lower = [&](const dl::Term& t) {
      SlotTerm st;
      if (t.isVar()) {
        st.slot = static_cast<uint32_t>(
            std::find(cr.vars.begin(), cr.vars.end(), t.var) -
            cr.vars.begin());
      } else {
        st.value = t.asValue();
      }
      return st;
    };
    auto lowerArgs = [&](const dl::Atom& a) {
      std::vector<SlotTerm> out;
      out.reserve(a.args.size());
      for (const dl::Term& t : a.args) out.push_back(lower(t));
      return out;
    };
    auto lowerLin = [&](const dl::LinExpr& e) {
      SlotLinExpr out;
      out.cst = e.cst;
      out.single = e.isSingleTerm();
      out.terms.reserve(e.terms.size());
      for (const auto& [t, c] : e.terms) out.terms.emplace_back(lower(t), c);
      return out;
    };

    cr.head = intern(r.head);
    cr.headArgs = lowerArgs(r.head);
    cr.bodyPreds.reserve(r.body.size());
    for (const dl::Literal& lit : r.body) {
      uint32_t pred = intern(lit.atom);
      cr.bodyPreds.push_back(pred);
      if (lit.negated) {
        cr.negations.push_back(CompiledNegation{pred, lowerArgs(lit.atom)});
      } else {
        cp.preds_[pred].positiveRead = true;
      }
    }
    cr.cmps.reserve(r.cmps.size());
    for (const dl::Comparison& c : r.cmps) {
      CompiledComparison cc;
      cc.op = c.op;
      cc.lhs = lowerLin(c.lhs);
      cc.rhs = lowerLin(c.rhs);
      bool ground = true;
      for (const SlotLinExpr* e : {&cc.lhs, &cc.rhs}) {
        for (const auto& [t, k] : e->terms) {
          (void)k;
          if (t.isVar()) ground = false;
        }
      }
      if (ground) cc.ground = groundCount++;
      cr.cmps.push_back(std::move(cc));
    }
    cr.shape = RuleShape::analyze(r, cr.vars);
    cp.rules_.push_back(std::move(cr));
  }

  // dl::stratify's partition, by id.
  cp.strata_.of.assign(cp.preds_.size(), -1);
  for (const auto& [pred, stratum] : strat.stratumOf) {
    cp.strata_.of[cp.ids_.at(pred)] = stratum;
  }
  cp.strata_.rules = std::move(strat.ruleStrata);
  for (const std::vector<size_t>& group : cp.strata_.rules) {
    std::vector<uint32_t> heads;
    for (size_t ri : group) {
      const uint32_t head = cp.rules_[ri].head;
      if (std::find(heads.begin(), heads.end(), head) == heads.end()) {
        heads.push_back(head);
      }
    }
    cp.strata_.heads.push_back(std::move(heads));
  }
  cp.ground_ = std::make_unique<Ground[]>(groundCount);
  return cp;
}

uint32_t CompiledProgram::predId(const std::string& name) const {
  auto it = ids_.find(name);
  return it == ids_.end() ? kNoPred : it->second;
}

smt::Formula CompiledProgram::groundComparison(
    const CompiledComparison& cmp) const {
  Ground& g = ground_[cmp.ground];
  std::call_once(g.once,
                 [&] { g.formula = comparisonFormula(cmp, {}); });
  return g.formula;
}

}  // namespace faure::fl
