#include "verify/update.hpp"

#include <algorithm>
#include <set>
#include <string>

#include "util/error.hpp"

namespace faure::verify {

namespace {

using dl::Comparison;
using dl::LinExpr;
using dl::Literal;
using dl::Rule;
using dl::Term;

/// One way a literal over an updated relation can be satisfied: an
/// optional occurrence of the base literal plus extra comparisons.
struct Variant {
  bool hasBase = false;
  bool baseNegated = false;
  std::vector<Comparison> cmps;
  bool dead = false;  // a comparison folded to false
};

Comparison makeCmp(const Term& a, smt::CmpOp op, const Term& b) {
  Comparison c;
  c.op = op;
  c.lhs = LinExpr::of(a);
  c.rhs = LinExpr::of(b);
  return c;
}

/// Adds `a op b` to the variant, folding constant-vs-constant cases.
void addCmp(Variant& v, const Term& a, smt::CmpOp op, const Term& b) {
  if (a.isConst() && b.isConst()) {
    bool eq = a.constant == b.constant;
    bool holds = op == smt::CmpOp::Eq ? eq : !eq;
    if (!holds) v.dead = true;
    return;  // trivially true: nothing to add
  }
  if (a == b) {
    if (op == smt::CmpOp::Ne) v.dead = true;
    return;
  }
  v.cmps.push_back(makeCmp(a, op, b));
}

void checkTuple(const UpdateOp& op, size_t arity) {
  if (op.tuple.size() != arity) {
    throw EvalError("update tuple arity mismatch on '" + op.pred + "'");
  }
  for (const auto& t : op.tuple) {
    if (t.isVar()) {
      throw EvalError("update tuple for '" + op.pred +
                      "' must be ground (constants or c-variables)");
    }
  }
}

/// Variants of the k-th version of the literal (k ops applied), given the
/// literal's argument terms.
std::vector<Variant> expand(const std::vector<const UpdateOp*>& ops,
                            size_t k, const std::vector<Term>& args,
                            bool negated) {
  if (k == 0) {
    Variant base;
    base.hasBase = true;
    base.baseNegated = negated;
    return {base};
  }
  std::vector<Variant> prev = expand(ops, k - 1, args, negated);
  const UpdateOp& op = *ops[k - 1];
  std::vector<Variant> out;
  bool opAdds = (op.kind == UpdateOp::Kind::Insert) != negated;
  if (opAdds) {
    // present ∨ u = t   (resp. absent ∨ u = t for a delete under ¬):
    // keep all previous variants and add the tuple-equality variant.
    out = prev;
    Variant eq;
    for (size_t i = 0; i < args.size(); ++i) {
      addCmp(eq, args[i], smt::CmpOp::Eq, op.tuple[i]);
    }
    if (!eq.dead) out.push_back(std::move(eq));
  } else {
    // present ∧ u ≠ t: each previous variant forks per differing column.
    for (const Variant& v : prev) {
      for (size_t i = 0; i < args.size(); ++i) {
        Variant nv = v;
        addCmp(nv, args[i], smt::CmpOp::Ne, op.tuple[i]);
        if (!nv.dead) out.push_back(std::move(nv));
      }
    }
  }
  return out;
}

/// A derived predicate whose rules all died above is empty after the
/// update, so a positive literal over it is false and its rule dies too;
/// repeats until no more rules die. A negated literal over it is true and
/// is dropped. Without this, unfolding would see the predicate as an
/// unconstrained base relation.
void dropEmptiedPredicates(const std::vector<Rule>& original,
                           std::vector<Rule>& rules) {
  std::set<std::string> emptied;
  auto over = [&](const Literal& lit, bool negated) {
    return lit.negated == negated && emptied.count(lit.atom.pred) != 0;
  };
  while (true) {
    emptied.clear();
    for (const Rule& r : original) emptied.insert(r.head.pred);
    for (const Rule& r : rules) emptied.erase(r.head.pred);
    size_t before = rules.size();
    std::erase_if(rules, [&](const Rule& r) {
      return std::any_of(r.body.begin(), r.body.end(),
                         [&](const Literal& lit) { return over(lit, false); });
    });
    if (rules.size() == before) break;
  }
  for (Rule& r : rules) {
    std::erase_if(r.body, [&](const Literal& lit) { return over(lit, true); });
  }
}

}  // namespace

Constraint rewriteForUpdate(const Constraint& c, const Update& u) {
  Constraint out;
  out.name = c.name + "'";

  for (const Rule& rule : c.program.rules) {
    // Variants per literal (1 trivial variant for unaffected literals).
    std::vector<std::vector<Variant>> perLiteral;
    for (const Literal& lit : rule.body) {
      std::vector<const UpdateOp*> ops;
      for (const auto& op : u.ops) {
        if (op.pred == lit.atom.pred) {
          checkTuple(op, lit.atom.args.size());
          ops.push_back(&op);
        }
      }
      perLiteral.push_back(
          expand(ops, ops.size(), lit.atom.args, lit.negated));
    }
    // A literal with no surviving variant is false in every post-update
    // state (e.g. !Fw(s,v) under +Fw(s,v)), so the rule never fires.
    bool unsatisfiable = false;
    for (const auto& variants : perLiteral) {
      if (variants.empty()) unsatisfiable = true;
    }
    if (unsatisfiable) continue;
    // Cartesian product of literal variants -> rewritten rules.
    std::vector<size_t> idx(perLiteral.size(), 0);
    while (true) {
      Rule nr;
      nr.head = rule.head;
      nr.cmps = rule.cmps;
      bool dead = false;
      for (size_t i = 0; i < perLiteral.size(); ++i) {
        const Variant& v = perLiteral[i][idx[i]];
        if (v.dead) {
          dead = true;
          break;
        }
        if (v.hasBase) {
          nr.body.push_back(rule.body[i]);
        }
        nr.cmps.insert(nr.cmps.end(), v.cmps.begin(), v.cmps.end());
      }
      if (!dead) out.program.rules.push_back(std::move(nr));
      // Advance the product counter.
      size_t k = 0;
      while (k < idx.size() && ++idx[k] == perLiteral[k].size()) {
        idx[k] = 0;
        ++k;
      }
      if (k == idx.size() || idx.empty()) break;
    }
  }
  dropEmptiedPredicates(c.program.rules, out.program.rules);
  return out;
}

}  // namespace faure::verify
