#include "datalog/analysis.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace faure::dl {

std::vector<std::string> ruleVariables(const Rule& r) {
  std::vector<std::string> out;
  auto add = [&](const Term& t) {
    if (t.isVar() &&
        std::find(out.begin(), out.end(), t.var) == out.end()) {
      out.push_back(t.var);
    }
  };
  for (const auto& a : r.head.args) add(a);
  for (const auto& lit : r.body) {
    for (const auto& a : lit.atom.args) add(a);
  }
  for (const auto& c : r.cmps) {
    for (const auto& [t, k] : c.lhs.terms) {
      (void)k;
      add(t);
    }
    for (const auto& [t, k] : c.rhs.terms) {
      (void)k;
      add(t);
    }
  }
  return out;
}

Stratification stratify(const Program& p) {
  // IDB predicates get dense ids, so the fixpoint below looks no name
  // up; everything else is EDB (stratum "-1", treated as 0 with no
  // constraints).
  std::unordered_map<std::string, size_t> idb;
  std::vector<size_t> head(p.rules.size());
  for (size_t i = 0; i < p.rules.size(); ++i) {
    head[i] = idb.try_emplace(p.rules[i].head.pred, idb.size()).first->second;
  }
  struct Dep {
    size_t pred;
    bool negated;
  };
  std::vector<std::vector<Dep>> deps(p.rules.size());
  for (size_t i = 0; i < p.rules.size(); ++i) {
    for (const auto& lit : p.rules[i].body) {
      auto it = idb.find(lit.atom.pred);
      if (it != idb.end()) deps[i].push_back(Dep{it->second, lit.negated});
    }
  }

  // Fixpoint of the standard constraints:
  //   positive dep:  stratum[head] >= stratum[body]
  //   negative dep:  stratum[head] >= stratum[body] + 1
  // If a stratum exceeds |IDB| the constraints have a cycle through
  // negation.
  std::vector<int> stratum(idb.size(), 0);
  const int limit = static_cast<int>(idb.size());
  bool changed = true;
  while (changed) {
    changed = false;
    for (size_t i = 0; i < p.rules.size(); ++i) {
      int& h = stratum[head[i]];
      for (const Dep& d : deps[i]) {
        int need = d.negated ? stratum[d.pred] + 1 : stratum[d.pred];
        if (h < need) {
          h = need;
          if (h > limit) {
            throw EvalError(
                "program is not stratifiable (recursion through negation "
                "involving '" +
                p.rules[i].head.pred + "')");
          }
          changed = true;
        }
      }
    }
  }

  Stratification s;
  int maxStratum = 0;
  for (const auto& [pred, id] : idb) {
    s.stratumOf.emplace(pred, stratum[id]);
    maxStratum = std::max(maxStratum, stratum[id]);
  }
  s.ruleStrata.assign(static_cast<size_t>(maxStratum) + 1, {});
  for (size_t i = 0; i < p.rules.size(); ++i) {
    s.ruleStrata[static_cast<size_t>(stratum[head[i]])].push_back(i);
  }
  return s;
}

void checkSafety(const Program& p) {
  for (const auto& r : p.rules) {
    // Rules have few variables: a scan beats a node-based set.
    std::vector<const std::string*> positive;
    for (const auto& lit : r.body) {
      if (lit.negated) continue;
      for (const auto& t : lit.atom.args) {
        if (t.isVar()) positive.push_back(&t.var);
      }
    }
    auto require = [&](const Term& t, const char* where) {
      if (t.isVar() &&
          std::none_of(positive.begin(), positive.end(),
                       [&](const std::string* v) { return *v == t.var; })) {
        throw EvalError("unsafe rule (" + r.toString() + "): variable '" +
                        t.var + "' in " + where +
                        " is not bound by a positive body literal");
      }
    };
    for (const auto& t : r.head.args) require(t, "the head");
    for (const auto& lit : r.body) {
      if (!lit.negated) continue;
      for (const auto& t : lit.atom.args) require(t, "a negated literal");
    }
    for (const auto& c : r.cmps) {
      for (const auto& [t, k] : c.lhs.terms) {
        (void)k;
        require(t, "a comparison");
      }
      for (const auto& [t, k] : c.rhs.terms) {
        (void)k;
        require(t, "a comparison");
      }
    }
  }
}

void checkArities(
    const Program& p,
    const std::unordered_map<std::string, size_t>& externalArity) {
  std::unordered_map<std::string, size_t> arity = externalArity;
  auto use = [&](const Atom& a) {
    auto [it, inserted] = arity.try_emplace(a.pred, a.args.size());
    if (!inserted && it->second != a.args.size()) {
      throw EvalError("predicate '" + a.pred + "' used with arity " +
                      std::to_string(a.args.size()) + " and " +
                      std::to_string(it->second));
    }
  };
  for (const auto& r : p.rules) {
    use(r.head);
    for (const auto& lit : r.body) use(lit.atom);
  }
}

}  // namespace faure::dl
