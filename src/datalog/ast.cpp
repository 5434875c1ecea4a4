#include "datalog/ast.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace faure::dl {

Value Term::asValue() const {
  switch (kind) {
    case Kind::Const:
      return constant;
    case Kind::CVar:
      return Value::cvar(cvar);
    case Kind::Var:
      throw EvalError("asValue() on an unbound program variable '" + var +
                      "'");
  }
  return constant;
}

bool operator==(const Term& a, const Term& b) {
  if (a.kind != b.kind) return false;
  switch (a.kind) {
    case Term::Kind::Const:
      return a.constant == b.constant;
    case Term::Kind::Var:
      return a.var == b.var;
    case Term::Kind::CVar:
      return a.cvar == b.cvar;
  }
  return false;
}

std::string Term::toString(const CVarRegistry* reg) const {
  switch (kind) {
    case Kind::Const:
      return constant.toString(reg);
    case Kind::Var:
      return var;
    case Kind::CVar:
      return Value::cvar(cvar).toString(reg);
  }
  return "?";
}

std::string LinExpr::toString(const CVarRegistry* reg) const {
  if (terms.empty()) return std::to_string(cst);
  std::string out;
  for (size_t i = 0; i < terms.size(); ++i) {
    const auto& [t, c] = terms[i];
    if (i == 0) {
      if (c == -1) out += "-";
      else if (c != 1) out += std::to_string(c) + "*";
    } else {
      out += c < 0 ? " - " : " + ";
      int64_t a = c < 0 ? -c : c;
      if (a != 1) out += std::to_string(a) + "*";
    }
    out += t.toString(reg);
  }
  if (cst != 0) {
    out += cst < 0 ? " - " : " + ";
    out += std::to_string(cst < 0 ? -cst : cst);
  }
  return out;
}

std::string Comparison::toString(const CVarRegistry* reg) const {
  return lhs.toString(reg) + " " + std::string(smt::opText(op)) + " " +
         rhs.toString(reg);
}

std::string Atom::toString(const CVarRegistry* reg) const {
  if (args.empty()) return pred;
  std::string out = pred + "(";
  for (size_t i = 0; i < args.size(); ++i) {
    if (i > 0) out += ", ";
    out += args[i].toString(reg);
  }
  return out + ")";
}

std::string Literal::toString(const CVarRegistry* reg) const {
  return (negated ? "!" : "") + atom.toString(reg);
}

std::string Rule::toString(const CVarRegistry* reg) const {
  std::string out = head.toString(reg);
  if (isFact()) return out + ".";
  out += " :- ";
  bool first = true;
  for (const auto& lit : body) {
    if (!first) out += ", ";
    out += lit.toString(reg);
    first = false;
  }
  for (const auto& cmp : cmps) {
    if (!first) out += ", ";
    out += cmp.toString(reg);
    first = false;
  }
  return out + ".";
}

std::vector<std::string> Program::idbPredicates() const {
  std::vector<std::string> out;
  for (const auto& r : rules) {
    if (std::find(out.begin(), out.end(), r.head.pred) == out.end()) {
      out.push_back(r.head.pred);
    }
  }
  return out;
}

std::vector<std::string> Program::predicates() const {
  std::vector<std::string> out = idbPredicates();
  for (const auto& r : rules) {
    for (const auto& lit : r.body) {
      if (std::find(out.begin(), out.end(), lit.atom.pred) == out.end()) {
        out.push_back(lit.atom.pred);
      }
    }
  }
  return out;
}

void Program::append(const Program& other) {
  if (&other != this) {
    rules.insert(rules.end(), other.rules.begin(), other.rules.end());
    return;
  }
  // Inserting a vector's own range is undefined; copy by index after
  // one reserve, so no push_back reallocates under its argument.
  size_t n = rules.size();
  rules.reserve(2 * n);
  for (size_t i = 0; i < n; ++i) rules.push_back(rules[i]);
}

std::string Program::toString(const CVarRegistry* reg) const {
  std::string out;
  for (const auto& r : rules) {
    out += r.toString(reg);
    out += "\n";
  }
  return out;
}

}  // namespace faure::dl
