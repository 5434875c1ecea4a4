// Abstract syntax shared by pure datalog and fauré-log (§3, eq. 1 and 3).
//
// A rule is
//
//   H(u) :- B1(u1), ..., Bn(un), C1, ..., Cm.
//
// where the free tuples u, ui mix program variables (x, y, n1 ...),
// constants, and — in fauré-log — c-variables (written with a trailing
// underscore: x_, y_, p_). The Ci are explicit comparisons over the
// c-domain, including linear forms such as `x_ + y_ + z_ = 1`.
//
// The paper's per-atom condition annotations `[φ]` come in two flavours:
// condition metavariables (φ — the tuple's own condition, which our
// evaluator propagates implicitly) are accepted and dropped by the parser;
// concrete annotations such as `Lb1(x_,y_)[x_ != Mkt]` are parsed into the
// rule's comparison list.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "smt/formula.hpp"
#include "value/value.hpp"

namespace faure::dl {

/// One argument position of an atom.
struct Term {
  enum class Kind : uint8_t { Const, Var, CVar };

  Kind kind = Kind::Const;
  Value constant;   // Kind::Const
  std::string var;  // Kind::Var
  CVarId cvar = 0;  // Kind::CVar

  static Term constant_(Value v) {
    Term t;
    t.kind = Kind::Const;
    t.constant = v;
    return t;
  }
  static Term variable(std::string name) {
    Term t;
    t.kind = Kind::Var;
    t.var = std::move(name);
    return t;
  }
  static Term cvariable(CVarId id) {
    Term t;
    t.kind = Kind::CVar;
    t.cvar = id;
    return t;
  }

  bool isVar() const { return kind == Kind::Var; }
  bool isConst() const { return kind == Kind::Const; }
  bool isCVar() const { return kind == Kind::CVar; }

  /// The c-domain value of a non-variable term (constant or c-variable).
  Value asValue() const;

  friend bool operator==(const Term& a, const Term& b);

  std::string toString(const CVarRegistry* reg = nullptr) const;
};

/// A linear expression over terms: sum(coef_i * term_i) + cst. Every term
/// must be integer-valued at evaluation time.
struct LinExpr {
  std::vector<std::pair<Term, int64_t>> terms;
  int64_t cst = 0;

  static LinExpr of(Term t) {
    LinExpr e;
    e.terms.emplace_back(std::move(t), 1);
    return e;
  }
  static LinExpr constant(int64_t c) {
    LinExpr e;
    e.cst = c;
    return e;
  }

  bool isSingleTerm() const { return terms.size() == 1 && cst == 0 &&
                                     terms[0].second == 1; }

  std::string toString(const CVarRegistry* reg = nullptr) const;
};

/// An explicit comparison `lhs op rhs` in a rule body.
struct Comparison {
  smt::CmpOp op = smt::CmpOp::Eq;
  LinExpr lhs;
  LinExpr rhs;

  std::string toString(const CVarRegistry* reg = nullptr) const;
};

/// A predicate applied to terms.
struct Atom {
  std::string pred;
  std::vector<Term> args;

  std::string toString(const CVarRegistry* reg = nullptr) const;
};

/// A body literal: possibly negated atom.
struct Literal {
  Atom atom;
  bool negated = false;

  std::string toString(const CVarRegistry* reg = nullptr) const;
};

/// One rule. Facts are rules with an empty body and a ground head.
struct Rule {
  Atom head;
  std::vector<Literal> body;
  std::vector<Comparison> cmps;

  bool isFact() const { return body.empty() && cmps.empty(); }

  std::string toString(const CVarRegistry* reg = nullptr) const;
};

/// A datalog / fauré-log program.
struct Program {
  std::vector<Rule> rules;

  /// Predicates defined by some rule head (the IDB).
  std::vector<std::string> idbPredicates() const;

  /// All predicate names, IDB and EDB.
  std::vector<std::string> predicates() const;

  /// Appends `other`'s rules after this program's, in order (used to
  /// build the union of a constraint set). `p.append(p)` doubles `p`.
  void append(const Program& other);

  std::string toString(const CVarRegistry* reg = nullptr) const;
};

}  // namespace faure::dl
