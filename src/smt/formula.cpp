#include "smt/formula.hpp"

#include <algorithm>
#include <map>
#include <span>

#include "smt/interner.hpp"
#include "util/error.hpp"

namespace faure::smt {

CmpOp negateOp(CmpOp op) {
  switch (op) {
    case CmpOp::Eq:
      return CmpOp::Ne;
    case CmpOp::Ne:
      return CmpOp::Eq;
    case CmpOp::Lt:
      return CmpOp::Ge;
    case CmpOp::Le:
      return CmpOp::Gt;
    case CmpOp::Gt:
      return CmpOp::Le;
    case CmpOp::Ge:
      return CmpOp::Lt;
  }
  return CmpOp::Eq;
}

CmpOp flipOp(CmpOp op) {
  switch (op) {
    case CmpOp::Eq:
      return CmpOp::Eq;
    case CmpOp::Ne:
      return CmpOp::Ne;
    case CmpOp::Lt:
      return CmpOp::Gt;
    case CmpOp::Le:
      return CmpOp::Ge;
    case CmpOp::Gt:
      return CmpOp::Lt;
    case CmpOp::Ge:
      return CmpOp::Le;
  }
  return CmpOp::Eq;
}

std::string_view opText(CmpOp op) {
  switch (op) {
    case CmpOp::Eq:
      return "=";
    case CmpOp::Ne:
      return "!=";
    case CmpOp::Lt:
      return "<";
    case CmpOp::Le:
      return "<=";
    case CmpOp::Gt:
      return ">";
    case CmpOp::Ge:
      return ">=";
  }
  return "?";
}

bool evalIntCmp(int64_t a, CmpOp op, int64_t b) {
  switch (op) {
    case CmpOp::Eq:
      return a == b;
    case CmpOp::Ne:
      return a != b;
    case CmpOp::Lt:
      return a < b;
    case CmpOp::Le:
      return a <= b;
    case CmpOp::Gt:
      return a > b;
    case CmpOp::Ge:
      return a >= b;
  }
  return false;
}

LinTerm LinTerm::make(std::vector<std::pair<CVarId, int64_t>> entries,
                      int64_t cst) {
  std::map<CVarId, int64_t> acc;
  for (const auto& [v, c] : entries) acc[v] += c;
  LinTerm t;
  t.cst = cst;
  for (const auto& [v, c] : acc) {
    if (c != 0) t.coefs.emplace_back(v, c);
  }
  return t;
}

LinTerm LinTerm::plus(const LinTerm& other) const {
  std::vector<std::pair<CVarId, int64_t>> entries = coefs;
  entries.insert(entries.end(), other.coefs.begin(), other.coefs.end());
  return make(std::move(entries), cst + other.cst);
}

LinTerm LinTerm::minus(const LinTerm& other) const {
  return plus(other.scaled(-1));
}

LinTerm LinTerm::scaled(int64_t k) const {
  LinTerm t;
  if (k == 0) return t;
  t.cst = cst * k;
  t.coefs.reserve(coefs.size());
  for (const auto& [v, c] : coefs) t.coefs.emplace_back(v, c * k);
  return t;
}

size_t LinTerm::hash() const {
  uint64_t h = 0x100001b3ULL ^ static_cast<uint64_t>(cst);
  for (const auto& [v, c] : coefs) {
    h = (h * 1099511628211ULL) ^ (static_cast<uint64_t>(v) << 17) ^
        static_cast<uint64_t>(c);
  }
  return static_cast<size_t>(h);
}

std::string LinTerm::toString(const CVarRegistry* reg) const {
  std::string out;
  for (size_t i = 0; i < coefs.size(); ++i) {
    const auto& [v, c] = coefs[i];
    if (i == 0) {
      if (c == -1) out += "-";
      else if (c != 1) out += std::to_string(c) + "*";
    } else {
      out += c < 0 ? " - " : " + ";
      int64_t a = c < 0 ? -c : c;
      if (a != 1) out += std::to_string(a) + "*";
    }
    out += Value::cvar(v).toString(reg);
  }
  if (coefs.empty()) return std::to_string(cst);
  if (cst != 0) {
    out += cst < 0 ? " - " : " + ";
    out += std::to_string(cst < 0 ? -cst : cst);
  }
  return out;
}

namespace {

size_t combineHash(size_t a, size_t b) {
  return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
}

size_t nodeHash(const FormulaNode& n) {
  size_t h = static_cast<size_t>(n.kind) * 0x9e3779b97f4a7c15ULL;
  switch (n.kind) {
    case FormulaNode::Kind::True:
    case FormulaNode::Kind::False:
      return h;
    case FormulaNode::Kind::Cmp:
      h = combineHash(h, static_cast<size_t>(n.op));
      h = combineHash(h, n.lhs.hash());
      h = combineHash(h, n.rhs.hash());
      return h;
    case FormulaNode::Kind::Lin:
      h = combineHash(h, static_cast<size_t>(n.op));
      h = combineHash(h, n.lin.hash());
      return h;
    case FormulaNode::Kind::And:
    case FormulaNode::Kind::Or:
    case FormulaNode::Kind::Not:
      for (const auto& k : n.kids) h = combineHash(h, k.hash());
      return h;
  }
  return h;
}

// The boolean constants are interned like every other node, so the
// pointer-equality contract of operator== covers them uniformly.
const std::shared_ptr<const FormulaNode>& trueNode() {
  static const std::shared_ptr<const FormulaNode> node = [] {
    FormulaNode n;
    n.kind = FormulaNode::Kind::True;
    n.hash = nodeHash(n);
    return FormulaInterner::instance().intern(std::move(n));
  }();
  return node;
}

const std::shared_ptr<const FormulaNode>& falseNode() {
  static const std::shared_ptr<const FormulaNode> node = [] {
    FormulaNode n;
    n.kind = FormulaNode::Kind::False;
    n.hash = nodeHash(n);
    return FormulaInterner::instance().intern(std::move(n));
  }();
  return node;
}

}  // namespace

Formula::Formula() : node_(trueNode()) {}

Formula Formula::top() { return Formula(trueNode()); }

Formula Formula::bottom() { return Formula(falseNode()); }

Formula Formula::makeNode(FormulaNode node) {
  node.hash = nodeHash(node);
  return Formula(FormulaInterner::instance().intern(std::move(node)));
}

Formula Formula::cmp(Value lhs, CmpOp op, Value rhs) {
  // Both constants: fold.
  if (lhs.isConstant() && rhs.isConstant()) {
    if (op == CmpOp::Eq) return boolean(lhs == rhs);
    if (op == CmpOp::Ne) return boolean(lhs != rhs);
    if (lhs.kind() != Value::Kind::Int || rhs.kind() != Value::Kind::Int) {
      throw TypeError("ordered comparison on non-integer constants");
    }
    return boolean(evalIntCmp(lhs.asInt(), op, rhs.asInt()));
  }
  // Identical sides (same c-variable).
  if (lhs == rhs) {
    switch (op) {
      case CmpOp::Eq:
      case CmpOp::Le:
      case CmpOp::Ge:
        return top();
      case CmpOp::Ne:
      case CmpOp::Lt:
      case CmpOp::Gt:
        return bottom();
    }
  }
  // Normalize: constant (or larger var id) on the right.
  bool flip = false;
  if (lhs.isConstant() && rhs.isCVar()) {
    flip = true;
  } else if (lhs.isCVar() && rhs.isCVar() && rhs.asCVar() < lhs.asCVar()) {
    flip = true;
  }
  if (flip) {
    std::swap(lhs, rhs);
    op = flipOp(op);
  }
  FormulaNode n;
  n.kind = FormulaNode::Kind::Cmp;
  n.op = op;
  n.lhs = lhs;
  n.rhs = rhs;
  return makeNode(std::move(n));
}

Formula Formula::lin(LinTerm term, CmpOp op) {
  if (term.isConstant()) return boolean(evalIntCmp(term.cst, op, 0));
  if (term.coefs.size() == 1) {
    auto [v, c] = term.coefs[0];
    // c*v + cst op 0. For |c| == 1 this is exactly v op' (-cst/c).
    if (c == 1) return cmp(Value::cvar(v), op, Value::fromInt(-term.cst));
    if (c == -1) {
      return cmp(Value::cvar(v), flipOp(op), Value::fromInt(term.cst));
    }
  }
  // Normalize sign: make the leading coefficient positive for Eq/Ne so that
  // syntactically mirrored atoms compare equal.
  if ((op == CmpOp::Eq || op == CmpOp::Ne) && term.coefs[0].second < 0) {
    term = term.scaled(-1);
  }
  FormulaNode n;
  n.kind = FormulaNode::Kind::Lin;
  n.op = op;
  n.lin = std::move(term);
  return makeNode(std::move(n));
}

namespace {

/// Collects the children of an n-ary And/Or node (`kind`): flattens one
/// level of nested `kind` nodes (constructors keep the tree flat, so one
/// level is all that can occur), drops the neutral constant and dedups
/// syntactically. add() returns false once the absorbing constant shows
/// up — `false` for And, `true` for Or.
class KidCollector {
 public:
  KidCollector(FormulaNode::Kind kind, size_t hint) : kind_(kind) {
    kids_.reserve(hint);
  }

  bool add(const Formula& p) {
    if (p.kind() != kind_) return addKid(p);
    for (const auto& k : p.node().kids) {
      if (!addKid(k)) return false;
    }
    return true;
  }

  std::vector<Formula>& kids() { return kids_; }

 private:
  bool addKid(const Formula& f) {
    if (kind_ == FormulaNode::Kind::And ? f.isFalse() : f.isTrue()) {
      return false;
    }
    if (kind_ == FormulaNode::Kind::And ? f.isTrue() : f.isFalse()) {
      return true;
    }
    for (const auto& k : kids_) {
      if (k == f) return true;
    }
    kids_.push_back(f);
    return true;
  }

  FormulaNode::Kind kind_;
  std::vector<Formula> kids_;
};

/// True when `a` and `b` are atoms and each is the other's exact negation.
/// A normalized atom's negation keeps its sides (Cmp) or its term (Lin)
/// and negates only the operator: neither constructor's operand flip nor
/// its Eq/Ne sign normalization depends on the operator once the node is
/// normalized (DESIGN.md §8).
bool complementAtoms(const FormulaNode& a, const FormulaNode& b) {
  if (a.kind != b.kind || b.op != negateOp(a.op)) return false;
  switch (a.kind) {
    case FormulaNode::Kind::Cmp:
      return a.lhs == b.lhs && a.rhs == b.rhs;
    case FormulaNode::Kind::Lin:
      return a.lin == b.lin;
    default:
      return false;
  }
}

}  // namespace

Formula Formula::makeNary(Kind kind, std::vector<Formula> kids) {
  if (kids.empty()) return boolean(kind == Kind::And);
  if (kids.size() == 1) return kids[0];
  // a AND NOT a  (exact structural complement) => false; dually for Or.
  // Siblings are flattened, so a compound child's negation (a node of the
  // other kind) can never be a sibling: only atom pairs need checking.
  for (size_t i = 0; i < kids.size(); ++i) {
    if (!kids[i].isAtom()) continue;
    for (size_t j = i + 1; j < kids.size(); ++j) {
      if (complementAtoms(kids[i].node(), kids[j].node())) {
        return boolean(kind == Kind::Or);
      }
    }
  }
  // Canonical child order so that equal sets of children produce equal
  // formulas regardless of derivation order; fixed-point evaluation relies
  // on this for syntactic dedup (and hence termination). A stable
  // insertion sort by hash: it needs no temporary buffer, and the
  // collection and complement checks above are quadratic already.
  for (size_t i = 1; i < kids.size(); ++i) {
    if (kids[i - 1].hash() <= kids[i].hash()) continue;
    Formula k = std::move(kids[i]);
    size_t j = i;
    for (; j > 0 && k.hash() < kids[j - 1].hash(); --j) {
      kids[j] = std::move(kids[j - 1]);
    }
    kids[j] = std::move(k);
  }
  FormulaNode n;
  n.kind = kind;
  n.kids = std::move(kids);
  return makeNode(std::move(n));
}

Formula Formula::conj(std::vector<Formula> parts) {
  KidCollector c(Kind::And, parts.size());
  for (const auto& p : parts) {
    if (!c.add(p)) return bottom();
  }
  return makeNary(Kind::And, std::move(c.kids()));
}

Formula Formula::disj(std::vector<Formula> parts) {
  KidCollector c(Kind::Or, parts.size());
  for (const auto& p : parts) {
    if (!c.add(p)) return top();
  }
  return makeNary(Kind::Or, std::move(c.kids()));
}

Formula Formula::binary(Kind kind, const Formula& a, const Formula& b) {
  // Constants and repeats return without allocating: conj({x}) is x
  // itself for any constructor-built x, and likewise for disj.
  const Kind absorbing = kind == Kind::And ? Kind::False : Kind::True;
  const Kind neutral = kind == Kind::And ? Kind::True : Kind::False;
  if (a.kind() == absorbing || b.kind() == absorbing) {
    return boolean(kind == Kind::Or);
  }
  if (a == b || a.kind() == neutral) return b;
  if (b.kind() == neutral) return a;
  auto width = [&](const Formula& f) {
    return f.kind() == kind ? f.node().kids.size() : 1;
  };
  KidCollector c(kind, width(a) + width(b));
  if (!c.add(a) || !c.add(b)) return boolean(kind == Kind::Or);
  return makeNary(kind, std::move(c.kids()));
}

Formula Formula::neg(const Formula& f) {
  switch (f.kind()) {
    case Kind::True:
      return bottom();
    case Kind::False:
      return top();
    case Kind::Cmp: {
      const auto& n = f.node();
      return cmp(n.lhs, negateOp(n.op), n.rhs);
    }
    case Kind::Lin: {
      const auto& n = f.node();
      return lin(n.lin, negateOp(n.op));
    }
    case Kind::Not:
      return f.node().kids[0];
    case Kind::And:
    case Kind::Or: {
      // De Morgan keeps formulas in negation normal form, which both the
      // printer and the DNF conversion rely on.
      std::vector<Formula> negKids;
      negKids.reserve(f.node().kids.size());
      for (const auto& k : f.node().kids) negKids.push_back(neg(k));
      return f.kind() == Kind::And ? disj(std::move(negKids))
                                   : conj(std::move(negKids));
    }
  }
  return f;
}

std::string Formula::toString(const CVarRegistry* reg) const {
  std::string out;
  appendTo(out, reg);
  return out;
}

void Formula::appendTo(std::string& out, const CVarRegistry* reg) const {
  const auto& n = node();
  switch (n.kind) {
    case Kind::True:
      out += "true";
      return;
    case Kind::False:
      out += "false";
      return;
    case Kind::Cmp:
      out += n.lhs.toString(reg);
      out += ' ';
      out += opText(n.op);
      out += ' ';
      out += n.rhs.toString(reg);
      return;
    case Kind::Lin:
      out += n.lin.toString(reg);
      out += ' ';
      out += opText(n.op);
      out += " 0";
      return;
    case Kind::Not:
      out += "!(";
      n.kids[0].appendTo(out, reg);
      out += ')';
      return;
    case Kind::And:
    case Kind::Or: {
      const char* sep = n.kind == Kind::And ? " & " : " | ";
      for (size_t i = 0; i < n.kids.size(); ++i) {
        if (i > 0) out += sep;
        const auto& k = n.kids[i];
        bool paren = k.kind() == Kind::And || k.kind() == Kind::Or;
        if (paren) out += '(';
        k.appendTo(out, reg);
        if (paren) out += ')';
      }
      return;
    }
  }
  out += '?';
}

namespace {

/// Conjunct list of a formula, viewed in place: its children for And,
/// itself otherwise.
std::span<const Formula> conjuncts(const Formula& f) {
  if (f.kind() == Formula::Kind::And) return f.node().kids;
  return {&f, 1};
}

/// a's conjunct set ⊇ b's conjunct set (so a ⇒ b).
bool conjunctsInclude(std::span<const Formula> a, std::span<const Formula> b) {
  for (const auto& need : b) {
    if (std::find(a.begin(), a.end(), need) == a.end()) return false;
  }
  return true;
}

}  // namespace

bool impliesSyntactically(const Formula& a, const Formula& b) {
  if (a.isFalse() || b.isTrue()) return true;
  if (a == b) return true;
  if (b.isFalse() || a.isTrue()) return false;
  // a ⇒ (c1 | c2 | ...) if a ⇒ some ci (checking each ci structurally).
  if (b.kind() == Formula::Kind::Or) {
    for (const auto& kid : b.node().kids) {
      if (kid == a || conjunctsInclude(conjuncts(a), conjuncts(kid))) {
        return true;
      }
    }
    // (a1 | a2) ⇒ b needs every disjunct of a to imply b.
    if (a.kind() == Formula::Kind::Or) {
      for (const auto& kid : a.node().kids) {
        if (!impliesSyntactically(kid, b)) return false;
      }
      return true;
    }
    return false;
  }
  if (a.kind() == Formula::Kind::Or) {
    for (const auto& kid : a.node().kids) {
      if (!impliesSyntactically(kid, b)) return false;
    }
    return true;
  }
  return conjunctsInclude(conjuncts(a), conjuncts(b));
}

void Formula::collectVars(std::vector<CVarId>& out) const {
  const auto& n = node();
  switch (n.kind) {
    case Kind::True:
    case Kind::False:
      return;
    case Kind::Cmp:
      if (n.lhs.isCVar()) out.push_back(n.lhs.asCVar());
      if (n.rhs.isCVar()) out.push_back(n.rhs.asCVar());
      return;
    case Kind::Lin:
      for (const auto& [v, c] : n.lin.coefs) {
        (void)c;
        out.push_back(v);
      }
      return;
    case Kind::And:
    case Kind::Or:
    case Kind::Not:
      for (const auto& k : n.kids) k.collectVars(out);
      return;
  }
}

}  // namespace faure::smt
