#include "smt/z3_solver.hpp"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include <z3++.h>

#include "util/error.hpp"

namespace faure::smt {

namespace {

/// Base for value-numbered codes of non-integer constants; integer
/// constants must stay below this for the encoding to be faithful.
constexpr int64_t kCodeBase = int64_t{1} << 40;

class Z3Solver : public SolverBase {
 public:
  explicit Z3Solver(const CVarRegistry& reg) : SolverBase(reg) {}

  Sat checkUncached(const Formula& f) override {
    CheckScope scope(this);
    if (!admitCheck()) return Sat::Unknown;
    try {
      return checkWithZ3(f);
    } catch (const z3::exception& e) {
      // Internal engine trouble (resource limits inside z3, translation
      // raising) is a backend failure, not bad input: typed so that
      // smt::FailoverSolver (smt/failover_solver.hpp) can fail over.
      throw SolverBackendError("z3", e.msg());
    }
  }

 private:
  Sat checkWithZ3(const Formula& f) {
    z3::context ctx;
    std::unordered_map<CVarId, z3::expr> vars;
    std::unordered_map<Value, int64_t> codes;
    z3::solver solver(ctx);

    // Translate a remaining deadline into Z3's native per-check timeout;
    // Z3 then degrades to unknown on its own, same contract as ours.
    if (guard_ != nullptr) {
      double remaining = guard_->remainingSeconds();
      if (std::isfinite(remaining)) {
        auto ms = static_cast<unsigned>(
            std::min(remaining * 1000.0, 4294967294.0));
        z3::params p(ctx);
        p.set("timeout", ms > 0 ? ms : 1u);
        solver.set(p);
      }
    }

    // Declare every variable occurring in f with its domain constraint.
    std::vector<CVarId> occurring;
    f.collectVars(occurring);
    for (CVarId v : occurring) {
      if (vars.count(v) != 0) continue;
      z3::expr e =
          ctx.int_const(("cv" + std::to_string(v)).c_str());
      vars.emplace(v, e);
      const auto& dom = reg_.info(v).domain;
      if (!dom.empty()) {
        z3::expr any = ctx.bool_val(false);
        for (const Value& d : dom) any = any || (e == code(ctx, codes, d));
        solver.add(any);
      }
    }

    solver.add(translate(ctx, vars, codes, f));
    z3::check_result r = solver.check();
    Sat result = r == z3::unsat  ? Sat::Unsat
                 : r == z3::sat ? Sat::Sat
                                : Sat::Unknown;
    if (result == Sat::Unsat) ++stats_.unsat;
    if (result == Sat::Unknown) {
      ++stats_.unknown;
      // Z3 gave up at the translated deadline: a budget trip, not a
      // logical answer. Ask Z3 first — the guard samples its clock only
      // every so often, and Z3's millisecond timeout rounds down.
      if (guard_ != nullptr && (solver.reason_unknown() == "timeout" ||
                                !guard_->checkDeadline())) {
        ++stats_.budgetTrips;
      }
    }
    return result;
  }

  static z3::expr code(z3::context& ctx,
                       std::unordered_map<Value, int64_t>& codes,
                       const Value& v) {
    if (v.kind() == Value::Kind::Int) {
      return ctx.int_val(v.asInt());
    }
    auto it = codes.find(v);
    int64_t c;
    if (it != codes.end()) {
      c = it->second;
    } else {
      c = kCodeBase + static_cast<int64_t>(codes.size());
      codes.emplace(v, c);
    }
    return ctx.int_val(c);
  }

  z3::expr operand(z3::context& ctx,
                   std::unordered_map<CVarId, z3::expr>& vars,
                   std::unordered_map<Value, int64_t>& codes, const Value& v) {
    if (v.isCVar()) {
      auto it = vars.find(v.asCVar());
      if (it == vars.end()) {
        auto [pos, _] = vars.emplace(
            v.asCVar(),
            ctx.int_const(("cv" + std::to_string(v.asCVar())).c_str()));
        return pos->second;
      }
      return it->second;
    }
    return code(ctx, codes, v);
  }

  z3::expr cmpExpr(const z3::expr& a, CmpOp op, const z3::expr& b) {
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
    throw EvalError("unreachable comparison operator");
  }

  z3::expr translate(z3::context& ctx,
                     std::unordered_map<CVarId, z3::expr>& vars,
                     std::unordered_map<Value, int64_t>& codes,
                     const Formula& f) {
    const FormulaNode& n = f.node();
    switch (n.kind) {
      case FormulaNode::Kind::True:
        return ctx.bool_val(true);
      case FormulaNode::Kind::False:
        return ctx.bool_val(false);
      case FormulaNode::Kind::Cmp:
        return cmpExpr(operand(ctx, vars, codes, n.lhs), n.op,
                       operand(ctx, vars, codes, n.rhs));
      case FormulaNode::Kind::Lin: {
        z3::expr sum = ctx.int_val(n.lin.cst);
        for (const auto& [v, c] : n.lin.coefs) {
          sum = sum + ctx.int_val(c) * operand(ctx, vars, codes,
                                               Value::cvar(v));
        }
        return cmpExpr(sum, n.op, ctx.int_val(0));
      }
      case FormulaNode::Kind::Not:
        return !translate(ctx, vars, codes, n.kids[0]);
      case FormulaNode::Kind::And:
      case FormulaNode::Kind::Or: {
        z3::expr acc = ctx.bool_val(n.kind == FormulaNode::Kind::And);
        for (const auto& k : n.kids) {
          z3::expr kid = translate(ctx, vars, codes, k);
          acc = n.kind == FormulaNode::Kind::And ? (acc && kid) : (acc || kid);
        }
        return acc;
      }
    }
    throw EvalError("unreachable formula kind");
  }
};

}  // namespace

bool z3Available() { return true; }

std::unique_ptr<SolverBase> makeZ3Solver(const CVarRegistry& reg) {
  return std::make_unique<Z3Solver>(reg);
}

std::unique_ptr<SolverBase> requireZ3Solver(const CVarRegistry& reg) {
  return makeZ3Solver(reg);
}

}  // namespace faure::smt
