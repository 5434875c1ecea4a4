// Compiled fauré-log programs (DESIGN.md "Compiled programs").
//
// dl::Program is the parse type: predicates and variables by name, as
// written. Evaluation wants numbers. CompiledProgram is the lowering,
// done once per program and then shared by every evaluation of it:
//
//   * predicates become dense ids (0..predicateCount()-1, in order of
//     first appearance), so the evaluator keys its tables by id;
//   * each rule's program variables become frame slots, numbered in
//     dl::ruleVariables first-occurrence order — the paper's §3
//     valuation v^C is per variable, and a slot is its direct encoding;
//   * each rule's join shape (plan.hpp RuleShape) is analyzed once;
//   * a comparison whose terms are all constants or c-variables (q6's
//     `x_ + y_ + z_ = 1`, a constraint's `ps_ != 80`) is one formula for
//     every frame, built on first use and then reused;
//   * the safety check, arity check and stratification
//     (datalog/analysis.hpp) run here, once.
//
// A compiled program is immutable apart from the once-built comparison
// formulas (guarded by std::call_once), so scenario forks evaluate one
// instance from several threads.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "datalog/ast.hpp"
#include "faurelog/plan.hpp"
#include "relational/database.hpp"
#include "smt/formula.hpp"

namespace faure::fl {

/// One compiled term: a program variable's frame slot, or a fixed
/// c-domain value (a constant or one of the rule's c-variables).
struct SlotTerm {
  static constexpr uint32_t kFixed = UINT32_MAX;
  uint32_t slot = kFixed;
  Value value;  // when slot == kFixed

  bool isVar() const { return slot != kFixed; }
};

/// `sum(coef * term) + cst`, as dl::LinExpr.
struct SlotLinExpr {
  std::vector<std::pair<SlotTerm, int64_t>> terms;
  int64_t cst = 0;
  bool single = false;  // dl::LinExpr::isSingleTerm
};

/// An explicit comparison `lhs op rhs`.
struct CompiledComparison {
  smt::CmpOp op = smt::CmpOp::Eq;
  SlotLinExpr lhs;
  SlotLinExpr rhs;
  /// Index of the once-built formula when no term is a program
  /// variable (CompiledProgram::groundComparison), else SIZE_MAX.
  size_t ground = SIZE_MAX;
};

/// A negated body literal.
struct CompiledNegation {
  uint32_t pred = 0;
  std::vector<SlotTerm> args;
};

struct CompiledRule {
  uint32_t head = 0;
  std::vector<SlotTerm> headArgs;
  /// Predicate id of each body literal, by body position.
  std::vector<uint32_t> bodyPreds;
  /// The positive literals' join structure (RuleShape::lits carry the
  /// per-argument slots the join binds and tests).
  RuleShape shape;
  std::vector<CompiledNegation> negations;  // body order
  std::vector<CompiledComparison> cmps;
  /// Slot -> variable name (dl::ruleVariables order).
  std::vector<std::string> vars;
};

/// An evaluation partition: rule groups in dependency order.
struct Strata {
  /// Rule indices per stratum, in evaluation order.
  std::vector<std::vector<size_t>> rules;
  /// Distinct head predicates per stratum, in rule order.
  std::vector<std::vector<uint32_t>> heads;
  /// Per predicate id: its stratum, or -1 when no rule defines it.
  std::vector<int> of;
};

/// The formula of `cmp` under the frame values `vals` (indexed by slot):
/// a plain comparison when both sides are single terms, else a linear
/// atom `lhs - rhs op 0`. Throws TypeError on arithmetic over a
/// non-integer value.
smt::Formula comparisonFormula(const CompiledComparison& cmp,
                               const std::vector<Value>& vals);

class CompiledProgram {
 public:
  static constexpr uint32_t kNoPred = UINT32_MAX;

  /// Lowers `p`, which the compiled program keeps as its source. Runs
  /// dl::checkSafety, dl::checkArities and dl::stratify, in that order,
  /// so the first to fail reports its EvalError.
  /// `schema`, when given, supplies dl::checkArities' EDB arities;
  /// evaluation checks the database it runs on either way.
  static CompiledProgram compile(dl::Program p,
                                 const rel::Database* schema = nullptr);

  const dl::Program& source() const { return source_; }
  const std::vector<CompiledRule>& rules() const { return rules_; }

  size_t predicateCount() const { return preds_.size(); }
  const std::string& predName(uint32_t id) const { return preds_[id].name; }
  size_t arity(uint32_t id) const { return preds_[id].arity; }
  /// Some rule defines the predicate (the IDB).
  bool defined(uint32_t id) const { return strata_.of[id] >= 0; }
  /// Some rule reads the predicate in a positive body literal.
  bool readPositively(uint32_t id) const { return preds_[id].positiveRead; }
  /// Id of a predicate the program mentions, or kNoPred.
  uint32_t predId(const std::string& name) const;

  /// The negation stratification (dl::stratify's partition, by id).
  const Strata& strata() const { return strata_; }

  /// The formula of a ground comparison (CompiledComparison::ground),
  /// built on the first call and shared by every later one.
  smt::Formula groundComparison(const CompiledComparison& cmp) const;

  CompiledProgram(CompiledProgram&&) = default;
  CompiledProgram& operator=(CompiledProgram&&) = default;

 private:
  CompiledProgram() = default;

  struct Pred {
    std::string name;
    size_t arity = 0;
    bool positiveRead = false;
  };
  struct Ground {
    std::once_flag once;
    smt::Formula formula;
  };

  dl::Program source_;
  std::vector<CompiledRule> rules_;
  std::vector<Pred> preds_;
  std::unordered_map<std::string, uint32_t> ids_;
  Strata strata_;
  std::unique_ptr<Ground[]> ground_;
};

}  // namespace faure::fl
