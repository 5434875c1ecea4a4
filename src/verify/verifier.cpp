#include "verify/verifier.hpp"

#include "faurelog/eval.hpp"
#include "obs/trace.hpp"
#include "smt/simplify.hpp"

namespace faure::verify {

std::string_view verdictText(Verdict v) {
  switch (v) {
    case Verdict::Holds:
      return "holds";
    case Verdict::Unknown:
      return "unknown";
    case Verdict::Violated:
      return "violated";
    case Verdict::ConditionallyViolated:
      return "conditionally-violated";
  }
  return "?";
}

Verdict RelativeVerifier::checkSubsumption(
    const Constraint& target, const std::vector<Constraint>& known) const {
  SubsumptionResult r = subsumes(target, known, reg_, opts_);
  if (r.subsumed) {
    witness_.reset();
    degradeReason_.clear();
    return Verdict::Holds;
  }
  witness_ = r.witness;
  degradeReason_ = r.incomplete ? r.reason : "";
  return Verdict::Unknown;
}

Verdict RelativeVerifier::checkWithUpdate(const Constraint& target,
                                          const std::vector<Constraint>& known,
                                          const Update& u) const {
  Constraint rewritten = rewriteForUpdate(target, u);
  auto derivesGoal = [](const Constraint& c) {
    for (const auto& r : c.program.rules) {
      if (r.head.pred == Constraint::kGoal) return true;
    }
    return false;
  };
  // The update can falsify every goal rule (T1's !Fw(s,v) under
  // +Fw(s,v)): the target then cannot fire after it and holds outright.
  if (derivesGoal(target) && !derivesGoal(rewritten)) {
    witness_.reset();
    degradeReason_.clear();
    return Verdict::Holds;
  }
  return checkSubsumption(rewritten, known);
}

namespace {

// The actual containment check; the public wrapper adds the
// `verify.check_on_state` span so every return path shares one
// verdict-annotation point.
StateCheck checkOnStateImpl(const Constraint& target, const rel::Database& db,
                            smt::SolverBase& solver) {
  StateCheck out;
  fl::EvalOptions evalOpts;
  evalOpts.guard = solver.guard();    // govern eval and solver alike
  evalOpts.tracer = solver.tracer();  // and observe them alike
  auto res = fl::evalFaure(target.program, db, &solver, evalOpts);
  if (res.incomplete) {
    // Derived-so-far panic tuples cannot decide the verdict: the missing
    // derivations could strengthen the violation condition. Degrade to
    // UNKNOWN — the paper's answer when something is genuinely missing,
    // here resources instead of information.
    out.verdict = Verdict::Unknown;
    out.incomplete = true;
    out.reason = res.degradeReason;
    return out;
  }
  smt::Formula cond;
  if (!res.derived(Constraint::kGoal, &cond)) {
    out.verdict = Verdict::Holds;
    return out;
  }
  // The verdict is parameterized by the *state's* c-variables; c-variables
  // local to the constraint ("traffic on some port p_") are existential
  // and projected out.
  std::vector<CVarId> stateVars;
  for (const auto& [name, table] : db.tables()) {
    (void)name;
    for (CVarId v : table.collectVars()) stateVars.push_back(v);
  }
  std::vector<CVarId> condVars;
  cond.collectVars(condVars);
  std::vector<CVarId> existential;
  for (CVarId v : condVars) {
    bool inState = false;
    for (CVarId s : stateVars) {
      if (s == v) inState = true;
    }
    if (!inState) existential.push_back(v);
  }
  smt::Formula projected =
      smt::projectExistentials(cond, existential, db.cvars());
  // Projection is a sound under-approximation: fall back to the raw
  // condition when it collapses but the raw condition is satisfiable.
  if (!projected.isFalse() || solver.check(cond) == smt::Sat::Unsat) {
    cond = projected;
  }
  cond = smt::simplify(cond, solver);
  out.condition = cond;
  switch (solver.check(cond)) {
    case smt::Sat::Unsat:
      out.verdict = Verdict::Holds;  // panic never realizable
      return out;
    case smt::Sat::Unknown:
      out.verdict = Verdict::Unknown;
      if (solver.guard() != nullptr && solver.guard()->tripped()) {
        out.incomplete = true;
        out.reason = solver.guard()->reason();
      }
      return out;
    case smt::Sat::Sat:
      break;
  }
  // Violated in every world iff the condition is valid.
  if (solver.implies(smt::Formula::top(), cond)) {
    out.verdict = Verdict::Violated;
  } else {
    out.verdict = Verdict::ConditionallyViolated;
  }
  return out;
}

}  // namespace

StateCheck RelativeVerifier::checkOnState(const Constraint& target,
                                          const rel::Database& db,
                                          smt::SolverBase& solver) {
  obs::Tracer* tracer = solver.tracer();
  obs::Span span(tracer, "verify.check_on_state");
  if (span) span.note("constraint", target.name);
  StateCheck out = checkOnStateImpl(target, db, solver);
  std::string_view verdict = verdictText(out.verdict);
  if (span) {
    span.note("verdict", verdict);
    if (out.incomplete) span.note("incomplete", out.reason);
  }
  if (tracer != nullptr) {
    tracer->metrics()
        .counter("verify.verdict." + std::string(verdict))
        .add();
  }
  return out;
}

}  // namespace faure::verify
