#include "faure/session.hpp"

#include "faurelog/textio.hpp"
#include "smt/z3_solver.hpp"
#include "util/error.hpp"

namespace faure {

Session::Session(Backend backend) : backend_(backend) {
  setSupervision(smt::SupervisionOptions::fromEnv());  // builds solver_
  setSolverCache(smt::VerdictCache::capacityFromEnv());
}

void Session::setSolverCache(size_t entries) {
  if (entries == 0) {
    solver_->setVerdictCache(nullptr);
    cache_.reset();
    return;
  }
  cache_ = std::make_unique<smt::VerdictCache>(db_.cvars(), entries);
  solver_->setVerdictCache(cache_.get());
}

smt::SolverBase& Session::solver() { return *solver_; }

smt::FailoverSolver* Session::failoverSolver() {
  return dynamic_cast<smt::FailoverSolver*>(solver_.get());
}

void Session::setSupervision(const smt::SupervisionOptions& opts) {
  inc_.reset();  // the watch engine holds a raw pointer to the old solver
  std::unique_ptr<smt::SolverBase> backend;
  if (backend_ == Backend::Z3) {
    // Throws a typed SolverBackendError in builds without Z3.
    backend = smt::requireZ3Solver(db_.cvars());
  } else {
    backend = std::make_unique<smt::NativeSolver>(db_.cvars());
  }
  solver_ = smt::supervise(std::move(backend), opts);
  solver_->setVerdictCache(cache_.get());
  solver_->setTracer(tracer_);
}

void Session::setResourceLimits(const ResourceLimits& limits) {
  guard_.arm(limits);
}

void Session::setTracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  solver_->setTracer(tracer);
  if (tracer != nullptr) {
    // Budget trips become first-class trace events carrying the guard's
    // machine-readable reason (e.g. "deadline(limit=0.5s)").
    guard_.onTrip([tracer](Budget, const std::string& reason) {
      tracer->event("budget.trip", reason);
    });
  } else {
    guard_.onTrip(nullptr);
  }
}

void Session::resetStats() {
  solver_->resetStats();
  if (tracer_ != nullptr) tracer_->metrics().reset();
}

ResourceGuard* Session::armGuard() {
  if (!guard_.active()) return nullptr;
  guard_.rearm();
  return &guard_;
}

ResourceGuard* Session::beginOperation() {
  if (resetPerOp_) resetStats();
  return armGuard();
}

void Session::load(std::string_view databaseText) {
  inc_.reset();  // out-of-band database growth the watch cannot track
  fl::parseDatabaseInto(databaseText, db_);
}

fl::EvalResult Session::run(std::string_view programText) {
  inc_.reset();  // run() stores IDB into the db behind a watch's back
  dl::Program program = dl::parseProgram(programText, db_.cvars());
  fl::EvalOptions opts = opts_;
  opts.guard = beginOperation();
  opts.tracer = tracer_;
  obs::Span span(tracer_, "session.run");
  fl::EvalResult res = fl::evalFaure(program, db_, solver_.get(), opts);
  for (auto& [pred, table] : res.idb) {
    db_.put(table);
  }
  return res;
}

fl::ScenarioSet Session::scenarios(std::string_view programText) {
  dl::Program program = dl::parseProgram(programText, db_.cvars());
  fl::ScenarioSetOptions sopts;
  sopts.eval = opts_;
  sopts.eval.tracer = tracer_;
  sopts.limits = guard_.active() ? guard_.limits() : ResourceLimits{};
  sopts.solverName = backend_ == Backend::Z3 ? "z3" : "native";
  return fl::ScenarioSet(std::move(program), db_.clone(), std::move(sopts));
}

fl::EvalResult Session::watch(std::string_view programText) {
  dl::Program program = dl::parseProgram(programText, db_.cvars());
  fl::EvalOptions opts = opts_;
  opts.guard = guard_.active() ? &guard_ : nullptr;
  opts.tracer = tracer_;
  inc_ = std::make_unique<fl::IncrementalEngine>(std::move(program), db_,
                                                 solver_.get(), opts);
  return reevaluate();
}

bool Session::insertFact(const std::string& pred, std::vector<Value> vals,
                         smt::Formula cond) {
  if (inc_ == nullptr) throw EvalError("insertFact: no active watch");
  return inc_->insertFact(pred, std::move(vals), std::move(cond));
}

size_t Session::retractFact(const std::string& pred,
                            const std::vector<Value>& vals) {
  if (inc_ == nullptr) throw EvalError("retractFact: no active watch");
  return inc_->retractFact(pred, vals);
}

void Session::applyEdits(std::string_view editScript) {
  if (inc_ == nullptr) throw EvalError("applyEdits: no active watch");
  for (const fl::Edit& e : fl::parseEditScript(editScript, db_)) {
    inc_->apply(e);
  }
}

fl::EvalResult Session::reevaluate() {
  if (inc_ == nullptr) throw EvalError("reevaluate: no active watch");
  beginOperation();  // re-arm the guard: budgets are per epoch
  obs::Span span(tracer_, "session.reevaluate");
  return inc_->reevaluate();
}

verify::StateCheck Session::check(std::string_view constraintText,
                                  std::string name) {
  verify::Constraint c =
      verify::Constraint::parse(std::move(name), constraintText, db_.cvars());
  smt::ResourceGuardScope scope(solver_.get(), beginOperation());
  obs::Span span(tracer_, "session.check");
  return verify::RelativeVerifier::checkOnState(c, db_, *solver_);
}

verify::Verdict Session::subsumed(
    const verify::Constraint& target,
    const std::vector<verify::Constraint>& known) {
  verify::SubsumptionOptions opts;
  opts.guard = beginOperation();
  opts.tracer = tracer_;
  obs::Span span(tracer_, "session.subsumed");
  verify::RelativeVerifier v(db_.cvars(), opts);
  return v.checkSubsumption(target, known);
}

verify::Verdict Session::subsumedAfterUpdate(
    const verify::Constraint& target,
    const std::vector<verify::Constraint>& known, const verify::Update& u) {
  verify::SubsumptionOptions opts;
  opts.guard = beginOperation();
  opts.tracer = tracer_;
  obs::Span span(tracer_, "session.subsumed_after_update");
  verify::RelativeVerifier v(db_.cvars(), opts);
  return v.checkWithUpdate(target, known, u);
}

verify::Constraint Session::constraint(std::string name,
                                       std::string_view text) {
  return verify::Constraint::parse(std::move(name), text, db_.cvars());
}

}  // namespace faure
