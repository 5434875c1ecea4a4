// Optional Z3 backend, mirroring the paper's implementation (§6 step 3
// invokes Z3 to remove tuples with contradictory conditions).
//
// Encoding: every c-variable becomes a Z3 integer constant. Integer
// constants keep their value; symbolic constants (symbols, paths,
// prefixes) are value-numbered into distinct codes starting at 2^40, so
// that cross-type equalities are correctly false as long as integer
// constants stay below 2^40 (ports, link bits and node ids all do).
// Finite domains become disjunctions of equalities.
//
// When the library is built without Z3, makeZ3Solver returns nullptr and
// z3Available() is false; callers (benchmarks, tests) skip accordingly.
// Engine trouble — a missing build, or z3 raising mid-check — surfaces
// as faure::SolverBackendError (util/error.hpp) so smt::FailoverSolver
// can tell backend failure from bad input.
#pragma once

#include <memory>

#include "smt/solver.hpp"

namespace faure::smt {

/// True when this build includes the Z3 backend.
bool z3Available();

/// Creates a Z3-backed solver, or nullptr when built without Z3.
std::unique_ptr<SolverBase> makeZ3Solver(const CVarRegistry& reg);

/// Like makeZ3Solver, but a build without Z3 raises SolverBackendError
/// ("backend unavailable") instead of returning nullptr — for callers
/// (Session, the CLI) where a missing engine is a failure, not a branch.
std::unique_ptr<SolverBase> requireZ3Solver(const CVarRegistry& reg);

}  // namespace faure::smt
