//===- solver/Z3Stub.cpp - Factory stub for builds without Z3 ----------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Builds without z3++.h get no Z3 backend at all: the factory returns null
/// and SolverKind::Default resolves to MiniSmt. That is also the session
/// API's fail-closed story for such builds — there is no half-working Z3
/// object whose push/pop could misbehave; incremental placement rides
/// MiniSmt's assertion-stack snapshots instead (same answers, no speedup).
///
//===----------------------------------------------------------------------===//

#include "solver/SmtSolver.h"

namespace expresso {
namespace solver {
std::unique_ptr<SmtSolver> createZ3Backend(logic::TermContext &) {
  return nullptr;
}
bool hasZ3() { return false; }
size_t z3IdleContexts() { return 0; }
} // namespace solver
} // namespace expresso
