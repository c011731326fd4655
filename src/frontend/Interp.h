//===- frontend/Interp.h - Concrete AST interpreter -------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Concrete big-step execution of monitor statements: the ⟨s, t, σ⟩ ⇓ σ'
/// judgement of Section 3.2. Used by the trace semantics, the monitors'
/// initial states, and differential tests that validate weakest
/// preconditions and the runtime bytecode against real execution.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_FRONTEND_INTERP_H
#define EXPRESSO_FRONTEND_INTERP_H

#include "frontend/Ast.h"
#include "logic/TermOps.h"

namespace expresso {
namespace frontend {

/// An execution environment: shared monitor state (fields, by name) plus the
/// executing thread's locals (params and method locals, by unqualified
/// name). Lookup prefers locals, matching lexical scoping.
struct Env {
  logic::Assignment *Shared = nullptr;
  logic::Assignment *Locals = nullptr;
};

/// Evaluates an expression; every referenced variable must be bound.
logic::Value evalExpr(const Expr *E, const Env &E2);

/// Executes a statement, mutating the environment. While loops are executed
/// concretely (callers ensure termination; the analysis side never runs
/// this).
void execStmt(const Stmt *S, Env &E);

/// Builds the initial shared state of a monitor: declared field initializers
/// (default 0 / false / empty array), then \p Overrides (used to set
/// `const` configuration fields such as buffer capacities), then the init
/// block.
logic::Assignment initialState(const Monitor &M,
                               const logic::Assignment &Overrides = {});

} // namespace frontend
} // namespace expresso

#endif // EXPRESSO_FRONTEND_INTERP_H
