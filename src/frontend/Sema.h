//===- frontend/Sema.h - Semantic analysis and lowering ---------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Semantic analysis for monitors: name resolution, type checking, the
/// linearity restrictions of the logic fragment, and lowering of expressions
/// to logic terms.
///
/// Sema also computes the two structures the rest of the pipeline is built
/// on:
///
///  * the CCR table: every waituntil with its lowered guard and owning
///    method (CCRs(M) in the paper);
///  * predicate classes: guards canonicalized by positionally renaming
///    thread-local variables, so that `x < y` in two different threads is
///    ONE predicate with per-thread local snapshots (Example 4.2). Each
///    class later receives one condition variable (§6).
///
/// Naming scheme for lowered variables: field `f` stays `f`; parameter or
/// local `x` of method `m` becomes `m::x` (the paper assumes globally unique
/// local names; qualification enforces that).
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_FRONTEND_SEMA_H
#define EXPRESSO_FRONTEND_SEMA_H

#include "frontend/Ast.h"
#include "logic/Term.h"

#include <map>
#include <memory>
#include <vector>

namespace expresso {
namespace frontend {

/// A canonicalized guard predicate shared by one or more CCRs.
struct PredicateClass {
  /// Guard with thread-local variables replaced by positional placeholders
  /// `$p0, $p1, ...`. Identity of this term IS identity of the class.
  const logic::Term *Canonical = nullptr;
  /// The placeholder variables, in order.
  std::vector<const logic::Term *> Placeholders;
  /// Dense class index (stable across runs).
  unsigned Index = 0;
  /// True when the class has no thread-local variables.
  bool isGround() const { return Placeholders.empty(); }
};

/// Orders predicate classes by their dense Index. Use this instead of the
/// default `std::less<const PredicateClass *>` (heap-address order) for any
/// set or map whose iteration order reaches emitted text.
struct PredicateClassIndexLess {
  bool operator()(const PredicateClass *A, const PredicateClass *B) const {
    return A->Index < B->Index;
  }
};

/// Per-CCR semantic information.
struct CcrInfo {
  const WaitUntil *W = nullptr;
  const Method *Parent = nullptr;
  /// Lowered guard over field vars and qualified local vars.
  const logic::Term *Guard = nullptr;
  /// Predicate class of the guard.
  const PredicateClass *Class = nullptr;
  /// Actual local terms aligned with Class->Placeholders.
  std::vector<const logic::Term *> ClassArgs;
};

/// The product of semantic analysis. Owns nothing from the AST; owns its
/// predicate classes.
class SemaInfo {
public:
  const Monitor *M = nullptr;
  logic::TermContext *C = nullptr;

  std::vector<CcrInfo> Ccrs;
  std::vector<std::unique_ptr<PredicateClass>> Classes;

  /// Field name -> lowered variable.
  std::map<std::string, const logic::Term *> FieldVars;
  /// Qualified local name (m::x) -> lowered variable.
  std::map<std::string, const logic::Term *> LocalVars;

  /// The lowered variable for field \p Name (must exist).
  const logic::Term *fieldVar(const std::string &Name) const;

  /// The lowered variable for local/param \p Name of \p InMethod, or null.
  const logic::Term *localVar(const Method &InMethod,
                              const std::string &Name) const;

  /// Lowers an expression in the scope of \p InMethod (null for init-block
  /// scope). Sema has already validated the expression, so this cannot fail.
  const logic::Term *lowerExpr(const Expr *E, const Method *InMethod) const;

  /// All shared (field) variables, in declaration order.
  std::vector<const logic::Term *> sharedVars() const;

  /// True if \p V is a lowered thread-local (parameter / method local).
  bool isLocalVar(const logic::Term *V) const;

  /// CcrInfo for a given waituntil.
  const CcrInfo &info(const WaitUntil *W) const;

  /// Distinct predicate classes in stable order.
  std::vector<const PredicateClass *> classes() const;
};

/// Runs semantic analysis. Returns nullptr and fills \p Diags on error.
std::unique_ptr<SemaInfo> analyze(const Monitor &M, logic::TermContext &C,
                                  DiagnosticEngine &Diags);

} // namespace frontend
} // namespace expresso

#endif // EXPRESSO_FRONTEND_SEMA_H
