//===- analysis/Abduction.h - QE-based abductive inference ------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abduction for monitor-invariant candidates (paper §5, Equation 3):
///
///   find ψ with   (1) P ∧ ψ |= Goal    (2) SAT(P ∧ ψ)
///
/// built from scratch on Cooper QE (the paper uses the EXPLAIN tool [16]).
/// For each small subset K of the abducible variables — the monitor's
/// shared scalars, since an invariant must hold for every thread — the
/// weakest solution over K is
///
///   ψ_K = ∀ (Vars(P → Goal) \ K). (P → Goal)
///
/// Candidates are ψ_K itself plus its top-level conjuncts and disjuncts and
/// inequality-strengthened literal variants (e.g. `x != -1` also proposes
/// `x >= 0`); strengthenings remain sufficient, and Algorithm 2's fixpoint
/// keeps only the inductive ones. Every returned candidate is consistent
/// with P. When the solver answers Unsat for P ∧ ψ and ψ is a disjunction,
/// its disjuncts and their strict sides are skipped without a query: each
/// implies ψ, so each is inconsistent with P too.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_ANALYSIS_ABDUCTION_H
#define EXPRESSO_ANALYSIS_ABDUCTION_H

#include "solver/SmtSolver.h"

#include <vector>

namespace expresso {
namespace analysis {

struct AbductionConfig {
  /// Abducible subsets are enumerated smallest-first up to this size (the
  /// full abducible set is always tried as well).
  size_t MaxSubsetSize = 2;
  /// Cap on candidates returned per query.
  size_t MaxCandidates = 16;
  /// Cooperative cancellation: polled per abducible subset; an expired
  /// token cuts the enumeration short (the partial candidate list is
  /// discarded with the rest of the cancelled run). Not owned.
  const support::CancelToken *Cancel = nullptr;
};

/// Computes candidate strengthenings ψ of P sufficient for Goal, over the
/// \p Abducibles vocabulary. May return an empty vector (no abducible
/// explanation in the fragment).
std::vector<const logic::Term *>
abduce(logic::TermContext &C, solver::SmtSolver &Solver,
       const logic::Term *P, const logic::Term *Goal,
       const std::vector<const logic::Term *> &Abducibles,
       const AbductionConfig &Cfg = AbductionConfig());

} // namespace analysis
} // namespace expresso

#endif // EXPRESSO_ANALYSIS_ABDUCTION_H
