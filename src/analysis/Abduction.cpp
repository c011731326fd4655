//===- analysis/Abduction.cpp - QE-based abductive inference --------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/Abduction.h"

#include "logic/Linear.h"
#include "logic/Simplify.h"
#include "logic/TermOps.h"
#include "qe/Cooper.h"

#include <algorithm>
#include <set>

using namespace expresso;
using namespace expresso::analysis;
using logic::Term;

namespace {

/// For a disequality literal `not (a == b)` over integers, proposes the two
/// strict sides `a < b` and `a > b`. Each is strictly stronger than the
/// disequality, so sufficiency is preserved; the consistency filter and
/// Algorithm 2's fixpoint decide which (if either) is useful. This is what
/// turns the abduced `readers != -1` into the paper's `readers >= 0`.
void addDisequalitySides(logic::TermContext &C, const Term *L,
                         std::vector<const Term *> &Out) {
  if (L->kind() != logic::TermKind::Not)
    return;
  const Term *Eq = L->operand(0);
  if (Eq->kind() != logic::TermKind::Eq ||
      Eq->operand(0)->sort() != logic::Sort::Int)
    return;
  const Term *A = Eq->operand(0);
  const Term *B = Eq->operand(1);
  Out.push_back(C.lt(A, B));
  Out.push_back(C.lt(B, A));
}

/// Generates candidate predicates from an abduced ψ: ψ itself, its
/// top-level conjuncts (weaker pieces whose conjunction Algorithm 2 can
/// re-establish), its top-level disjuncts (stronger, still sufficient), and
/// inequality-strengthened variants of disequality literals.
void collectSubCandidates(logic::TermContext &C, const Term *Psi,
                          std::vector<const Term *> &Out) {
  Out.push_back(Psi);
  addDisequalitySides(C, Psi, Out);
  if (Psi->kind() == logic::TermKind::And || Psi->kind() == logic::TermKind::Or)
    for (const Term *Op : Psi->operands()) {
      Out.push_back(Op);
      addDisequalitySides(C, Op, Out);
    }
}

} // namespace

std::vector<const Term *>
analysis::abduce(logic::TermContext &C, solver::SmtSolver &Solver,
                 const Term *P, const Term *Goal,
                 const std::vector<const Term *> &Abducibles,
                 const AbductionConfig &Cfg) {
  const Term *F = logic::simplify(C, C.implies(P, Goal));
  std::vector<const Term *> Result;
  if (F->isTrue())
    return Result; // no strengthening needed

  // Universe of variables to eliminate: everything not kept.
  std::vector<const Term *> AllVars = logic::freeVars(F);

  // Order abducible subsets smallest-first; always end with the full set.
  std::vector<std::vector<const Term *>> Subsets;
  std::vector<const Term *> Relevant;
  for (const Term *A : Abducibles)
    if (std::find(AllVars.begin(), AllVars.end(), A) != AllVars.end())
      Relevant.push_back(A);
  for (size_t Size = 1; Size <= std::min(Cfg.MaxSubsetSize, Relevant.size());
       ++Size) {
    // Enumerate subsets of the given size (combinatorial walk).
    std::vector<size_t> Idx(Size);
    for (size_t I = 0; I < Size; ++I)
      Idx[I] = I;
    for (;;) {
      std::vector<const Term *> Subset;
      for (size_t I : Idx)
        Subset.push_back(Relevant[I]);
      Subsets.push_back(std::move(Subset));
      // Advance combination.
      size_t K = Size;
      while (K > 0 && Idx[K - 1] == Relevant.size() - Size + (K - 1))
        --K;
      if (K == 0)
        break;
      ++Idx[K - 1];
      for (size_t I = K; I < Size; ++I)
        Idx[I] = Idx[I - 1] + 1;
    }
  }
  if (Relevant.size() > Cfg.MaxSubsetSize)
    Subsets.push_back(Relevant);

  std::set<const Term *> Seen;
  for (const auto &Keep : Subsets) {
    if (Result.size() >= Cfg.MaxCandidates)
      break;
    if (Cfg.Cancel && Cfg.Cancel->expired())
      break; // cancelled: QE per subset is the expensive step here
    // Eliminate everything not kept.
    std::vector<const Term *> Elim;
    bool HasArray = false;
    for (const Term *V : AllVars) {
      if (std::find(Keep.begin(), Keep.end(), V) != Keep.end())
        continue;
      if (V->sort() == logic::Sort::IntArray ||
          V->sort() == logic::Sort::BoolArray) {
        HasArray = true;
        break;
      }
      Elim.push_back(V);
    }
    if (HasArray)
      continue; // cannot eliminate array variables
    auto PsiOpt = qe::eliminateForall(C, F, Elim);
    if (!PsiOpt)
      continue;
    const Term *Psi = logic::simplify(C, *PsiOpt);
    if (Psi->isTrue() || Psi->isFalse())
      continue;

    std::vector<const Term *> Candidates;
    collectSubCandidates(C, Psi, Candidates);
    for (const Term *RawCand : Candidates) {
      if (Result.size() >= Cfg.MaxCandidates)
        break;
      const Term *Cand = logic::simplify(C, RawCand);
      if (!Seen.insert(Cand).second)
        continue;
      if (Cand->isTrue() || Cand->isFalse())
        continue;
      // Consistency with P (abduction condition (2)).
      solver::Answer A = Solver.checkSat(C.and_(P, Cand)).TheAnswer;
      if (A == solver::Answer::Sat) {
        Result.push_back(Cand);
        continue;
      }
      // Every later candidate of a disjunction ψ is a disjunct or a strict
      // side of one, so it implies ψ: when P ∧ ψ is Unsat, so is P ∧ it.
      if (A == solver::Answer::Unsat && Cand == Psi &&
          Psi->kind() == logic::TermKind::Or)
        break;
    }
  }
  return Result;
}
