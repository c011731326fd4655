//===- analysis/Hoare.h - Hoare triple checking -----------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hoare-triple validity over monitor statements: `{P} s {Q}` holds iff
/// `P => wp(s, Q)` is valid. This is the exact reduction the paper uses to
/// answer all three placement questions (no-signal, conditional,
/// signal-vs-broadcast).
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_ANALYSIS_HOARE_H
#define EXPRESSO_ANALYSIS_HOARE_H

#include "analysis/Wp.h"
#include "solver/SmtSolver.h"
#include "solver/SolverFactory.h"
#include "solver/SolverSession.h"

#include <memory>
#include <vector>

namespace expresso {
namespace analysis {

/// A Hoare triple over a CCR body (or arbitrary statement).
struct HoareTriple {
  const logic::Term *Pre = nullptr;
  const frontend::Stmt *Body = nullptr;
  const frontend::Method *InMethod = nullptr;
  const logic::Term *Post = nullptr;
  /// Optional renaming of the executing thread's locals (§4.2).
  const logic::Substitution *LocalRename = nullptr;
};

/// Discharges Hoare triples through a WP engine and an SMT backend.
class HoareChecker {
public:
  HoareChecker(logic::TermContext &C, const frontend::SemaInfo &Sema,
               solver::SmtSolver &Solver)
      : C(C), Wp(C, Sema), Solver(Solver) {}

  /// The verification condition `Pre => wp(Body, Post)` of \p T.
  const logic::Term *verificationCondition(const HoareTriple &T);

  /// Three-valued validity of the triple; Unknown is reported as such so
  /// callers can stay conservative.
  solver::Validity check(const HoareTriple &T);

  /// True iff the triple is proved valid (Unknown counts as not proved).
  bool proves(const HoareTriple &T) {
    return check(T) == solver::Validity::Valid;
  }

  WpEngine &wpEngine() { return Wp; }
  solver::SmtSolver &solver() { return Solver; }
  uint64_t numChecks() const { return Checks; }

private:
  logic::TermContext &C;
  WpEngine Wp;
  solver::SmtSolver &Solver;
  uint64_t Checks = 0;
};

/// One fan-out worker of placement or invariant inference: a backend, a
/// solver::SolverSession over it, and a Hoare checker on the session's
/// absolute view. Declaration order matters: Session borrows Backend and
/// Checker borrows Session.
struct DischargeWorker {
  std::unique_ptr<solver::SmtSolver> Backend; ///< null when borrowed
  std::unique_ptr<solver::SolverSession> Session;
  std::unique_ptr<HoareChecker> Checker;
};

/// Opens \p Jobs workers over private backends minted by
/// solver::mintWorkerBackends from \p Factory, each holding \p Cancel and
/// sharing \p Cache (may be null). Empty — callers must then stay serial —
/// when the backends cannot be minted.
std::vector<DischargeWorker>
openDischargeWorkers(logic::TermContext &C, const frontend::SemaInfo &Sema,
                     const solver::SolverFactory &Factory,
                     solver::CachingSolver *Cache, unsigned Jobs,
                     bool Incremental, support::CancelToken *Cancel);

} // namespace analysis
} // namespace expresso

#endif // EXPRESSO_ANALYSIS_HOARE_H
