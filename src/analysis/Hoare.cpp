//===- analysis/Hoare.cpp - Hoare triple checking -------------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/Hoare.h"

#include "logic/Simplify.h"
#include "solver/CachingSolver.h"

using namespace expresso;
using namespace expresso::analysis;
using logic::Term;

const Term *HoareChecker::verificationCondition(const HoareTriple &T) {
  const Term *WpPost = Wp.wp(T.Body, T.InMethod, T.Post, T.LocalRename);
  return logic::simplify(C, C.implies(T.Pre, WpPost));
}

solver::Validity HoareChecker::check(const HoareTriple &T) {
  ++Checks;
  const Term *VC = verificationCondition(T);
  if (VC->isTrue())
    return solver::Validity::Valid;
  if (VC->isFalse())
    return solver::Validity::Invalid;
  return Solver.checkValid(VC);
}

std::vector<DischargeWorker> analysis::openDischargeWorkers(
    logic::TermContext &C, const frontend::SemaInfo &Sema,
    const solver::SolverFactory &Factory, solver::CachingSolver *Cache,
    unsigned Jobs, bool Incremental, support::CancelToken *Cancel) {
  std::vector<std::unique_ptr<solver::SmtSolver>> Minted =
      solver::mintWorkerBackends(C, Factory, Jobs);
  std::vector<DischargeWorker> Workers(Minted.size());
  for (size_t J = 0; J < Minted.size(); ++J) {
    DischargeWorker &W = Workers[J];
    W.Backend = std::move(Minted[J]);
    if (Cancel)
      W.Backend->setCancelToken(Cancel);
    W.Session =
        std::make_unique<solver::SolverSession>(Cache, *W.Backend, Incremental);
    W.Checker =
        std::make_unique<HoareChecker>(C, Sema, W.Session->absoluteSolver());
  }
  return Workers;
}
