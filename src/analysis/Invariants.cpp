//===- analysis/Invariants.cpp - Monitor invariant inference --------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/Invariants.h"

#include "logic/Simplify.h"
#include "logic/TermOps.h"
#include "obs/Trace.h"
#include "solver/CachingSolver.h"
#include "solver/SolverSession.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <memory>
#include <set>

using namespace expresso;
using namespace expresso::analysis;
using namespace expresso::frontend;
using logic::Term;

namespace {

/// The lowered conjunction of the monitor's requires clauses.
const Term *requiresTerm(logic::TermContext &C, const SemaInfo &Sema) {
  std::vector<const Term *> Parts;
  for (const Expr *R : Sema.M->Requires)
    Parts.push_back(Sema.lowerExpr(R, nullptr));
  return C.and_(std::move(Parts));
}

/// Fresh renaming of a predicate class: placeholders -> fresh variables
/// representing the blocked thread's locals.
const Term *renameClassFresh(logic::TermContext &C, const PredicateClass &Q) {
  logic::Substitution Subst;
  for (const Term *P : Q.Placeholders)
    Subst.emplace(P, C.freshVar(P->varName() + "!blk", P->sort()));
  return logic::substitute(C, Q.Canonical, Subst);
}

/// The consecution triple {I and Guard(w)} Body(w) {Post} of CCR \p W.
HoareTriple consecution(logic::TermContext &C, const Term *I,
                        const CcrInfo &W, const Term *Post) {
  HoareTriple T;
  T.Pre = C.and_(I, W.Guard);
  T.Body = W.W->Body;
  T.InMethod = W.Parent;
  T.Post = Post;
  return T;
}

} // namespace

std::vector<const Term *> analysis::abducibles(const SemaInfo &Sema) {
  std::vector<const Term *> Result;
  for (const Term *V : Sema.sharedVars())
    if (V->sort() == logic::Sort::Int || V->sort() == logic::Sort::Bool)
      Result.push_back(V);
  return Result;
}

std::vector<std::pair<const Term *, const Term *>>
analysis::abductionTriples(logic::TermContext &C, const SemaInfo &Sema,
                           WpEngine &Wp) {
  std::vector<std::pair<const Term *, const Term *>> Theta;
  for (const CcrInfo &W : Sema.Ccrs) {
    for (const auto &QPtr : Sema.Classes) {
      const PredicateClass &Q = *QPtr;
      const Term *P = renameClassFresh(C, Q);
      const Term *NoSignalPost = Wp.wp(W.W->Body, W.Parent, C.not_(P));
      const Term *UncondPost = Wp.wp(W.W->Body, W.Parent, P);
      const Term *Pre = C.and_(W.Guard, C.not_(P));
      Theta.emplace_back(Pre, NoSignalPost);
      Theta.emplace_back(Pre, UncondPost);
    }
  }
  // Single-signal triples: {p} Body(w') {not p} per class.
  for (const auto &QPtr : Sema.Classes) {
    const PredicateClass &Q = *QPtr;
    const Term *P = renameClassFresh(C, Q);
    for (const CcrInfo &W : Sema.Ccrs) {
      if (W.Class != &Q)
        continue;
      const Term *Post = Wp.wp(W.W->Body, W.Parent, C.not_(P));
      Theta.emplace_back(C.and_(W.Guard, P), Post);
    }
  }
  return Theta;
}

bool analysis::isMonitorInvariant(logic::TermContext &C, const SemaInfo &Sema,
                                  solver::SmtSolver &Solver, const Term *I) {
  HoareChecker Checker(C, Sema, Solver);
  // Initiation: {requires} Ctr(M) {I}.
  const Term *InitVc = C.implies(requiresTerm(C, Sema),
                                 Checker.wpEngine().wpConstructor(I));
  if (!Solver.isValid(logic::simplify(C, InitVc)))
    return false;
  // Consecution: {I and Guard(w)} Body(w) {I} for every CCR.
  for (const CcrInfo &W : Sema.Ccrs)
    if (!Checker.proves(consecution(C, I, W, I)))
      return false;
  return true;
}

InvariantResult analysis::inferMonitorInvariant(logic::TermContext &C,
                                                const SemaInfo &Sema,
                                                solver::SmtSolver &Solver,
                                                const InvariantConfig &Cfg) {
  InvariantResult Result;
  auto *SharedCache = dynamic_cast<solver::CachingSolver *>(&Solver);

  // Every serial-path query (abduction consistency, initiation, serial
  // fixpoint rounds, minimization) goes through one long-lived solver
  // session with an empty assertion stack; Cfg.Incremental only selects how
  // it reaches the backend (see SolverSession::checkSatAbsolute).
  solver::SolverSession SerialSession(
      SharedCache, SharedCache ? SharedCache->backend() : Solver,
      Cfg.Incremental);
  solver::SmtSolver &Discharge = SerialSession.absoluteSolver();

  HoareChecker Checker(C, Sema, Discharge);
  WpEngine &Wp = Checker.wpEngine();
  std::vector<const Term *> Vocab = abducibles(Sema);
  WallTimer PhaseTimer;

  // --- Phase 1: candidate universe Φ from abduction over Θ. --------------
  // Θ is the triple set PlaceSignals generates with I = true (paper, §5).
  obs::Span AbdSpan(Cfg.Trace, "invariant.abduction");
  std::vector<std::pair<const Term *, const Term *>> Theta =
      abductionTriples(C, Sema, Wp);

  // Id-ordered: iteration order feeds the initiation filter, the Φ vector,
  // and ultimately the greedy minimization — pointer order would make the
  // inferred invariant depend on heap layout.
  std::set<const Term *, logic::TermIdLess> Universe;
  size_t Queries = 0;
  AbductionConfig AbdCfg = Cfg.Abduction;
  AbdCfg.Cancel = Cfg.Cancel;
  auto Expired = [&Cfg] { return Cfg.Cancel && Cfg.Cancel->expired(); };
  for (const auto &[Pre, Goal] : Theta) {
    if (Queries >= Cfg.MaxAbductionQueries ||
        Universe.size() >= Cfg.MaxCandidates || Expired())
      break;
    const Term *VC = logic::simplify(C, C.implies(Pre, Goal));
    if (VC->isTrue())
      continue; // already provable without an invariant
    ++Queries;
    for (const Term *Psi :
         abduce(C, Discharge, Pre, Goal, Vocab, AbdCfg)) {
      if (Universe.size() >= Cfg.MaxCandidates)
        break;
      Universe.insert(Psi);
    }
  }
  Result.NumCandidates = Universe.size();
  Result.AbductionSeconds = PhaseTimer.elapsedSeconds();
  PhaseTimer.restart();
  AbdSpan.arg("candidates", static_cast<uint64_t>(Universe.size()));
  AbdSpan.arg("queries", static_cast<uint64_t>(Queries));
  AbdSpan.finish();

  // --- Phase 2: Houdini fixpoint. -----------------------------------------
  // Every candidate's fate is decided by its own checks alone — initiation
  // never looks at other candidates, and consecution in a round checks ψ
  // against the invariant fixed at round start — so the per-ψ work fans out
  // across workers while keep/drop verdicts land in slot arrays merged in
  // candidate order: the fixpoint (and the invariant) is identical for any
  // worker count.
  //
  // Each round first checks the whole invariant once per CCR,
  // {I and Guard(w)} Body(w) {I}. wp distributes over conjunction, so when
  // that triple is valid every conjunct ψ of I is preserved by w and the
  // per-ψ checks skip w; an invalid, unknown or expired pre-check leaves w
  // to the per-ψ checks. A stable round (most of them, and always the last)
  // then costs one query per CCR instead of one per (ψ, CCR) pair.
  unsigned Jobs = Cfg.Jobs;
  if (Jobs > Universe.size())
    Jobs = static_cast<unsigned>(Universe.size());
  // Workers issue only absolute queries: the fixpoint's queries share no
  // fixed prefix across rounds, so the session lever is context reuse.
  std::vector<DischargeWorker> Workers;
  if (Jobs > 1)
    Workers = openDischargeWorkers(C, Sema, Cfg.WorkerSolvers, SharedCache,
                                   Jobs, Cfg.Incremental, Cfg.Cancel);
  // A pool without threads runs every batch inline, in order.
  support::ThreadPool Pool(static_cast<unsigned>(Workers.size()));

  // A per-ψ checker: worker-private when fanned out, the serial one else.
  auto checkerFor = [&](unsigned WorkerId) -> HoareChecker & {
    return Workers.empty() ? Checker : *Workers[WorkerId].Checker;
  };

  // Initiation is independent of Φ: filter once.
  obs::Span InitSpan(Cfg.Trace, "invariant.initiation");
  const Term *Req = requiresTerm(C, Sema);
  std::vector<const Term *> UniverseVec(Universe.begin(), Universe.end());
  std::vector<char> Keep(UniverseVec.size(), 0);
  Pool.parallelFor(UniverseVec.size(), [&](unsigned WorkerId, size_t Idx) {
    if (Expired())
      return; // drop the candidate — conservative, and the run is doomed
    HoareChecker &Chk = checkerFor(WorkerId);
    const Term *InitVc = logic::simplify(
        C, C.implies(Req, Chk.wpEngine().wpConstructor(UniverseVec[Idx])));
    Keep[Idx] = Chk.solver().isValid(InitVc) ? 1 : 0;
  });
  std::vector<const Term *> Phi;
  for (size_t Idx = 0; Idx < UniverseVec.size(); ++Idx)
    if (Keep[Idx])
      Phi.push_back(UniverseVec[Idx]);
  InitSpan.arg("kept", static_cast<uint64_t>(Phi.size()));
  InitSpan.finish();
  Result.Initiated = Phi;

  for (;;) {
    if (Expired())
      break; // keep whatever Φ holds; still a sound (if weak) conjunction
    ++Result.NumIterations;
    obs::Span RoundSpan(Cfg.Trace, "invariant.houdini.round");
    RoundSpan.arg("round", static_cast<uint64_t>(Result.NumIterations));
    RoundSpan.arg("candidates", static_cast<uint64_t>(Phi.size()));
    const Term *I = C.and_(Phi);
    std::vector<char> CcrProved(Sema.Ccrs.size(), 0);
    if (!Phi.empty())
      Pool.parallelFor(Sema.Ccrs.size(), [&](unsigned WorkerId, size_t Wi) {
        if (Expired())
          return; // not proved: the per-ψ checks below drop conservatively
        const CcrInfo &W = Sema.Ccrs[Wi];
        CcrProved[Wi] =
            checkerFor(WorkerId).proves(consecution(C, I, W, I)) ? 1 : 0;
      });
    RoundSpan.arg("ccrs_proved",
                  static_cast<uint64_t>(std::count(CcrProved.begin(),
                                                   CcrProved.end(), 1)));
    Keep.assign(Phi.size(), 0);
    Pool.parallelFor(Phi.size(), [&](unsigned WorkerId, size_t Idx) {
      if (Expired())
        return; // conservative drop, as in the initiation filter
      HoareChecker &Chk = checkerFor(WorkerId);
      bool Preserved = true;
      for (size_t Wi = 0; Wi < Sema.Ccrs.size() && Preserved; ++Wi)
        if (!CcrProved[Wi])
          Preserved = Chk.proves(consecution(C, I, Sema.Ccrs[Wi], Phi[Idx]));
      Keep[Idx] = Preserved ? 1 : 0;
    });
    std::vector<const Term *> Survivors;
    for (size_t Idx = 0; Idx < Phi.size(); ++Idx)
      if (Keep[Idx])
        Survivors.push_back(Phi[Idx]);
    bool Stable = Survivors.size() == Phi.size();
    Phi = std::move(Survivors);
    if (Stable)
      break;
  }

  // Private-backend queries the caller's solver never saw (cache-off runs;
  // with a shared cache, sessions count centrally on the caller's solver).
  if (!SharedCache)
    for (const DischargeWorker &W : Workers)
      Result.WorkerQueries += W.Session->numQueries();

  // Minimize: greedily drop predicates implied by the remaining ones. This
  // keeps the invariant presentable (e.g. plain `readers >= 0` for the
  // readers-writers monitor) without weakening it.
  obs::Span MinSpan(Cfg.Trace, "invariant.minimize");
  for (size_t I = 0; I < Phi.size();) {
    if (Expired())
      break;
    std::vector<const Term *> Others;
    for (size_t K = 0; K < Phi.size(); ++K)
      if (K != I)
        Others.push_back(Phi[K]);
    const Term *Rest = C.and_(Others);
    if (Discharge.isValid(C.implies(Rest, Phi[I]))) {
      Phi.erase(Phi.begin() + static_cast<long>(I));
      continue;
    }
    ++I;
  }
  MinSpan.finish();

  Result.Predicates = Phi;
  Result.Invariant = logic::simplify(C, C.and_(Phi));
  Result.FixpointSeconds = PhaseTimer.elapsedSeconds();
  return Result;
}
