//===- core/SignalPlacement.cpp - Algorithm 1: PlaceSignals -------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// The (w, p) main loop of Algorithm 1 takes one CCR per work item: every
// pair's checks — skip (a), unconditional (b), and the per-w'
// signal/broadcast obligations (c) — read only shared-immutable state
// (invariant, sema, blocked-predicate instances) plus a once-computed
// Comm(w, M) memo, so CCRs are independent validity workloads. Each worker discharges its CCRs
// through its own solver::SolverSession: the serial worker over the caller's
// backend, --jobs workers over private backends minted from
// PlacementOptions::WorkerSolvers, all sharing one sharded CachingSolver
// memo table. Outcomes land in a slot array indexed by (CCR index, class
// index) and are merged in that order, so the parallel Σ is bit-for-bit the
// serial Σ.
//
// Within a CCR the session asserts the invariant once per worker and the
// CCR guard once per CCR, and discharges every check — the no-signal checks
// of all classes first, then (b)/(c) per failing class — as one delta
// each. The --incremental mode only selects how the session talks to its
// backend (native push/pop deltas, or one absolute checkSat per VC — the
// paper-style baseline); the logical query sequence is the same, so Σ,
// stats, and all cache counters match across modes byte for byte.
//
//===----------------------------------------------------------------------===//

#include "core/SignalPlacement.h"

#include "analysis/Commute.h"
#include "analysis/Hoare.h"
#include "logic/Printer.h"
#include "logic/Simplify.h"
#include "obs/Trace.h"
#include "solver/CachingSolver.h"
#include "solver/SolverSession.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <map>
#include <mutex>
#include <sstream>

using namespace expresso;
using namespace expresso::core;
using namespace expresso::frontend;
using namespace expresso::analysis;
using logic::Term;

const CcrPlacement &
PlacementResult::placementFor(const WaitUntil *W) const {
  for (const CcrPlacement &P : Placements)
    if (P.W == W)
      return P;
  assert(false && "CCR not in placement result");
  return Placements.front();
}

std::string PlacementResult::decisionSummary() const {
  std::ostringstream OS;
  OS << "monitor " << Sema->M->Name << ": invariant = "
     << logic::printTerm(Invariant) << "\n";
  for (const CcrPlacement &P : Placements) {
    const CcrInfo &CI = Sema->info(P.W);
    OS << "  " << CI.Parent->Name << " / ccr#" << P.W->Id << " guard ["
       << logic::printTerm(CI.Guard) << "]:";
    if (P.Decisions.empty()) {
      OS << " no signals\n";
      continue;
    }
    OS << "\n";
    for (const SignalDecision &D : P.Decisions) {
      OS << "    " << (D.Broadcast ? "broadcast" : "signal") << "("
         << logic::printTerm(D.Target->Canonical) << ", "
         << (D.Conditional ? "?" : "\xE2\x9C\x93") << ")\n";
    }
  }
  return OS.str();
}

std::string PlacementResult::summary() const {
  std::ostringstream OS;
  OS << decisionSummary();
  // The cache counters print unconditionally — a --no-cache run reports
  // uniform zeros rather than omitting the fields, so summaries keep one
  // stable shape across every cache configuration (and ablation diffs
  // line up row-for-row).
  OS << "  stats: " << Stats.HoareChecks << " hoare checks, "
     << Stats.SolverQueries << " solver queries";
  OS << " (" << Stats.Cache.Hits << " cache hits / " << Stats.Cache.Misses
     << " misses, " << static_cast<int>(Stats.Cache.hitRate() * 100 + 0.5)
     << "% hit rate)";
  if (Stats.Cache.diskLookups() > 0) {
    OS << " (persistent tier: " << Stats.Cache.DiskHits << " hits / "
       << Stats.Cache.DiskMisses << " misses, "
       << static_cast<int>(Stats.Cache.diskHitRate() * 100 + 0.5)
       << "% hit rate)";
  }
  OS << "\n";
  return OS.str();
}

PlacementCounts PlacementStats::counts() const {
  return {.HoareChecks = HoareChecks,
          .SolverQueries = SolverQueries,
          .CacheHits = Cache.Hits,
          .CacheMisses = Cache.Misses,
          .SharedHits = Cache.DiskHits,
          .SharedMisses = Cache.DiskMisses,
          .PairsConsidered = PairsConsidered,
          .NoSignalProved = NoSignalProved,
          .Signals = Signals,
          .Broadcasts = Broadcasts,
          .Unconditional = Unconditional,
          .CommutativityWins = CommutativityWins};
}

namespace {

/// The outcome of one (w, p) pair: whether a decision is emitted, the
/// decision itself, and the stat deltas the pair contributed. Stat deltas
/// merge by summation, so totals are order-independent.
struct PairOutcome {
  bool Emit = false;
  SignalDecision D;
  uint64_t HoareChecks = 0;
  uint64_t NoSignalProved = 0;
  uint64_t CommutativityWins = 0;
};

/// Once-computed Comm(w, M) slot (§4.3). call_once gives the lazy memo
/// single-computation semantics under concurrency, so parallel runs issue
/// exactly the same commutativity queries a serial run does.
struct CommEntry {
  std::once_flag Flag;
  bool Value = false;
};

/// Shared-immutable inputs of the per-pair checks, plus the Comm memo.
struct PairEnv {
  logic::TermContext &C;
  const SemaInfo &Sema;
  const PlacementOptions &Options;
  const Term *I = nullptr;

  /// Fresh instance of each predicate class: the blocked thread's predicate
  /// p' (§4.2). One instance per class suffices; the variables are fresh
  /// with respect to every method's locals.
  std::map<const PredicateClass *, const Term *> BlockedPred;

  /// Comm(w, M) memo aligned with Sema.Ccrs (via CcrIndex).
  std::vector<CommEntry> Comm;
  std::map<const WaitUntil *, size_t> CcrIndex;

  PairEnv(logic::TermContext &C, const SemaInfo &Sema,
          const PlacementOptions &Options)
      : C(C), Sema(Sema), Options(Options) {
    for (const auto &QPtr : Sema.Classes) {
      logic::Substitution Subst;
      for (const Term *P : QPtr->Placeholders)
        Subst.emplace(P, C.freshVar(P->varName() + "!blk", P->sort()));
      BlockedPred[QPtr.get()] = logic::substitute(C, QPtr->Canonical, Subst);
    }
    Comm = std::vector<CommEntry>(Sema.Ccrs.size());
    for (size_t Idx = 0; Idx < Sema.Ccrs.size(); ++Idx)
      CcrIndex.emplace(Sema.Ccrs[Idx].W, Idx);
  }

  bool commutes(const CcrInfo &W, solver::SmtSolver &Solver) {
    CommEntry &E = Comm[CcrIndex.at(W.W)];
    std::call_once(E.Flag, [&] {
      E.Value = Options.UseCommutativity &&
                commutesWithAll(C, Sema, Solver, W);
    });
    return E.Value;
  }
};

/// Renaming of a woken CCR's locals for the §4.3 sequential composition
/// Body(w); Body(w'). The woken executor is a *third* thread, distinct
/// from both the signaller (w's unrenamed locals) and the still-blocked
/// thread whose predicate instance appears in the postcondition (the
/// blocked-instance variables) — so all of its locals become fresh unknowns.
logic::Substitution wokenRename(PairEnv &Env, const CcrInfo &Woken) {
  logic::Substitution Rename;
  for (const auto &[Name, V] : Env.Sema.LocalVars)
    if (Name.rfind(Woken.Parent->Name + "::", 0) == 0)
      Rename.emplace(V, Env.C.freshVar(Name + "!wk", V->sort()));
  return Rename;
}

/// Scoped analogue of HoareChecker::proves: the same verification condition
/// and the same trivial-formula shortcuts, but the solver query goes through
/// the session at the given scope. Soundness: the negated VC of a triple
/// whose Pre is I ∧ Guard(w) ∧ ... entails I and Guard(w), so it may be
/// discharged under those prefixes; one-wake triples carry the *woken*
/// CCR's guard and may only use the invariant scope.
enum class VcScope { CcrGuard, InvariantOnly };

bool provesScoped(logic::TermContext &C, HoareChecker &Checker,
                  solver::SolverSession &S, VcScope Scope,
                  const HoareTriple &T) {
  const Term *VC = Checker.verificationCondition(T);
  if (VC->isTrue())
    return true;
  if (VC->isFalse())
    return false;
  solver::CheckResult R = Scope == VcScope::CcrGuard
                              ? S.checkSatUnderGuard(C.not_(VC))
                              : S.checkSatUnderInvariant(C.not_(VC));
  return R.TheAnswer == solver::Answer::Unsat;
}

/// Checks (b) and (c) for one (w, p) pair through the session — the pair's
/// no-signal check (a) already failed.
void completePair(PairEnv &Env, const CcrInfo &W,
                             const PredicateClass *Q, HoareChecker &Checker,
                             solver::SolverSession &S, PairOutcome &Out) {
  logic::TermContext &C = Env.C;
  const Term *I = Env.I;
  const Term *P = Env.BlockedPred.at(Q);
  Out.Emit = true;
  Out.D.Target = Q;

  // (b) Unconditional check: {I ∧ Guard(w) ∧ ¬p'} Body(w) {p'}.
  HoareTriple Uncond;
  Uncond.Pre = C.and_({I, W.Guard, C.not_(P)});
  Uncond.Body = W.W->Body;
  Uncond.InMethod = W.Parent;
  Uncond.Post = P;
  ++Out.HoareChecks;
  Out.D.Conditional =
      !provesScoped(C, Checker, S, VcScope::CcrGuard, Uncond);

  // (c) Signal-vs-broadcast, with the §4.3 fallback.
  WpEngine &Wp = Checker.wpEngine();
  bool SingleSuffices = true;
  for (const CcrInfo &Woken : Env.Sema.Ccrs) {
    if (Woken.Class != Q)
      continue;
    HoareTriple OneWake;
    OneWake.Pre = C.and_({I, Woken.Guard, P});
    OneWake.Body = Woken.W->Body;
    OneWake.InMethod = Woken.Parent;
    OneWake.Post = C.not_(P);
    ++Out.HoareChecks;
    if (provesScoped(C, Checker, S, VcScope::InvariantOnly, OneWake))
      continue;
    bool Saved = false;
    if (Env.Options.UseCommutativity &&
        Env.commutes(Woken, S.absoluteSolver())) {
      logic::Substitution Rename = wokenRename(Env, Woken);
      const Term *Inner =
          Wp.wp(Woken.W->Body, Woken.Parent, C.not_(P), &Rename);
      const Term *Outer = Wp.wp(W.W->Body, W.Parent, Inner);
      const Term *VC = logic::simplify(
          C, C.implies(C.and_({I, W.Guard, C.not_(P)}), Outer));
      ++Out.HoareChecks;
      // Issued unconditionally: the §4.3 check has no trivial-VC shortcut.
      if (S.checkSatUnderGuard(C.not_(VC)).TheAnswer ==
          solver::Answer::Unsat) {
        Saved = true;
        ++Out.CommutativityWins;
      }
    }
    if (!Saved) {
      SingleSuffices = false;
      break;
    }
  }
  Out.D.Broadcast = !SingleSuffices;
}

/// Runs every predicate class of one CCR through a session: guard scope
/// entered once, the classes' no-signal VCs discharged in class order, then
/// (b)/(c) per failing class. Writes the CCR's NumClasses outcome slots.
void checkCcr(PairEnv &Env, const CcrInfo &W,
                         HoareChecker &Checker, solver::SolverSession &S,
                         PairOutcome *Slots) {
  logic::TermContext &C = Env.C;
  const Term *I = Env.I;
  const size_t NumClasses = Env.Sema.Classes.size();
  S.setInvariant(I);
  S.enterCcr(W.Guard);

  // (a) No-signal checks, all classes of this CCR, before any (b)/(c)
  // check: they all ride the guard scope, which a one-wake check drops.
  std::vector<signed char> AProved(NumClasses, 0);
  for (size_t Qi = 0; Qi < NumClasses; ++Qi) {
    const PredicateClass *Q = Env.Sema.Classes[Qi].get();
    const Term *P = Env.BlockedPred.at(Q);
    HoareTriple NoSig;
    NoSig.Pre = C.and_({I, W.Guard, C.not_(P)});
    NoSig.Body = W.W->Body;
    NoSig.InMethod = W.Parent;
    NoSig.Post = C.not_(P);
    ++Slots[Qi].HoareChecks;
    AProved[Qi] = provesScoped(C, Checker, S, VcScope::CcrGuard, NoSig);
  }

  for (size_t Qi = 0; Qi < NumClasses; ++Qi) {
    if (AProved[Qi]) {
      ++Slots[Qi].NoSignalProved;
      continue;
    }
    completePair(Env, W, Env.Sema.Classes[Qi].get(), Checker, S, Slots[Qi]);
  }
  S.exitCcr();
}

} // namespace

PlacementResult core::placeSignals(logic::TermContext &C,
                                   const SemaInfo &Sema,
                                   solver::SmtSolver &BackendSolver,
                                   const PlacementOptions &Options,
                                   const Term *ProvidedInvariant) {
  PlacementResult Result;
  Result.Sema = &Sema;
  Result.Options = Options;

  // All solver traffic — invariant inference, Hoare checks, commutativity —
  // goes through one memo table so identical VCs are decided once. When the
  // caller already passes a CachingSolver (the bench harness does, to share
  // the cache across multiple placements), reuse it rather than stacking a
  // second layer.
  solver::CachingSolver *SharedCache =
      dynamic_cast<solver::CachingSolver *>(&BackendSolver);
  std::unique_ptr<solver::CachingSolver> LocalCache;
  if (Options.CacheQueries && !SharedCache) {
    LocalCache = std::make_unique<solver::CachingSolver>(BackendSolver);
    SharedCache = LocalCache.get();
  }
  solver::SmtSolver &Solver =
      SharedCache ? static_cast<solver::SmtSolver &>(*SharedCache)
                  : BackendSolver;
  uint64_t QueriesBefore = Solver.numQueries();
  solver::CacheStats StatsBefore =
      SharedCache ? SharedCache->stats() : solver::CacheStats();

  // Cooperative cancellation: hand the token to the discharge path — the
  // backends poll it inside each solve, and the caching layer stops
  // publishing to the persistent store once it expires. Attached only when
  // a token exists, so deadline-free runs execute exactly as before.
  if (Options.Cancel)
    Solver.setCancelToken(Options.Cancel);

  // Tracing: the root span covers the whole run; the caching tier records
  // per-query spans while attached. The guard detaches it before return —
  // the tracer's lifetime is the caller's (often one daemon request), while
  // a shared cache may outlive many.
  obs::Span PlaceSpan(Options.Trace, "place");
  struct TracerDetach {
    solver::CachingSolver *CS = nullptr;
    ~TracerDetach() {
      if (CS)
        CS->setTracer(nullptr);
    }
  } TraceGuard;
  if (Options.Trace && SharedCache) {
    SharedCache->setTracer(Options.Trace);
    TraceGuard.CS = SharedCache;
  }

  // --- Monitor invariant (Algorithm 2). -----------------------------------
  // Runs serially, before the fan-out, so the invariant (and every term it
  // interns) is identical whatever Jobs is.
  WallTimer InvTimer;
  obs::Span InvSpan(Options.Trace, "invariants");
  uint64_t InvariantWorkerQueries = 0;
  if (ProvidedInvariant) {
    Result.Invariant = ProvidedInvariant;
  } else if (Options.UseInvariant) {
    // The Houdini fixpoint inherits the placement fan-out unless the caller
    // configured it separately.
    InvariantConfig InvCfg = Options.Invariants;
    if (InvCfg.Jobs == 0) {
      InvCfg.Jobs = Options.Jobs;
      InvCfg.WorkerSolvers = Options.WorkerSolvers;
    }
    InvCfg.Incremental = Options.Incremental;
    InvCfg.Cancel = Options.Cancel;
    InvCfg.Trace = Options.Trace;
    InvariantResult IR = inferMonitorInvariant(C, Sema, Solver, InvCfg);
    Result.Invariant = IR.Invariant;
    InvariantWorkerQueries = IR.WorkerQueries;
    Result.CancelledInInference = Options.Cancel && Options.Cancel->expired();
  } else {
    Result.Invariant = C.getTrue();
  }
  Result.Stats.InvariantSeconds = InvTimer.elapsedSeconds();
  InvSpan.finish();

  WallTimer PlaceTimer;
  PairEnv Env(C, Sema, Options);
  Env.I = Result.Invariant;

  // --- Main loop: (w, p) in CCRs(M) x Guards(M). ---------------------------
  // One slot per pair; flat index = CcrIdx * NumClasses + ClassIdx. The
  // merge below walks them in order — that ordering, not completion order,
  // is what makes parallel Σ deterministic.
  const size_t NumClasses = Sema.Classes.size();
  const size_t NumPairs = Sema.Ccrs.size() * NumClasses;
  std::vector<PairOutcome> Outcomes(NumPairs);

  // The fan-out unit is the CCR (one session guard scope per task), so more
  // workers than CCRs would only mint idle backends.
  unsigned Jobs = Options.Jobs;
  if (Jobs > Sema.Ccrs.size())
    Jobs = static_cast<unsigned>(Sema.Ccrs.size());

  // Serial runs discharge on the caller's backend (beneath the cache, so
  // the session can drive it directly while the shared memo table stays on
  // the lookup path); --jobs workers each own a minted private backend.
  solver::SmtSolver &Underlying =
      SharedCache ? SharedCache->backend() : BackendSolver;
  std::vector<DischargeWorker> Workers;
  if (Jobs > 1) {
    Workers = openDischargeWorkers(C, Sema, Options.WorkerSolvers,
                                   SharedCache, Jobs, Options.Incremental,
                                   Options.Cancel);
    if (Workers.empty())
      Jobs = 1; // no factory, or it cannot serve this context: stay serial
  }
  if (Workers.empty()) {
    Workers.resize(1);
    Workers[0].Session = std::make_unique<solver::SolverSession>(
        SharedCache, Underlying, Options.Incremental);
    Workers[0].Checker = std::make_unique<HoareChecker>(
        C, Sema, Workers[0].Session->absoluteSolver());
  }
  std::vector<WorkerStats> PerWorker(Workers.size());
  Result.Stats.JobsUsed = Jobs;
  Result.Stats.IncrementalSessions = Workers[0].Session->native();

  // The loop-boundary cancellation poll skips the remaining CCRs; mid-check
  // expiry resolves through the backends' own polls (every remaining query
  // answers Unknown near-instantly, the conservative direction), so the
  // whole run winds down within ~one solver poll interval either way.
  // Slot-ordered merging keeps Σ byte-identical to serial whatever the
  // schedule; a pool without threads runs the CCRs inline, in order.
  support::ThreadPool Pool(Jobs > 1 ? Jobs : 0);
  Pool.parallelFor(Sema.Ccrs.size(), [&](unsigned WorkerId, size_t CcrIdx) {
    if (Options.Cancel && Options.Cancel->expired())
      return; // leave the slots untouched; flagged Cancelled below
    DischargeWorker &W = Workers[WorkerId];
    WallTimer CcrTimer;
    obs::Span CcrSpan(Options.Trace, "ccr");
    CcrSpan.arg("ccr", static_cast<uint64_t>(CcrIdx));
    checkCcr(Env, Sema.Ccrs[CcrIdx], *W.Checker, *W.Session,
             &Outcomes[CcrIdx * NumClasses]);
    PerWorker[WorkerId].BusySeconds += CcrTimer.elapsedSeconds();
    PerWorker[WorkerId].Pairs += NumClasses;
  });
  if (Jobs > 1)
    for (size_t J = 0; J < Workers.size(); ++J) {
      PerWorker[J].SolverQueries = Workers[J].Session->numQueries();
      Result.Stats.Workers.push_back(PerWorker[J]);
    }

  // --- Deterministic merge, in (CCR index, class index) order. -------------
  for (size_t CcrIdx = 0; CcrIdx < Sema.Ccrs.size(); ++CcrIdx) {
    CcrPlacement Placement;
    Placement.W = Sema.Ccrs[CcrIdx].W;
    for (size_t ClassIdx = 0; ClassIdx < NumClasses; ++ClassIdx) {
      const PairOutcome &Out = Outcomes[CcrIdx * NumClasses + ClassIdx];
      ++Result.Stats.PairsConsidered;
      Result.Stats.HoareChecks += Out.HoareChecks;
      Result.Stats.NoSignalProved += Out.NoSignalProved;
      Result.Stats.CommutativityWins += Out.CommutativityWins;
      if (!Out.Emit)
        continue;
      if (Out.D.Broadcast)
        ++Result.Stats.Broadcasts;
      else
        ++Result.Stats.Signals;
      if (!Out.D.Conditional)
        ++Result.Stats.Unconditional;
      Placement.Decisions.push_back(Out.D);
    }
    Result.Placements.push_back(std::move(Placement));
  }

  Result.Stats.PlacementSeconds = PlaceTimer.elapsedSeconds();
  // With a shared cache, worker sessions funnel every lookup through the
  // shared counters, so the delta covers serial and parallel traffic alike.
  // Without one, workers query their private backends directly and their
  // counts add to the caller solver's (which served invariant inference).
  Result.Stats.SolverQueries =
      Solver.numQueries() - QueriesBefore + InvariantWorkerQueries;
  if (!SharedCache)
    for (const WorkerStats &W : Result.Stats.Workers)
      Result.Stats.SolverQueries += W.SolverQueries;
  if (SharedCache) {
    solver::CacheStats Now = SharedCache->stats();
    Result.Stats.Cache.Hits = Now.Hits - StatsBefore.Hits;
    Result.Stats.Cache.Misses = Now.Misses - StatsBefore.Misses;
    Result.Stats.Cache.DiskHits = Now.DiskHits - StatsBefore.DiskHits;
    Result.Stats.Cache.DiskMisses = Now.DiskMisses - StatsBefore.DiskMisses;
    Result.Stats.Cache.ModelHits = Now.ModelHits - StatsBefore.ModelHits;
  }
  // The flag is the token's *final* state, not the loops' break
  // bookkeeping: even a pair that "finished" after expiry may have absorbed
  // a cancellation Unknown into a conservative decision, so any expiry
  // during the run taints the whole result. A never-fired token reads
  // false here, leaving completed runs byte-identical to deadline-free ones.
  Result.Cancelled = Options.Cancel && Options.Cancel->expired();
  if (PlaceSpan.enabled()) {
    PlaceSpan.arg("ccrs", static_cast<uint64_t>(Sema.Ccrs.size()));
    PlaceSpan.arg("classes", static_cast<uint64_t>(NumClasses));
    PlaceSpan.arg("jobs", static_cast<uint64_t>(Jobs));
    PlaceSpan.arg("queries",
                  static_cast<uint64_t>(Result.Stats.SolverQueries));
  }
  return Result;
}
