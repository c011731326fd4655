//===- core/SignalPlacement.h - Algorithm 1: PlaceSignals -------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The paper's primary contribution: given an implicit-signal monitor and a
/// monitor invariant I, decide for every CCR w and every guard predicate
/// class p
///
///   (a) whether w must notify threads blocked on p at all
///         skip iff  |= {I ∧ Guard(w) ∧ ¬p'} Body(w) {¬p'}
///   (b) whether the notification can be unconditional
///         ✓   iff  |= {I ∧ Guard(w) ∧ ¬p'} Body(w) {p'}
///   (c) whether one thread suffices (signal) or all must wake (broadcast)
///         signal iff for every CCR w' guarded by p:
///              |= {I ∧ Guard(w') ∧ p'} Body(w') {¬p'}
///           or (§4.3)  Comm(w',M) ∧
///              |= {I ∧ Guard(w) ∧ ¬p'} Body(w); Body(w') {¬p'}
///
/// where p' is the predicate class with its thread-local variables renamed
/// to fresh ones (§4.2) — the blocked thread is never the executing thread.
/// Every Unknown from the solver resolves in the conservative direction
/// (signal rather than skip, conditional rather than unconditional,
/// broadcast rather than signal), so incompleteness costs performance only.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_CORE_SIGNALPLACEMENT_H
#define EXPRESSO_CORE_SIGNALPLACEMENT_H

#include "analysis/Invariants.h"
#include "core/PlacementCounts.h"
#include "frontend/Sema.h"
#include "solver/CachingSolver.h"
#include "solver/SolverFactory.h"

#include <string>
#include <vector>

namespace expresso {
namespace obs {
class Tracer;
}
namespace core {

/// One notification emitted after a CCR body: the (p, cond, bcast) triples
/// of Algorithm 1's Σ map.
struct SignalDecision {
  const frontend::PredicateClass *Target = nullptr;
  bool Conditional = true; ///< '?' — evaluate p at run time before waking.
  bool Broadcast = false;  ///< notify all threads blocked on p.
};

/// Decisions for one CCR.
struct CcrPlacement {
  const frontend::WaitUntil *W = nullptr;
  std::vector<SignalDecision> Decisions;
};

/// Tuning knobs (each is an ablation axis; see bench/ablation_*).
struct PlacementOptions {
  bool UseInvariant = true;      ///< infer and use a monitor invariant
  bool UseCommutativity = true;  ///< §4.3 Equation-2 weakening
  bool LazyBroadcast = true;     ///< §6 chained broadcasts (runtime/codegen)
  bool CacheQueries = true;      ///< memoize checkSat via solver::CachingSolver
  /// The discharge mode of every solver::SolverSession the run opens. On,
  /// a natively incremental backend (Z3) asserts the invariant/guard prefix
  /// once and takes each per-predicate-class VC as one delta check against
  /// it. Off, every VC is one absolute checkSat (for Z3, a fresh context per
  /// query): the ablation baseline. Σ, PlacementStats, and every cache
  /// counter are byte-identical with this on or off (the differential
  /// contract of tests/IncrementalSolverTest.cpp).
  bool Incremental = true;
  /// Worker threads for the fan-out; 1 = serial. The unit of work is one
  /// CCR (all its predicate classes), so Jobs is capped at the CCR count.
  /// Every CCR's checks are an independent validity workload, so placement
  /// parallelizes embarrassingly; the merge is deterministic (ordered by
  /// (CCR index, class index)), so any Jobs value yields the same Σ.
  unsigned Jobs = 1;
  /// Mints one private solver backend per worker (backends are not
  /// thread-safe). Required for Jobs > 1; when invalid, placement runs
  /// serially on the caller's solver.
  solver::SolverFactory WorkerSolvers;
  analysis::InvariantConfig Invariants;
  /// Cooperative cancellation/deadline token. Polled at Hoare-check
  /// granularity by the placement loops (and once per theory round inside
  /// the backends); once expired, the run winds down within about one
  /// solver poll interval and the result carries Cancelled = true with
  /// whatever partial stats accrued. A token that never fires leaves every
  /// byte of the result untouched. Not owned; null disables.
  support::CancelToken *Cancel = nullptr;
  /// Span tracer (obs::Tracer): when attached, the run records nested,
  /// thread-attributed phase spans — invariant inference (forwarded into
  /// InvariantConfig::Trace), per-CCR sessions, and individual solver
  /// queries with their cache-tier outcome (attached to the CachingSolver
  /// for the duration of the run). Tracing is byte-invisible: Σ, every
  /// stat, and every cache counter are identical with it on or off
  /// (differential-pinned in tests/ObsTest.cpp). Not owned; null (the
  /// default) disables at the cost of one branch per span site.
  obs::Tracer *Trace = nullptr;
};

/// Per-worker accounting for one parallel placement run.
struct WorkerStats {
  uint64_t Pairs = 0;         ///< (w, p) pairs of the CCRs this worker ran
  uint64_t SolverQueries = 0; ///< checkSat lookups this worker issued
  double BusySeconds = 0;     ///< wall time inside pair checks
};

/// Aggregate statistics, used by Table-1 style reporting and ablations.
struct PlacementStats {
  size_t HoareChecks = 0;
  size_t PairsConsidered = 0;
  size_t NoSignalProved = 0;
  size_t Signals = 0;            ///< notify-one decisions
  size_t Broadcasts = 0;         ///< notify-all decisions
  size_t Unconditional = 0;
  size_t CommutativityWins = 0;  ///< broadcasts avoided via §4.3
  size_t SolverQueries = 0;      ///< checkSat calls issued by the pipeline
  solver::CacheStats Cache;      ///< query-cache accounting (zero when off)
  double InvariantSeconds = 0;
  double PlacementSeconds = 0;
  /// True when the run's sessions assert prefixes on their backend:
  /// Options.Incremental is on and the backend is natively incremental
  /// (SmtSolver::nativeIncremental; MiniSmt's snapshot sessions are not).
  /// Not part of summary(): the output contract is that summaries are
  /// byte-identical across modes.
  bool IncrementalSessions = false;
  unsigned JobsUsed = 1;             ///< worker threads the fan-out ran with
  std::vector<WorkerStats> Workers;  ///< per-worker accounting (empty when serial)

  /// The counters under their one declaration; Cache.Hits/Misses become
  /// CacheHits/Misses and Cache.DiskHits/DiskMisses the Shared pair.
  PlacementCounts counts() const;
};

/// The output of PlaceSignals: Σ plus provenance.
struct PlacementResult {
  const frontend::SemaInfo *Sema = nullptr;
  const logic::Term *Invariant = nullptr;
  PlacementOptions Options;
  /// Aligned with Sema->Ccrs.
  std::vector<CcrPlacement> Placements;
  PlacementStats Stats;
  /// True when Options.Cancel expired before the run finished. The
  /// Placements/Stats are partial; callers must not treat them as Σ (the
  /// daemon answers DeadlineExceeded and publishes nothing).
  bool Cancelled = false;
  /// True when the token had already expired by the end of invariant
  /// inference, so the deadline was spent there rather than in placement.
  bool CancelledInInference = false;

  /// The phase a cancelled run expired in, for error messages: "invariant
  /// inference" or "placement".
  const char *cancelledPhase() const {
    return CancelledInInference ? "invariant inference" : "placement";
  }

  const CcrPlacement &placementFor(const frontend::WaitUntil *W) const;

  /// The invariant and the Σ decisions, without the stats trailer. This is
  /// the determinism contract of the parallel engine: for any Jobs value it
  /// is byte-identical to a serial run's.
  std::string decisionSummary() const;

  /// Human-readable summary (used by the CLI and EXPERIMENTS.md artifacts):
  /// decisionSummary() plus the stats trailer.
  std::string summary() const;
};

/// Runs Algorithm 1 (with the §4.2/§4.3 refinements). If \p
/// ProvidedInvariant is non-null it is used as I (callers must ensure it is
/// a real monitor invariant); otherwise Algorithm 2 infers one (or `true`
/// when Options.UseInvariant is off).
PlacementResult placeSignals(logic::TermContext &C,
                             const frontend::SemaInfo &Sema,
                             solver::SmtSolver &Solver,
                             const PlacementOptions &Options =
                                 PlacementOptions(),
                             const logic::Term *ProvidedInvariant = nullptr);

} // namespace core
} // namespace expresso

#endif // EXPRESSO_CORE_SIGNALPLACEMENT_H
