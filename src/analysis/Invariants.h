//===- analysis/Invariants.h - Monitor invariant inference ------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Algorithm 2 (InferMonitorInv): property-directed inference of monitor
/// invariants — assertions that hold whenever a thread enters or exits the
/// monitor.
///
/// Phase 1 runs abduction on every Hoare triple the placement algorithm
/// would generate with I = true, producing a candidate universe Φ.
/// Phase 2 is a Houdini-style fixpoint (monomial predicate abstraction over
/// the abduced predicates): drop every ψ ∈ Φ that fails initiation
/// ({requires} Ctr(M) {ψ}) or consecution ({∧Φ ∧ Guard(w)} Body(w) {ψ});
/// repeat until stable. A round first proves {∧Φ ∧ Guard(w)} Body(w) {∧Φ}
/// once per CCR and checks ψ one by one only against the CCRs that fail it,
/// which yields the same survivors (wp distributes over ∧). The conjunction
/// of survivors is a valid monitor invariant by construction.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_ANALYSIS_INVARIANTS_H
#define EXPRESSO_ANALYSIS_INVARIANTS_H

#include "analysis/Abduction.h"
#include "analysis/Hoare.h"
#include "frontend/Sema.h"
#include "solver/SolverFactory.h"

#include <utility>
#include <vector>

namespace expresso {
namespace obs {
class Tracer;
}
namespace analysis {

struct InvariantConfig {
  AbductionConfig Abduction;
  /// Cap on total abduction queries (one per failing triple).
  size_t MaxAbductionQueries = 64;
  /// Cap on the candidate universe |Φ|.
  size_t MaxCandidates = 48;
  /// Worker threads for the Houdini fixpoint (initiation filter and
  /// per-candidate consecution checks are independent; a candidate's fate
  /// in a round depends only on its own checks against the round-start
  /// invariant, so any Jobs value yields the same fixpoint). Phase 1
  /// abduction stays serial — its query/candidate caps make it
  /// order-sensitive. 0 = inherit from PlacementOptions::Jobs; 1 = serial.
  unsigned Jobs = 0;
  /// Per-worker backend recipe; required for Jobs > 1 (else serial).
  solver::SolverFactory WorkerSolvers;
  /// The discharge mode of the solver sessions inference runs on (empty
  /// assertion stack either way): on, a natively incremental backend reuses
  /// one context and translation memo across queries; off, every query gets
  /// a context of its own. Answers and all cache counters are identical
  /// either way; placeSignals overrides this with
  /// PlacementOptions::Incremental so one flag governs the whole analysis.
  bool Incremental = true;
  /// Cooperative cancellation: polled at candidate/round boundaries in both
  /// phases (and forwarded into abduction and the worker backends). An
  /// expired token makes inference wind down with whatever conservative
  /// partial invariant it has — callers discard the whole run anyway.
  /// Not owned; null disables. placeSignals forwards its own token here.
  support::CancelToken *Cancel = nullptr;
  /// Span tracer for phase attribution: abduction, the initiation filter,
  /// each Houdini round, and minimization record spans (solver queries get
  /// their own through the caching tier). Tracing is byte-invisible to the
  /// inferred invariant and every counter — it only reads clocks. Not
  /// owned; null (the default) disables. placeSignals forwards its own
  /// tracer here.
  obs::Tracer *Trace = nullptr;
};

/// Result of invariant inference with simple provenance for tests/benches.
struct InvariantResult {
  const logic::Term *Invariant = nullptr; ///< Conjunction of survivors.
  std::vector<const logic::Term *> Predicates; ///< Surviving ψ's.
  /// Φ after the initiation filter: the Houdini fixpoint's input.
  std::vector<const logic::Term *> Initiated;
  size_t NumCandidates = 0; ///< |Φ| before the fixpoint.
  size_t NumIterations = 0; ///< Fixpoint rounds.
  double AbductionSeconds = 0; ///< Phase 1 (candidate universe) wall time.
  double FixpointSeconds = 0;  ///< Phase 2 (Houdini + minimize) wall time.
  /// checkSat calls issued on private worker backends that the caller's
  /// solver did not see (only non-zero for parallel runs without a shared
  /// CachingSolver — sessions of a shared cache count centrally).
  uint64_t WorkerQueries = 0;
};

/// Runs Algorithm 2 for monitor \p Sema. The triples in Θ are exactly those
/// of PlaceSignals with I = true (no-signal, unconditionality, and
/// single-signal checks).
InvariantResult inferMonitorInvariant(logic::TermContext &C,
                                      const frontend::SemaInfo &Sema,
                                      solver::SmtSolver &Solver,
                                      const InvariantConfig &Cfg =
                                          InvariantConfig());

/// The abducible vocabulary: the monitor's shared Int and Bool fields (an
/// invariant must hold for every thread, so locals are excluded; arrays are
/// outside the QE fragment).
std::vector<const logic::Term *>
abducibles(const frontend::SemaInfo &Sema);

/// Θ as (Pre, Goal = wp) pairs, in the order phase 1 abduces over them: per
/// CCR and predicate class the no-signal and unconditionality triples, then
/// per class the single-signal triples of its CCRs. Each call renames the
/// classes' placeholders to new fresh variables.
std::vector<std::pair<const logic::Term *, const logic::Term *>>
abductionTriples(logic::TermContext &C, const frontend::SemaInfo &Sema,
                 WpEngine &Wp);

/// Verifies that \p I is a valid monitor invariant (initiation +
/// consecution). Exposed for tests and for user-supplied invariants.
bool isMonitorInvariant(logic::TermContext &C, const frontend::SemaInfo &Sema,
                        solver::SmtSolver &Solver, const logic::Term *I);

} // namespace analysis
} // namespace expresso

#endif // EXPRESSO_ANALYSIS_INVARIANTS_H
