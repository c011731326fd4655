//===- solver/CachingSolver.h - Sharded memoizing solver --------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A decorator over any SmtSolver that memoizes checkSat results. Signal
/// placement asks many structurally identical validity questions — the same
/// no-signal triple appears once per (CCR, predicate-class) pair, invariant
/// inference re-proves the same inductiveness VCs across fixpoint rounds,
/// and the paper's Table 1 shows solver time dominating analysis time — so
/// deduplicating queries is the first perf lever on the hot path.
///
/// Because terms are hash-consed, structurally equal formulas within one
/// TermContext are pointer-equal: the cache key is the term pointer, hashed
/// by its precomputed structural hash (Term::structuralHash). A solver's
/// answer for a formula is state-free (every checkSat starts from a fresh
/// backend state), so memoization is sound with no generation tracking.
///
/// Concurrency: the memo table is sharded into fixed mutex-striped buckets,
/// and each entry is a single-flight future — the first thread to ask about
/// a formula computes it on its own backend while later askers block on the
/// entry instead of duplicating the solve. This makes the hit/miss counts
/// *deterministic* under any interleaving: misses always equal the number of
/// distinct formulas asked, exactly as in a serial run. Hit/miss/query
/// counters are atomics.
///
/// Worker threads do not share the primary backend (backends are not
/// thread-safe): each opens a solver::SolverSession that pairs this memo
/// table with a private backend (minted by mintWorkerBackends) for the
/// misses it owns, going through lookupOrCompute.
///
/// Tiers: a lookup goes memo → disk → model → backend. When a
/// persist::QueryStore is attached (attachStore), a memo miss probes the
/// store by the formula's canonical serialization (persist::TermCodec).
/// A store miss then asks the model tier (solver::ModelTier): a complete
/// model of an earlier Sat answer of this solver that satisfies the formula
/// answers Sat with no backend call. Only what is left reaches the backend.
/// Model-tier and backend answers are written through to the store alike,
/// so the next process starts warm. Worker sessions inherit every tier
/// (they funnel through the shared lookupOrCompute), and only the
/// single-flight owner of a formula touches the tiers behind the memo.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SOLVER_CACHINGSOLVER_H
#define EXPRESSO_SOLVER_CACHINGSOLVER_H

#include "solver/ModelTier.h"
#include "solver/SmtSolver.h"
#include "solver/SolverFactory.h"

#include <array>
#include <atomic>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace expresso {
namespace obs {
class Span;
class Tracer;
}
namespace persist {
class QueryStore;
}
namespace solver {

/// Hit/miss accounting snapshot for one CachingSolver, per tier: the
/// in-memory memo (Hits/Misses), when a persist::QueryStore is attached
/// the persistent tier behind it (DiskHits/DiskMisses), and the model tier
/// behind both (ModelHits). Every memo miss becomes exactly one disk lookup,
/// so DiskHits + DiskMisses == Misses when a store is attached and 0
/// otherwise. The memo and disk counters are deterministic under any
/// parallel interleaving (single-flight memo entries mean one owner per
/// distinct formula); ModelHits is deterministic in a serial run, and
/// under --jobs depends on which models were kept first.
struct CacheStats {
  uint64_t Hits = 0;
  uint64_t Misses = 0;
  uint64_t DiskHits = 0;   ///< memo misses answered by the persistent store
  uint64_t DiskMisses = 0; ///< memo misses the persistent store did not answer
  uint64_t ModelHits = 0;  ///< memo and store misses a kept model answered

  uint64_t lookups() const { return Hits + Misses; }
  double hitRate() const {
    return lookups() == 0 ? 0.0 : static_cast<double>(Hits) / lookups();
  }
  uint64_t diskLookups() const { return DiskHits + DiskMisses; }
  double diskHitRate() const {
    return diskLookups() == 0 ? 0.0
                              : static_cast<double>(DiskHits) / diskLookups();
  }
};

/// Memoizing decorator implementing the SmtSolver interface. Wraps either a
/// borrowed backend (whose lifetime the caller guarantees) or an owned one.
class CachingSolver : public SmtSolver {
public:
  /// Decorates \p Backend without taking ownership. The backend must be
  /// bound to the same TermContext (guaranteed here by construction).
  explicit CachingSolver(SmtSolver &Backend)
      : SmtSolver(Backend.context()), Backend(&Backend) {}

  /// Decorates and owns \p Backend (must be non-null).
  explicit CachingSolver(std::unique_ptr<SmtSolver> Backend)
      : SmtSolver(Backend->context()), Owned(std::move(Backend)) {
    this->Backend = Owned.get();
  }

  /// Safe factory: returns null when \p Backend is null or is bound to a
  /// TermContext other than \p C. A cache keyed on terms from one context
  /// must never answer queries about terms from another — interning makes
  /// pointer equality semantic only within a single context.
  static std::unique_ptr<CachingSolver>
  create(logic::TermContext &C, std::unique_ptr<SmtSolver> Backend);

  CheckResult checkSat(const logic::Term *F) override;

  /// Computes the answer for one formula on a miss. Receives the formula
  /// itself; how it is discharged (one-shot, or as a delta under a solver
  /// session whose asserted prefix the formula entails) is the caller's
  /// business — the cache only requires that the result equal a one-shot
  /// checkSat(F).
  using ComputeFn = std::function<CheckResult(const logic::Term *)>;

  /// The single-flight lookup with a caller-supplied compute for the miss
  /// path. Identical counter semantics to checkSat(): one Queries tick, a
  /// memo Hit or Miss, and — for the owning miss, when a store is attached
  /// — one persistent-tier probe plus write-through. This is how solver
  /// sessions keep the cache on their path: the cache key is always the
  /// equivalent one-shot formula, whatever \p Compute does internally.
  CheckResult lookupOrCompute(const logic::Term *F, const ComputeFn &Compute);

  std::string name() const override { return "cache(" + Backend->name() + ")"; }

  /// Forwards the token to the primary backend and additionally gates the
  /// persistent tier: once the token expires, owned misses are still
  /// computed (they come back Unknown almost immediately) but are *never*
  /// written through to the store — a cancelled run's Unknowns are
  /// artifacts of the deadline, not of the formula, and publishing them
  /// would poison every later process that trusts the store.
  void setCancelToken(support::CancelToken *T) override;

  /// Attaches (or detaches, with null) a persistent store as the second
  /// tier: memo misses first probe the store by the formula's canonical
  /// encoding; store misses are answered by the model tier or the backend
  /// and written through (unless the store is read-only). The store outlives any formula this
  /// solver caches and may be shared by several CachingSolvers across
  /// different TermContexts — keys are context-free byte strings.
  void attachStore(std::shared_ptr<persist::QueryStore> Store) {
    this->Store = std::move(Store);
  }
  persist::QueryStore *store() const { return Store.get(); }

  /// Attaches (or detaches, with null) a span tracer: every lookup then
  /// records one "solver.query" span carrying its cache-tier outcome —
  /// "memo" (answered by the in-memory table, in-flight waits included),
  /// "disk" (persistent store), "model" (a kept model satisfied it), or
  /// "solve" (computed on a backend, with the backend's name) — plus the
  /// answer. Tracing reads counters and clocks only: it never touches the
  /// memo, the store, or any stat, so traced and untraced runs are
  /// byte-identical (the obs determinism contract). Not owned; callers
  /// must detach before the tracer dies (placeSignals does, via a scope
  /// guard).
  void setTracer(obs::Tracer *T) { Trace = T; }
  obs::Tracer *tracer() const { return Trace; }

  /// Snapshot of the per-tier hit/miss counters (atomics read relaxed;
  /// exact once concurrent queries have drained).
  CacheStats stats() const {
    CacheStats S;
    S.Hits = Hits.load(std::memory_order_relaxed);
    S.Misses = Misses.load(std::memory_order_relaxed);
    S.DiskHits = DiskHits.load(std::memory_order_relaxed);
    S.DiskMisses = DiskMisses.load(std::memory_order_relaxed);
    S.ModelHits = ModelHits.load(std::memory_order_relaxed);
    return S;
  }
  size_t cacheSize() const;
  void clearCache();

  /// The decorated backend (for cross-check tests and diagnostics).
  SmtSolver &backend() { return *Backend; }

private:
  /// Probes the persistent tier for the owning miss of \p F (counting disk
  /// hit/miss), then the model tier, and computes on a miss of both; an
  /// answer from either of the last two is written through to the store.
  /// The tier outcome is recorded onto the caller's query span \p Q.
  CheckResult computeOwned(const logic::Term *F, const ComputeFn &Compute,
                           obs::Span &Q);

  static constexpr size_t NumShards = 16;
  struct Shard {
    mutable std::mutex Mu;
    std::unordered_map<const logic::Term *, std::shared_future<CheckResult>,
                       logic::TermStructuralHash>
        Map;
  };
  Shard &shardFor(const logic::Term *F);

  std::unique_ptr<SmtSolver> Owned; ///< null when decorating a borrowed ref
  SmtSolver *Backend = nullptr;
  obs::Tracer *Trace = nullptr; ///< not owned; null = tracing off
  std::shared_ptr<persist::QueryStore> Store; ///< second tier; may be null
  ModelTier Models;                           ///< third tier
  std::array<Shard, NumShards> Shards;
  std::atomic<uint64_t> Hits{0};
  std::atomic<uint64_t> Misses{0};
  std::atomic<uint64_t> DiskHits{0};
  std::atomic<uint64_t> DiskMisses{0};
  std::atomic<uint64_t> ModelHits{0};
};

/// Mints one private backend per job from \p Factory, each validated
/// against \p C — the only producer of worker backends, shared so the
/// mint/validate sequence cannot diverge between placement and the
/// invariant fixpoint. Empty — callers must then stay serial — when \p Jobs
/// == 0, the factory is invalid, or any backend cannot be minted for \p C.
std::vector<std::unique_ptr<SmtSolver>>
mintWorkerBackends(logic::TermContext &C, const SolverFactory &Factory,
                   unsigned Jobs);

} // namespace solver
} // namespace expresso

#endif // EXPRESSO_SOLVER_CACHINGSOLVER_H
