//===- solver/SolverRig.h - Two-tier analysis solver assembly ---*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis solver stack: a backend of the requested kind, optionally
/// wrapped in the sharded CachingSolver memo, optionally backed by a
/// persist::QueryStore as the second tier. Every surface compiles through
/// driver::Compilation, which assembles it here.
///
/// Profile safety is centralized here: a store is attached only when its
/// profile names the backend that will answer misses. The daemon relies on
/// this — its resident store is keyed to the daemon's default backend, and
/// a request that selects a different solver silently runs memo-only
/// instead of mixing answers from two solvers in one directory.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SOLVER_SOLVERRIG_H
#define EXPRESSO_SOLVER_SOLVERRIG_H

#include "solver/CachingSolver.h"
#include "solver/SmtSolver.h"

#include <memory>
#include <string>

namespace expresso {
namespace persist {
class QueryStore;
}
namespace solver {

/// The assembled solver stack for one analysis. Move-only; the solver()
/// reference stays valid for the rig's lifetime.
struct SolverRig {
  /// Owned backend when no cache wraps it (cache-off configuration);
  /// otherwise the cache owns the backend and this is null.
  std::unique_ptr<SmtSolver> Backend;
  /// The sharded memo (plus attached store, if any); null when caching off.
  std::unique_ptr<CachingSolver> Cache;
  /// True when the store was offered but skipped over a profile mismatch.
  bool StoreProfileMismatch = false;

  explicit operator bool() const { return Backend || Cache; }

  /// The solver analyses should query (the cache when present).
  SmtSolver &solver() {
    return Cache ? static_cast<SmtSolver &>(*Cache) : *Backend;
  }
};

/// Builds the analysis solver stack: backend of \p Kind bound to \p C,
/// wrapped in a CachingSolver when \p CacheQueries, with \p Store attached
/// behind the memo when non-null, caching is on, and the store's profile
/// matches the backend's name(). Returns an empty rig (operator bool false)
/// when the backend cannot be built in this configuration (SolverKind::Z3
/// without Z3).
SolverRig buildSolverRig(logic::TermContext &C, SolverKind Kind,
                         bool CacheQueries,
                         std::shared_ptr<persist::QueryStore> Store);

/// The name() of the backend \p Kind resolves to in this build — the
/// profile string persistent stores are keyed to. Minted from a throwaway
/// probe backend in a scratch context (CrossCheck's composite name is not
/// computable statically). Empty when the kind cannot be built here.
std::string backendProfileName(SolverKind Kind);

} // namespace solver
} // namespace expresso

#endif // EXPRESSO_SOLVER_SOLVERRIG_H
