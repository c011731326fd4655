//===- specgen/Diff.h - Whole-placement differential harness ----*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The differential fuzz rig behind `expresso-diff`: run one monitor spec
/// through the full placement pipeline across the execution-mode matrix
///
///   {serial, --jobs N} x {--incremental on/off} x {cache off/cold/warm}
///   x {MiniSmt, Z3 when present} x {local, daemon}
///
/// and assert the engine's standing determinism contract:
///
///   * Σ (PlacementResult::decisionSummary()) is byte-identical across
///     every cell of one backend group (MiniSmt and Z3 are separate
///     groups — Σ is a pure function of (spec, backend profile));
///   * the core placement stats and the memo-tier cache counters are
///     identical across all cache-enabled cells, and zero with the cache
///     off;
///   * persistent-tier counters obey the per-cell contract: cold runs see
///     SharedHits == 0 and SharedMisses == memo misses; warm runs at
///     jobs == 1 are exact (all hits, both backends — MiniSmt solves in a
///     private scratch context precisely so cache state cannot perturb
///     the analysis context's term ids), and --jobs warm runs conserve
///     SharedHits + SharedMisses == misses (scheduling order varies).
///
/// Every cell executes in a forked child with a hard deadline, so a
/// pathological spec degrades to a skipped-and-logged row and a crashing
/// configuration is isolated as a divergence instead of taking the rig
/// down. Divergent specs are reduced by a greedy ddmin-style shrinker
/// (drop method / drop CCR / guard -> true / drop statement / drop field)
/// and dumped as *.repro files that `expresso-diff --replay` re-checks.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SPECGEN_DIFF_H
#define EXPRESSO_SPECGEN_DIFF_H

#include "core/PlacementCounts.h"
#include "solver/SmtSolver.h"

#include <cstdint>
#include <string>
#include <vector>

namespace expresso {
namespace specgen {

/// Persistent-cache posture of one matrix cell.
enum class CacheMode {
  Off,  ///< --no-cache: no memo, no store
  Cold, ///< fresh store directory, populated by this run
  Warm, ///< rerun against the store a Cold cell populated
};

/// One cell of the execution-mode matrix.
struct RunSpec {
  solver::SolverKind Backend = solver::SolverKind::Mini;
  unsigned Jobs = 1;
  bool Incremental = true;
  CacheMode Cache = CacheMode::Off;
  bool Daemon = false;       ///< route through an in-process expressod
  std::string CacheDir;      ///< store directory for Cold/Warm local cells

  std::string label() const;
};

/// What one cell produced (shipped from the forked child to the parent).
struct RunResult {
  enum class Status {
    Ok,
    Error,   ///< pipeline reported an error (message says why)
    Crash,   ///< child died on a signal / nonzero exit
    Timeout, ///< child exceeded the per-cell deadline
  };
  Status St = Status::Error;
  std::string Message;
  std::string Sigma; ///< PlacementResult::decisionSummary()
  /// Mode-invariant counters agree across every cell of a backend group;
  /// the Shared pair is the local store or the daemon's shared store.
  core::PlacementCounts Counts;
};

/// Harness-wide options.
struct DiffOptions {
  unsigned JobsMax = 4;        ///< the parallel leg's --jobs value
  /// Matrix cells with no mutual ordering constraint (cache-off, cold, and
  /// daemon cells; then the warm reruns) execute in concurrently forked
  /// children, capped at this many in flight. 0 = auto (hardware threads,
  /// clamped to [4, 16]).
  unsigned Parallel = 0;
  bool UseDaemon = true;       ///< include the in-process daemon cells
  bool Shrink = true;          ///< reduce divergent specs before reporting
  int TimeoutSeconds = 300;    ///< per-cell deadline (ctest discipline)
  /// Wall budget for one spec's whole matrix; 0 = unlimited. A spec whose
  /// completed cells exceed it skips its remaining cells and logs a
  /// Skipped row — the lever that bounds a CI smoke run, complementing the
  /// per-cell deadline (which only catches outright hangs).
  int SpecBudgetSeconds = 0;
  int ShrinkSeconds = 300;     ///< wall budget for the whole shrink loop
  std::string ReproDir = ".";  ///< where *.repro files land
  std::string ScratchDir;      ///< cache/socket scratch (default: TMPDIR)
  bool Verbose = false;        ///< per-cell progress on stderr
  /// Backend groups to check; empty = MiniSmt plus Z3 when built in.
  std::vector<solver::SolverKind> Backends;
};

/// Verdict for one spec across the whole matrix.
struct SpecVerdict {
  enum class Kind {
    Parity,     ///< every cell agreed; the contract held
    Divergence, ///< parity violation / crash (repro written)
    Skipped,    ///< a cell timed out; spec logged and skipped
    Invalid,    ///< the spec failed parse/sema before any cell ran
  };
  Kind K = Kind::Parity;
  std::string Detail;    ///< human-readable cause for non-Parity verdicts
  std::string ReproPath; ///< written for Divergence (empty otherwise)
  std::string MinReproPath; ///< shrunk reproducer, when shrinking succeeded
  unsigned Cells = 0;    ///< matrix cells executed
};

/// Runs \p Source through the full matrix. \p ConfigStr (a
/// specgen::configToString string, or any provenance note) is recorded in
/// repro headers so a failure is regenerable without the fuzz loop.
SpecVerdict checkSpec(const std::string &Source, const std::string &ConfigStr,
                      const DiffOptions &Opts);

/// Writes a reproducer: '#'-prefixed header lines (seed/config/divergence
/// provenance plus the replay one-liner) followed by the verbatim monitor
/// source. Returns the path written, or "" on I/O failure.
std::string writeRepro(const std::string &Path, const std::string &Source,
                       const std::string &ConfigStr,
                       const std::string &Detail);

/// Reads a *.repro file: header lines starting with '#' are skipped, the
/// rest is the monitor source. False when the file cannot be read.
bool readRepro(const std::string &Path, std::string &Source,
               std::string *Error);

} // namespace specgen
} // namespace expresso

#endif // EXPRESSO_SPECGEN_DIFF_H
