//===- bench/Harness.h - Saturation-test harness ----------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Reproduces the paper's measurement methodology (§7): saturation tests in
/// which threads only access the monitor, one series per signaling engine,
/// ms/op on the y-axis and thread count on the x-axis. The `figures` binary
/// calls figureMain() for each monitor it is asked for, which prints one row
/// per thread count with expresso / autosynch / explicit columns — the same
/// series as the paper's Figures 8 and 9.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_BENCH_HARNESS_H
#define EXPRESSO_BENCH_HARNESS_H

#include "bench/Workloads.h"
#include "driver/Pipeline.h"

#include <iosfwd>
#include <memory>
#include <optional>

namespace expresso {
namespace persist {
class QueryStore;
}
namespace bench {

/// Which signaling strategy to run on the shared substrate.
enum class EngineKind { Expresso, AutoSynch, Explicit, Naive };

const char *engineKindName(EngineKind K);

/// Command-line options shared by all bench binaries.
struct HarnessOptions {
  /// Total operation cycles across all threads (split per thread).
  unsigned TargetTotalCycles = 20000;
  unsigned MinCyclesPerThread = 8;
  unsigned MaxThreads = 0;  ///< 0 = benchmark's full series
  unsigned Repetitions = 1; ///< best-of-N timing
  bool Quick = false;       ///< --quick: fewer cycles, capped threads
  bool IncludeNaive = false;///< add the naive-broadcast series
  std::string JsonPath;     ///< --json=PATH: machine-readable table1 artifact
  std::string CacheDir;     ///< --cache-dir=DIR: persistent query store
  bool CacheReadOnly = false; ///< --cache-readonly: never write the store
  /// --build-jobs=N: parallel per-benchmark BenchContext builds in table1
  /// (row order stays deterministic; per-row timings contend for cores, so
  /// use 1 when absolute times matter — see docs/BENCHMARKS.md).
  unsigned BuildJobs = 1;
  /// --corpus=DIR: table1 appends one row per *.mon file in DIR (sorted by
  /// filename, named corpus/<stem>, figure "table_corpus") — the specgen
  /// stress corpus rides the same artifact as the paper workloads.
  std::string CorpusDir;
  /// Placement knobs: --jobs, --incremental=on|off and the ablation flags.
  core::PlacementOptions Placement;

  static HarnessOptions fromArgs(int Argc, char **Argv);
};

/// A compiled benchmark: parsed monitor, sema, placement, and both plans.
/// When \p Store is non-null (and caching is on) it becomes the persistent
/// tier behind this context's query cache; one store may back any number of
/// live contexts at once — keys are context-free — which is how the table1
/// harness shares a single cache directory across all workloads.
class BenchContext {
public:
  BenchContext(const BenchmarkDef &Def, const core::PlacementOptions &Opts,
               std::shared_ptr<persist::QueryStore> Store = nullptr);

  std::unique_ptr<runtime::MonitorEngine> makeEngine(EngineKind Kind,
                                                     unsigned Threads) const;

  const core::PlacementResult &placement() const { return Comp.result(); }
  /// Wall-clock seconds for the full static pipeline (Table 1's metric).
  double analysisSeconds() const { return AnalysisSeconds; }
  const frontend::SemaInfo &sema() const { return *placement().Sema; }

private:
  const BenchmarkDef &Def;
  driver::Compilation Comp;
  runtime::SignalPlan ExpressoPlan;
  runtime::SignalPlan GoldPlan;
  double AnalysisSeconds = 0;
};

/// One measured cell of a figure.
struct CellResult {
  double MsPerOp = 0;
  uint64_t TotalOps = 0;
  runtime::EngineStats Stats;
  bool StateOk = true;
};

/// Runs one (engine, thread-count) cell. Aborts with a diagnostic if the
/// monitor stops making progress (watchdog).
CellResult runCell(const BenchmarkDef &Def, const BenchContext &Ctx,
                   EngineKind Kind, unsigned Threads,
                   const HarnessOptions &Opts);

/// Prints the paper-style series for \p BenchName, as the `figures` binary
/// does for each monitor. Returns a process exit code.
int figureMain(const std::string &BenchName, int Argc, char **Argv);

/// Entry point for the Table-1 binary: per-benchmark analysis time.
int tableMain(int Argc, char **Argv);

} // namespace bench
} // namespace expresso

#endif // EXPRESSO_BENCH_HARNESS_H
