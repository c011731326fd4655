//===- perfbench/src/common.h - Shared benchmark plumbing -------*- C++ -*-===//
//
// Part of expresso-cpp's repository benchmark. Everything here sits outside
// the program: it drives public entry points and times them from the
// caller's side, so the program carries no benchmark-only spans.
//
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_COMMON_H
#define PERFBENCH_COMMON_H

#include "core/SignalPlacement.h"
#include "solver/SmtSolver.h"

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double secondsSince(Clock::time_point Start) {
  return std::chrono::duration<double>(Clock::now() - Start).count();
}

/// Command-line arguments, as run.py passes them.
struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  std::string OutDir;  ///< where the run's inputs and rows are written
  std::string DataDir; ///< the benchmark's directory (inputs, expected Σ)
};

/// One printed metric. Samples is the number of measurements behind it.
struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
  size_t Samples = 0;
};

/// What a workload hands back to main(): the metrics plus the failure
/// accounting of the correctness checks (correct means nothing failed).
struct Report {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;      ///< end-to-end metrics (untraced runs)
  std::map<std::string, double> Layer; ///< per-layer metrics (traced runs)

  void add(const std::string &Name, double Value, const std::string &Unit,
           size_t Samples) {
    Metrics.push_back({Name, Value, Unit, Samples});
  }
  /// Records a failed operation or a wrong output (prints why to stderr).
  void wrong(const std::string &Why);
};

/// Quantile by linear interpolation between order statistics (the default
/// of numpy and of Python's statistics.quantiles 'inclusive' method).
double quantile(std::vector<double> V, double Q);
double mean(const std::vector<double> &V);
double median(std::vector<double> V);
double geomean(const std::vector<double> &V);
/// Peak resident memory of this process since start or since the last
/// resetPeakRss(), in MB.
double peakRssMb();
/// Returns freed heap to the system and restarts the peak (best effort).
void resetPeakRss();
unsigned hardwareThreads();

/// A deterministic 64-bit mix (splitmix64), for deriving sub-seeds.
uint64_t mix64(uint64_t X);

/// A backend decorator placed between CachingSolver and the real backend.
/// It forwards the whole SmtSolver surface (one-shot and session API) and
/// accumulates the calls that cross the backend boundary and their wall
/// time. Serial use only: the benchmark's traced pipeline runs Jobs = 1.
class TimingSolver : public expresso::solver::SmtSolver {
public:
  explicit TimingSolver(std::unique_ptr<expresso::solver::SmtSolver> Inner)
      : SmtSolver(Inner->context()), Inner(std::move(Inner)) {}

  expresso::solver::CheckResult
  checkSat(const expresso::logic::Term *F) override;
  std::string name() const override { return Inner->name(); }
  bool supportsIncremental() const override {
    return Inner->supportsIncremental();
  }
  bool nativeIncremental() const override {
    return Inner->nativeIncremental();
  }
  bool push() override;
  bool pop() override;
  bool assertTerm(const expresso::logic::Term *F) override;
  expresso::solver::CheckResult checkSatAssuming(
      const std::vector<const expresso::logic::Term *> &Assumptions) override;
  std::vector<expresso::solver::CheckResult>
  checkSatBatch(const std::vector<const expresso::logic::Term *> &Fs) override;
  void setCancelToken(expresso::support::CancelToken *T) override {
    SmtSolver::setCancelToken(T);
    Inner->setCancelToken(T);
  }

  uint64_t Calls = 0;
  double Seconds = 0;

private:
  std::unique_ptr<expresso::solver::SmtSolver> Inner;
};

/// Count-type results of one analysis: deterministic for a given spec and
/// backend, so traced and untraced runs must agree on every field.
struct AnalysisCounts {
  uint64_t HoareChecks = 0;
  uint64_t PairsSilent = 0;
  uint64_t Signals = 0;
  uint64_t Broadcasts = 0;
  uint64_t Unconditional = 0;
  uint64_t CommutativityWins = 0;
  uint64_t SolverQueries = 0; ///< lookups on the caching tier
  uint64_t MemoHits = 0;
  uint64_t MemoMisses = 0;
  uint64_t Terms = 0; ///< TermContext::numTerms() after the input

  bool operator==(const AnalysisCounts &O) const;
  void addTo(AnalysisCounts &Sum) const;
};

/// The outcome of one run of the CLI's cold pipeline on one spec.
struct PipelineRun {
  bool Ok = false;
  std::string Error;
  std::string Sigma; ///< PlacementResult::decisionSummary()
  std::string Artifact;
  AnalysisCounts Counts;
  double Seconds = 0; ///< wall time of parse → sema → place → emit
  bool InvariantVerified = false; ///< only set when verification was asked
};

/// Runs the CLI's cold pipeline on \p Source in a fresh TermContext: parse
/// → sema → placeSignals (serial, memo cache on, incremental on, no
/// persistent store) → emit (\p Emit as in --emit). When \p Verify is set,
/// the inferred invariant is re-checked with analysis::isMonitorInvariant
/// on a fresh backend after the clock stops.
PipelineRun runPipeline(const std::string &Source,
                        expresso::solver::SolverKind Kind,
                        const std::string &Emit, bool Verify);

/// Per-layer wall times of one traced pipeline run, timed around each
/// public call; backend time comes from the TimingSolver decorator.
struct LayerTimes {
  double Parse = 0, Sema = 0;
  double Invariant = 0, InvariantBackend = 0;
  double Place = 0, PlaceBackend = 0;
  double Emit = 0;
  uint64_t BackendCalls = 0;
  double BackendSeconds = 0;
  uint64_t HoudiniRounds = 0;
  uint64_t Candidates = 0;

  void addTo(LayerTimes &Sum) const;
};

/// The traced twin of runPipeline: the same pipeline with the invariant
/// inferred by a direct analysis::inferMonitorInvariant call and handed to
/// placeSignals, each public call timed, and the TimingSolver decorator
/// under the memo cache.
PipelineRun runTracedPipeline(const std::string &Source,
                              expresso::solver::SolverKind Kind,
                              const std::string &Emit, LayerTimes &Layers);

/// One spec a workload analyzes, with the Σ it must produce when known.
struct SpecInput {
  std::string Name;
  std::string Source;
  expresso::solver::SolverKind Kind = expresso::solver::SolverKind::Default;
  std::string Emit = "cpp";
  std::string Expected; ///< expected Σ; empty = checked by other means
};

/// The traced run's analysis half: for each input an untraced runPipeline
/// (with the invariant re-verified and Σ compared against Expected) and
/// then runTracedPipeline. Σ and every count must match between the two;
/// the layers are summed into \p R.Layer together with
/// obs.trace_overhead_ratio (traced ÷ untraced wall time), and one row per
/// input is printed and written to \p OutDir/rows.tsv. Returns the untraced
/// Σ of each input (empty where the pipeline failed).
std::vector<std::string> profileInputs(const std::vector<SpecInput> &Inputs,
                                       Report &R, const std::string &OutDir);

/// Reads a whole file; false when it cannot be opened.
bool readFile(const std::string &Path, std::string &Out);

/// Emits the artifact for \p Emit the way the CLI does.
std::string emitArtifact(const expresso::core::PlacementResult &R,
                         const std::string &Emit);

/// Writes \p Text to \p Dir/\p Name (creating \p Dir); best effort.
void writeFile(const std::string &Dir, const std::string &Name,
               const std::string &Text);

/// The per-layer metric names every traced run prints, in order. Layers a
/// workload bypasses read 0.
const std::vector<std::pair<std::string, std::string>> &perLayerSchema();

/// Fills the analysis-side per-layer metrics (frontend, analysis, core,
/// solver, logic, codegen) from summed traced runs.
void addAnalysisLayers(std::map<std::string, double> &Layer,
                       const LayerTimes &T, const AnalysisCounts &C);

/// Rewrites DataDir/expected/*.sigma from the current program (for a change
/// that alters Σ on purpose). Returns a process exit code.
int blessAnalyze(const std::string &DataDir);

int runAnalyze(const Args &A, Report &R);
int runServe(const Args &A, Report &R);
int runSaturate(const Args &A, Report &R);

} // namespace perfbench

#endif // PERFBENCH_COMMON_H
