//===- perfbench/src/common.cpp - Shared benchmark plumbing ---------------===//
//
// Part of expresso-cpp's repository benchmark.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "analysis/Invariants.h"
#include "codegen/Codegen.h"
#include "frontend/Parser.h"
#include "solver/CachingSolver.h"
#include "solver/SolverRig.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>

using namespace expresso;
using namespace perfbench;

void Report::wrong(const std::string &Why) {
  ++Failed;
  std::fprintf(stderr, "perfbench: WRONG: %s\n", Why.c_str());
}

double perfbench::quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(std::floor(Pos));
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double perfbench::mean(const std::vector<double> &V) {
  double Sum = 0;
  for (double X : V)
    Sum += X;
  return V.empty() ? 0 : Sum / static_cast<double>(V.size());
}

double perfbench::median(std::vector<double> V) { return quantile(V, 0.5); }

double perfbench::geomean(const std::vector<double> &V) {
  double LogSum = 0;
  for (double X : V)
    LogSum += std::log(X);
  return V.empty() ? 0 : std::exp(LogSum / static_cast<double>(V.size()));
}

double perfbench::peakRssMb() {
  // VmHWM, which resetPeakRss() can restart; ru_maxrss where it is absent.
  std::ifstream Status("/proc/self/status");
  std::string Line;
  while (std::getline(Status, Line))
    if (Line.rfind("VmHWM:", 0) == 0)
      return std::strtod(Line.c_str() + 6, nullptr) / 1024.0; // KiB
  struct rusage U;
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

void perfbench::resetPeakRss() {
  malloc_trim(0);
  std::ofstream("/proc/self/clear_refs") << "5";
}

unsigned perfbench::hardwareThreads() {
  cpu_set_t Set;
  if (sched_getaffinity(0, sizeof(Set), &Set) == 0)
    return std::max(1, CPU_COUNT(&Set));
  return std::max(1u, std::thread::hardware_concurrency());
}

uint64_t perfbench::mix64(uint64_t X) {
  X += 0x9E3779B97F4A7C15ull;
  X = (X ^ (X >> 30)) * 0xBF58476D1CE4E5B9ull;
  X = (X ^ (X >> 27)) * 0x94D049BB133111EBull;
  return X ^ (X >> 31);
}

//===----------------------------------------------------------------------===//
// TimingSolver
//===----------------------------------------------------------------------===//

namespace {
/// Adds one call and its wall time to the decorator on scope exit.
struct Tick {
  TimingSolver &S;
  Clock::time_point Start = Clock::now();
  ~Tick() {
    S.Seconds += secondsSince(Start);
    ++S.Calls;
  }
};
} // namespace

solver::CheckResult TimingSolver::checkSat(const logic::Term *F) {
  Tick T{*this};
  return Inner->checkSat(F);
}

bool TimingSolver::push() {
  Tick T{*this};
  return Inner->push();
}

bool TimingSolver::pop() {
  Tick T{*this};
  return Inner->pop();
}

bool TimingSolver::assertTerm(const logic::Term *F) {
  Tick T{*this};
  return Inner->assertTerm(F);
}

solver::CheckResult TimingSolver::checkSatAssuming(
    const std::vector<const logic::Term *> &Assumptions) {
  Tick T{*this};
  return Inner->checkSatAssuming(Assumptions);
}

std::vector<solver::CheckResult>
TimingSolver::checkSatBatch(const std::vector<const logic::Term *> &Fs) {
  Tick T{*this};
  return Inner->checkSatBatch(Fs);
}

//===----------------------------------------------------------------------===//
// Pipelines
//===----------------------------------------------------------------------===//

bool AnalysisCounts::operator==(const AnalysisCounts &O) const {
  return HoareChecks == O.HoareChecks && PairsSilent == O.PairsSilent &&
         Signals == O.Signals && Broadcasts == O.Broadcasts &&
         Unconditional == O.Unconditional &&
         CommutativityWins == O.CommutativityWins &&
         SolverQueries == O.SolverQueries && MemoHits == O.MemoHits &&
         MemoMisses == O.MemoMisses && Terms == O.Terms;
}

void AnalysisCounts::addTo(AnalysisCounts &Sum) const {
  Sum.HoareChecks += HoareChecks;
  Sum.PairsSilent += PairsSilent;
  Sum.Signals += Signals;
  Sum.Broadcasts += Broadcasts;
  Sum.Unconditional += Unconditional;
  Sum.CommutativityWins += CommutativityWins;
  Sum.SolverQueries += SolverQueries;
  Sum.MemoHits += MemoHits;
  Sum.MemoMisses += MemoMisses;
  Sum.Terms += Terms;
}

void LayerTimes::addTo(LayerTimes &Sum) const {
  Sum.Parse += Parse;
  Sum.Sema += Sema;
  Sum.Invariant += Invariant;
  Sum.InvariantBackend += InvariantBackend;
  Sum.Place += Place;
  Sum.PlaceBackend += PlaceBackend;
  Sum.Emit += Emit;
  Sum.BackendCalls += BackendCalls;
  Sum.BackendSeconds += BackendSeconds;
  Sum.HoudiniRounds += HoudiniRounds;
  Sum.Candidates += Candidates;
}

std::string perfbench::emitArtifact(const core::PlacementResult &R,
                                    const std::string &Emit) {
  if (Emit == "cpp")
    return codegen::emitCpp(R);
  if (Emit == "java")
    return codegen::emitJava(R);
  if (Emit == "ir")
    return codegen::printTargetIr(R);
  return R.summary();
}

namespace {

AnalysisCounts countsOf(const core::PlacementResult &R,
                        solver::CachingSolver &Cache,
                        const logic::TermContext &C) {
  AnalysisCounts N;
  const core::PlacementStats &S = R.Stats;
  N.HoareChecks = S.HoareChecks;
  N.PairsSilent = S.NoSignalProved;
  N.Signals = S.Signals;
  N.Broadcasts = S.Broadcasts;
  N.Unconditional = S.Unconditional;
  N.CommutativityWins = S.CommutativityWins;
  N.SolverQueries = Cache.numQueries();
  solver::CacheStats CS = Cache.stats();
  N.MemoHits = CS.Hits;
  N.MemoMisses = CS.Misses;
  N.Terms = C.numTerms();
  return N;
}

/// The placement options of the CLI's default invocation.
core::PlacementOptions cliOptions(solver::SolverKind Kind) {
  core::PlacementOptions Opts;
  Opts.WorkerSolvers = solver::SolverFactory(Kind);
  return Opts;
}

} // namespace

PipelineRun perfbench::runPipeline(const std::string &Source,
                                   solver::SolverKind Kind,
                                   const std::string &Emit, bool Verify) {
  PipelineRun Out;
  Clock::time_point Start = Clock::now();
  DiagnosticEngine Diags;
  std::unique_ptr<frontend::Monitor> M = frontend::parseMonitor(Source, Diags);
  if (!M) {
    Out.Error = "parse failed: " + Diags.str();
    return Out;
  }
  logic::TermContext C;
  std::unique_ptr<frontend::SemaInfo> Sema = frontend::analyze(*M, C, Diags);
  if (!Sema) {
    Out.Error = "sema failed: " + Diags.str();
    return Out;
  }
  solver::SolverRig Rig = solver::buildSolverRig(C, Kind, true, nullptr);
  if (!Rig || !Rig.Cache) {
    Out.Error = "solver backend unavailable";
    return Out;
  }
  core::PlacementResult Result =
      core::placeSignals(C, *Sema, Rig.solver(), cliOptions(Kind));
  Out.Artifact = emitArtifact(Result, Emit);
  Out.Seconds = secondsSince(Start);

  Out.Sigma = Result.decisionSummary();
  Out.Counts = countsOf(Result, *Rig.Cache, C);
  if (Verify) {
    std::unique_ptr<solver::SmtSolver> Fresh = solver::createSolver(Kind, C);
    Out.InvariantVerified =
        Fresh && analysis::isMonitorInvariant(C, *Sema, *Fresh,
                                              Result.Invariant);
  }
  Out.Ok = true;
  return Out;
}

PipelineRun perfbench::runTracedPipeline(const std::string &Source,
                                         solver::SolverKind Kind,
                                         const std::string &Emit,
                                         LayerTimes &Layers) {
  PipelineRun Out;
  Clock::time_point Start = Clock::now();
  Clock::time_point T = Clock::now();
  DiagnosticEngine Diags;
  std::unique_ptr<frontend::Monitor> M = frontend::parseMonitor(Source, Diags);
  Layers.Parse = secondsSince(T);
  if (!M) {
    Out.Error = "parse failed: " + Diags.str();
    return Out;
  }
  logic::TermContext C;
  T = Clock::now();
  std::unique_ptr<frontend::SemaInfo> Sema = frontend::analyze(*M, C, Diags);
  Layers.Sema = secondsSince(T);
  if (!Sema) {
    Out.Error = "sema failed: " + Diags.str();
    return Out;
  }
  std::unique_ptr<solver::SmtSolver> Backend = solver::createSolver(Kind, C);
  if (!Backend) {
    Out.Error = "solver backend unavailable";
    return Out;
  }
  auto TimingOwned = std::make_unique<TimingSolver>(std::move(Backend));
  TimingSolver &Timing = *TimingOwned;
  std::unique_ptr<solver::CachingSolver> Cache =
      solver::CachingSolver::create(C, std::move(TimingOwned));

  // The invariant configuration placeSignals derives for a serial run.
  core::PlacementOptions Opts = cliOptions(Kind);
  analysis::InvariantConfig InvCfg = Opts.Invariants;
  InvCfg.Jobs = Opts.Jobs;
  InvCfg.WorkerSolvers = Opts.WorkerSolvers;
  InvCfg.Incremental = Opts.Incremental;

  T = Clock::now();
  analysis::InvariantResult Inv =
      analysis::inferMonitorInvariant(C, *Sema, *Cache, InvCfg);
  Layers.Invariant = secondsSince(T);
  Layers.InvariantBackend = Timing.Seconds;
  Layers.HoudiniRounds = Inv.NumIterations;
  Layers.Candidates = Inv.NumCandidates;

  T = Clock::now();
  core::PlacementResult Result =
      core::placeSignals(C, *Sema, *Cache, Opts, Inv.Invariant);
  Layers.Place = secondsSince(T);
  Layers.PlaceBackend = Timing.Seconds - Layers.InvariantBackend;

  T = Clock::now();
  Out.Artifact = emitArtifact(Result, Emit);
  Layers.Emit = secondsSince(T);
  Out.Seconds = secondsSince(Start);
  Layers.BackendCalls = Timing.Calls;
  Layers.BackendSeconds = Timing.Seconds;

  Out.Sigma = Result.decisionSummary();
  Out.Counts = countsOf(Result, *Cache, C);
  Out.Ok = true;
  return Out;
}

std::vector<std::string>
perfbench::profileInputs(const std::vector<SpecInput> &Inputs, Report &R,
                         const std::string &OutDir) {
  std::vector<std::string> Sigmas;
  AnalysisCounts Counts;
  LayerTimes Layers;
  double Untraced = 0, Traced = 0;
  std::string Rows = "input\tuntraced_s\ttraced_s\tparse_s\tsema_s\t"
                     "invariant_s\tinvariant_backend_s\thoudini_rounds\t"
                     "candidates\tplace_s\tplace_backend_s\temit_s\t"
                     "backend_calls\thoare_checks\tsolver_queries\tterms\n";
  std::printf("%-40s %9s %9s %8s %8s %8s %8s %8s\n", "input", "untraced",
              "traced", "inv_s", "inv_bk_s", "place_s", "plc_bk_s",
              "checks");
  for (const SpecInput &In : Inputs) {
    ++R.Attempted;
    PipelineRun Plain = runPipeline(In.Source, In.Kind, In.Emit, true);
    LayerTimes L;
    PipelineRun Tr = runTracedPipeline(In.Source, In.Kind, In.Emit, L);
    Sigmas.push_back(Plain.Ok ? Plain.Sigma : "");
    if (!Plain.Ok || !Tr.Ok) {
      R.wrong(In.Name + ": " + Plain.Error + Tr.Error);
      continue;
    }
    if (!Plain.InvariantVerified)
      R.wrong(In.Name + ": inferred invariant fails re-verification");
    else if (!In.Expected.empty() && Plain.Sigma != In.Expected)
      R.wrong(In.Name + ": Σ differs from the expected file");
    else if (Tr.Sigma != Plain.Sigma) {
      // Σ only: the emitted C++/Java orders condition variables by
      // PredicateClass address, so two runs in one process may differ there.
      R.wrong(In.Name + ": traced Σ differs from untraced Σ (see " + OutDir +
              "/mismatch)");
      std::string File = In.Name;
      std::replace(File.begin(), File.end(), '/', '-');
      writeFile(OutDir + "/mismatch", File + ".untraced", Plain.Sigma);
      writeFile(OutDir + "/mismatch", File + ".traced", Tr.Sigma);
    }
    else if (!(Tr.Counts == Plain.Counts))
      R.wrong(In.Name + ": traced counts differ from untraced counts");
    Untraced += Plain.Seconds;
    Traced += Tr.Seconds;
    Tr.Counts.addTo(Counts);
    L.addTo(Layers);
    char Line[512];
    std::snprintf(Line, sizeof(Line),
                  "%s\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%.6f\t%llu\t%llu\t%.6f\t"
                  "%.6f\t%.6f\t%llu\t%llu\t%llu\t%llu\n",
                  In.Name.c_str(), Plain.Seconds, Tr.Seconds, L.Parse, L.Sema,
                  L.Invariant, L.InvariantBackend,
                  static_cast<unsigned long long>(L.HoudiniRounds),
                  static_cast<unsigned long long>(L.Candidates), L.Place,
                  L.PlaceBackend, L.Emit,
                  static_cast<unsigned long long>(L.BackendCalls),
                  static_cast<unsigned long long>(Tr.Counts.HoareChecks),
                  static_cast<unsigned long long>(Tr.Counts.SolverQueries),
                  static_cast<unsigned long long>(Tr.Counts.Terms));
    Rows += Line;
    std::printf("%-40s %9.4f %9.4f %8.4f %8.4f %8.4f %8.4f %8llu\n",
                In.Name.c_str(), Plain.Seconds, Tr.Seconds, L.Invariant,
                L.InvariantBackend, L.Place, L.PlaceBackend,
                static_cast<unsigned long long>(Tr.Counts.HoareChecks));
  }
  writeFile(OutDir, "rows.tsv", Rows);
  addAnalysisLayers(R.Layer, Layers, Counts);
  R.Layer["obs.trace_overhead_ratio"] = Untraced > 0 ? Traced / Untraced : 0;
  return Sigmas;
}

bool perfbench::readFile(const std::string &Path, std::string &Out) {
  std::ifstream In(Path, std::ios::binary);
  if (!In)
    return false;
  Out.assign(std::istreambuf_iterator<char>(In),
             std::istreambuf_iterator<char>());
  return true;
}

void perfbench::writeFile(const std::string &Dir, const std::string &Name,
                          const std::string &Text) {
  std::error_code Ec;
  std::filesystem::create_directories(Dir, Ec);
  std::ofstream Out(Dir + "/" + Name, std::ios::trunc);
  Out << Text;
}

//===----------------------------------------------------------------------===//
// Per-layer schema
//===----------------------------------------------------------------------===//

const std::vector<std::pair<std::string, std::string>> &
perfbench::perLayerSchema() {
  static const std::vector<std::pair<std::string, std::string>> Schema = [] {
    std::vector<std::pair<std::string, std::string>> S = {
        {"frontend.parse_s", "s"},
        {"frontend.sema_s", "s"},
        {"analysis.invariant_s", "s"},
        {"analysis.self_s", "s"},
        {"analysis.houdini_rounds", "count"},
        {"analysis.candidates", "count"},
        {"core.place_s", "s"},
        {"core.hoare_checks", "count"},
        {"core.pairs_silent", "count"},
        {"core.signals", "count"},
        {"core.broadcasts", "count"},
        {"core.unconditional", "count"},
        {"core.commutativity_wins", "count"},
        {"solver.queries", "count"},
        {"solver.memo_hit_ratio", "ratio"},
        {"solver.backend_calls", "count"},
        {"solver.backend_s", "s"},
        {"logic.terms", "count"},
        {"codegen.emit_s", "s"},
        {"persist.disk_hit_ratio", "ratio"},
        {"service.shared_hit_ratio", "ratio"},
        {"serve.cold_p50_s", "s"},
        {"serve.warm_p50_s", "s"},
        {"serve.hot_p50_s", "s"},
        {"service.queue_s", "s"},
        {"service.run_s", "s"},
        {"service.overhead_s", "s"},
        {"service.replay_hit_ratio", "ratio"},
    };
    for (const char *Engine : {"expresso", "autosynch", "explicit"}) {
      std::string P = std::string("runtime.") + Engine + ".";
      S.push_back({P + "ns_per_op", "ns"});
      S.push_back({P + "blocks_per_op", "count/op"});
      S.push_back({P + "wakeups_per_op", "count/op"});
      S.push_back({P + "spurious_per_op", "count/op"});
      S.push_back({P + "pred_evals_per_op", "count/op"});
    }
    S.push_back({"speedup_vs_autosynch", "x"});
    S.push_back({"bench.gen_late_p90_s", "s"});
    S.push_back({"obs.trace_overhead_ratio", "ratio"});
    S.push_back({"fail_ratio", "ratio"});
    return S;
  }();
  return Schema;
}

void perfbench::addAnalysisLayers(std::map<std::string, double> &Layer,
                                  const LayerTimes &T,
                                  const AnalysisCounts &C) {
  Layer["frontend.parse_s"] = T.Parse;
  Layer["frontend.sema_s"] = T.Sema;
  Layer["analysis.invariant_s"] = T.Invariant;
  Layer["analysis.self_s"] = T.Invariant - T.InvariantBackend;
  Layer["analysis.houdini_rounds"] = static_cast<double>(T.HoudiniRounds);
  Layer["analysis.candidates"] = static_cast<double>(T.Candidates);
  Layer["core.place_s"] = T.Place;
  Layer["core.hoare_checks"] = static_cast<double>(C.HoareChecks);
  Layer["core.pairs_silent"] = static_cast<double>(C.PairsSilent);
  Layer["core.signals"] = static_cast<double>(C.Signals);
  Layer["core.broadcasts"] = static_cast<double>(C.Broadcasts);
  Layer["core.unconditional"] = static_cast<double>(C.Unconditional);
  Layer["core.commutativity_wins"] = static_cast<double>(C.CommutativityWins);
  Layer["solver.queries"] = static_cast<double>(C.SolverQueries);
  uint64_t Lookups = C.MemoHits + C.MemoMisses;
  Layer["solver.memo_hit_ratio"] =
      Lookups ? static_cast<double>(C.MemoHits) / Lookups : 0;
  Layer["solver.backend_calls"] = static_cast<double>(T.BackendCalls);
  Layer["solver.backend_s"] = T.BackendSeconds;
  Layer["logic.terms"] = static_cast<double>(C.Terms);
  Layer["codegen.emit_s"] = T.Emit;
}
