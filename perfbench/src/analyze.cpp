//===- perfbench/src/analyze.cpp - The `analyze` workload -----------------===//
//
// Part of expresso-cpp's repository benchmark.
//
// Table 1: the compile latency a developer waits for. A closed loop with
// one caller runs the CLI's cold pipeline on each input in a fresh
// TermContext. The inputs are a specgen draw stratified over CCR count,
// guard shape and fan-in, and the 14 paper monitors. The two 100+-CCR
// corpus monitors join them in the traced run only: together they take
// 8.7 s, most of a timed run, for two samples. Service, persistence and the
// runtime engines are bypassed.
//
// The draw is pinned, and the seed only orders the loop. Analysis time per
// spec is heavy-tailed: drawing the specs from the seed moved the median
// latency by a third from one seed to the next, far more than any bound a
// regression could be judged against.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "bench/Workloads.h"
#include "specgen/SpecGen.h"
#include "support/Rng.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>

using namespace expresso;
using namespace perfbench;

namespace {

/// One stratum of the draw: PerCell specs of this shape.
struct Stratum {
  unsigned Ccrs;
  specgen::GuardShape Shape;
  unsigned FanIn;
  unsigned PerCell;
};

/// Small-to-medium monitors, weighted towards the cheap ones so that one
/// pass takes a few seconds. Fan-in 1 spans every guard shape. Fan-in 2
/// keeps to comparison and boolean guards: with arithmetic or mixed guards
/// its analysis time has a tail of seconds to minutes.
std::vector<Stratum> strata() {
  const specgen::GuardShape AllShapes[] = {
      specgen::GuardShape::Comparison, specgen::GuardShape::Arithmetic,
      specgen::GuardShape::Boolean, specgen::GuardShape::Mixed};
  std::vector<Stratum> S;
  for (auto [Ccrs, PerCell] : {std::pair{2u, 10u}, {3u, 8u}, {4u, 2u}})
    for (specgen::GuardShape Shape : AllShapes)
      S.push_back({Ccrs, Shape, 1, PerCell});
  for (specgen::GuardShape Shape :
       {specgen::GuardShape::Comparison, specgen::GuardShape::Boolean})
    S.push_back({2, Shape, 2, 5});
  return S;
}

std::string expectedPath(const std::string &DataDir, const std::string &Name) {
  std::string File = Name;
  std::replace(File.begin(), File.end(), '/', '-');
  return DataDir + "/expected/" + File + ".sigma";
}

/// The paper monitors and, when \p Corpus is set, the corpus copies kept
/// with the benchmark.
void addFixedInputs(const std::string &DataDir, bool WithCorpus,
                    std::vector<SpecInput> &In) {
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
    In.push_back({"paper/" + Def.Name, Def.Source});
  if (!WithCorpus)
    return;
  std::vector<std::filesystem::path> Corpus;
  std::error_code Ec;
  for (const auto &E :
       std::filesystem::directory_iterator(DataDir + "/inputs", Ec))
    if (E.path().extension() == ".mon")
      Corpus.push_back(E.path());
  std::sort(Corpus.begin(), Corpus.end());
  for (const std::filesystem::path &P : Corpus) {
    SpecInput S;
    S.Name = "corpus/" + P.stem().string();
    readFile(P.string(), S.Source);
    In.push_back(std::move(S));
  }
}

/// Builds the input list with each input's expected Σ loaded; \p Manifest
/// receives one line per input (specgen configs in full, so any input can
/// be regenerated).
std::vector<SpecInput> buildInputs(const std::string &DataDir, bool WithCorpus,
                                   std::string &Manifest) {
  std::vector<SpecInput> In;
  Manifest.clear();
  std::vector<Stratum> Strata = strata();
  for (size_t I = 0; I < Strata.size(); ++I) {
    for (unsigned K = 0; K < Strata[I].PerCell; ++K) {
      specgen::GenConfig Cfg;
      Cfg.Seed = 1 + I * 16 + K;
      Cfg.Ccrs = Strata[I].Ccrs;
      Cfg.Shape = Strata[I].Shape;
      Cfg.FanIn = Strata[I].FanIn;
      Cfg.normalize();
      SpecInput S;
      S.Name = "gen/c" + std::to_string(Cfg.Ccrs) + "-" +
               specgen::guardShapeName(Cfg.Shape) + "-f" +
               std::to_string(Cfg.FanIn) + "-" + std::to_string(K);
      S.Source = specgen::generateMonitorSource(Cfg);
      Manifest += S.Name + "\tspecgen --config=" +
                  specgen::configToString(Cfg) + "\n";
      In.push_back(std::move(S));
    }
  }
  addFixedInputs(DataDir, WithCorpus, In);
  for (SpecInput &S : In) {
    readFile(expectedPath(DataDir, S.Name), S.Expected);
    if (S.Name.rfind("gen/", 0) != 0)
      Manifest += S.Name + "\n";
  }
  return In;
}

} // namespace

int perfbench::blessAnalyze(const std::string &DataDir) {
  std::string Manifest;
  for (const SpecInput &S : buildInputs(DataDir, true, Manifest)) {
    PipelineRun Run = runPipeline(S.Source, S.Kind, S.Emit, true);
    if (!Run.Ok || !Run.InvariantVerified) {
      std::fprintf(stderr, "%s: cannot bless (%s)\n", S.Name.c_str(),
                   Run.Error.c_str());
      return 1;
    }
    std::string Path = expectedPath(DataDir, S.Name);
    std::filesystem::path P(Path);
    writeFile(P.parent_path().string(), P.filename().string(), Run.Sigma);
    std::printf("wrote %s\n", Path.c_str());
  }
  return 0;
}

int perfbench::runAnalyze(const Args &A, Report &R) {
  // Set-up: generating the draw, loading the fixed inputs and one warm-up
  // analysis of each paper monitor, so that the timed passes start warm.
  // Loading alone takes about a millisecond, and its speed differed by up
  // to 1.7x between processes on the tuning machine; with the warm-up,
  // set-up has the steadier scale of the analyses it precedes. Five times:
  // once here and four times spread over the passes below, so that the
  // median samples the whole run rather than the moment of process start.
  constexpr unsigned SetupReps = 5;
  std::vector<double> SetupTimes;
  std::string Manifest;
  auto SetUp = [&] {
    Clock::time_point T = Clock::now();
    std::vector<SpecInput> In = buildInputs(A.DataDir, A.Trace, Manifest);
    for (const SpecInput &S : In)
      if (S.Name.rfind("paper/", 0) == 0)
        runPipeline(S.Source, S.Kind, S.Emit, false);
    SetupTimes.push_back(secondsSince(T));
    return In;
  };
  std::vector<SpecInput> Inputs = SetUp();
  writeFile(A.OutDir, "inputs.tsv", Manifest);
  for (const SpecInput &S : Inputs)
    if (S.Source.empty() || S.Expected.empty()) {
      std::fprintf(stderr, "perfbench: input %s or its expected Σ is "
                           "missing\n",
                   S.Name.c_str());
      return 1;
    }

  if (A.Trace) {
    profileInputs(Inputs, R, A.OutDir);
    return 0;
  }

  // Timed closed loop: whole passes over the input list, each in a seeded
  // order, until --seconds of analysis time and at least three passes. An
  // input's latency is its fastest pass: this machine's speed drifts by a
  // quarter over seconds, while the fastest of three repeats moves little.
  // The first pass also re-verifies each invariant and compares Σ with the
  // expected files; later passes must repeat the first pass's Σ.
  constexpr unsigned MinPasses = 3;
  std::vector<double> Best(Inputs.size(), 0);
  std::vector<uint64_t> Checks(Inputs.size(), 0);
  std::string Rows = "pass\tinput\tseconds\thoare_checks\n";
  std::vector<std::string> FirstSigma(Inputs.size());
  double Busy = 0;
  unsigned Passes = 0;
  Rng Shuffle(A.Seed);
  for (; Passes < MinPasses || Busy < A.Seconds; ++Passes) {
    std::vector<size_t> Order(Inputs.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Shuffle.below(I)]);
    for (size_t Idx : Order) {
      const SpecInput &In = Inputs[Idx];
      ++R.Attempted;
      PipelineRun Run = runPipeline(In.Source, In.Kind, In.Emit, Passes == 0);
      if (!Run.Ok) {
        R.wrong(In.Name + ": " + Run.Error);
        continue;
      }
      Busy += Run.Seconds;
      if (Passes == 0 || Run.Seconds < Best[Idx])
        Best[Idx] = Run.Seconds;
      Checks[Idx] = Run.Counts.HoareChecks;
      char Row[256];
      std::snprintf(Row, sizeof(Row), "%u\t%s\t%.6f\t%llu\n", Passes,
                    In.Name.c_str(), Run.Seconds,
                    static_cast<unsigned long long>(Run.Counts.HoareChecks));
      Rows += Row;
      if (Passes == 0) {
        FirstSigma[Idx] = Run.Sigma;
        if (!Run.InvariantVerified)
          R.wrong(In.Name + ": inferred invariant fails re-verification");
        else if (Run.Sigma != In.Expected)
          R.wrong(In.Name + ": Σ differs from the expected file");
      } else if (Run.Sigma != FirstSigma[Idx]) {
        R.wrong(In.Name + ": Σ changed between passes");
      }
    }
    if (SetupTimes.size() < SetupReps &&
        Busy >= A.Seconds * SetupTimes.size() / SetupReps)
      SetUp();
  }
  while (SetupTimes.size() < SetupReps)
    SetUp();
  writeFile(A.OutDir, "rows.tsv", Rows);

  double BestSum = 0, CheckSum = 0;
  for (size_t I = 0; I < Inputs.size(); ++I) {
    BestSum += Best[I];
    CheckSum += static_cast<double>(Checks[I]);
  }
  size_t N = Best.size();
  std::printf("%zu inputs, %u passes, %.2f s of analysis\n", N, Passes, Busy);
  R.add("latency_p50_s", quantile(Best, 0.5), "s", N);
  R.add("latency_p90_s", quantile(Best, 0.9), "s", N);
  R.add("checks_per_s", CheckSum / BestSum, "1/s", N);
  R.add("ns_per_op", BestSum / N * 1e9, "ns", N);
  R.add("setup_s", median(SetupTimes), "s", SetupTimes.size());
  R.add("peak_rss_mb", peakRssMb(), "MB", 1);
  return 0;
}
