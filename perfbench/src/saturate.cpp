//===- perfbench/src/saturate.cpp - The `saturate` workload ---------------===//
//
// Part of expresso-cpp's repository benchmark.
//
// Figures 8-9: the run time of the generated code. The paper's saturation
// test — threads do nothing but call the monitor — on every paper monitor
// whose worker runs at no more threads than the machine has, at the largest
// such thread count of its series. The Expresso plan, AutoSynch and the
// hand-written Explicit plan run the same fixed operation count per thread,
// interleaved cell by cell with the engine order rotated each round, so a
// slow phase of the machine hits all three alike. Plans are built during
// set-up; the timed cells do no solver work.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "bench/Harness.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <mutex>
#include <thread>

using namespace expresso;
using namespace perfbench;

namespace {

/// Operations per thread in one cell: long enough that thread start-up is
/// noise (a cell takes milliseconds), short enough for dozens of rounds.
constexpr unsigned OpsPerThread = 1000;

/// Every cell runs at least this many rounds, however short --seconds is.
/// Each monitor is scored at its fastest round: the machine's speed drifts
/// over seconds, and the best of many rounds moves far less than any one.
constexpr unsigned MinRounds = 3;

/// A cell that makes no progress for this long is a lost wakeup.
constexpr int StallLimitSeconds = 20;

constexpr bench::EngineKind Engines[] = {bench::EngineKind::Expresso,
                                         bench::EngineKind::AutoSynch,
                                         bench::EngineKind::Explicit};

struct Subject {
  const bench::BenchmarkDef *Def = nullptr;
  unsigned Threads = 0;
  std::unique_ptr<bench::BenchContext> Ctx;
};

struct CellResult {
  double Seconds = 0;
  runtime::EngineStats Stats;
  bool StateOk = true;
};

/// One saturation cell on real threads. A stalled cell means the engine
/// lost a wakeup; the threads cannot be unblocked, so the run ends there.
CellResult runCell(const Subject &S, bench::EngineKind Kind) {
  std::unique_ptr<runtime::MonitorEngine> Engine =
      S.Ctx->makeEngine(Kind, S.Threads);
  std::atomic<unsigned> Ready{0};
  std::atomic<bool> Go{false};
  std::vector<std::thread> Workers;
  for (unsigned T = 0; T < S.Threads; ++T)
    Workers.emplace_back([&, T] {
      Ready.fetch_add(1);
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      S.Def->Worker(*Engine, T, S.Threads, OpsPerThread);
    });
  while (Ready.load() != S.Threads)
    std::this_thread::yield();

  // The watchdog sleeps on a condition variable so the cell's end wakes it
  // at once instead of costing a poll interval.
  std::mutex DoneMu;
  std::condition_variable DoneCv;
  bool Done = false;
  std::thread Watchdog([&] {
    uint64_t Last = 0;
    int Stalled = 0;
    std::unique_lock<std::mutex> Lock(DoneMu);
    while (!DoneCv.wait_for(Lock, std::chrono::milliseconds(100),
                            [&] { return Done; })) {
      uint64_t Calls = Engine->stats().Calls;
      Stalled = Calls == Last ? Stalled + 1 : 0;
      Last = Calls;
      if (Stalled >= StallLimitSeconds * 10) {
        std::fprintf(stderr,
                     "perfbench: WRONG: %s / %s / %u threads made no "
                     "progress for %d s (lost wakeup)\n",
                     S.Def->Name.c_str(), bench::engineKindName(Kind),
                     S.Threads, StallLimitSeconds);
        std::fflush(stderr);
        std::_Exit(3);
      }
    }
  });

  Clock::time_point Start = Clock::now();
  Go.store(true, std::memory_order_release);
  for (std::thread &W : Workers)
    W.join();
  CellResult R;
  R.Seconds = secondsSince(Start);
  {
    std::lock_guard<std::mutex> Lock(DoneMu);
    Done = true;
  }
  DoneCv.notify_one();
  Watchdog.join();
  R.Stats = Engine->stats();
  R.StateOk = !S.Def->FinalStateOk || S.Def->FinalStateOk(Engine->snapshot());
  return R;
}

/// Per-engine accumulation over all cells.
struct EngineSeries {
  std::vector<std::vector<double>> NsPerOp; ///< [subject][round]
  runtime::EngineStats Total;
};

} // namespace

int perfbench::runSaturate(const Args &A, Report &R) {
  unsigned Cores = hardwareThreads();
  std::vector<Subject> Subjects;
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks()) {
    unsigned Threads = 0;
    for (unsigned T : Def.ThreadCounts)
      if (T <= Cores)
        Threads = std::max(Threads, T);
    if (Threads)
      Subjects.push_back({&Def, Threads, nullptr});
  }
  if (Subjects.empty()) {
    std::fprintf(stderr, "perfbench: no paper monitor runs at <= %u threads\n",
                 Cores);
    return 1;
  }

  // Set-up: analyze every monitor and build its plans. Five times: once
  // here and four times spread over the timed rounds below (between
  // rounds, outside any cell). Five set-ups in a row at process start
  // shared that moment's machine speed, and their median moved by a third
  // between sets of runs; spread over the run it samples the whole run.
  constexpr unsigned SetupReps = 5;
  std::vector<double> SetupTimes;
  auto SetUp = [&] {
    Clock::time_point T = Clock::now();
    for (Subject &S : Subjects)
      S.Ctx = std::make_unique<bench::BenchContext>(*S.Def,
                                                    core::PlacementOptions());
    SetupTimes.push_back(secondsSince(T));
  };
  SetUp();
  std::string Manifest;
  for (const Subject &S : Subjects)
    Manifest += S.Def->Name + "\t" + std::to_string(S.Threads) +
                " threads\t" + std::to_string(OpsPerThread) +
                " ops/thread\n";
  writeFile(A.OutDir, "inputs.tsv", Manifest);

  if (A.Trace) {
    // The plans' analysis, traced against its untraced twin; Σ must also
    // equal the plan the cells below execute.
    std::vector<SpecInput> Inputs;
    for (const Subject &S : Subjects)
      Inputs.push_back({"paper/" + S.Def->Name, S.Def->Source,
                        solver::SolverKind::Default, "cpp",
                        S.Ctx->placement().decisionSummary()});
    profileInputs(Inputs, R, A.OutDir);
  }

  // Timed rounds: every subject, every engine, the engine order rotated
  // each round from a seeded start. Between rounds, outside any cell, one
  // monitor's plan is analyzed again through the CLI pipeline (in turn), so
  // the analysis rate is each monitor's fastest of several analyses spread
  // over the whole run rather than of a burst during set-up.
  std::vector<double> BestAnalysis(Subjects.size(), 0);
  std::vector<uint64_t> Checks(Subjects.size(), 0);
  std::vector<EngineSeries> Series(3);
  for (EngineSeries &E : Series)
    E.NsPerOp.resize(Subjects.size());
  size_t ExpressoCells = 0;
  Clock::time_point Start = Clock::now();
  for (unsigned Round = 0; Round < MinRounds || secondsSince(Start) < A.Seconds;
       ++Round) {
    for (size_t SI = 0; SI < Subjects.size(); ++SI) {
      for (unsigned J = 0; J < 3; ++J) {
        unsigned EI = (J + Round + A.Seed) % 3;
        const Subject &S = Subjects[SI];
        ++R.Attempted;
        CellResult Cell = runCell(S, Engines[EI]);
        if (!Cell.StateOk || Cell.Stats.Calls == 0) {
          R.wrong(S.Def->Name + " / " + bench::engineKindName(Engines[EI]) +
                  ": final state check failed");
          continue;
        }
        double Calls = static_cast<double>(Cell.Stats.Calls);
        // JMH-style average time per operation under N threads.
        Series[EI].NsPerOp[SI].push_back(Cell.Seconds * S.Threads / Calls *
                                         1e9);
        ExpressoCells += EI == 0;
        runtime::EngineStats &T = Series[EI].Total;
        T.Calls += Cell.Stats.Calls;
        T.Blocks += Cell.Stats.Blocks;
        T.Wakeups += Cell.Stats.Wakeups;
        T.SpuriousWakeups += Cell.Stats.SpuriousWakeups;
        T.PredicateEvals += Cell.Stats.PredicateEvals;
      }
    }
    size_t SI = Round % Subjects.size();
    PipelineRun Run = runPipeline(Subjects[SI].Def->Source,
                                  solver::SolverKind::Default, "cpp", false);
    if (!Run.Ok ||
        Run.Sigma != Subjects[SI].Ctx->placement().decisionSummary()) {
      R.wrong(Subjects[SI].Def->Name + ": re-analysis changed Σ");
      continue;
    }
    if (BestAnalysis[SI] == 0 || Run.Seconds < BestAnalysis[SI])
      BestAnalysis[SI] = Run.Seconds;
    Checks[SI] = Run.Counts.HoareChecks;
    if (SetupTimes.size() < SetupReps &&
        secondsSince(Start) >= A.Seconds * SetupTimes.size() / SetupReps)
      SetUp();
  }
  while (SetupTimes.size() < SetupReps)
    SetUp();
  double CheckSum = 0, AnalysisSum = 0;
  for (size_t SI = 0; SI < Subjects.size(); ++SI) {
    CheckSum += static_cast<double>(Checks[SI]);
    AnalysisSum += BestAnalysis[SI];
  }

  // Per-subject best cell (the fastest round), then geometric means over
  // subjects.
  std::vector<double> Geo(3);
  std::vector<double> Speedups;
  std::string Rows = "monitor\tthreads\texpresso_ns\tautosynch_ns\t"
                     "explicit_ns\n";
  std::printf("%-26s %7s %12s %12s %12s\n", "monitor", "threads",
              "expresso_ns", "autosynch_ns", "explicit_ns");
  std::vector<std::vector<double>> Best(3);
  for (size_t SI = 0; SI < Subjects.size(); ++SI) {
    double M[3];
    for (unsigned EI = 0; EI < 3; ++EI) {
      const std::vector<double> &V = Series[EI].NsPerOp[SI];
      M[EI] = V.empty() ? 0 : *std::min_element(V.begin(), V.end());
      Best[EI].push_back(M[EI]);
    }
    Speedups.push_back(M[1] / M[0]);
    char Line[256];
    std::snprintf(Line, sizeof(Line), "%s\t%u\t%.2f\t%.2f\t%.2f\n",
                  Subjects[SI].Def->Name.c_str(), Subjects[SI].Threads, M[0],
                  M[1], M[2]);
    Rows += Line;
    std::printf("%-26s %7u %12.1f %12.1f %12.1f\n",
                Subjects[SI].Def->Name.c_str(), Subjects[SI].Threads, M[0],
                M[1], M[2]);
  }
  writeFile(A.OutDir, A.Trace ? "runtime_rows.tsv" : "rows.tsv", Rows);
  for (unsigned EI = 0; EI < 3; ++EI)
    Geo[EI] = geomean(Best[EI]);
  double Speedup = geomean(Speedups);

  if (A.Trace) {
    for (unsigned EI = 0; EI < 3; ++EI) {
      const runtime::EngineStats &T = Series[EI].Total;
      double Calls = T.Calls ? static_cast<double>(T.Calls) : 1;
      std::string P =
          std::string("runtime.") + bench::engineKindName(Engines[EI]) + ".";
      R.Layer[P + "ns_per_op"] = Geo[EI];
      R.Layer[P + "blocks_per_op"] = T.Blocks / Calls;
      R.Layer[P + "wakeups_per_op"] = T.Wakeups / Calls;
      R.Layer[P + "spurious_per_op"] = T.SpuriousWakeups / Calls;
      R.Layer[P + "pred_evals_per_op"] = T.PredicateEvals / Calls;
    }
    R.Layer["speedup_vs_autosynch"] = Speedup;
    return 0;
  }

  std::printf("speedup_vs_autosynch (geomean over %zu monitors): %.4f\n",
              Subjects.size(), Speedup);
  // Latency of one monitor call (wall per call per thread, the fastest
  // Expresso cell's ns/op in seconds), with quantiles over monitors.
  std::vector<double> CallSeconds;
  for (double Ns : Best[0])
    CallSeconds.push_back(Ns * 1e-9);
  R.add("latency_p50_s", quantile(CallSeconds, 0.5), "s", CallSeconds.size());
  R.add("latency_p90_s", quantile(CallSeconds, 0.9), "s", CallSeconds.size());
  R.add("checks_per_s", AnalysisSum > 0 ? CheckSum / AnalysisSum : 0, "1/s",
        Subjects.size());
  R.add("ns_per_op", Geo[0], "ns", ExpressoCells);
  R.add("setup_s", median(SetupTimes), "s", SetupTimes.size());
  R.add("peak_rss_mb", peakRssMb(), "MB", 1);
  return 0;
}
