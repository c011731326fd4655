//===- bench/Harness.cpp - Saturation-test harness ------------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include "logic/Printer.h"
#include "persist/QueryStore.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

using namespace expresso;
using namespace expresso::bench;
using namespace expresso::runtime;

const char *bench::engineKindName(EngineKind K) {
  switch (K) {
  case EngineKind::Expresso:
    return "expresso";
  case EngineKind::AutoSynch:
    return "autosynch";
  case EngineKind::Explicit:
    return "explicit";
  case EngineKind::Naive:
    return "naive";
  }
  return "?";
}

HarnessOptions HarnessOptions::fromArgs(int Argc, char **Argv) {
  HarnessOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strcmp(Arg, "--quick") == 0) {
      Opts.Quick = true;
      Opts.TargetTotalCycles = 3000;
      Opts.MaxThreads = 16;
    } else if (std::strncmp(Arg, "--cycles=", 9) == 0) {
      Opts.TargetTotalCycles = static_cast<unsigned>(std::atoi(Arg + 9));
    } else if (std::strncmp(Arg, "--max-threads=", 14) == 0) {
      Opts.MaxThreads = static_cast<unsigned>(std::atoi(Arg + 14));
    } else if (std::strncmp(Arg, "--reps=", 7) == 0) {
      Opts.Repetitions = static_cast<unsigned>(std::atoi(Arg + 7));
    } else if (std::strcmp(Arg, "--naive") == 0) {
      Opts.IncludeNaive = true;
    } else if (std::string Error; driver::parsePlacementFlag(
                   Argc, Argv, I, Opts.Placement, Error)) {
      if (!Error.empty())
        std::fprintf(stderr, "%s; ignored\n", Error.c_str());
    } else if (std::strncmp(Arg, "--json=", 7) == 0) {
      Opts.JsonPath = Arg + 7;
    } else if (std::strncmp(Arg, "--cache-dir=", 12) == 0) {
      Opts.CacheDir = Arg + 12;
    } else if (std::strcmp(Arg, "--cache-readonly") == 0) {
      Opts.CacheReadOnly = true;
    } else if (std::strncmp(Arg, "--corpus=", 9) == 0) {
      Opts.CorpusDir = Arg + 9;
    } else if (std::strncmp(Arg, "--build-jobs=", 13) == 0) {
      if (unsigned N = driver::parseJobs(Arg + 13))
        Opts.BuildJobs = N;
      else
        std::fprintf(stderr,
                     "--build-jobs expects a positive count or \"auto\" "
                     "(got '%s'); ignored\n",
                     Arg + 13);
    } else {
      std::fprintf(stderr, "unknown option: %s\n", Arg);
    }
  }
  return Opts;
}

/// Opens the persistent query store named by --cache-dir (null when unset,
/// unopenable, or pointless because caching is off). Keyed to the default
/// backend's profile — the harness always analyzes with
/// SolverKind::Default — so a directory warmed by one solver never answers
/// for another.
static std::shared_ptr<persist::QueryStore>
openHarnessStore(const HarnessOptions &Opts) {
  return persist::QueryStore::openReportingWarnings(
      Opts.CacheDir, Opts.CacheReadOnly, solver::defaultSolverName(),
      Opts.Placement.CacheQueries);
}

BenchContext::BenchContext(const BenchmarkDef &Def,
                           const core::PlacementOptions &Opts,
                           std::shared_ptr<persist::QueryStore> Store)
    : Def(Def) {
  WallTimer Timer;
  if (!Comp.frontend(Def.Source)) {
    std::fprintf(stderr, "benchmark %s failed %s:\n%s\n", Def.Name.c_str(),
                 Comp.parsed() ? "sema" : "to parse",
                 Comp.diagnostics().c_str());
    std::abort();
  }
  Comp.place(solver::SolverKind::Default, Opts,
             [&](const std::string &) { return Store; });
  AnalysisSeconds = Timer.elapsedSeconds();
  ExpressoPlan = SignalPlan::fromPlacement(Comp.result());
  GoldPlan = Def.GoldPlan(sema());
  GoldPlan.LazyBroadcast = Opts.LazyBroadcast;
}

std::unique_ptr<MonitorEngine> BenchContext::makeEngine(EngineKind Kind,
                                                        unsigned Threads) const {
  logic::Assignment Config = Def.Config(Threads);
  switch (Kind) {
  case EngineKind::Expresso:
    return createExplicitEngine(sema(), ExpressoPlan, Config);
  case EngineKind::Explicit:
    return createExplicitEngine(sema(), GoldPlan, Config);
  case EngineKind::AutoSynch:
    return createAutoSynchEngine(sema(), Config);
  case EngineKind::Naive:
    return createNaiveEngine(sema(), Config);
  }
  return nullptr;
}

CellResult bench::runCell(const BenchmarkDef &Def, const BenchContext &Ctx,
                          EngineKind Kind, unsigned Threads,
                          const HarnessOptions &Opts) {
  unsigned Cycles = std::max(Opts.MinCyclesPerThread,
                             Opts.TargetTotalCycles / std::max(1u, Threads));
  CellResult Best;
  Best.MsPerOp = -1;

  for (unsigned Rep = 0; Rep < std::max(1u, Opts.Repetitions); ++Rep) {
    auto Engine = Ctx.makeEngine(Kind, Threads);
    std::atomic<unsigned> Ready{0};
    std::atomic<bool> Go{false};

    std::vector<std::thread> Workers;
    Workers.reserve(Threads);
    for (unsigned T = 0; T < Threads; ++T) {
      Workers.emplace_back([&, T] {
        Ready.fetch_add(1);
        while (!Go.load(std::memory_order_acquire))
          std::this_thread::yield();
        Def.Worker(*Engine, T, Threads, Cycles);
      });
    }
    while (Ready.load() != Threads)
      std::this_thread::yield();

    // Watchdog: abort with a diagnostic if the monitor stops progressing.
    // It sleeps on a condition variable so the cell's end wakes it at once
    // instead of costing a poll interval.
    std::mutex DoneMu;
    std::condition_variable DoneCv;
    bool Done = false;
    std::thread Watchdog([&] {
      uint64_t LastCalls = 0;
      int Stalls = 0;
      std::unique_lock<std::mutex> Lock(DoneMu);
      while (!DoneCv.wait_for(Lock, std::chrono::milliseconds(500),
                              [&] { return Done; })) {
        uint64_t Calls = Engine->stats().Calls;
        if (Calls == LastCalls) {
          if (++Stalls >= 40) {
            std::fprintf(stderr,
                         "DEADLOCK suspected: %s / %s / %u threads stuck at "
                         "%llu calls\n",
                         Def.Name.c_str(), engineKindName(Kind), Threads,
                         static_cast<unsigned long long>(Calls));
            std::abort();
          }
        } else {
          Stalls = 0;
          LastCalls = Calls;
        }
      }
    });

    WallTimer Timer;
    Go.store(true, std::memory_order_release);
    for (std::thread &W : Workers)
      W.join();
    double ElapsedMs = Timer.elapsedMillis();
    {
      std::lock_guard<std::mutex> Lock(DoneMu);
      Done = true;
    }
    DoneCv.notify_one();
    Watchdog.join();

    CellResult R;
    R.Stats = Engine->stats();
    R.TotalOps = R.Stats.Calls;
    // JMH-style average time per operation under N threads.
    R.MsPerOp = ElapsedMs * Threads / static_cast<double>(R.TotalOps);
    R.StateOk = !Def.FinalStateOk || Def.FinalStateOk(Engine->snapshot());
    if (!R.StateOk) {
      std::fprintf(stderr, "FINAL STATE CHECK FAILED: %s / %s / %u threads\n",
                   Def.Name.c_str(), engineKindName(Kind), Threads);
    }
    if (Best.MsPerOp < 0 || R.MsPerOp < Best.MsPerOp)
      Best = R;
  }
  return Best;
}

int bench::figureMain(const std::string &BenchName, int Argc, char **Argv) {
  const BenchmarkDef *Def = findBenchmark(BenchName);
  if (!Def) {
    std::fprintf(stderr, "unknown benchmark: %s\n", BenchName.c_str());
    return 1;
  }
  HarnessOptions Opts = HarnessOptions::fromArgs(Argc, Argv);
  BenchContext Ctx(*Def, Opts.Placement, openHarnessStore(Opts));

  std::printf("# %s (%s) — %s\n", Def->Name.c_str(), Def->Figure.c_str(),
              Def->Origin.c_str());
  std::printf("# ms/op (avg time per monitor operation, JMH-style), lower "
              "is better\n");
  std::printf("# invariant: %s\n",
              logic::printTerm(Ctx.placement().Invariant).c_str());
  const core::PlacementStats &PS = Ctx.placement().Stats;
  std::printf("# plan: %zu signals, %zu broadcasts, analysis %.2fs\n",
              PS.Signals, PS.Broadcasts, Ctx.analysisSeconds());
  // One header shape for every cache configuration: --no-cache reports
  // uniform zeros (suffix-flagged) instead of a different line.
  std::printf("# solver: %zu queries, %llu cache hits / %llu misses "
              "(%.0f%% hit rate), %llu disk hits / %llu disk misses%s\n",
              PS.SolverQueries,
              static_cast<unsigned long long>(PS.Cache.Hits),
              static_cast<unsigned long long>(PS.Cache.Misses),
              PS.Cache.hitRate() * 100,
              static_cast<unsigned long long>(PS.Cache.DiskHits),
              static_cast<unsigned long long>(PS.Cache.DiskMisses),
              Opts.Placement.CacheQueries ? "" : " [cache off]");
  std::printf("%-8s %12s %12s %12s%s\n", "threads", "expresso", "autosynch",
              "explicit", Opts.IncludeNaive ? "        naive" : "");

  std::vector<EngineKind> Kinds = {EngineKind::Expresso, EngineKind::AutoSynch,
                                   EngineKind::Explicit};
  if (Opts.IncludeNaive)
    Kinds.push_back(EngineKind::Naive);

  for (unsigned Threads : Def->ThreadCounts) {
    if (Opts.MaxThreads && Threads > Opts.MaxThreads)
      continue;
    std::printf("%-8u", Threads);
    for (EngineKind Kind : Kinds) {
      CellResult R = runCell(*Def, Ctx, Kind, Threads, Opts);
      std::printf(" %12.5f", R.MsPerOp);
      std::fflush(stdout);
    }
    std::printf("\n");
  }
  return 0;
}

namespace {

/// Everything one table1 row needs, computed (possibly concurrently) by
/// buildTableRow and rendered strictly in benchmark order afterwards.
struct TableRow {
  double Seconds = 0;
  core::PlacementStats S; ///< the (cold, when a store is attached) run's stats
  /// The warm rerun, measured only when a store is attached.
  double WarmSeconds = 0;
  core::PlacementStats WarmStats;
  bool WarmMatch = true;
};

/// Analyzes one benchmark at the configured options and — when a persistent
/// store is attached — reruns it warm in a *fresh* TermContext against the
/// store the first run just filled, the in-process equivalent of a second
/// process reusing the cache directory.
TableRow buildTableRow(const BenchmarkDef &Def, const HarnessOptions &Opts,
                       const std::shared_ptr<persist::QueryStore> &Store) {
  TableRow Row;
  BenchContext Cold(Def, Opts.Placement, Store);
  Row.Seconds = Cold.analysisSeconds();
  Row.S = Cold.placement().Stats;
  if (Store) {
    BenchContext Warm(Def, Opts.Placement, Store);
    Row.WarmSeconds = Warm.analysisSeconds();
    Row.WarmStats = Warm.placement().Stats;
    Row.WarmMatch = Cold.placement().decisionSummary() ==
                    Warm.placement().decisionSummary();
  }
  return Row;
}

/// Loads the --corpus directory: every *.mon file (sorted by filename for a
/// deterministic row order) becomes a synthetic table-only BenchmarkDef
/// named corpus/<stem> under figure "table_corpus". The defs carry no
/// worker/config/gold-plan content beyond what BenchContext construction
/// needs — corpus rows measure analysis time, never the runtime engines.
std::vector<BenchmarkDef> loadCorpusDefs(const std::string &Dir) {
  std::vector<BenchmarkDef> Out;
  std::error_code Ec;
  std::vector<std::filesystem::path> Paths;
  for (const auto &Entry : std::filesystem::directory_iterator(Dir, Ec))
    if (Entry.path().extension() == ".mon")
      Paths.push_back(Entry.path());
  if (Ec) {
    std::fprintf(stderr, "--corpus: cannot read %s: %s\n", Dir.c_str(),
                 Ec.message().c_str());
    return Out;
  }
  std::sort(Paths.begin(), Paths.end());
  for (const std::filesystem::path &Path : Paths) {
    std::ifstream In(Path);
    if (!In) {
      std::fprintf(stderr, "--corpus: cannot open %s\n", Path.c_str());
      continue;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    BenchmarkDef D;
    D.Name = "corpus/" + Path.stem().string();
    D.Figure = "table_corpus";
    D.Origin = "specgen stress corpus (see corpus/README.md)";
    D.Source = Buf.str();
    D.Config = [](unsigned) { return logic::Assignment{}; };
    D.GoldPlan = [](const frontend::SemaInfo &S) {
      return SignalPlanBuilder(S).build();
    };
    Out.push_back(std::move(D));
  }
  if (Out.empty())
    std::fprintf(stderr, "--corpus: no *.mon files in %s\n", Dir.c_str());
  return Out;
}

} // namespace

int bench::tableMain(int Argc, char **Argv) {
  HarnessOptions Opts = HarnessOptions::fromArgs(Argc, Argv);
  const unsigned Jobs = Opts.Placement.Jobs;
  std::shared_ptr<persist::QueryStore> Store = openHarnessStore(Opts);

  FILE *Json = nullptr;
  if (!Opts.JsonPath.empty()) {
    Json = std::fopen(Opts.JsonPath.c_str(), "w");
    if (!Json) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   Opts.JsonPath.c_str());
      return 1;
    }
    // The directory is the only user-controlled string in the artifact;
    // escape it so an exotic path cannot break the JSON.
    std::string CacheDirJson = "null";
    if (Store) {
      CacheDirJson = "\"";
      for (char Ch : Store->directory()) {
        if (Ch == '"' || Ch == '\\')
          CacheDirJson += '\\';
        CacheDirJson += Ch;
      }
      CacheDirJson += "\"";
    }
    std::fprintf(Json,
                 "{\n  \"bench\": \"table1_analysis_time\",\n"
                 "  \"jobs\": %u,\n  \"cache\": %s,\n"
                 "  \"cache_dir\": %s,\n  \"results\": [",
                 Jobs, Opts.Placement.CacheQueries ? "true" : "false",
                 CacheDirJson.c_str());
  }

  std::printf("# Table 1: compilation (analysis) time per benchmark\n");
  if (Store)
    std::printf("%-28s %10s %10s %8s %10s %9s %9s %6s\n", "benchmark",
                "cold(s)", "warm(s)", "speedup", "#checks", "diskhit",
                "diskhit%", "match");
  else
    std::printf("%-28s %12s %10s %12s %12s %10s\n", "benchmark",
                "time (sec)", "#checks", "signals", "broadcasts", "cachehit");

  // Resolve the benchmark list once, outside the fan-out (its lazy init is
  // the only shared mutable state the builds would otherwise touch).
  std::vector<const BenchmarkDef *> Defs;
  for (const BenchmarkDef &Def : allBenchmarks())
    Defs.push_back(&Def);
  std::vector<BenchmarkDef> CorpusDefs;
  if (!Opts.CorpusDir.empty()) {
    CorpusDefs = loadCorpusDefs(Opts.CorpusDir);
    for (const BenchmarkDef &Def : CorpusDefs)
      Defs.push_back(&Def);
  }
  std::vector<TableRow> Rows(Defs.size());

  // Satellite of the persistence PR (ROADMAP leftover from the parallel
  // engine): the per-benchmark context builds are independent — separate
  // TermContexts, private solvers, and a thread-safe store — so they fan
  // out across a pool. Rows land in a slot array and render in benchmark
  // order below, keeping the report (and JSON) byte-deterministic whatever
  // the completion order. A pool without threads builds inline, in order.
  unsigned BuildJobs = std::min<unsigned>(Opts.BuildJobs, Defs.size());
  support::ThreadPool Pool(BuildJobs > 1 ? BuildJobs : 0);
  Pool.parallelFor(Defs.size(), [&](unsigned, size_t I) {
    Rows[I] = buildTableRow(*Defs[I], Opts, Store);
  });

  bool FirstRow = true;
  int Exit = 0;
  for (size_t I = 0; I < Defs.size(); ++I) {
    const BenchmarkDef &Def = *Defs[I];
    const TableRow &Row = Rows[I];
    const core::PlacementStats &S = Row.S;
    if (!Row.WarmMatch)
      Exit = 1;

    if (Store) {
      std::printf("%-28s %10.2f %10.2f %7.2fx %10zu %9llu %8.0f%% %6s\n",
                  Def.Name.c_str(), Row.Seconds, Row.WarmSeconds,
                  Row.Seconds / std::max(1e-9, Row.WarmSeconds),
                  S.HoareChecks,
                  static_cast<unsigned long long>(Row.WarmStats.Cache.DiskHits),
                  Row.WarmStats.Cache.diskHitRate() * 100,
                  Row.WarmMatch ? "yes" : "NO");
    } else {
      // Cache columns print in every configuration; --no-cache rows carry
      // uniform zeros so the table (and JSON schema) keeps one shape.
      std::printf("%-28s %12.2f %10zu %12zu %12zu %10llu\n", Def.Name.c_str(),
                  Row.Seconds, S.HoareChecks, S.Signals, S.Broadcasts,
                  static_cast<unsigned long long>(S.Cache.Hits));
    }
    std::fflush(stdout);

    if (Json) {
      std::fprintf(Json,
                   "%s\n    {\"name\": \"%s\", \"figure\": \"%s\", "
                   "\"serial_seconds\": %.4f, "
                   "\"hoare_checks\": %zu, \"solver_queries\": %zu, "
                   "\"cache_hits\": %llu, \"cache_misses\": %llu, "
                   "\"disk_hits\": %llu, \"disk_misses\": %llu, "
                   "\"signals\": %zu, \"broadcasts\": %zu",
                   FirstRow ? "" : ",", Def.Name.c_str(), Def.Figure.c_str(),
                   Row.Seconds, S.HoareChecks, S.SolverQueries,
                   static_cast<unsigned long long>(S.Cache.Hits),
                   static_cast<unsigned long long>(S.Cache.Misses),
                   static_cast<unsigned long long>(S.Cache.DiskHits),
                   static_cast<unsigned long long>(S.Cache.DiskMisses),
                   S.Signals, S.Broadcasts);
      std::fprintf(Json, ", \"incremental\": %s",
                   Opts.Placement.Incremental ? "true" : "false");
      if (Store)
        std::fprintf(Json,
                     ", \"warm_seconds\": %.4f, \"warm_disk_hits\": %llu, "
                     "\"warm_disk_misses\": %llu, \"warm_match\": %s",
                     Row.WarmSeconds,
                     static_cast<unsigned long long>(
                         Row.WarmStats.Cache.DiskHits),
                     static_cast<unsigned long long>(
                         Row.WarmStats.Cache.DiskMisses),
                     Row.WarmMatch ? "true" : "false");
      std::fprintf(Json, "}");
      FirstRow = false;
    }
  }
  if (Json) {
    std::fprintf(Json, "\n  ]\n}\n");
    std::fclose(Json);
    std::printf("# wrote %s\n", Opts.JsonPath.c_str());
  }
  return Exit;
}
