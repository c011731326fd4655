//===- tests/ParallelPlacementTest.cpp - Parallel engine tests ----------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// The parallel placement engine's contract: for every benchmark workload and
// any worker count, the fanned-out Algorithm 1 produces bit-for-bit the
// serial Σ — decisions, conditionality, and broadcast bits — and stats
// totals (Hoare checks, solver queries, cache hits/misses) equal to the
// serial run's. Also covers the support::ThreadPool and the sharded
// single-flight CachingSolver under concurrency. This suite carries the
// "parallel" ctest label and is the TSan CI gate.
//
//===----------------------------------------------------------------------===//

#include "bench/Workloads.h"
#include "core/SignalPlacement.h"
#include "frontend/Parser.h"
#include "solver/CachingSolver.h"
#include "solver/SolverSession.h"
#include "support/ThreadPool.h"

#include "tests/TestUtil.h"

#include <gtest/gtest.h>

#include <atomic>
#include <thread>
#include <vector>

using namespace expresso;
using namespace expresso::logic;
using namespace expresso::solver;

namespace {

//===----------------------------------------------------------------------===//
// ThreadPool
//===----------------------------------------------------------------------===//

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  support::ThreadPool Pool(4);
  EXPECT_EQ(Pool.size(), 4u);
  std::vector<std::atomic<int>> Hits(1000);
  Pool.parallelFor(Hits.size(), [&](unsigned WorkerId, size_t Index) {
    EXPECT_LT(WorkerId, 4u);
    Hits[Index].fetch_add(1);
  });
  for (const std::atomic<int> &H : Hits)
    EXPECT_EQ(H.load(), 1);
}

TEST(ThreadPoolTest, ReusableAcrossBatches) {
  support::ThreadPool Pool(3);
  for (int Batch = 0; Batch < 5; ++Batch) {
    std::atomic<size_t> Sum{0};
    Pool.parallelFor(100, [&](unsigned, size_t Index) {
      Sum.fetch_add(Index + 1);
    });
    EXPECT_EQ(Sum.load(), 5050u);
  }
}

TEST(ThreadPoolTest, EmptyBatchAndZeroWorkers) {
  support::ThreadPool Pool(2);
  Pool.parallelFor(0, [&](unsigned, size_t) { FAIL(); });

  // A pool without threads degrades to an inline loop on the caller.
  support::ThreadPool Inline(0);
  EXPECT_EQ(Inline.size(), 0u);
  size_t Count = 0;
  Inline.parallelFor(7, [&](unsigned WorkerId, size_t) {
    EXPECT_EQ(WorkerId, 0u);
    ++Count;
  });
  EXPECT_EQ(Count, 7u);
}

TEST(ThreadPoolTest, MoreWorkersThanItems) {
  support::ThreadPool Pool(8);
  std::atomic<int> Ran{0};
  Pool.parallelFor(2, [&](unsigned, size_t) { Ran.fetch_add(1); });
  EXPECT_EQ(Ran.load(), 2);
}

//===----------------------------------------------------------------------===//
// Sharded single-flight CachingSolver
//===----------------------------------------------------------------------===//

TEST(ShardedCacheTest, ConcurrentLookupsCountLikeSerial) {
  TermContext C;
  Rng R(0xBEEF);
  testutil::FormulaGen Gen(C, R);

  // A fixed pool of formulas queried many times from many threads: misses
  // must equal the number of distinct formulas (single-flight — first ask
  // computes, everyone else hits), exactly as a serial replay would count.
  std::vector<const Term *> Formulas;
  for (int I = 0; I < 12; ++I)
    Formulas.push_back(Gen.randomFormula(3));

  CachingSolver Cache(createSolver(SolverKind::Mini, C));
  constexpr unsigned NumThreads = 8;
  constexpr unsigned RoundsPerThread = 25;
  // One session per worker thread, each over its own private backend.
  std::vector<std::unique_ptr<SmtSolver>> Backends =
      mintWorkerBackends(C, SolverFactory(SolverKind::Mini), NumThreads);
  ASSERT_EQ(Backends.size(), NumThreads);
  std::vector<std::unique_ptr<SolverSession>> Sessions;
  for (unsigned T = 0; T < NumThreads; ++T)
    Sessions.push_back(std::make_unique<SolverSession>(&Cache, *Backends[T]));

  // Reference answers from an undecorated backend, before the hammer.
  auto Reference = createSolver(SolverKind::Mini, C);
  std::vector<Answer> Expected;
  for (const Term *F : Formulas)
    Expected.push_back(Reference->checkSat(F).TheAnswer);

  std::vector<std::thread> Threads;
  std::atomic<bool> Mismatch{false};
  for (unsigned T = 0; T < NumThreads; ++T) {
    Threads.emplace_back([&, T] {
      for (unsigned Round = 0; Round < RoundsPerThread; ++Round)
        for (size_t I = 0; I < Formulas.size(); ++I) {
          Answer A =
              Sessions[T]->absoluteSolver().checkSat(Formulas[I]).TheAnswer;
          if (A != Expected[I])
            Mismatch.store(true);
        }
    });
  }
  for (std::thread &Th : Threads)
    Th.join();

  EXPECT_FALSE(Mismatch.load());
  CacheStats S = Cache.stats();
  EXPECT_EQ(S.Misses, Formulas.size());
  EXPECT_EQ(S.lookups(), NumThreads * RoundsPerThread * Formulas.size());
  EXPECT_EQ(Cache.cacheSize(), Formulas.size());
  // Per-worker query counts sum to the shared total.
  uint64_t PerWorker = 0;
  for (const auto &Session : Sessions)
    PerWorker += Session->numQueries();
  EXPECT_EQ(PerWorker, S.lookups());
}

TEST(ShardedCacheTest, SessionRejectsForeignContext) {
  // mintWorkerBackends is the only producer of worker backends: a factory
  // that mints into another context, or no factory at all, yields none.
  TermContext C1, C2;
  CachingSolver Cache(createSolver(SolverKind::Mini, C1));
  SolverFactory Foreign([&C2](TermContext &) {
    return createSolver(SolverKind::Mini, C2);
  });
  EXPECT_TRUE(mintWorkerBackends(C1, Foreign, 2).empty());
  EXPECT_TRUE(mintWorkerBackends(C1, SolverFactory(), 2).empty());
  std::vector<std::unique_ptr<SmtSolver>> Backends =
      mintWorkerBackends(C1, SolverFactory(SolverKind::Mini), 2);
  ASSERT_EQ(Backends.size(), 2u);
  SolverSession Session(&Cache, *Backends[0]);
  EXPECT_EQ(Session.absoluteSolver().checkSat(C1.getTrue()).TheAnswer,
            Answer::Sat);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  // The primary solver now hits the entry the session populated.
  EXPECT_EQ(Cache.checkSat(C1.getTrue()).TheAnswer, Answer::Sat);
  EXPECT_EQ(Cache.stats().Hits, 1u);
}

//===----------------------------------------------------------------------===//
// Parallel placement vs serial placement
//===----------------------------------------------------------------------===//

struct PlacementRun {
  std::string Decisions;
  std::string FullSummary;
  core::PlacementStats Stats;
};

PlacementRun runPlacement(const bench::BenchmarkDef &Def, unsigned Jobs,
                          bool Cache) {
  TermContext C;
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(Def.Source, Diags);
  EXPECT_NE(M, nullptr) << Diags.str();
  auto Sema = frontend::analyze(*M, C, Diags);
  EXPECT_NE(Sema, nullptr) << Diags.str();
  auto Solver = solver::createSolver(SolverKind::Mini, C);
  core::PlacementOptions Opts;
  Opts.CacheQueries = Cache;
  Opts.Jobs = Jobs;
  Opts.WorkerSolvers = SolverFactory(SolverKind::Mini);
  core::PlacementResult P = core::placeSignals(C, *Sema, *Solver, Opts);
  // The engine clamps the worker count to the number of CCRs.
  if (Jobs > 1) {
    EXPECT_LE(P.Stats.JobsUsed, Jobs) << Def.Name;
    EXPECT_LE(P.Stats.JobsUsed, Sema->Ccrs.size()) << Def.Name;
  }
  return {P.decisionSummary(), P.summary(), P.Stats};
}

/// The tentpole contract, asserted per benchmark workload: parallel Σ is the
/// serial Σ bit-for-bit, and stats totals agree query-for-query.
class ParallelPlacementTest : public ::testing::TestWithParam<std::string> {};

TEST_P(ParallelPlacementTest, FourJobsMatchSerial) {
  const bench::BenchmarkDef *Def = bench::findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  PlacementRun Serial = runPlacement(*Def, 1, /*Cache=*/true);
  PlacementRun Par = runPlacement(*Def, 4, /*Cache=*/true);

  // Σ: decisions, conditionality, broadcast bits — byte-identical.
  EXPECT_EQ(Par.Decisions, Serial.Decisions);
  // The full summary includes the stats trailer (queries, hit/miss): the
  // single-flight cache makes even those counters deterministic.
  EXPECT_EQ(Par.FullSummary, Serial.FullSummary);

  // Every counter, the (zero, storeless) shared pair included.
  EXPECT_EQ(Par.Stats.counts(), Serial.Stats.counts());

  // Per-worker accounting reconciles with the totals (absent only when the
  // pair count clamped the fan-out back to serial).
  if (Par.Stats.JobsUsed > 1) {
    EXPECT_EQ(Par.Stats.Workers.size(), Par.Stats.JobsUsed);
    uint64_t Pairs = 0;
    for (const core::WorkerStats &W : Par.Stats.Workers)
      Pairs += W.Pairs;
    EXPECT_EQ(Pairs, Par.Stats.PairsConsidered);
  }
}

TEST_P(ParallelPlacementTest, CacheOffParityHolds) {
  const bench::BenchmarkDef *Def = bench::findBenchmark(GetParam());
  ASSERT_NE(Def, nullptr);
  PlacementRun Serial = runPlacement(*Def, 1, /*Cache=*/false);
  PlacementRun Par = runPlacement(*Def, 3, /*Cache=*/false);
  EXPECT_EQ(Par.Decisions, Serial.Decisions);
  EXPECT_EQ(Par.Stats.counts(), Serial.Stats.counts());
  EXPECT_EQ(Par.Stats.Cache.lookups(), 0u);
  EXPECT_EQ(Serial.Stats.Cache.lookups(), 0u);
}

std::vector<std::string> allBenchmarkNames() {
  std::vector<std::string> Names;
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
    Names.push_back(Def.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, ParallelPlacementTest,
                         ::testing::ValuesIn(allBenchmarkNames()),
                         [](const auto &Info) { return Info.param; });

TEST(ParallelPlacementDeterminismTest, RepeatedParallelRunsAgree) {
  const bench::BenchmarkDef *Def = bench::findBenchmark("ReadersWriters");
  ASSERT_NE(Def, nullptr);
  PlacementRun First = runPlacement(*Def, 4, /*Cache=*/true);
  for (int Round = 0; Round < 3; ++Round) {
    PlacementRun Again = runPlacement(*Def, 4, /*Cache=*/true);
    EXPECT_EQ(Again.FullSummary, First.FullSummary);
  }
}

TEST(ParallelPlacementDeterminismTest, JobsCappedAtCcrCount) {
  // The fan-out unit is the CCR: --jobs 4 on the 3-CCR AsyncDispatch runs
  // three workers, each with its own accounting, and Σ does not move.
  const bench::BenchmarkDef *Def = bench::findBenchmark("AsyncDispatch");
  ASSERT_NE(Def, nullptr);
  PlacementRun Serial = runPlacement(*Def, 1, /*Cache=*/true);
  PlacementRun Par = runPlacement(*Def, 4, /*Cache=*/true);
  EXPECT_EQ(Par.Stats.JobsUsed, 3u);
  ASSERT_EQ(Par.Stats.Workers.size(), 3u);
  EXPECT_EQ(Par.Decisions, Serial.Decisions);
  EXPECT_EQ(Par.FullSummary, Serial.FullSummary);
}

TEST(ParallelPlacementDeterminismTest, InvalidFactoryFallsBackToSerial) {
  const bench::BenchmarkDef *Def = bench::findBenchmark("BoundedBuffer");
  ASSERT_NE(Def, nullptr);
  TermContext C;
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(Def->Source, Diags);
  auto Sema = frontend::analyze(*M, C, Diags);
  auto Solver = solver::createSolver(SolverKind::Mini, C);
  core::PlacementOptions Opts;
  Opts.Jobs = 4; // requested, but no WorkerSolvers factory configured
  core::PlacementResult P = core::placeSignals(C, *Sema, *Solver, Opts);
  EXPECT_EQ(P.Stats.JobsUsed, 1u);
  EXPECT_TRUE(P.Stats.Workers.empty());
}

} // namespace
