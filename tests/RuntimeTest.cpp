//===- tests/RuntimeTest.cpp - Engines under real threads ---------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"
#include "bench/Workloads.h"
#include "frontend/Parser.h"
#include "runtime/Engine.h"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <tuple>

using namespace expresso;
using namespace expresso::bench;
using namespace expresso::runtime;
using logic::Assignment;
using logic::Value;

namespace {

//===----------------------------------------------------------------------===//
// Unit tests on a hand-built engine
//===----------------------------------------------------------------------===//

struct RWFixture {
  RWFixture() {
    DiagnosticEngine Diags;
    M = frontend::parseMonitor(R"(
monitor RWLock {
  int readers = 0;
  bool writerIn = false;
  void enterReader() { waituntil (!writerIn) { readers++; } }
  void exitReader()  { if (readers > 0) readers--; }
  void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
  void exitWriter()  { writerIn = false; }
}
)",
                               Diags);
    Sema = frontend::analyze(*M, C, Diags);
    Solver = solver::createSolver(solver::SolverKind::Default, C);
    Placement = core::placeSignals(C, *Sema, *Solver);
  }

  logic::TermContext C;
  std::unique_ptr<frontend::Monitor> M;
  std::unique_ptr<frontend::SemaInfo> Sema;
  std::unique_ptr<solver::SmtSolver> Solver;
  core::PlacementResult Placement;
};

TEST(RuntimeTest, SingleThreadedSequenceExplicit) {
  RWFixture F;
  auto E = createExplicitEngine(*F.Sema, SignalPlan::fromPlacement(F.Placement));
  E->call("enterReader");
  E->call("enterReader");
  EXPECT_EQ(E->snapshot().at("readers").asInt(), 2);
  E->call("exitReader");
  E->call("exitReader");
  E->call("enterWriter");
  EXPECT_TRUE(E->snapshot().at("writerIn").asBool());
  E->call("exitWriter");
  EXPECT_FALSE(E->snapshot().at("writerIn").asBool());
}

TEST(RuntimeTest, WriterBlocksUntilReadersLeave) {
  RWFixture F;
  auto E = createExplicitEngine(*F.Sema, SignalPlan::fromPlacement(F.Placement));
  E->call("enterReader");
  std::atomic<bool> WriterIn{false};
  std::thread Writer([&] {
    E->call("enterWriter");
    WriterIn.store(true);
  });
  // The writer must not enter while a reader holds the lock.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(WriterIn.load());
  E->call("exitReader");
  Writer.join();
  EXPECT_TRUE(WriterIn.load());
  EXPECT_TRUE(E->snapshot().at("writerIn").asBool());
}

TEST(RuntimeTest, BroadcastWakesAllReaders) {
  RWFixture F;
  auto E = createExplicitEngine(*F.Sema, SignalPlan::fromPlacement(F.Placement));
  E->call("enterWriter");
  constexpr int NumReaders = 6;
  std::atomic<int> ReadersIn{0};
  std::vector<std::thread> Readers;
  Readers.reserve(NumReaders);
  for (int I = 0; I < NumReaders; ++I) {
    Readers.emplace_back([&] {
      E->call("enterReader");
      ReadersIn.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(ReadersIn.load(), 0); // all blocked behind the writer
  E->call("exitWriter");
  for (std::thread &T : Readers)
    T.join();
  EXPECT_EQ(ReadersIn.load(), NumReaders);
  EXPECT_EQ(E->snapshot().at("readers").asInt(), NumReaders);
}

TEST(RuntimeTest, StatsCountBlocksAndWakeups) {
  RWFixture F;
  auto E = createExplicitEngine(*F.Sema, SignalPlan::fromPlacement(F.Placement));
  E->call("enterWriter");
  std::thread T([&] { E->call("enterWriter"); });
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  E->call("exitWriter");
  T.join();
  EngineStats S = E->stats();
  EXPECT_GE(S.Blocks, 1u);
  EXPECT_GE(S.Wakeups, 1u);
  EXPECT_EQ(S.Calls, 3u);
  E->call("exitWriter");
}

TEST(RuntimeTest, UnknownMethodThrowsInEveryBuild) {
  RWFixture F;
  std::unique_ptr<MonitorEngine> Engines[] = {
      createExplicitEngine(*F.Sema, SignalPlan::fromPlacement(F.Placement)),
      createAutoSynchEngine(*F.Sema), createNaiveEngine(*F.Sema)};
  for (auto &E : Engines) {
    EXPECT_THROW(E->call("enterReaderz"), std::invalid_argument) << E->name();
    // The failed lookup left the monitor usable.
    E->call("enterReader");
    EXPECT_EQ(E->snapshot().at("readers").asInt(), 1) << E->name();
  }
}

/// Polls until \p E has parked \p N threads in total.
void waitForBlocks(MonitorEngine &E, uint64_t N) {
  while (E.stats().Blocks < N)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
}

// Exact counts pin the counters' definitions: one Calls per call, and one
// PredicateEvals per guard evaluation, whether at entry, after a wakeup, or
// in a conditional wake.
TEST(RuntimeTest, ScriptedSequenceCountsAreExact) {
  struct Expected {
    EngineKind Kind;
    uint64_t Calls, PredicateEvals;
  };
  for (const Expected &X : {Expected{EngineKind::Explicit, 14, 25},
                            Expected{EngineKind::AutoSynch, 14, 25},
                            Expected{EngineKind::Naive, 14, 25}}) {
    const BenchmarkDef *Rw = findBenchmark("TicketedRW");
    const BenchmarkDef *Dp = findBenchmark("DiningPhilosophers");
    ASSERT_NE(Rw, nullptr);
    ASSERT_NE(Dp, nullptr);
    BenchContext RwCtx(*Rw, core::PlacementOptions());
    BenchContext DpCtx(*Dp, core::PlacementOptions());
    auto R = RwCtx.makeEngine(X.Kind, 1);
    for (const char *Method : {"enterReader", "enterReader", "exitReader",
                               "exitReader", "enterWriter", "exitWriter",
                               "enterReader", "exitReader"})
      R->call(Method);
    Assignment Out = R->snapshot();
    EXPECT_EQ(Out.at("nextTicket").asInt(), 4);
    EXPECT_EQ(Out.at("nowServing").asInt(), 4);
    EXPECT_EQ(Out.at("readers").asInt(), 0);

    auto D = DpCtx.makeEngine(X.Kind, 5);
    auto forks = [](int64_t L, int64_t Rt) {
      return Assignment{{"left", Value::ofInt(L)}, {"right", Value::ofInt(Rt)}};
    };
    D->call("pickup", forks(0, 1));
    D->call("pickup", forks(2, 3));
    D->call("putdown", forks(0, 1));
    D->call("pickup", forks(4, 0));
    D->call("putdown", forks(2, 3));
    D->call("putdown", forks(4, 0));
    Out = D->snapshot();
    for (int64_t I = 0; I < 5; ++I)
      EXPECT_EQ(Out.at("forks").arrayAt(I), 0) << I;

    EngineStats RS = R->stats(), DS = D->stats();
    EXPECT_EQ(RS.Calls + DS.Calls, X.Calls) << engineKindName(X.Kind);
    EXPECT_EQ(RS.PredicateEvals + DS.PredicateEvals, X.PredicateEvals)
        << engineKindName(X.Kind);
    EXPECT_EQ(RS.Blocks + DS.Blocks, 0u);
    EXPECT_EQ(RS.Wakeups + DS.Wakeups, 0u);
  }
}

// A writer parked behind two readers: the first exitReader's conditional
// wake (or AutoSynch's scan) checks the writer's predicate and finds it
// false, the second finds it true. Each step leaves one runnable thread,
// so the counts are exact. NaiveEngine is left out: its broadcast at the
// first exitReader races the second.
TEST(RuntimeTest, ParkedWaiterCountsAreExact) {
  struct Expected {
    EngineKind Kind;
    uint64_t Calls, Blocks, Wakeups, PredicateEvals;
  };
  for (const Expected &X : {Expected{EngineKind::Expresso, 6, 1, 1, 9},
                            Expected{EngineKind::AutoSynch, 6, 1, 1, 9}}) {
    const BenchmarkDef *Def = findBenchmark("ReadersWriters");
    ASSERT_NE(Def, nullptr);
    BenchContext Ctx(*Def, core::PlacementOptions());
    auto E = Ctx.makeEngine(X.Kind, 2);
    E->call("enterReader");
    E->call("enterReader");
    std::thread Writer([&] { E->call("enterWriter"); });
    waitForBlocks(*E, 1);
    E->call("exitReader");
    E->call("exitReader");
    Writer.join();
    E->call("exitWriter");
    EngineStats S = E->stats();
    EXPECT_EQ(S.Calls, X.Calls) << engineKindName(X.Kind);
    EXPECT_EQ(S.Blocks, X.Blocks) << engineKindName(X.Kind);
    EXPECT_EQ(S.Wakeups, X.Wakeups) << engineKindName(X.Kind);
    EXPECT_EQ(S.SpuriousWakeups, 0u) << engineKindName(X.Kind);
    EXPECT_EQ(S.PredicateEvals, X.PredicateEvals) << engineKindName(X.Kind);
  }
}

// Two readers parked behind a writer, then exitWriter's unconditional
// broadcast to the `!writerIn` class. Lazy: one checked wake frees the
// first reader, whose chain wake frees the second, so one thread is
// runnable at each step; each checked wake costs one predicate evaluation.
// Eager: one unchecked wake-all frees both, and both guards hold. Either
// way the counts are exact.
TEST(RuntimeTest, BroadcastCountsAreExact) {
  struct Expected {
    bool Lazy;
    uint64_t PredicateEvals;
  };
  for (const Expected &X : {Expected{true, 8}, Expected{false, 6}}) {
    const BenchmarkDef *Def = findBenchmark("ReadersWriters");
    ASSERT_NE(Def, nullptr);
    core::PlacementOptions Opts;
    Opts.LazyBroadcast = X.Lazy;
    BenchContext Ctx(*Def, Opts);
    auto E = Ctx.makeEngine(EngineKind::Expresso, 3);
    E->call("enterWriter");
    std::thread R1([&] { E->call("enterReader"); });
    std::thread R2([&] { E->call("enterReader"); });
    waitForBlocks(*E, 2);
    E->call("exitWriter");
    R1.join();
    R2.join();
    EXPECT_EQ(E->snapshot().at("readers").asInt(), 2);
    EngineStats S = E->stats();
    EXPECT_EQ(S.Calls, 4u) << X.Lazy;
    EXPECT_EQ(S.Blocks, 2u) << X.Lazy;
    EXPECT_EQ(S.Wakeups, 2u) << X.Lazy;
    EXPECT_EQ(S.SpuriousWakeups, 0u) << X.Lazy;
    EXPECT_EQ(S.PredicateEvals, X.PredicateEvals) << X.Lazy;
  }
}

// The lowering of a hand-written plan: Figure 2's gold plan for
// ReadersWriters, whose exitWriter broadcasts ✓ to the `!writerIn` class
// and signals the writer class ?, as exitReader does.
TEST(WakeLoweringTest, LowersTheReadersWritersGoldPlan) {
  const BenchmarkDef *Def = findBenchmark("ReadersWriters");
  ASSERT_NE(Def, nullptr);
  BenchContext Ctx(*Def, core::PlacementOptions());
  const frontend::SemaInfo &S = Ctx.sema();
  auto ccr = [&](const char *Method) {
    return &S.M->findMethod(Method)->Body[0];
  };
  const frontend::PredicateClass *Reader = S.info(ccr("enterReader")).Class;
  const frontend::PredicateClass *Writer = S.info(ccr("enterWriter")).Class;
  // (Target, Conditional, All, Chain).
  using W = std::tuple<const frontend::PredicateClass *, bool, bool, bool>;
  using Ws = std::vector<W>;
  auto wakes = [&](const WakeLowering &L, const char *Method) {
    Ws Out;
    for (const Wake &Wk : L.wakesAfter(ccr(Method)))
      Out.emplace_back(Wk.Target, Wk.Conditional, Wk.All, Wk.Chain);
    return Out;
  };
  for (bool Lazy : {true, false}) {
    SignalPlan Plan = Def->GoldPlan(S);
    Plan.LazyBroadcast = Lazy;
    const WakeLowering L(S, Plan);
    // Signals pass through unchanged.
    EXPECT_EQ(wakes(L, "exitReader"), (Ws{{Writer, true, false, false}}))
        << Lazy;
    EXPECT_EQ(wakes(L, "enterWriter"), Ws{}) << Lazy;
    if (Lazy) {
      // The broadcast becomes one checked wake, and every reader passes it
      // on, chain wake first.
      EXPECT_EQ(wakes(L, "enterReader"), (Ws{{Reader, true, false, true}}));
      EXPECT_EQ(wakes(L, "exitWriter"), (Ws{{Writer, true, false, false},
                                            {Reader, true, false, false}}));
    } else {
      EXPECT_EQ(wakes(L, "enterReader"), Ws{});
      EXPECT_EQ(wakes(L, "exitWriter"), (Ws{{Writer, true, false, false},
                                            {Reader, false, true, false}}));
    }
  }
}

//===----------------------------------------------------------------------===//
// Integration sweep: every benchmark x every engine terminates with the
// expected final state under real contention.
//===----------------------------------------------------------------------===//

struct SweepCase {
  const char *Bench;
  EngineKind Kind;
};

class EngineSweepTest
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(EngineSweepTest, BalancedWorkloadTerminatesCleanly) {
  const auto &All = allBenchmarks();
  int BenchIdx = std::get<0>(GetParam());
  int KindIdx = std::get<1>(GetParam());
  ASSERT_LT(static_cast<size_t>(BenchIdx), All.size());
  const BenchmarkDef &Def = All[static_cast<size_t>(BenchIdx)];
  EngineKind Kind = static_cast<EngineKind>(KindIdx);

  HarnessOptions Opts;
  Opts.TargetTotalCycles = 600;
  Opts.MinCyclesPerThread = 5;
  BenchContext Ctx(Def, Opts.Placement);

  // Smallest two thread counts of the benchmark's series.
  for (size_t I = 0; I < 2 && I < Def.ThreadCounts.size(); ++I) {
    unsigned Threads = Def.ThreadCounts[I];
    CellResult R = runCell(Def, Ctx, Kind, Threads, Opts);
    EXPECT_TRUE(R.StateOk) << Def.Name << " / " << engineKindName(Kind)
                           << " / " << Threads << " threads";
    EXPECT_GT(R.TotalOps, 0u);
    EXPECT_GT(R.MsPerOp, 0.0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarksAllEngines, EngineSweepTest,
    ::testing::Combine(::testing::Range(0, 14), ::testing::Range(0, 4)),
    [](const ::testing::TestParamInfo<std::tuple<int, int>> &Info) {
      const auto &All = allBenchmarks();
      int B = std::get<0>(Info.param);
      int K = std::get<1>(Info.param);
      return All[static_cast<size_t>(B)].Name + "_" +
             engineKindName(static_cast<EngineKind>(K));
    });

//===----------------------------------------------------------------------===//
// Gold plans must behave identically to Expresso plans on final state.
//===----------------------------------------------------------------------===//

TEST(RuntimeTest, NoLazyBroadcastAlsoTerminates) {
  const BenchmarkDef *Def = findBenchmark("ReadersWriters");
  ASSERT_NE(Def, nullptr);
  HarnessOptions Opts;
  Opts.TargetTotalCycles = 600;
  Opts.Placement.LazyBroadcast = false;
  BenchContext Ctx(*Def, Opts.Placement);
  CellResult R = runCell(*Def, Ctx, EngineKind::Expresso,
                         Def->ThreadCounts[0], Opts);
  EXPECT_TRUE(R.StateOk);
}

TEST(RuntimeTest, PlacementWithoutInvariantStillCorrect) {
  const BenchmarkDef *Def = findBenchmark("BoundedBuffer");
  ASSERT_NE(Def, nullptr);
  HarnessOptions Opts;
  Opts.TargetTotalCycles = 600;
  Opts.Placement.UseInvariant = false;
  BenchContext Ctx(*Def, Opts.Placement);
  CellResult R = runCell(*Def, Ctx, EngineKind::Expresso,
                         Def->ThreadCounts[1], Opts);
  EXPECT_TRUE(R.StateOk);
}

} // namespace
