//===- tests/IncrementalSolverTest.cpp - Incremental-vs-one-shot parity -------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// The differential contract of the incremental placement engine: for every
// benchmark workload, `--incremental on` and `--incremental off` produce
// byte-identical Σ (decisions, conditionality, broadcast bits), identical
// PlacementStats totals, and identical cache counters — memo *and*
// persistent tier — under serial and parallel fan-out, cold and warm cache
// directories. Any drift is a bug in session soundness (a prefix asserted
// over a non-entailing delta) or in cache-key derivation (a session query
// keyed by anything other than its equivalent one-shot formula).
//
// Also covers SolverSession's scoped discharge directly, and the Z3
// backend's pool of recycled session contexts.
//
//===----------------------------------------------------------------------===//

#include "bench/Workloads.h"
#include "core/SignalPlacement.h"
#include "frontend/Parser.h"
#include "persist/QueryStore.h"
#include "solver/CachingSolver.h"
#include "solver/SolverSession.h"

#include "tests/TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

using namespace expresso;
using namespace expresso::logic;
using namespace expresso::solver;

namespace {

std::string makeTempDir() {
  std::string Tmpl = (std::filesystem::temp_directory_path() /
                      "expresso-incr-XXXXXX")
                         .string();
  char *D = ::mkdtemp(Tmpl.data());
  EXPECT_NE(D, nullptr);
  return Tmpl;
}

struct TempDir {
  std::string Path = makeTempDir();
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
};

struct PlacementRun {
  std::string Decisions;
  std::string FullSummary;
  core::PlacementStats Stats;
};

/// One placement of \p Def with the given discharge mode, fan-out, and
/// cache configuration, in a fresh TermContext (so two runs never warm each
/// other through anything but an explicitly shared store directory).
PlacementRun runPlacement(const bench::BenchmarkDef &Def, bool Incremental,
                          unsigned Jobs, bool Cache,
                          const std::string &StoreDir = "") {
  TermContext C;
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(Def.Source, Diags);
  EXPECT_NE(M, nullptr) << Diags.str();
  auto Sema = frontend::analyze(*M, C, Diags);
  EXPECT_NE(Sema, nullptr) << Diags.str();
  std::unique_ptr<SmtSolver> Solver = createSolver(SolverKind::Default, C);

  core::PlacementOptions Opts;
  Opts.Incremental = Incremental;
  Opts.CacheQueries = Cache;
  Opts.Jobs = Jobs;
  Opts.WorkerSolvers = SolverFactory(SolverKind::Default);

  std::unique_ptr<CachingSolver> CacheLayer;
  SmtSolver *Top = Solver.get();
  if (Cache) {
    CacheLayer = CachingSolver::create(C, std::move(Solver));
    if (!StoreDir.empty()) {
      persist::QueryStore::Options SOpts;
      SOpts.Profile = defaultSolverName();
      CacheLayer->attachStore(persist::QueryStore::open(StoreDir, SOpts));
    }
    Top = CacheLayer.get();
  }
  core::PlacementResult P = core::placeSignals(C, *Sema, *Top, Opts);
  return {P.decisionSummary(), P.summary(), P.Stats};
}

/// Strict parity: Σ, the summary trailer, every aggregate stat, and —
/// unless \p CompareDisk is false (parallel warm runs, where fresh-variable
/// *names* are interleaving-dependent and so persistent hits on the
/// affected VCs are not run-reproducible in either mode) — the persistent
/// tier counters too.
void expectParity(const PlacementRun &Off, const PlacementRun &On,
                  bool CompareDisk = true) {
  EXPECT_EQ(Off.Decisions, On.Decisions);
  // The summary trailer embeds the persistent-tier counters, so it is only
  // byte-comparable when those are (everything else in it always is).
  if (CompareDisk)
    EXPECT_EQ(Off.FullSummary, On.FullSummary);
  core::PlacementCounts OffCounts = Off.Stats.counts();
  core::PlacementCounts OnCounts = On.Stats.counts();
  if (!CompareDisk)
    for (core::PlacementCounts *K : {&OffCounts, &OnCounts})
      K->SharedHits = K->SharedMisses = 0;
  EXPECT_EQ(OffCounts, OnCounts);
}

class IncrementalParityTest : public ::testing::TestWithParam<std::string> {
protected:
  const bench::BenchmarkDef *def() {
    const bench::BenchmarkDef *Def = bench::findBenchmark(GetParam());
    EXPECT_NE(Def, nullptr);
    return Def;
  }
};

// Serial, memo cache only: the tightest configuration — every counter is
// fully deterministic, so everything must match to the byte. The FullSummary
// comparison doubles as the counters-drift regression test: any divergence
// in memo hit/miss totals lands in the stats trailer.
TEST_P(IncrementalParityTest, SerialMatchesOneShot) {
  const bench::BenchmarkDef *Def = def();
  PlacementRun Off = runPlacement(*Def, /*Incremental=*/false, 1, true);
  PlacementRun On = runPlacement(*Def, /*Incremental=*/true, 1, true);
  expectParity(Off, On);
}

// Serial, cache off: SolverQueries now counts raw backend discharges, so
// this catches any assumption path that issues a different number of
// logical queries than the one-shot loop.
TEST_P(IncrementalParityTest, SerialCacheOffMatchesOneShot) {
  const bench::BenchmarkDef *Def = def();
  PlacementRun Off = runPlacement(*Def, /*Incremental=*/false, 1, false);
  PlacementRun On = runPlacement(*Def, /*Incremental=*/true, 1, false);
  expectParity(Off, On);
}

// --jobs 4: the session fan-out is CCR-granular while one-shot mode fans
// out per pair — the Σ and the single-flight counter totals must not care.
TEST_P(IncrementalParityTest, FourJobsMatchesOneShot) {
  const bench::BenchmarkDef *Def = def();
  PlacementRun Off = runPlacement(*Def, /*Incremental=*/false, 4, true);
  PlacementRun On = runPlacement(*Def, /*Incremental=*/true, 4, true);
  expectParity(Off, On);
  // And each parallel mode must match its own serial run (transitively:
  // all four configurations agree).
  PlacementRun SerialOn = runPlacement(*Def, /*Incremental=*/true, 1, true);
  expectParity(SerialOn, On);
}

// Persistent store, serial: cold and warm counters must match between the
// modes, and a store written by one mode must serve the other — the
// cache-key contract (a session query is keyed by its equivalent one-shot
// formula) made observable.
TEST_P(IncrementalParityTest, ColdWarmStoreMatchesAcrossModes) {
  const bench::BenchmarkDef *Def = def();
  TempDir OffDir, OnDir;
  PlacementRun ColdOff =
      runPlacement(*Def, /*Incremental=*/false, 1, true, OffDir.Path);
  PlacementRun ColdOn =
      runPlacement(*Def, /*Incremental=*/true, 1, true, OnDir.Path);
  expectParity(ColdOff, ColdOn);
  // A cold run never hits the store and computes every distinct formula.
  EXPECT_EQ(ColdOn.Stats.Cache.DiskHits, 0u);
  EXPECT_EQ(ColdOn.Stats.Cache.DiskMisses, ColdOn.Stats.Cache.Misses);

  // Warm-run disk counters are only *exactly* reproducible on backends
  // that never intern terms mid-solve (Z3). MiniSmt mints auxiliary terms
  // and fresh variables while solving, so serving a disk hit (which skips
  // the solve) shifts the creation-id/name stream and some later keys
  // drift — the documented 44–100% warm hit rate (ARCHITECTURE.md), and
  // the drift pattern follows backend solve *order*, which the two
  // discharge modes schedule differently. Σ and the memo counters are
  // exact on every backend; the disk-exactness assertions are the Z3
  // contract.
  const bool ExactDisk = hasZ3(); // runPlacement uses SolverKind::Default
  PlacementRun WarmOff =
      runPlacement(*Def, /*Incremental=*/false, 1, true, OffDir.Path);
  PlacementRun WarmOn =
      runPlacement(*Def, /*Incremental=*/true, 1, true, OnDir.Path);
  expectParity(WarmOff, WarmOn, /*CompareDisk=*/ExactDisk);
  if (ExactDisk) {
    // Drift-free serial runs answer every distinct formula from the tier.
    EXPECT_EQ(WarmOn.Stats.Cache.DiskMisses, 0u);
    EXPECT_EQ(WarmOn.Stats.Cache.DiskHits, WarmOn.Stats.Cache.Misses);
  } else {
    EXPECT_GT(WarmOn.Stats.Cache.DiskHits, 0u);
    EXPECT_GT(WarmOff.Stats.Cache.DiskHits, 0u);
  }
  EXPECT_EQ(WarmOn.Decisions, ColdOn.Decisions);

  // Cross-mode reuse: one-shot mode warm-started from the directory the
  // incremental mode filled (and vice versa) — byte-compatible keys mean
  // full persistent hit rates in both directions on drift-free backends,
  // and working reuse (hits > 0, identical Σ) everywhere.
  PlacementRun CrossOff =
      runPlacement(*Def, /*Incremental=*/false, 1, true, OnDir.Path);
  expectParity(WarmOn, CrossOff, /*CompareDisk=*/ExactDisk);
  if (!ExactDisk)
    EXPECT_GT(CrossOff.Stats.Cache.DiskHits, 0u);
  PlacementRun CrossOn =
      runPlacement(*Def, /*Incremental=*/true, 1, true, OffDir.Path);
  expectParity(WarmOff, CrossOn, /*CompareDisk=*/ExactDisk);
  if (!ExactDisk)
    EXPECT_GT(CrossOn.Stats.Cache.DiskHits, 0u);
}

// Persistent store under --jobs 4: Σ and memo counters still match; the
// cold run's disk counters are deterministic too (a cold store yields
// exactly one miss per distinct formula). Warm disk hits are only compared
// for internal consistency (see expectParity's CompareDisk note).
TEST_P(IncrementalParityTest, FourJobsColdWarmStore) {
  const bench::BenchmarkDef *Def = def();
  TempDir OffDir, OnDir;
  PlacementRun ColdOff =
      runPlacement(*Def, /*Incremental=*/false, 4, true, OffDir.Path);
  PlacementRun ColdOn =
      runPlacement(*Def, /*Incremental=*/true, 4, true, OnDir.Path);
  expectParity(ColdOff, ColdOn);
  EXPECT_EQ(ColdOn.Stats.Cache.DiskHits, 0u);

  PlacementRun WarmOff =
      runPlacement(*Def, /*Incremental=*/false, 4, true, OffDir.Path);
  PlacementRun WarmOn =
      runPlacement(*Def, /*Incremental=*/true, 4, true, OnDir.Path);
  expectParity(WarmOff, WarmOn, /*CompareDisk=*/false);
  // Internal invariant in both modes: every memo miss probed the store.
  EXPECT_EQ(WarmOff.Stats.Cache.DiskHits + WarmOff.Stats.Cache.DiskMisses,
            WarmOff.Stats.Cache.Misses);
  EXPECT_EQ(WarmOn.Stats.Cache.DiskHits + WarmOn.Stats.Cache.DiskMisses,
            WarmOn.Stats.Cache.Misses);
  EXPECT_GT(WarmOn.Stats.Cache.DiskHits, 0u);
}

std::vector<std::string> allBenchmarkNames() {
  std::vector<std::string> Names;
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
    Names.push_back(Def.Name);
  return Names;
}

INSTANTIATE_TEST_SUITE_P(AllWorkloads, IncrementalParityTest,
                         ::testing::ValuesIn(allBenchmarkNames()),
                         [](const auto &Info) { return Info.param; });

//===----------------------------------------------------------------------===//
// Session engagement and fallback behavior
//===----------------------------------------------------------------------===//

TEST(IncrementalEngagementTest, SessionsEngageOnCapableBackends) {
  // Only a natively incremental backend engages: Default is Z3 when built,
  // and MiniSmt's snapshot sessions are never driven, so every VC stays one
  // absolute checkSat and the stat says so.
  const std::pair<SolverKind, bool> Cases[] = {{SolverKind::Default, hasZ3()},
                                               {SolverKind::Mini, false}};
  const bench::BenchmarkDef *Def = bench::findBenchmark("BoundedBuffer");
  ASSERT_NE(Def, nullptr);
  for (const auto &[Kind, Engages] : Cases) {
    SCOPED_TRACE(testing::Message() << "kind " << static_cast<int>(Kind));
    TermContext C;
    DiagnosticEngine Diags;
    auto M = frontend::parseMonitor(Def->Source, Diags);
    auto Sema = frontend::analyze(*M, C, Diags);
    auto Solver = createSolver(Kind, C);
    core::PlacementOptions Opts;
    Opts.Incremental = true;
    core::PlacementResult On = core::placeSignals(C, *Sema, *Solver, Opts);
    EXPECT_EQ(On.Stats.IncrementalSessions, Engages);

    TermContext C2;
    DiagnosticEngine D2;
    auto M2 = frontend::parseMonitor(Def->Source, D2);
    auto Sema2 = frontend::analyze(*M2, C2, D2);
    auto Solver2 = createSolver(Kind, C2);
    core::PlacementOptions OffOpts;
    OffOpts.Incremental = false;
    core::PlacementResult Off =
        core::placeSignals(C2, *Sema2, *Solver2, OffOpts);
    EXPECT_FALSE(Off.Stats.IncrementalSessions);
    EXPECT_EQ(On.decisionSummary(), Off.decisionSummary());
  }
}

TEST(IncrementalEngagementTest, NonSessionBackendFallsBackToOneShot) {
  // A backend without session support: incremental placement must degrade
  // to one-shot discharge (and say so in the stats), never fail.
  class OneShotOnly : public SmtSolver {
  public:
    explicit OneShotOnly(TermContext &C)
        : SmtSolver(C), Inner(createSolver(SolverKind::Mini, C)) {}
    CheckResult checkSat(const Term *F) override {
      ++Queries;
      return Inner->checkSat(F);
    }
    std::string name() const override { return "oneshot-only"; }

  private:
    std::unique_ptr<SmtSolver> Inner;
  };
  const bench::BenchmarkDef *Def = bench::findBenchmark("ReadersWriters");
  ASSERT_NE(Def, nullptr);
  TermContext C;
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(Def->Source, Diags);
  auto Sema = frontend::analyze(*M, C, Diags);
  OneShotOnly Backend(C);
  core::PlacementOptions Opts;
  Opts.Incremental = true;
  core::PlacementResult P = core::placeSignals(C, *Sema, Backend, Opts);
  EXPECT_FALSE(P.Stats.IncrementalSessions);
  EXPECT_FALSE(P.Placements.empty());
}

/// Session-API calls that crossed a RecordingSolver boundary.
struct SessionCalls {
  std::atomic<uint64_t> Push{0};
  std::atomic<uint64_t> AssertTerm{0};
  std::atomic<uint64_t> CheckSatAssuming{0};
  std::atomic<uint64_t> CheckSatBatch{0};
};

/// A backend that claims native incrementality and counts every push,
/// assertTerm, checkSatAssuming and checkSatBatch before forwarding it.
class RecordingSolver : public SmtSolver {
public:
  RecordingSolver(std::unique_ptr<SmtSolver> Inner, SessionCalls &Calls)
      : SmtSolver(Inner->context()), Inner(std::move(Inner)), Calls(Calls) {}
  CheckResult checkSat(const Term *F) override {
    ++Queries;
    return Inner->checkSat(F);
  }
  std::string name() const override {
    return "recording(" + Inner->name() + ")";
  }
  bool supportsIncremental() const override { return true; }
  bool nativeIncremental() const override { return true; }
  bool push() override {
    ++Calls.Push;
    return Inner->push();
  }
  bool pop() override { return Inner->pop(); }
  bool assertTerm(const Term *F) override {
    ++Calls.AssertTerm;
    return Inner->assertTerm(F);
  }
  CheckResult
  checkSatAssuming(const std::vector<const Term *> &Assumptions) override {
    ++Calls.CheckSatAssuming;
    ++Queries;
    return Inner->checkSatAssuming(Assumptions);
  }
  std::vector<CheckResult>
  checkSatBatch(const std::vector<const Term *> &Fs) override {
    ++Calls.CheckSatBatch;
    Queries.fetch_add(Fs.size(), std::memory_order_relaxed);
    return Inner->checkSatBatch(Fs);
  }
  void setCancelToken(support::CancelToken *T) override {
    SmtSolver::setCancelToken(T);
    Inner->setCancelToken(T);
  }

private:
  std::unique_ptr<SmtSolver> Inner;
  SessionCalls &Calls;
};

/// ReadersWriters placed over recording backends wrapping \p Kind — the
/// caller's backend and every minted worker backend alike.
std::string placeRecorded(SolverKind Kind, bool Incremental, unsigned Jobs,
                          bool Cache, SessionCalls &Calls) {
  const bench::BenchmarkDef *Def = bench::findBenchmark("ReadersWriters");
  EXPECT_NE(Def, nullptr);
  TermContext C;
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(Def->Source, Diags);
  auto Sema = frontend::analyze(*M, C, Diags);
  auto Mint = [Kind, &Calls](TermContext &Ctx) -> std::unique_ptr<SmtSolver> {
    return std::make_unique<RecordingSolver>(createSolver(Kind, Ctx), Calls);
  };
  std::unique_ptr<SmtSolver> Backend = Mint(C);
  core::PlacementOptions Opts;
  Opts.Incremental = Incremental;
  Opts.CacheQueries = Cache;
  Opts.Jobs = Jobs;
  Opts.WorkerSolvers = SolverFactory(Mint);
  core::PlacementResult P = core::placeSignals(C, *Sema, *Backend, Opts);
  EXPECT_EQ(P.Stats.JobsUsed, std::min<size_t>(Jobs, Sema->Ccrs.size()));
  return P.decisionSummary();
}

// --incremental=off never touches the session API, even on a backend that
// claims native sessions: every VC is one absolute checkSat (for Z3, a
// fresh context per query, outside the context pool).
TEST(IncrementalEngagementTest, OffModeNeverTouchesSessionApi) {
  std::vector<SolverKind> Kinds = {SolverKind::Mini};
  if (hasZ3())
    Kinds.push_back(SolverKind::Z3);
  for (SolverKind Kind : Kinds)
    for (unsigned Jobs : {1u, 4u})
      for (bool Cache : {false, true}) {
        SCOPED_TRACE(testing::Message()
                     << "kind " << static_cast<int>(Kind) << ", jobs "
                     << Jobs << ", cache " << Cache);
        SessionCalls On;
        std::string SigmaOn = placeRecorded(Kind, true, Jobs, Cache, On);
        // Positive control: the on run drives the session API.
        EXPECT_GT(On.Push.load(), 0u);
        EXPECT_GT(On.AssertTerm.load(), 0u);
        EXPECT_GT(On.CheckSatAssuming.load(), 0u);
        EXPECT_EQ(On.CheckSatBatch.load(), 0u);

        SessionCalls Off;
        size_t IdleBefore = z3IdleContexts();
        std::string SigmaOff = placeRecorded(Kind, false, Jobs, Cache, Off);
        EXPECT_EQ(Off.Push.load(), 0u);
        EXPECT_EQ(Off.AssertTerm.load(), 0u);
        EXPECT_EQ(Off.CheckSatAssuming.load(), 0u);
        EXPECT_EQ(Off.CheckSatBatch.load(), 0u);
        EXPECT_EQ(z3IdleContexts(), IdleBefore);
        EXPECT_EQ(SigmaOff, SigmaOn);
      }
}

//===----------------------------------------------------------------------===//
// SolverSession discharge semantics
//===----------------------------------------------------------------------===//

TEST(SolverSessionTest, ScopedAnswersEqualOneShot) {
  TermContext C;
  Rng R(0x5E551017);
  testutil::FormulaGen Gen(C, R);
  std::unique_ptr<SmtSolver> Backend = createSolver(SolverKind::Default, C);
  std::unique_ptr<SmtSolver> Reference = createSolver(SolverKind::Default, C);
  CachingSolver Cache(*Backend);
  SolverSession S(&Cache, *Backend);

  // Deltas must entail the prefix for scoped discharge; conjoining the
  // prefix into the delta guarantees that by construction.
  const Term *I = C.ge(Gen.intVars()[0], C.getZero());
  const Term *G = C.le(Gen.intVars()[1], C.intConst(8));
  S.setInvariant(I);
  S.enterCcr(G);
  for (int Round = 0; Round < 40; ++Round) {
    const Term *Delta = C.and_({I, G, Gen.randomFormula(2)});
    Answer Want = Reference->checkSat(Delta).TheAnswer;
    Answer GotGuard = S.checkSatUnderGuard(Delta).TheAnswer;
    Answer GotInv = S.checkSatUnderInvariant(C.and_(I, Delta)).TheAnswer;
    if (Want != Answer::Unknown) {
      EXPECT_EQ(GotGuard, Want) << "round " << Round;
      EXPECT_EQ(GotInv, Want) << "round " << Round;
    }
  }
  S.exitCcr();

  // Absolute discharges ignore every scope.
  const Term *NotI = C.lt(Gen.intVars()[0], C.getZero());
  EXPECT_EQ(S.absoluteSolver().checkSat(NotI).TheAnswer, Answer::Sat);
}

// The Z3 backend answers checkSat inside a live session's context; it must
// stay blind to the session stack, and a cancelled check must retire the
// session without poisoning later absolute checks.
TEST(SolverSessionTest, Z3AbsoluteCheckIgnoresSessionStack) {
  if (!hasZ3())
    GTEST_SKIP() << "Z3 backend not built";
  TermContext C;
  std::unique_ptr<SmtSolver> Z3 = createSolver(SolverKind::Z3, C);
  const Term *X = C.var("ax", Sort::Int);
  const Term *Pos = C.lt(C.getZero(), X);

  ASSERT_TRUE(Z3->push());
  ASSERT_TRUE(Z3->assertTerm(C.getFalse()));
  EXPECT_EQ(Z3->checkSat(Pos).TheAnswer, Answer::Sat);
  EXPECT_EQ(Z3->checkSatAssuming({Pos}).TheAnswer, Answer::Unsat);
  ASSERT_TRUE(Z3->pop());
  CheckResult Abs = Z3->checkSat(Pos);
  EXPECT_EQ(Abs.TheAnswer, Answer::Sat);
  ASSERT_TRUE(Abs.Model.count("ax"));
  EXPECT_GT(Abs.Model.at("ax").asInt(), 0);
  EXPECT_EQ(Z3->checkSatAssuming({Pos}).TheAnswer, Answer::Sat);

  // An already-cancelled check answers Unknown and retires the session:
  // every later session call fails closed, even with the token detached.
  support::CancelToken Token;
  Token.cancel();
  Z3->setCancelToken(&Token);
  EXPECT_EQ(Z3->checkSat(Pos).TheAnswer, Answer::Unknown);
  Z3->setCancelToken(nullptr);
  EXPECT_FALSE(Z3->push());
  EXPECT_EQ(Z3->checkSatAssuming({Pos}).TheAnswer, Answer::Unknown);

  // Absolute checks go on, one fresh context per query.
  EXPECT_EQ(Z3->checkSat(Pos).TheAnswer, Answer::Sat);
  EXPECT_EQ(Z3->checkSat(C.and_(Pos, C.lt(X, C.getOne()))).TheAnswer,
            Answer::Unsat);
}

//===----------------------------------------------------------------------===//
// Recycled Z3 session contexts
//===----------------------------------------------------------------------===//

/// A backend that opens a session (taking a context from the pool), checks
/// x > 0 on it, and is destroyed (handing the context back unless retired).
void healthySessionCycle() {
  TermContext C;
  std::unique_ptr<SmtSolver> Z3 = createSolver(SolverKind::Z3, C);
  const Term *X = C.var("px", Sort::Int);
  EXPECT_EQ(Z3->checkSatAssuming({C.lt(C.getZero(), X)}).TheAnswer,
            Answer::Sat);
}

// A recycled context carries nothing of its last session over: not the
// open scope asserting false, and not the sort its last owner gave x.
TEST(Z3ContextPoolTest, ReusedContextForgetsPreviousSession) {
  if (!hasZ3())
    GTEST_SKIP() << "Z3 backend not built";
  {
    TermContext C1;
    std::unique_ptr<SmtSolver> First = createSolver(SolverKind::Z3, C1);
    const Term *X = C1.var("x", Sort::Int);
    ASSERT_TRUE(First->push());
    ASSERT_TRUE(First->assertTerm(C1.getFalse()));
    EXPECT_EQ(First->checkSatAssuming({C1.lt(C1.getZero(), X)}).TheAnswer,
              Answer::Unsat);
    // Destroyed with the scope still open.
  }
  const size_t Idle = z3IdleContexts();
  ASSERT_GE(Idle, 1u) << "a healthy session must return its context";

  TermContext C2;
  std::unique_ptr<SmtSolver> Second = createSolver(SolverKind::Z3, C2);
  const Term *X = C2.var("x", Sort::Bool);
  CheckResult R = Second->checkSatAssuming({X});
  EXPECT_EQ(z3IdleContexts(), Idle - 1) << "the session took a pooled context";
  EXPECT_EQ(R.TheAnswer, Answer::Sat);
  ASSERT_TRUE(R.Model.count("x"));
  EXPECT_TRUE(R.Model.at("x").asBool());
  EXPECT_EQ(Second->checkSatAssuming({C2.and_(X, C2.not_(X))}).TheAnswer,
            Answer::Unsat);
  EXPECT_EQ(Second->checkSat(C2.not_(X)).TheAnswer, Answer::Sat);
  EXPECT_EQ(Second->checkSat(C2.and_(X, C2.not_(X))).TheAnswer,
            Answer::Unsat);
}

/// The pigeonhole principle for \p N pigeons in N - 1 holes: unsat, and
/// exponentially hard for resolution, so no check of it ends before the
/// test cancels it.
const Term *pigeonhole(TermContext &C, unsigned N) {
  auto At = [&](unsigned P, unsigned H) {
    return C.var("php" + std::to_string(P) + "_" + std::to_string(H),
                 Sort::Bool);
  };
  std::vector<const Term *> Cs;
  for (unsigned P = 0; P < N; ++P) {
    std::vector<const Term *> Somewhere;
    for (unsigned H = 0; H + 1 < N; ++H)
      Somewhere.push_back(At(P, H));
    Cs.push_back(C.or_(Somewhere));
  }
  for (unsigned H = 0; H + 1 < N; ++H)
    for (unsigned P = 0; P < N; ++P)
      for (unsigned Q = P + 1; Q < N; ++Q)
        Cs.push_back(C.or_(C.not_(At(P, H)), C.not_(At(Q, H))));
  return C.and_(Cs);
}

// Retired sessions free their contexts instead of pooling them: after an
// already-cancelled check, and after a check interrupted into Unknown.
TEST(Z3ContextPoolTest, RetiredSessionsDoNotReturnContexts) {
  if (!hasZ3())
    GTEST_SKIP() << "Z3 backend not built";
  healthySessionCycle(); // at least one context idle from here on
  size_t Idle = z3IdleContexts();
  ASSERT_GE(Idle, 1u);
  {
    TermContext C;
    std::unique_ptr<SmtSolver> Z3 = createSolver(SolverKind::Z3, C);
    ASSERT_TRUE(Z3->push()); // opens the session: one context borrowed
    EXPECT_EQ(z3IdleContexts(), Idle - 1);
    support::CancelToken Token;
    Token.cancel();
    Z3->setCancelToken(&Token);
    EXPECT_EQ(Z3->checkSat(C.var("cx", Sort::Bool)).TheAnswer,
              Answer::Unknown);
    Z3->setCancelToken(nullptr);
  }
  EXPECT_EQ(z3IdleContexts(), Idle - 1) << "cancelled session was pooled";

  healthySessionCycle();
  Idle = z3IdleContexts();
  ASSERT_GE(Idle, 1u);
  {
    TermContext C;
    std::unique_ptr<SmtSolver> Z3 = createSolver(SolverKind::Z3, C);
    const Term *Hard = pigeonhole(C, 12);
    support::CancelToken Token;
    Z3->setCancelToken(&Token);
    // Cancelled mid-check: the interrupt hook stops Z3, which answers
    // Unknown. (A deadline would arm Z3's timeout watchdog instead, whose
    // timer thread outlives the test.)
    std::thread Canceller([&Token] {
      std::this_thread::sleep_for(std::chrono::milliseconds(100));
      Token.cancel();
    });
    EXPECT_EQ(Z3->checkSatAssuming({Hard}).TheAnswer, Answer::Unknown);
    Canceller.join();
    Z3->setCancelToken(nullptr);
  }
  EXPECT_EQ(z3IdleContexts(), Idle - 1) << "interrupted session was pooled";
}

// Many threads cycling backends share the pool without losing an answer,
// and the pool never holds more idle contexts than there are cores.
TEST(Z3ContextPoolTest, ConcurrentCyclesStayCorrectAndCapped) {
  if (!hasZ3())
    GTEST_SKIP() << "Z3 backend not built";
  constexpr unsigned Threads = 8;
  constexpr unsigned Cycles = 100;
  const size_t Cap = std::max(1u, std::thread::hardware_concurrency());
  std::atomic<unsigned> Wrong{0}, OverCap{0};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned I = 0; I < Cycles; ++I) {
        TermContext C;
        std::unique_ptr<SmtSolver> Z3 = createSolver(SolverKind::Z3, C);
        // Alternate the variable's sort so consecutive owners of one
        // context disagree about it.
        const Term *X = C.var("x", (T + I) % 2 ? Sort::Int : Sort::Bool);
        const Term *Sat = X->sort() == Sort::Int
                              ? C.eq(X, C.intConst(T * Cycles + I))
                              : X;
        const Term *Unsat = X->sort() == Sort::Int
                                ? C.and_(Sat, C.lt(X, C.getZero()))
                                : C.and_(X, C.not_(X));
        Wrong += Z3->checkSatAssuming({Sat}).TheAnswer != Answer::Sat;
        Wrong += Z3->checkSatAssuming({Unsat}).TheAnswer != Answer::Unsat;
        Z3.reset();
        OverCap += z3IdleContexts() > Cap;
      }
    });
  for (auto &Th : Pool)
    Th.join();
  EXPECT_EQ(Wrong.load(), 0u);
  EXPECT_EQ(OverCap.load(), 0u);
  EXPECT_LE(z3IdleContexts(), Cap);
}

} // namespace
