//===- tests/PlacementTest.cpp - Algorithm 1 end-to-end -----------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The most important tests in the suite: they assert that the full
/// pipeline (parse -> sema -> invariant inference -> PlaceSignals)
/// reproduces the paper's Section 2 walkthrough exactly — Figure 1 in,
/// Figure 2's signaling discipline out.
///
//===----------------------------------------------------------------------===//

#include "core/SignalPlacement.h"

#include "frontend/Parser.h"
#include "logic/Printer.h"

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

using namespace expresso;
using namespace expresso::frontend;
using namespace expresso::core;
using logic::Term;

namespace {

struct Pipeline {
  explicit Pipeline(const char *Source,
                    PlacementOptions Options = PlacementOptions()) {
    DiagnosticEngine Diags;
    M = parseMonitor(Source, Diags);
    if (!M) {
      ADD_FAILURE() << "parse failed: " << Diags.str();
      return;
    }
    Sema = analyze(*M, C, Diags);
    if (!Sema) {
      ADD_FAILURE() << "sema failed: " << Diags.str();
      return;
    }
    Solver = solver::createSolver(solver::SolverKind::Default, C);
    Result = placeSignals(C, *Sema, *Solver, Options);
  }

  /// Decisions of the CCR with the given program-order index.
  const std::vector<SignalDecision> &decisions(unsigned CcrIndex) const {
    return Result.Placements[CcrIndex].Decisions;
  }

  logic::TermContext C;
  std::unique_ptr<Monitor> M;
  std::unique_ptr<SemaInfo> Sema;
  std::unique_ptr<solver::SmtSolver> Solver;
  PlacementResult Result;
};

const char *RWSource = R"(
monitor RWLock {
  int readers = 0;
  bool writerIn = false;
  void enterReader() { waituntil (!writerIn) { readers++; } }
  void exitReader()  { if (readers > 0) readers--; }
  void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
  void exitWriter()  { writerIn = false; }
}
)";

/// The Section 2 walkthrough: the generated signaling discipline must be
/// exactly Figure 2's.
TEST(PlacementTest, ReadersWritersMatchesFigure2) {
  Pipeline P(RWSource);
  ASSERT_EQ(P.Result.Placements.size(), 4u);

  const PredicateClass *ReadersClass = P.Sema->Ccrs[0].Class; // !writerIn
  const PredicateClass *WritersClass = P.Sema->Ccrs[2].Class; // Pw

  // enterReader: no signals at all.
  EXPECT_TRUE(P.decisions(0).empty())
      << P.Result.summary();

  // exitReader: exactly one signal — conditional, single, to writers.
  ASSERT_EQ(P.decisions(1).size(), 1u) << P.Result.summary();
  EXPECT_EQ(P.decisions(1)[0].Target, WritersClass);
  EXPECT_TRUE(P.decisions(1)[0].Conditional);
  EXPECT_FALSE(P.decisions(1)[0].Broadcast);

  // enterWriter: no signals.
  EXPECT_TRUE(P.decisions(2).empty()) << P.Result.summary();

  // exitWriter: conditional single signal to writers AND unconditional
  // broadcast to readers.
  ASSERT_EQ(P.decisions(3).size(), 2u) << P.Result.summary();
  const SignalDecision *ToReaders = nullptr;
  const SignalDecision *ToWriters = nullptr;
  for (const SignalDecision &D : P.decisions(3)) {
    if (D.Target == ReadersClass)
      ToReaders = &D;
    if (D.Target == WritersClass)
      ToWriters = &D;
  }
  ASSERT_NE(ToReaders, nullptr);
  ASSERT_NE(ToWriters, nullptr);
  EXPECT_TRUE(ToReaders->Broadcast);
  EXPECT_FALSE(ToReaders->Conditional); // signalAll unconditionally
  EXPECT_FALSE(ToWriters->Broadcast);
  EXPECT_TRUE(ToWriters->Conditional); // if (readers == 0) signal

  // The invariant pulled its weight.
  const Term *Readers = P.C.var("readers", logic::Sort::Int);
  EXPECT_TRUE(P.Solver->isValid(
      P.C.implies(P.Result.Invariant, P.C.ge(Readers, P.C.getZero()))));
}

// Specgen seed 2074 (corpus/regressions/) once hung invariant inference on
// abduction's first consistency check: a 40-way disjunction of atoms such
// as `36 | 8*v0 + 28 && 9 | 8*v0 + 1`, which the divisibility normal form
// collapses. On Z3 it now places in well under a second; MiniSmt still
// takes minutes on it.
TEST(PlacementTest, DivisibilityRegressionPlacesWithinDeadline) {
  if (!solver::hasZ3())
    GTEST_SKIP() << "bounded on Z3 only";
  std::string Here = __FILE__;
  std::ifstream In(Here.substr(0, Here.find_last_of('/')) +
                   "/../corpus/regressions/seed2074_arithmetic.mon");
  ASSERT_TRUE(In);
  std::string Source((std::istreambuf_iterator<char>(In)),
                     std::istreambuf_iterator<char>());
  support::CancelToken Deadline;
  Deadline.setDeadlineAfterSeconds(30);
  PlacementOptions Opts;
  Opts.Cancel = &Deadline;
  Pipeline P(Source.c_str(), Opts);
  EXPECT_FALSE(P.Result.Cancelled)
      << "cancelled during " << P.Result.cancelledPhase();
  EXPECT_GT(P.Result.Stats.HoareChecks, 0u);
}

/// Without the monitor invariant, enterReader can no longer prove the
/// no-signal triple (the paper's §2 observation) — placement degrades but
/// stays sound.
TEST(PlacementTest, WithoutInvariantIsConservative) {
  PlacementOptions Opts;
  Opts.UseInvariant = false;
  Pipeline P(RWSource, Opts);
  // enterReader must now signal the writers class.
  ASSERT_EQ(P.decisions(0).size(), 1u) << P.Result.summary();
  EXPECT_EQ(P.decisions(0)[0].Target, P.Sema->Ccrs[2].Class);
}

TEST(PlacementTest, BoundedBuffer) {
  Pipeline P(R"(
    monitor BoundedBuffer {
      const int capacity;
      int count = 0;
      requires capacity > 0;
      void put()  { waituntil (count < capacity) { count++; } }
      void take() { waituntil (count > 0) { count--; } }
    }
  )");
  ASSERT_EQ(P.Result.Placements.size(), 2u);
  const PredicateClass *NotFull = P.Sema->Ccrs[0].Class;
  const PredicateClass *NotEmpty = P.Sema->Ccrs[1].Class;

  // put signals take's class (count > 0) — single and unconditional
  // (count becomes >= 1 after count++ given count >= 0 from the invariant).
  ASSERT_EQ(P.decisions(0).size(), 1u) << P.Result.summary();
  EXPECT_EQ(P.decisions(0)[0].Target, NotEmpty);
  EXPECT_FALSE(P.decisions(0)[0].Broadcast);
  EXPECT_FALSE(P.decisions(0)[0].Conditional);

  // take signals put's class (count < capacity) — single, unconditional.
  ASSERT_EQ(P.decisions(1).size(), 1u) << P.Result.summary();
  EXPECT_EQ(P.decisions(1)[0].Target, NotFull);
  EXPECT_FALSE(P.decisions(1)[0].Broadcast);
  EXPECT_FALSE(P.decisions(1)[0].Conditional);
}

/// Example 4.2 from the paper: guards with thread-local variables force a
/// broadcast that the naive (rename-free) algorithm would miss.
TEST(PlacementTest, Example42RequiresBroadcast) {
  Pipeline P(R"(
    monitor M {
      int y = 0;
      void m1(int x) { waituntil (x < y) { x = y + 1; } }
      void m2() { y = y + 2; }
    }
  )");
  const PredicateClass *XltY = P.Sema->Ccrs[0].Class;
  ASSERT_FALSE(XltY->isGround());
  // m2 must notify the x<y class with a BROADCAST: executing one blocked
  // thread does not falsify another thread's instance of x < y.
  bool FoundBroadcast = false;
  for (const SignalDecision &D : P.decisions(1)) {
    if (D.Target == XltY) {
      EXPECT_TRUE(D.Broadcast) << P.Result.summary();
      FoundBroadcast = true;
    }
  }
  EXPECT_TRUE(FoundBroadcast) << P.Result.summary();
}

/// ConcurrencyThrottle (Spring): the §4.3 commutativity weakening is what
/// avoids the broadcast — threadCount-- commutes with everything, and
/// beforeAccess re-falsifies the waiting condition.
TEST(PlacementTest, ConcurrencyThrottleSingleSignal) {
  const char *Source = R"(
    monitor ConcurrencyThrottle {
      const int threadLimit;
      int threadCount = 0;
      requires threadLimit > 0;
      void beforeAccess() {
        waituntil (threadCount < threadLimit) { threadCount++; }
      }
      void afterAccess() { threadCount--; }
    }
  )";
  Pipeline P(Source);
  const PredicateClass *NotSaturated = P.Sema->Ccrs[0].Class;
  // afterAccess signals the class; thanks to §4.3 it is a SINGLE signal.
  ASSERT_EQ(P.decisions(1).size(), 1u) << P.Result.summary();
  EXPECT_EQ(P.decisions(1)[0].Target, NotSaturated);
  EXPECT_FALSE(P.decisions(1)[0].Broadcast) << P.Result.summary();

  // Ablation: without §4.3 the broadcast comes back.
  PlacementOptions NoComm;
  NoComm.UseCommutativity = false;
  Pipeline P2(Source, NoComm);
  ASSERT_EQ(P2.decisions(1).size(), 1u);
  EXPECT_TRUE(P2.decisions(1)[0].Broadcast) << P2.Result.summary();
}

TEST(PlacementTest, SelfSignalWhenBodyMakesOwnGuardTrue) {
  // A CCR whose body re-enables its own class for OTHER pending threads:
  // taking k at a time; take(k) leaves count > 0 possible, so no self
  // signal needed only if provably false. Here free(k) increases count and
  // must signal the waiters class.
  Pipeline P(R"(
    monitor Sem {
      int count = 0;
      void acquire(int k) { waituntil (count >= k) { count = count - k; } }
      void release(int k) { count = count + k; }
    }
  )");
  const PredicateClass *Waiters = P.Sema->Ccrs[0].Class;
  ASSERT_FALSE(Waiters->isGround());
  // release must broadcast (different waiters have different k).
  bool Found = false;
  for (const SignalDecision &D : P.decisions(1)) {
    if (D.Target == Waiters) {
      Found = true;
      EXPECT_TRUE(D.Broadcast) << P.Result.summary();
    }
  }
  EXPECT_TRUE(Found) << P.Result.summary();
}

TEST(PlacementTest, GroundTrueClassNeverSignaled) {
  Pipeline P(RWSource);
  for (const CcrPlacement &CP : P.Result.Placements)
    for (const SignalDecision &D : CP.Decisions)
      EXPECT_FALSE(D.Target->Canonical->isTrue());
}

TEST(PlacementTest, StatsAreConsistent) {
  Pipeline P(RWSource);
  const PlacementStats &S = P.Result.Stats;
  EXPECT_GT(S.HoareChecks, 0u);
  size_t TotalDecisions = 0;
  for (const CcrPlacement &CP : P.Result.Placements)
    TotalDecisions += CP.Decisions.size();
  EXPECT_EQ(S.Signals + S.Broadcasts, TotalDecisions);
  EXPECT_EQ(S.PairsConsidered,
            P.Sema->Ccrs.size() * P.Sema->Classes.size());
}

TEST(PlacementTest, SummaryMentionsEveryCcr) {
  Pipeline P(RWSource);
  std::string Summary = P.Result.summary();
  EXPECT_NE(Summary.find("enterReader"), std::string::npos);
  EXPECT_NE(Summary.find("exitWriter"), std::string::npos);
  EXPECT_NE(Summary.find("invariant"), std::string::npos);
}

} // namespace
