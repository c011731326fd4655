//===- tests/InternStressTest.cpp - Concurrent interning stress ----------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// Hammers the sharded lock-free interner: N threads × M contexts driving
// intern / transferTerm concurrently, asserting the invariants the rest of
// the engine leans on — structural-hash uniqueness (equal structure ⇒ same
// pointer, distinct structure ⇒ distinct pointer), id uniqueness under
// racing publishes, id-determinism of serial construction across runs, and
// agreement of concurrent simplify calls racing on a term's memo.
// Runs under TSan in CI (ctest label "intern" rides the sanitizer leg's
// filter), where the bucket-CAS publish, table migration, and arena
// rollover protocols get their real workout.
//
//===----------------------------------------------------------------------===//

#include "logic/Simplify.h"
#include "logic/Term.h"
#include "logic/TermOps.h"

#include <gtest/gtest.h>

#include <atomic>
#include <barrier>
#include <memory>
#include <set>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

using namespace expresso;
using namespace expresso::logic;

namespace {

/// Builds thread T's slice of a mixed hit/miss formula stream in \p C.
/// Shared shapes (drawn from a small window) collide across threads and
/// must converge on identical pointers; private shapes are thread-unique.
std::vector<const Term *> buildSlice(TermContext &C, unsigned T,
                                     unsigned OpsPerThread,
                                     const std::vector<const Term *> &Vars) {
  std::vector<const Term *> Out;
  Out.reserve(OpsPerThread);
  uint64_t State = 0x2545f4914f6cdd1dULL + T;
  auto Next = [&State]() {
    State = State * 6364136223846793005ULL + 1442695040888963407ULL;
    return State >> 16;
  };
  for (unsigned I = 0; I < OpsPerThread; ++I) {
    const Term *X = Vars[Next() % Vars.size()];
    const Term *Y = Vars[Next() % Vars.size()];
    int64_t K = (I % 2 == 0) ? static_cast<int64_t>(Next() % 64) // shared
                             : 1000 + static_cast<int64_t>(T) * OpsPerThread +
                                   I; // thread-private
    switch (Next() % 4) {
    case 0:
      Out.push_back(C.le(X, C.intConst(K)));
      break;
    case 1:
      Out.push_back(C.eq(C.add(X, Y), C.intConst(K)));
      break;
    case 2:
      Out.push_back(C.and_(C.lt(X, C.intConst(K)), C.divides(3, Y)));
      break;
    default:
      Out.push_back(C.or_(C.not_(C.le(X, Y)), C.eq(X, C.intConst(K))));
      break;
    }
  }
  return Out;
}

} // namespace

// Equal structures built concurrently from many threads must all intern to
// one pointer per structure, and every published term must carry a unique
// id and a structural hash consistent with a serial rebuild.
TEST(InternStressTest, ConcurrentInternConverges) {
  constexpr unsigned Threads = 8;
  constexpr unsigned OpsPerThread = 4000;

  TermContext C;
  std::vector<const Term *> Vars;
  for (unsigned V = 0; V < 8; ++V)
    Vars.push_back(C.var("v" + std::to_string(V), Sort::Int));

  std::vector<std::vector<const Term *>> Slices(Threads);
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Slices[T] = buildSlice(C, T, OpsPerThread, Vars);
    });
  Go.store(true, std::memory_order_release);
  for (auto &Th : Pool)
    Th.join();

  // Re-running any slice serially must return the exact same pointers: the
  // table holds one node per structure, permanently.
  for (unsigned T = 0; T < Threads; ++T) {
    std::vector<const Term *> Again = buildSlice(C, T, OpsPerThread, Vars);
    EXPECT_EQ(Again, Slices[T]) << "re-intern diverged for thread " << T;
  }

  // Structural-hash uniqueness: within the context, equal hash + equal
  // structure ⇒ same pointer. Collect the whole published population
  // reachable from the slices and check ids are unique and hashes map to
  // single pointers per structure.
  std::unordered_set<const Term *> Population;
  std::vector<const Term *> Work;
  for (auto &S : Slices)
    for (const Term *F : S)
      Work.push_back(F);
  while (!Work.empty()) {
    const Term *F = Work.back();
    Work.pop_back();
    if (!Population.insert(F).second)
      continue;
    for (const Term *Op : F->operands())
      Work.push_back(Op);
  }
  std::set<uint32_t> Ids;
  std::unordered_map<uint64_t, std::vector<const Term *>> ByHash;
  for (const Term *F : Population) {
    EXPECT_TRUE(Ids.insert(F->id()).second)
        << "duplicate id " << F->id() << " for " << F->str();
    ByHash[F->structuralHash()].push_back(F);
  }
  // Hash collisions between *distinct* structures are permitted (64-bit
  // hash), but two nodes with equal hash and equal rendering would mean the
  // dedup failed.
  for (auto &[H, Terms] : ByHash) {
    if (Terms.size() < 2)
      continue;
    std::set<std::string> Rendered;
    for (const Term *F : Terms)
      EXPECT_TRUE(Rendered.insert(F->str()).second)
          << "two published nodes for one structure: " << F->str();
  }
}

// Serial construction is bit-for-bit reproducible: two fresh contexts fed
// the same build sequence assign identical ids, hashes, and renderings.
// This is the determinism contract Σ/stats byte-parity rests on.
TEST(InternStressTest, SerialIdDeterminismAcrossRuns) {
  auto Build = [](TermContext &C) {
    std::vector<const Term *> Vars;
    for (unsigned V = 0; V < 4; ++V)
      Vars.push_back(C.var("v" + std::to_string(V), Sort::Int));
    return buildSlice(C, /*T=*/0, /*OpsPerThread=*/2000, Vars);
  };
  TermContext C1, C2;
  std::vector<const Term *> R1 = Build(C1), R2 = Build(C2);
  ASSERT_EQ(R1.size(), R2.size());
  for (size_t I = 0; I < R1.size(); ++I) {
    EXPECT_EQ(R1[I]->id(), R2[I]->id()) << "id sequence diverged at " << I;
    EXPECT_EQ(R1[I]->structuralHash(), R2[I]->structuralHash());
    EXPECT_EQ(R1[I]->str(), R2[I]->str());
  }
  EXPECT_EQ(C1.numTerms(), C2.numTerms());
}

// N threads × M contexts: every thread transfers a shared formula set into
// its own subset of contexts concurrently with other threads targeting the
// same contexts. Transfers of one structure into one context must converge
// on one pointer, with the structural hash preserved exactly.
TEST(InternStressTest, ConcurrentTransferTermAcrossContexts) {
  constexpr unsigned Threads = 8;
  constexpr unsigned Contexts = 4;

  TermContext Src;
  std::vector<const Term *> Vars;
  for (unsigned V = 0; V < 6; ++V)
    Vars.push_back(Src.var("v" + std::to_string(V), Sort::Int));
  std::vector<const Term *> Formulas =
      buildSlice(Src, /*T=*/0, /*OpsPerThread=*/800, Vars);

  std::vector<std::unique_ptr<TermContext>> Dsts;
  for (unsigned D = 0; D < Contexts; ++D)
    Dsts.push_back(std::make_unique<TermContext>());

  // Results[T][D][I]: thread T's transfer of formula I into context D.
  std::vector<std::vector<std::vector<const Term *>>> Results(
      Threads, std::vector<std::vector<const Term *>>(Contexts));
  std::atomic<bool> Go{false};
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      // Stagger the visiting order per thread so every context sees
      // first-transfer races from several threads, not a warmed table.
      for (unsigned Step = 0; Step < Contexts; ++Step) {
        unsigned D = (T + Step) % Contexts;
        auto &Out = Results[T][D];
        Out.reserve(Formulas.size());
        for (const Term *F : Formulas)
          Out.push_back(transferTerm(*Dsts[D], F));
      }
    });
  Go.store(true, std::memory_order_release);
  for (auto &Th : Pool)
    Th.join();

  // All threads' transfers into one context agree pointer-for-pointer, and
  // structural hashes survive the crossing untouched.
  for (unsigned D = 0; D < Contexts; ++D) {
    // Reference: a fresh serial transfer into the same context (pure hits
    // now) — equals what every thread got.
    for (size_t I = 0; I < Formulas.size(); ++I) {
      const Term *Ref = transferTerm(*Dsts[D], Formulas[I]);
      EXPECT_EQ(Ref->structuralHash(), Formulas[I]->structuralHash())
          << "transfer changed structural hash of " << Formulas[I]->str();
      for (unsigned T = 0; T < Threads; ++T)
        EXPECT_EQ(Results[T][D][I], Ref)
            << "thread " << T << " got a different node in context " << D;
    }
  }
}

// Sustained miss pressure from many threads forces repeated table growth
// and arena-chunk rollover in one shard-heavy context; everything must
// stay unique and reachable afterwards.
TEST(InternStressTest, GrowthUnderMissPressure) {
  constexpr unsigned Threads = 8;
  constexpr unsigned PerThread = 6000;

  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  std::atomic<bool> Go{false};
  std::vector<std::vector<const Term *>> Out(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      while (!Go.load(std::memory_order_acquire))
        std::this_thread::yield();
      Out[T].reserve(PerThread);
      for (unsigned I = 0; I < PerThread; ++I) {
        int64_t K = static_cast<int64_t>(T) * PerThread + I;
        Out[T].push_back(C.le(X, C.intConst(K))); // all distinct: pure miss
      }
    });
  Go.store(true, std::memory_order_release);
  for (auto &Th : Pool)
    Th.join();

  std::unordered_set<const Term *> Distinct;
  std::set<uint32_t> Ids;
  for (auto &V : Out)
    for (const Term *F : V) {
      Distinct.insert(F);
      EXPECT_TRUE(Ids.insert(F->id()).second) << "duplicate id under growth";
    }
  EXPECT_EQ(Distinct.size(), static_cast<size_t>(Threads) * PerThread);
  // Lookups after the storm are hits on the final table generation.
  for (unsigned T = 0; T < Threads; ++T)
    for (unsigned I = 0; I < PerThread; I += 997) {
      int64_t K = static_cast<int64_t>(T) * PerThread + I;
      EXPECT_EQ(C.le(X, C.intConst(K)), Out[T][I]);
    }
}

// Threads that miss on one key at the same moment race to publish it: one
// wins the bucket CAS and the rest must return the winner. Every thread
// interns the same keys in the same order, released together each round
// into a fresh context, so most keys are first-published under contention.
// A loser that compared the winner against its own already-moved-out
// operands would publish a second node for the key.
TEST(InternStressTest, LockstepMissesReturnOneNode) {
  constexpr unsigned Threads = 4;
  constexpr unsigned Keys = 2000;
  constexpr unsigned Rounds = 200;

  std::unique_ptr<TermContext> C;
  std::vector<const Term *> Vars;
  std::vector<std::vector<const Term *>> Got(Threads);
  // Completion runs on one thread between phases: it opens the next round's
  // context before the threads start and retires it once they are done.
  unsigned Round = 0, Phase = 0, Mismatches = 0;
  auto Step = [&]() noexcept {
    if (Phase++ % 2 == 0) {
      C = std::make_unique<TermContext>();
      Vars.clear();
      for (unsigned V = 0; V < 4; ++V)
        Vars.push_back(C->var("v" + std::to_string(V), Sort::Int));
      return;
    }
    for (unsigned T = 1; T < Threads; ++T)
      for (unsigned I = 0; I < Keys; ++I)
        Mismatches += Got[T][I] != Got[0][I];
    ++Round;
  };
  std::barrier Sync(Threads, Step);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      for (unsigned R = 0; R < Rounds; ++R) {
        Sync.arrive_and_wait(); // the round's context is ready
        auto &Out = Got[T];
        Out.clear();
        for (unsigned I = 0; I < Keys; ++I)
          Out.push_back(C->le(Vars[I % Vars.size()], C->intConst(I)));
        Sync.arrive_and_wait(); // every thread done: compare
      }
    });
  for (auto &Th : Pool)
    Th.join();
  EXPECT_EQ(Round, Rounds);
  EXPECT_EQ(Mismatches, 0u)
      << "lookups that returned a second node for an already-published key";
}

// Threads that simplify the same terms at the same time race to intern the
// simplified forms and to publish each input's memo. Every thread must get
// the one simplified form back, whichever thread computed or cached it.
TEST(InternStressTest, ConcurrentSimplifyAgrees) {
  constexpr unsigned Threads = 8;
  constexpr unsigned Formulas = 1000;

  TermContext C;
  std::vector<const Term *> Vars;
  for (unsigned V = 0; V < 4; ++V)
    Vars.push_back(C.var("v" + std::to_string(V), Sort::Int));
  // Junctions of neighbouring atoms give the simplifier bounds to merge,
  // prune and absorb.
  std::vector<const Term *> Atoms = buildSlice(C, 0, Formulas + 1, Vars);
  std::vector<const Term *> Shared;
  for (unsigned I = 0; I < Formulas; ++I)
    Shared.push_back(I % 2 ? C.or_(Atoms[I], Atoms[I + 1])
                           : C.and_(Atoms[I], C.not_(Atoms[I + 1])));

  std::vector<std::vector<const Term *>> Got(
      Threads, std::vector<const Term *>(Formulas));
  std::barrier Start(Threads);
  std::vector<std::thread> Pool;
  for (unsigned T = 0; T < Threads; ++T)
    Pool.emplace_back([&, T] {
      Start.arrive_and_wait();
      // Half the threads walk forwards, half backwards, so both first
      // computations and memo hits interleave.
      for (unsigned K = 0; K < Formulas; ++K) {
        unsigned I = T % 2 ? Formulas - 1 - K : K;
        Got[T][I] = simplify(C, Shared[I]);
      }
    });
  for (auto &Th : Pool)
    Th.join();

  unsigned Mismatches = 0;
  for (unsigned T = 1; T < Threads; ++T)
    for (unsigned I = 0; I < Formulas; ++I)
      Mismatches += Got[T][I] != Got[0][I];
  EXPECT_EQ(Mismatches, 0u);
  for (unsigned I = 0; I < Formulas; ++I)
    EXPECT_EQ(simplify(C, Shared[I]), Got[0][I]);
}
