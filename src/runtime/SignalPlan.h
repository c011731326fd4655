//===- runtime/SignalPlan.h - Executable signaling plans --------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A SignalPlan is the runtime form of Algorithm 1's Σ map: for every CCR,
/// the list of (predicate class, conditional?, broadcast?) notifications to
/// perform after its body. Plans come from two sources:
///
///   * PlacementResult (the Expresso-generated discipline), and
///   * hand-written gold plans (the "Explicit" competitor in Figures 8/9,
///     written the way an expert would place signals by hand).
///
/// Keeping both on the same runtime engine makes the benchmark comparison
/// apples-to-apples: the engines differ only in signaling strategy.
///
/// WakeLowering is the one step from a plan to the wakes of §6: the explicit
/// engine runs them, and the C++ and Java emitters print them.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_RUNTIME_SIGNALPLAN_H
#define EXPRESSO_RUNTIME_SIGNALPLAN_H

#include "core/SignalPlacement.h"

#include <map>
#include <vector>

namespace expresso {
namespace runtime {

/// One notification to perform after a CCR body.
struct PlanEntry {
  const frontend::PredicateClass *Target = nullptr;
  bool Conditional = true;
  bool Broadcast = false;
};

/// Per-CCR notification lists plus the lazy-broadcast flag (§6).
struct SignalPlan {
  std::map<const frontend::WaitUntil *, std::vector<PlanEntry>> Entries;
  bool LazyBroadcast = true;

  const std::vector<PlanEntry> *entriesFor(const frontend::WaitUntil *W) const {
    auto It = Entries.find(W);
    return It == Entries.end() ? nullptr : &It->second;
  }

  /// Converts Algorithm 1's output into an executable plan.
  static SignalPlan fromPlacement(const core::PlacementResult &R);
};

/// One wake operation after a CCR's body.
struct Wake {
  const frontend::PredicateClass *Target = nullptr;
  bool Conditional = true; ///< test the class predicate before waking
  bool All = false;        ///< wake every waiter (eager broadcast)
  bool Chain = false;      ///< lazy-broadcast chain on the CCR's own class
};

/// A plan lowered to explicit wakes (§6). Under lazy broadcast, a broadcast
/// to class Q becomes one predicate-checked wake, and every CCR waiting on Q
/// passes the wake on after its body (the chain). Without it, a broadcast
/// wakes every waiter. Signals pass through unchanged.
class WakeLowering {
public:
  WakeLowering(const frontend::SemaInfo &Sema, const SignalPlan &Plan);

  /// The wakes after \p W's body, in order, chain wake first.
  const std::vector<Wake> &wakesAfter(const frontend::WaitUntil *W) const {
    return Wakes.at(W);
  }

private:
  std::map<const frontend::WaitUntil *, std::vector<Wake>> Wakes;
};

/// Convenience builder for hand-written gold plans: addresses CCRs by
/// (method name, waituntil index within the method) and classes by the CCR
/// whose guard defines them.
class SignalPlanBuilder {
public:
  SignalPlanBuilder(const frontend::SemaInfo &Sema) : Sema(Sema) {}

  /// Adds a notification after \p Method's \p CcrIdx-th waituntil, targeting
  /// the guard class of \p TargetMethod's \p TargetCcrIdx-th waituntil.
  SignalPlanBuilder &notify(const std::string &Method, unsigned CcrIdx,
                            const std::string &TargetMethod,
                            unsigned TargetCcrIdx, bool Conditional,
                            bool Broadcast);

  SignalPlanBuilder &lazyBroadcast(bool Enabled) {
    Plan.LazyBroadcast = Enabled;
    return *this;
  }

  SignalPlan build() { return std::move(Plan); }

private:
  const frontend::SemaInfo &Sema;
  SignalPlan Plan;
};

} // namespace runtime
} // namespace expresso

#endif // EXPRESSO_RUNTIME_SIGNALPLAN_H
