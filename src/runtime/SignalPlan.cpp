//===- runtime/SignalPlan.cpp - Executable signaling plans ----------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "runtime/SignalPlan.h"

#include <cassert>

using namespace expresso;
using namespace expresso::runtime;

SignalPlan SignalPlan::fromPlacement(const core::PlacementResult &R) {
  SignalPlan Plan;
  Plan.LazyBroadcast = R.Options.LazyBroadcast;
  for (const core::CcrPlacement &P : R.Placements) {
    std::vector<PlanEntry> Es;
    Es.reserve(P.Decisions.size());
    for (const core::SignalDecision &D : P.Decisions)
      Es.push_back({D.Target, D.Conditional, D.Broadcast});
    if (!Es.empty())
      Plan.Entries.emplace(P.W, std::move(Es));
  }
  return Plan;
}

WakeLowering::WakeLowering(const frontend::SemaInfo &Sema,
                           const SignalPlan &Plan) {
  bool Lazy = Plan.LazyBroadcast;
  // Classes that receive a lazy broadcast, indexed by PredicateClass::Index.
  std::vector<bool> IsChained(Sema.Classes.size());
  if (Lazy)
    for (const auto &[W, Es] : Plan.Entries)
      for (const PlanEntry &E : Es)
        if (E.Broadcast)
          IsChained[E.Target->Index] = true;

  for (const frontend::CcrInfo &CI : Sema.Ccrs) {
    std::vector<Wake> &Ws = Wakes[CI.W];
    if (IsChained[CI.Class->Index])
      Ws.push_back({CI.Class, /*Conditional=*/true, /*All=*/false,
                    /*Chain=*/true});
    if (const auto *Es = Plan.entriesFor(CI.W))
      for (const PlanEntry &E : *Es) {
        // A lazy broadcast wakes one waiter, predicate-checked.
        bool LazyBroadcast = E.Broadcast && Lazy;
        Ws.push_back({E.Target, LazyBroadcast || E.Conditional,
                      E.Broadcast && !Lazy, /*Chain=*/false});
      }
  }
}

SignalPlanBuilder &SignalPlanBuilder::notify(const std::string &Method,
                                             unsigned CcrIdx,
                                             const std::string &TargetMethod,
                                             unsigned TargetCcrIdx,
                                             bool Conditional, bool Broadcast) {
  const frontend::Method *M = Sema.M->findMethod(Method);
  const frontend::Method *TM = Sema.M->findMethod(TargetMethod);
  assert(M && TM && "unknown method in gold plan");
  assert(CcrIdx < M->Body.size() && TargetCcrIdx < TM->Body.size());
  const frontend::WaitUntil *W = &M->Body[CcrIdx];
  const frontend::WaitUntil *TW = &TM->Body[TargetCcrIdx];
  PlanEntry E;
  E.Target = Sema.info(TW).Class;
  E.Conditional = Conditional;
  E.Broadcast = Broadcast;
  Plan.Entries[W].push_back(E);
  return *this;
}
