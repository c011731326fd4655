//===- trace/Semantics.cpp - §3 monitor trace semantics -------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "trace/Semantics.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace expresso;
using namespace expresso::trace;
using namespace expresso::frontend;
using logic::Assignment;

namespace {

/// Guard evaluation for thread t in state σ: (σ, t) |= Guard(w).
bool guardHolds(const MonitorState &S, const Event &E) {
  Assignment Locals;
  auto It = S.Locals.find(E.Thread);
  if (It != S.Locals.end())
    Locals = It->second;
  Assignment Shared = S.Shared;
  Env En{&Shared, &Locals};
  return evalExpr(E.W->Guard, En).asBool();
}

/// ⟨Body(w), t, σ⟩ ⇓ σ'.
MonitorState execBody(const MonitorState &S, const Event &E) {
  MonitorState Out = S;
  Assignment &Locals = Out.Locals[E.Thread];
  Env En{&Out.Shared, &Locals};
  execStmt(E.W->Body, En);
  return Out;
}

/// Guard truth of a *blocked* event id under a state.
bool blockedGuardHolds(const MonitorState &S, const EventId &Id) {
  Event E;
  E.Thread = Id.first;
  E.W = Id.second;
  return guardHolds(S, E);
}

/// The paper's total order ≺ on events: (thread, ccr id) lexicographic.
bool eventLess(const EventId &A, const EventId &B) {
  if (A.first != B.first)
    return A.first < B.first;
  return A.second->Id < B.second->Id;
}

std::optional<EventId> minOf(const std::set<EventId> &N) {
  std::optional<EventId> Best;
  for (const EventId &E : N)
    if (!Best || eventLess(E, *Best))
      Best = E;
  return Best;
}

/// GetSignals/GetBroadcasts (Figure 6) — selects which blocked events the
/// explicit system notifies after executing \p E with final state σ'.
std::set<EventId> explicitNotifications(const SemaInfo &Sema,
                                        const runtime::SignalPlan &Plan,
                                        const Event &E,
                                        const MonitorState &After,
                                        const std::set<EventId> &Blocked) {
  std::set<EventId> Out;
  const auto *Entries = Plan.entriesFor(E.W);
  std::vector<runtime::PlanEntry> Work;
  if (Entries)
    Work = *Entries;
  // The eager reading of broadcasts, as Figure 6 defines it. The lazy
  // chain is an implementation strategy: runtime::WakeLowering is the
  // implementation reading (chain wakes, checked lazy broadcasts) that the
  // engine and the emitters run, and this oracle deliberately does not use
  // it, so no extra entries here.
  for (const runtime::PlanEntry &PE : Work) {
    // Events(B, p): blocked events whose guard belongs to the class.
    std::vector<EventId> Members;
    for (const EventId &B : Blocked)
      if (Sema.info(B.second).Class == PE.Target)
        Members.push_back(B);
    std::sort(Members.begin(), Members.end(), eventLess);
    if (PE.Broadcast) {
      // GetBroadcasts: every member passing the condition check.
      for (const EventId &B : Members)
        if (!PE.Conditional || blockedGuardHolds(After, B))
          Out.insert(B);
    } else if (!Members.empty()) {
      // GetSignals: exactly min(Events(B, p)), kept only if the condition
      // holds for that event (Figure 6, verbatim).
      const EventId &Min = Members.front();
      if (!PE.Conditional || blockedGuardHolds(After, Min))
        Out.insert(Min);
    }
  }
  return Out;
}

} // namespace

bool trace::isWellFormed(const std::vector<ThreadTask> &Tasks,
                         const Trace &T) {
  // Requirement (a)+(b) via per-thread projection: fired events must follow
  // the method's CCR order; a blocked event must repeat the thread's
  // current CCR.
  std::map<unsigned, size_t> Pos;
  std::map<unsigned, const ThreadTask *> TaskOf;
  for (const ThreadTask &Task : Tasks)
    TaskOf[Task.Thread] = &Task;
  for (const Event &E : T) {
    auto It = TaskOf.find(E.Thread);
    if (It == TaskOf.end())
      return false;
    const Method *M = It->second->M;
    size_t &P = Pos[E.Thread];
    if (P >= M->Body.size())
      return false; // thread already finished its method
    if (E.W != &M->Body[P])
      return false; // out-of-order CCR
    if (E.Fired)
      ++P;
  }
  // Requirement (c): a thread leaves the monitor only by blocking or by
  // finishing its method. Consecutive events by the same thread inside a
  // method are adjacent: if τ[i] = (t, w, true) and w is not the last CCR
  // of t's method, then τ[i+1] must be by t.
  for (size_t I = 0; I + 1 < T.size(); ++I) {
    const Event &E = T[I];
    if (!E.Fired)
      continue;
    const Method *M = TaskOf[E.Thread]->M;
    bool IsLast = (E.W == &M->Body.back());
    if (!IsLast && T[I + 1].Thread != E.Thread)
      return false;
  }
  // Note: a trace may END with a thread mid-method — Definition 10.2 allows
  // the projection to finish with a *prefix* of a method body. Requirement
  // (c) only constrains mid-trace hand-offs (the adjacency rule above).
  return true;
}

std::optional<Config> trace::stepImplicit(const SemaInfo &Sema,
                                          const Config &C, const Event &E) {
  (void)Sema;
  EventId Id{E.Thread, E.W};
  Config Out = C;
  if (!E.Fired) {
    // Rules (1a)/(1b): the guard must be false.
    if (guardHolds(C.State, E))
      return std::nullopt;
    if (!C.Blocked.count(Id)) {
      Out.Blocked.insert(Id); // (1a)
      return Out;
    }
    if (C.Notified.count(Id)) {
      Out.Notified.erase(Id); // (1b): spurious wakeup
      Out.UsedRule1b = true;
      return Out;
    }
    return std::nullopt;
  }
  // Rules (2a)/(2b): the guard must be true.
  if (!guardHolds(C.State, E))
    return std::nullopt;
  bool InB = C.Blocked.count(Id) != 0;
  if (InB) {
    // (2b): must be the minimum of N.
    auto Min = minOf(C.Notified);
    if (!Min || *Min != Id)
      return std::nullopt;
  }
  MonitorState After = execBody(C.State, E);
  Out.State = After;
  // N' = all blocked events whose predicates now hold.
  std::set<EventId> NewlyTrue;
  for (const EventId &B : C.Blocked)
    if (blockedGuardHolds(After, B))
      NewlyTrue.insert(B);
  Out.Notified.insert(NewlyTrue.begin(), NewlyTrue.end());
  if (InB) {
    Out.Blocked.erase(Id);
    Out.Notified.erase(Id);
  }
  Out.Position[E.Thread] += 1;
  return Out;
}

std::optional<Config> trace::stepExplicit(const SemaInfo &Sema,
                                          const runtime::SignalPlan &Plan,
                                          const Config &C, const Event &E) {
  EventId Id{E.Thread, E.W};
  Config Out = C;
  if (!E.Fired) {
    if (guardHolds(C.State, E))
      return std::nullopt;
    if (!C.Blocked.count(Id)) {
      Out.Blocked.insert(Id);
      return Out;
    }
    if (C.Notified.count(Id)) {
      Out.Notified.erase(Id);
      Out.UsedRule1b = true;
      return Out;
    }
    return std::nullopt;
  }
  if (!guardHolds(C.State, E))
    return std::nullopt;
  bool InB = C.Blocked.count(Id) != 0;
  if (InB) {
    auto Min = minOf(C.Notified);
    if (!Min || *Min != Id)
      return std::nullopt;
  }
  MonitorState After = execBody(C.State, E);
  Out.State = After;
  std::set<EventId> N12 =
      explicitNotifications(Sema, Plan, E, After, C.Blocked);
  Out.Notified.insert(N12.begin(), N12.end());
  if (InB) {
    Out.Blocked.erase(Id);
    Out.Notified.erase(Id);
  }
  Out.Position[E.Thread] += 1;
  return Out;
}

std::optional<Config> trace::replay(const SemaInfo &Sema,
                                    const runtime::SignalPlan *Plan,
                                    const std::vector<ThreadTask> &Tasks,
                                    const MonitorState &Initial,
                                    const Trace &T) {
  if (!isWellFormed(Tasks, T))
    return std::nullopt;
  Config C;
  C.State = Initial;
  for (const ThreadTask &Task : Tasks)
    C.State.Locals[Task.Thread] = Task.Locals;
  for (const Event &E : T) {
    std::optional<Config> Next =
        Plan ? stepExplicit(Sema, *Plan, C, E) : stepImplicit(Sema, C, E);
    if (!Next)
      return std::nullopt;
    C = std::move(*Next);
  }
  return C;
}

std::string trace::printTrace(const Trace &T) {
  std::ostringstream OS;
  OS << "[";
  for (size_t I = 0; I < T.size(); ++I) {
    if (I)
      OS << ", ";
    OS << "(t" << T[I].Thread << ", w" << T[I].W->Id << ", "
       << (T[I].Fired ? "true" : "false") << ")";
  }
  OS << "]";
  return OS.str();
}

namespace {

/// DFS enumeration of feasible traces of one system, invoking a callback at
/// every node (trace prefix).
template <typename StepFn, typename VisitFn>
void enumerate(const std::vector<ThreadTask> &Tasks, const Config &C,
               Trace &Prefix, size_t MaxEvents, bool ForbidRule1b,
               const StepFn &Step, const VisitFn &Visit) {
  if (!Visit(Prefix, C))
    return; // visitor requests cutoff (e.g., counterexample found)
  if (Prefix.size() >= MaxEvents)
    return;
  for (const ThreadTask &Task : Tasks) {
    size_t Pos = C.Position.count(Task.Thread)
                     ? C.Position.at(Task.Thread)
                     : 0;
    if (Pos >= Task.M->Body.size())
      continue;
    // Well-formedness rule (c): if the previous event fired a non-final
    // CCR of its method, only that thread may move.
    if (!Prefix.empty()) {
      const Event &Last = Prefix.back();
      if (Last.Fired) {
        const Method *LastM = nullptr;
        for (const ThreadTask &T2 : Tasks)
          if (T2.Thread == Last.Thread)
            LastM = T2.M;
        if (LastM && Last.W != &LastM->Body.back() &&
            Last.Thread != Task.Thread)
          continue;
      }
    }
    const WaitUntil *W = &Task.M->Body[Pos];
    for (bool Fired : {true, false}) {
      Event E{Task.Thread, W, Fired};
      std::optional<Config> Next = Step(C, E);
      if (!Next)
        continue;
      if (ForbidRule1b && Next->UsedRule1b)
        continue;
      Prefix.push_back(E);
      enumerate(Tasks, *Next, Prefix, MaxEvents, ForbidRule1b, Step, Visit);
      Prefix.pop_back();
    }
  }
}

Config initialConfig(const std::vector<ThreadTask> &Tasks,
                     const MonitorState &Initial) {
  Config C;
  C.State = Initial;
  for (const ThreadTask &Task : Tasks) {
    C.State.Locals[Task.Thread] = Task.Locals;
    C.Position[Task.Thread] = 0;
  }
  return C;
}

} // namespace

EquivalenceResult trace::checkEquivalenceBounded(
    const SemaInfo &Sema, const runtime::SignalPlan &Plan,
    const std::vector<ThreadTask> &Tasks, const MonitorState &Initial,
    size_t MaxEvents) {
  EquivalenceResult Result;
  Config C0 = initialConfig(Tasks, Initial);

  // Condition (1): explicit-feasible => implicit-feasible, same final σ.
  {
    Trace Prefix;
    auto Step = [&](const Config &C, const Event &E) {
      return stepExplicit(Sema, Plan, C, E);
    };
    auto Visit = [&](const Trace &T, const Config &C) {
      ++Result.TracesChecked;
      std::optional<Config> Imp = replay(Sema, nullptr, Tasks, Initial, T);
      if (!Imp || !Imp->State.sharedEquals(C.State)) {
        Result.Equivalent = false;
        Result.CounterExample =
            "explicit-feasible trace not implicit-feasible (Def 3.4(1)): " +
            printTrace(T);
        return false;
      }
      return true;
    };
    enumerate(Tasks, C0, Prefix, MaxEvents, /*ForbidRule1b=*/false, Step,
              Visit);
    if (!Result.Equivalent)
      return Result;
  }

  // Condition (2): normalized implicit-feasible => explicit-feasible.
  {
    Trace Prefix;
    auto Step = [&](const Config &C, const Event &E) {
      return stepImplicit(Sema, C, E);
    };
    auto Visit = [&](const Trace &T, const Config &C) {
      ++Result.TracesChecked;
      std::optional<Config> Exp = replay(Sema, &Plan, Tasks, Initial, T);
      if (!Exp || !Exp->State.sharedEquals(C.State)) {
        Result.Equivalent = false;
        Result.CounterExample =
            "normalized implicit trace not explicit-feasible (Def 3.4(2)): " +
            printTrace(T);
        return false;
      }
      return true;
    };
    enumerate(Tasks, C0, Prefix, MaxEvents, /*ForbidRule1b=*/true, Step,
              Visit);
  }
  return Result;
}
