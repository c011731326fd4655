//===- runtime/Engine.cpp - Monitor execution engines ---------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "runtime/Engine.h"

#include "runtime/Bytecode.h"

#include <algorithm>
#include <cassert>
#include <condition_variable>
#include <list>
#include <mutex>
#include <stdexcept>

using namespace expresso;
using namespace expresso::runtime;
using namespace expresso::frontend;
using logic::Assignment;

MonitorEngine::~MonitorEngine() = default;

void MonitorEngine::call(const std::string &Method, Assignment Locals) {
  const frontend::Method *M = Sema.M->findMethod(Method);
  if (!M)
    throw std::invalid_argument("unknown monitor method '" + Method + "' in " +
                                Sema.M->Name);
  call(M, std::move(Locals));
}

namespace {

/// One waituntil, compiled once per engine.
struct CompiledCcr {
  const WaitUntil *W = nullptr;
  unsigned Class = 0; ///< PredicateClass::Index of the guard
  Program Guard;
  Program Body;
  /// ExplicitEngine only: the plan's lowered wakes after the body.
  std::vector<Wake> Wakes;
};

/// One method: its CCRs and where the caller's arguments go.
struct CompiledMethod {
  std::vector<CompiledCcr> Ccrs;
  /// Parameter name (owned by the AST) and its local slot.
  std::vector<std::pair<const std::string *, size_t>> Params;
};

/// A blocked thread's parking slot. Lives on the waiter's stack.
struct Waiter {
  std::condition_variable Cv;
  bool Notified = false;
  /// The CCR the thread waits in. Its compiled guard over the waiter's
  /// locals is the waiter's predicate instance: Sema builds the class's
  /// canonical guard from that guard by renaming the class arguments, so
  /// the two agree (§6).
  const CompiledCcr *Ccr = nullptr;
  int64_t *Locals = nullptr;
};

void notify(Waiter *W) {
  W->Notified = true;
  W->Cv.notify_one();
}

/// Common machinery: lock, slot-form state, compiled CCRs, waiter protocol.
class EngineBase : public MonitorEngine {
public:
  EngineBase(const SemaInfo &Sema, const Assignment &Overrides)
      : MonitorEngine(Sema), Layout(*Sema.M),
        Shared(Layout.packShared(initialState(*Sema.M, Overrides))) {
    size_t MaxStack = 0;
    for (const Method &Me : Sema.M->Methods) {
      CompiledMethod &CM = Methods.emplace_back();
      for (const Param &P : Me.Params)
        CM.Params.emplace_back(
            &P.Name, static_cast<size_t>(Layout.localSlot(Me, P.Name)));
      for (const WaitUntil &W : Me.Body) {
        CompiledCcr &C = CM.Ccrs.emplace_back();
        C.W = &W;
        C.Class = Sema.info(&W).Class->Index;
        C.Guard = compileExpr(Layout, W.Guard, &Me);
        C.Body = compileStmt(Layout, W.Body, &Me);
        MaxStack = std::max({MaxStack, C.Guard.MaxStack, C.Body.MaxStack});
      }
    }
    Stack.resize(MaxStack);
  }

  Assignment snapshot() override {
    std::unique_lock<std::mutex> L(Mtx);
    return Layout.unpackShared(Shared);
  }

  EngineStats stats() override {
    std::unique_lock<std::mutex> L(Mtx);
    return Stats;
  }

  void call(const Method *M, Assignment Args) override {
    assert(M >= Sema.M->Methods.data() &&
           M < Sema.M->Methods.data() + Sema.M->Methods.size() &&
           "method of another monitor");
    const CompiledMethod &CM =
        Methods[static_cast<size_t>(M - Sema.M->Methods.data())];
    // The thread's locals: on this stack frame unless the monitor has an
    // unusually large method.
    constexpr size_t InlineLocals = 16;
    int64_t Inline[InlineLocals];
    std::vector<int64_t> Spill;
    int64_t *Locals = Inline;
    if (Layout.numLocalSlots() > InlineLocals) {
      Spill.resize(Layout.numLocalSlots());
      Locals = Spill.data();
    }
    std::fill_n(Locals, Layout.numLocalSlots(), 0);
    for (const auto &[Name, Slot] : CM.Params) {
      auto It = Args.find(*Name);
      if (It != Args.end())
        Locals[Slot] = It->second.I;
    }

    std::unique_lock<std::mutex> L(Mtx);
    ++Stats.Calls;
    for (const CompiledCcr &C : CM.Ccrs) {
      awaitGuard(C, Locals, L);
      execute(C.Body, Shared, Locals, Stack.data());
      afterBody(C);
    }
  }

protected:
  /// Blocks until C's guard holds (monitor locked on entry and exit).
  void awaitGuard(const CompiledCcr &C, int64_t *Locals,
                  std::unique_lock<std::mutex> &L) {
    bool FirstCheck = true;
    while (true) {
      ++Stats.PredicateEvals;
      if (execute(C.Guard, Shared, Locals, Stack.data()))
        break;
      if (!FirstCheck) {
        // Woken, but a racing thread consumed the resource first. Forward
        // the notification so the logical signal is not swallowed by a
        // waiter that can no longer use it.
        ++Stats.SpuriousWakeups;
        forwardFailedWake(C);
      }
      FirstCheck = false;
      ++Stats.Blocks;
      Waiter Slot;
      Slot.Ccr = &C;
      Slot.Locals = Locals;
      registerWaiter(&Slot);
      Slot.Cv.wait(L, [&] { return Slot.Notified; });
      ++Stats.Wakeups;
    }
  }

  /// Hooks specialized per engine. All run with the monitor locked.
  virtual void registerWaiter(Waiter *W) = 0;
  virtual void afterBody(const CompiledCcr &C) = 0;
  /// Called when a woken waiter finds its guard false again and is about to
  /// re-block: pass the notification to another eligible waiter.
  virtual void forwardFailedWake(const CompiledCcr &C) { (void)C; }

  /// Evaluates a parked waiter's predicate instance against the current
  /// shared state.
  bool waiterHolds(const Waiter *Wt) {
    ++Stats.PredicateEvals;
    return execute(Wt->Ccr->Guard, Shared, Wt->Locals, Stack.data()) != 0;
  }

  const SlotLayout Layout;
  std::vector<CompiledMethod> Methods;

  std::mutex Mtx;
  Frame Shared;
  /// The VM's operand stack; every program runs under Mtx.
  std::vector<int64_t> Stack;
  EngineStats Stats;
};

//===----------------------------------------------------------------------===//
// ExplicitEngine
//===----------------------------------------------------------------------===//

class ExplicitEngine final : public EngineBase {
public:
  ExplicitEngine(const SemaInfo &Sema, const SignalPlan &Plan,
                 const Assignment &Overrides)
      : EngineBase(Sema, Overrides), ClassWaiters(Sema.Classes.size()) {
    const WakeLowering Lowered(Sema, Plan);
    for (CompiledMethod &CM : Methods)
      for (CompiledCcr &C : CM.Ccrs)
        C.Wakes = Lowered.wakesAfter(C.W);
  }

  std::string name() const override { return "expresso-explicit"; }

private:
  void registerWaiter(Waiter *W) override {
    ClassWaiters[W->Ccr->Class].push_back(W);
  }

  void afterBody(const CompiledCcr &C) override {
    for (const Wake &Wk : C.Wakes)
      wake(Wk.Target->Index, Wk.Conditional, Wk.All);
  }

  /// Wakes the first parked waiter of \p Class whose predicate holds (or
  /// the first at all, without \p CheckPredicate); every such waiter when
  /// \p All. The same loop as the emitted `wake_cN_(checkPredicate, all)`.
  void wake(unsigned Class, bool CheckPredicate, bool All) {
    auto &Listing = ClassWaiters[Class];
    for (auto WIt = Listing.begin(); WIt != Listing.end();) {
      if (CheckPredicate && !waiterHolds(*WIt)) {
        ++WIt;
        continue;
      }
      notify(*WIt);
      WIt = Listing.erase(WIt);
      if (!All)
        return;
    }
  }

  void forwardFailedWake(const CompiledCcr &C) override {
    wake(C.Class, /*CheckPredicate=*/true, /*All=*/false);
  }

  /// Parked waiters per predicate class, indexed by PredicateClass::Index.
  std::vector<std::list<Waiter *>> ClassWaiters;
};

//===----------------------------------------------------------------------===//
// AutoSynchEngine
//===----------------------------------------------------------------------===//

class AutoSynchEngine final : public EngineBase {
public:
  AutoSynchEngine(const SemaInfo &Sema, const Assignment &Overrides)
      : EngineBase(Sema, Overrides) {}

  std::string name() const override { return "autosynch"; }

private:
  void registerWaiter(Waiter *W) override { Waiters.push_back(W); }

  void afterBody(const CompiledCcr &C) override {
    (void)C;
    scanAndWakeOne();
  }

  void forwardFailedWake(const CompiledCcr &C) override {
    (void)C;
    scanAndWakeOne();
  }

  /// Evaluate every waiting thread's guard against the current state; wake
  /// the first satisfied one (FIFO). The cascade continues when that thread
  /// exits the monitor.
  void scanAndWakeOne() {
    for (auto It = Waiters.begin(); It != Waiters.end(); ++It) {
      if (!waiterHolds(*It))
        continue;
      notify(*It);
      Waiters.erase(It);
      return;
    }
  }

  std::list<Waiter *> Waiters;
};

//===----------------------------------------------------------------------===//
// NaiveEngine
//===----------------------------------------------------------------------===//

class NaiveEngine final : public EngineBase {
public:
  NaiveEngine(const SemaInfo &Sema, const Assignment &Overrides)
      : EngineBase(Sema, Overrides) {}

  std::string name() const override { return "naive-broadcast"; }

private:
  void registerWaiter(Waiter *W) override { Waiters.push_back(W); }

  void afterBody(const CompiledCcr &C) override {
    (void)C;
    // Wake everyone; they re-check their own guards (thundering herd).
    for (Waiter *Wt : Waiters)
      notify(Wt);
    Waiters.clear();
  }

  std::list<Waiter *> Waiters;
};

} // namespace

std::unique_ptr<MonitorEngine>
runtime::createExplicitEngine(const SemaInfo &Sema, SignalPlan Plan,
                              const Assignment &ConfigOverrides) {
  return std::make_unique<ExplicitEngine>(Sema, Plan, ConfigOverrides);
}

std::unique_ptr<MonitorEngine>
runtime::createAutoSynchEngine(const SemaInfo &Sema,
                               const Assignment &ConfigOverrides) {
  return std::make_unique<AutoSynchEngine>(Sema, ConfigOverrides);
}

std::unique_ptr<MonitorEngine>
runtime::createNaiveEngine(const SemaInfo &Sema,
                           const Assignment &ConfigOverrides) {
  return std::make_unique<NaiveEngine>(Sema, ConfigOverrides);
}
