//===- runtime/Engine.h - Monitor execution engines -------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Real-thread monitor execution. All engines share one substrate — a
/// monitor mutex, the monitor compiled once to slot-indexed bytecode
/// (runtime/Bytecode.h: guard and body programs per CCR, shared state in
/// one slot frame, parameters bound straight into local slots), and FIFO
/// per-waiter condition slots — and differ ONLY in when and whom they wake:
///
///   * ExplicitEngine   executes a SignalPlan (Expresso output or a
///                      hand-written gold plan) as the wakes
///                      runtime::WakeLowering gives, the ones the emitters
///                      print: the Figures 8/9 "Expresso" and "Explicit"
///                      series;
///   * AutoSynchEngine  re-evaluates every waiting thread's predicate at
///                      each monitor exit and wakes the first satisfied one
///                      (Hung & Garg's run-time approach, the paper's
///                      baseline);
///   * NaiveEngine      broadcasts every waiter at each exit (the classic
///                      implicit-monitor implementation Buhr et al. measured
///                      at 10-50x slowdowns) — used in ablations.
///
/// The per-waiter condition slots give targeted wakeups (no thundering
/// herd), FIFO fairness, and the §6 local-variable snapshots: a parked
/// waiter keeps its CCR's compiled guard and its own local slots, so a
/// conditional signal evaluates the blocked thread's predicate instance
/// (the class's canonical guard at the waiter's class arguments) without
/// copying any state.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_RUNTIME_ENGINE_H
#define EXPRESSO_RUNTIME_ENGINE_H

#include "frontend/Interp.h"
#include "frontend/Sema.h"
#include "runtime/SignalPlan.h"

#include <cstdint>
#include <memory>

namespace expresso {
namespace runtime {

/// Counters exposed by every engine (monotone, read after quiescence).
struct EngineStats {
  uint64_t Calls = 0;          ///< monitor method invocations
  uint64_t Blocks = 0;         ///< times a thread had to wait
  uint64_t Wakeups = 0;        ///< waiter notifications delivered
  uint64_t SpuriousWakeups = 0;///< woken with a still-false guard
  uint64_t PredicateEvals = 0; ///< run-time predicate evaluations
};

/// A running monitor instance; thread-safe by construction.
class MonitorEngine {
public:
  virtual ~MonitorEngine();

  /// Executes method \p M atomically with the given parameter values
  /// (unqualified names; entries that name no parameter are ignored).
  /// Blocks as dictated by the waituntil guards.
  virtual void call(const frontend::Method *M, logic::Assignment Locals) = 0;

  /// Convenience: look up the method by name. Throws std::invalid_argument
  /// when the monitor has no such method.
  void call(const std::string &Method, logic::Assignment Locals = {});

  /// Locked snapshot of the shared state.
  virtual logic::Assignment snapshot() = 0;

  virtual EngineStats stats() = 0;
  virtual std::string name() const = 0;

  const frontend::SemaInfo &sema() const { return Sema; }

protected:
  explicit MonitorEngine(const frontend::SemaInfo &Sema) : Sema(Sema) {}
  const frontend::SemaInfo &Sema;
};

/// Explicit-signal engine driven by a static plan.
std::unique_ptr<MonitorEngine>
createExplicitEngine(const frontend::SemaInfo &Sema, SignalPlan Plan,
                     const logic::Assignment &ConfigOverrides = {});

/// AutoSynch-like implicit engine (run-time predicate evaluation).
std::unique_ptr<MonitorEngine>
createAutoSynchEngine(const frontend::SemaInfo &Sema,
                      const logic::Assignment &ConfigOverrides = {});

/// Broadcast-everything implicit engine (Buhr-style baseline).
std::unique_ptr<MonitorEngine>
createNaiveEngine(const frontend::SemaInfo &Sema,
                  const logic::Assignment &ConfigOverrides = {});

} // namespace runtime
} // namespace expresso

#endif // EXPRESSO_RUNTIME_ENGINE_H
