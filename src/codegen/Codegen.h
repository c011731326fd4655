//===- codegen/Codegen.h - Explicit-signal code generation ------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emitters for the synthesized explicit-signal monitor:
///
///   * printTargetIr — the paper's target language (§3.3): the original
///     monitor with `signal(S1); broadcast(S2)` sets spliced into each
///     waituntil, with ✓/? condition marks;
///   * emitCpp — a self-contained C++17 class using std::mutex and
///     condition variables (per predicate class), with the §6 waiter
///     registry for predicate classes that mention thread-local variables;
///   * emitJava — the paper's §6 Java scheme: ReentrantLock + Condition,
///     `while (!p) c.await()`, `if (p) c.signal()` for conditional signals
///     and `c.signalAll()` for broadcasts.
///
/// Guards and bodies print through frontend::printStmt/printExpr and logic
/// terms through codegen/Lowering.h, each given the target's spelling
/// table; the wake calls come from runtime::WakeLowering over
/// SignalPlan::fromPlacement, the lowering the explicit engine runs.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_CODEGEN_CODEGEN_H
#define EXPRESSO_CODEGEN_CODEGEN_H

#include "core/SignalPlacement.h"

#include <optional>
#include <string>
#include <string_view>

namespace expresso {
namespace codegen {

/// Renders the §3.3 target-language IR for a placement result.
std::string printTargetIr(const core::PlacementResult &R);

/// Emits a compilable C++17 translation unit implementing the
/// explicit-signal monitor.
std::string emitCpp(const core::PlacementResult &R);

/// Emits a Java class implementing the explicit-signal monitor with
/// ReentrantLock/Condition, following the paper's §6 description.
std::string emitJava(const core::PlacementResult &R);

/// The artifacts of the CLI's --emit and of a daemon request.
enum class EmitKind { Summary, Ir, Cpp, Java };

/// "summary", "ir", "cpp" or "java" as an EmitKind; nullopt otherwise.
std::optional<EmitKind> parseEmitKind(std::string_view Name);

/// The \p Kind artifact of \p R: PlacementResult::summary() or an emitter's.
std::string emit(const core::PlacementResult &R, EmitKind Kind);

} // namespace codegen
} // namespace expresso

#endif // EXPRESSO_CODEGEN_CODEGEN_H
