//===- runtime/Bytecode.h - Compiled guards and bodies ----------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A small stack bytecode for monitor expressions and statements, and the
/// execution substrate of every runtime engine (runtime/Engine.h). The
/// saturation benchmarks evaluate guards on every wait/signal decision;
/// compiling them once removes the AST walk and the string-keyed state
/// from the measurement loop (the same role JIT'd bytecode plays for the
/// JVM monitors the paper measures). Programs are compiled per monitor
/// against a slot layout: shared scalar fields, shared arrays, and
/// thread-local scalars each get dense indices. Shared state lives in one
/// Frame; a thread's locals are a separate slot array, so a parked
/// waiter's guard can be re-run against its own locals.
///
/// The VM is validated by differential tests against the tree-walking
/// interpreter on every benchmark monitor (see tests/BytecodeTest.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_RUNTIME_BYTECODE_H
#define EXPRESSO_RUNTIME_BYTECODE_H

#include "frontend/Ast.h"
#include "logic/TermOps.h"

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace expresso {
namespace runtime {

/// Bytecode operations. Comparison/arithmetic pop operands and push the
/// result; booleans are 0/1 integers.
enum class OpCode : uint8_t {
  PushConst,   ///< push Imm
  LoadShared,  ///< push shared scalar slot Imm
  StoreShared, ///< pop into shared scalar slot Imm
  LoadLocal,   ///< push local scalar slot Imm
  StoreLocal,  ///< pop into local scalar slot Imm
  LoadArray,   ///< pop index; push SharedArrays[Imm][index]
  StoreArray,  ///< pop value, pop index; SharedArrays[Imm][index] = value
  Add,
  Sub,
  Mul,
  Mod, ///< mathematical modulus (result in [0, |rhs|))
  Neg,
  Not,
  CmpEq,
  CmpLt,
  CmpLe,
  Jump,        ///< pc = Imm
  JumpIfZero,  ///< pop; if zero, pc = Imm
  JumpIfNonZero,
  Halt, ///< stop; for expressions the result is the top of stack
};

/// One instruction: an opcode plus an immediate (constant, slot, target).
struct Instr {
  OpCode Op;
  int64_t Imm = 0;
};

/// A compiled program.
struct Program {
  std::vector<Instr> Code;
  /// Deepest operand stack any run reaches, recorded by the compiler so the
  /// VM runs on a fixed stack.
  size_t MaxStack = 0;
  std::string str() const; ///< disassembly, for tests/debugging
};

/// A monitor's shared state in slot form: scalar fields and array fields.
struct Frame {
  std::vector<int64_t> Shared;
  std::vector<std::map<int64_t, int64_t>> Arrays;
};

/// Slot layout shared by all programs of one monitor.
class SlotLayout {
public:
  /// Builds the layout: every scalar field, every array field, and every
  /// (method-qualified) local of the monitor.
  explicit SlotLayout(const frontend::Monitor &M);

  int sharedSlot(const std::string &Field) const;
  int arraySlot(const std::string &Field) const;
  /// Local slot of \p Name within \p M (unqualified name), or -1.
  int localSlot(const frontend::Method &M, const std::string &Name) const;

  size_t numSharedSlots() const { return SharedSlots.size(); }
  size_t numArraySlots() const { return ArraySlots.size(); }
  size_t numLocalSlots() const { return MaxLocalSlots; }

  /// Converts between interpreter assignments and slot form (tests, engine
  /// construction and snapshots).
  Frame packShared(const logic::Assignment &A) const;
  logic::Assignment unpackShared(const Frame &F) const;
  /// Locals of \p M bound from \p A; unbound slots are 0.
  std::vector<int64_t> packLocals(const frontend::Method &M,
                                  const logic::Assignment &A) const;

  const frontend::Monitor &monitor() const { return M; }

private:
  const frontend::Monitor &M;
  std::map<std::string, int> SharedSlots;            // scalar fields
  std::map<std::string, int> ArraySlots;             // array fields
  std::map<std::string, int> LocalSlots;             // "method::name"
  std::map<std::string, bool> SharedIsBool;
  size_t MaxLocalSlots = 0;
};

/// Compiles an expression of \p M (or a field initializer when M is null).
Program compileExpr(const SlotLayout &L, const frontend::Expr *E,
                    const frontend::Method *M);

/// Compiles a statement; the program leaves no stack residue.
Program compileStmt(const SlotLayout &L, const frontend::Stmt *S,
                    const frontend::Method *M);

/// Runs \p P on the shared state \p F and one thread's \p Locals, using
/// \p Stack (at least P.MaxStack entries) as the operand stack. Returns the
/// top of stack (0 for statements).
int64_t execute(const Program &P, Frame &F, int64_t *Locals, int64_t *Stack);

} // namespace runtime
} // namespace expresso

#endif // EXPRESSO_RUNTIME_BYTECODE_H
