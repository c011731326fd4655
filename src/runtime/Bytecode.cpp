//===- runtime/Bytecode.cpp - Compiled guards and bodies ------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "runtime/Bytecode.h"

#include "logic/Linear.h"
#include "support/Casting.h"

#include <algorithm>
#include <cassert>
#include <sstream>

using namespace expresso;
using namespace expresso::runtime;
using namespace expresso::frontend;

//===----------------------------------------------------------------------===//
// SlotLayout
//===----------------------------------------------------------------------===//

SlotLayout::SlotLayout(const Monitor &M) : M(M) {
  for (const Field &F : M.Fields) {
    if (F.Type == TypeKind::IntArray || F.Type == TypeKind::BoolArray) {
      ArraySlots.emplace(F.Name, static_cast<int>(ArraySlots.size()));
    } else {
      SharedIsBool.emplace(F.Name, F.Type == TypeKind::Bool);
      SharedSlots.emplace(F.Name, static_cast<int>(SharedSlots.size()));
    }
  }
  // Locals: dense per-method numbering; all methods share the frame space
  // (a thread runs one method at a time).
  for (const Method &Me : M.Methods) {
    size_t Next = 0;
    auto addLocal = [&](const std::string &Name) {
      LocalSlots.emplace(Me.Name + "::" + Name, static_cast<int>(Next++));
    };
    for (const Param &P : Me.Params)
      addLocal(P.Name);
    // Collect LocalDecl statements recursively.
    std::vector<const Stmt *> Work;
    for (const WaitUntil &W : Me.Body)
      Work.push_back(W.Body);
    while (!Work.empty()) {
      const Stmt *S = Work.back();
      Work.pop_back();
      switch (S->kind()) {
      case Stmt::Kind::LocalDecl:
        addLocal(cast<LocalDeclStmt>(S)->name());
        break;
      case Stmt::Kind::Seq:
        for (const Stmt *Sub : cast<SeqStmt>(S)->stmts())
          Work.push_back(Sub);
        break;
      case Stmt::Kind::If:
        Work.push_back(cast<IfStmt>(S)->thenStmt());
        Work.push_back(cast<IfStmt>(S)->elseStmt());
        break;
      case Stmt::Kind::While:
        Work.push_back(cast<WhileStmt>(S)->body());
        break;
      default:
        break;
      }
    }
    MaxLocalSlots = std::max(MaxLocalSlots, Next);
  }
}

int SlotLayout::sharedSlot(const std::string &Field) const {
  auto It = SharedSlots.find(Field);
  assert(It != SharedSlots.end() && "unknown scalar field");
  return It->second;
}

int SlotLayout::arraySlot(const std::string &Field) const {
  auto It = ArraySlots.find(Field);
  assert(It != ArraySlots.end() && "unknown array field");
  return It->second;
}

int SlotLayout::localSlot(const Method &Me, const std::string &Name) const {
  auto It = LocalSlots.find(Me.Name + "::" + Name);
  return It == LocalSlots.end() ? -1 : It->second;
}

Frame SlotLayout::packShared(const logic::Assignment &A) const {
  Frame F;
  F.Shared.assign(SharedSlots.size(), 0);
  F.Arrays.assign(ArraySlots.size(), {});
  for (const auto &[Name, Slot] : SharedSlots) {
    auto It = A.find(Name);
    if (It != A.end())
      F.Shared[static_cast<size_t>(Slot)] = It->second.I;
  }
  for (const auto &[Name, Slot] : ArraySlots) {
    auto It = A.find(Name);
    if (It != A.end())
      F.Arrays[static_cast<size_t>(Slot)] = It->second.A;
  }
  return F;
}

logic::Assignment SlotLayout::unpackShared(const Frame &F) const {
  logic::Assignment A;
  for (const auto &[Name, Slot] : SharedSlots) {
    bool IsBool = SharedIsBool.at(Name);
    int64_t V = F.Shared[static_cast<size_t>(Slot)];
    A[Name] = IsBool ? logic::Value::ofBool(V != 0) : logic::Value::ofInt(V);
  }
  for (const auto &[Name, Slot] : ArraySlots) {
    const Field *Fl = M.findField(Name);
    A[Name] = logic::Value::ofArray(Fl->Type == TypeKind::IntArray
                                        ? logic::Sort::IntArray
                                        : logic::Sort::BoolArray,
                                    F.Arrays[static_cast<size_t>(Slot)]);
  }
  return A;
}

std::vector<int64_t> SlotLayout::packLocals(const Method &Me,
                                            const logic::Assignment &A) const {
  std::vector<int64_t> Locals(MaxLocalSlots, 0);
  for (const auto &[Name, V] : A) {
    int Slot = localSlot(Me, Name);
    if (Slot >= 0)
      Locals[static_cast<size_t>(Slot)] = V.I;
  }
  return Locals;
}

//===----------------------------------------------------------------------===//
// Compiler
//===----------------------------------------------------------------------===//

namespace expresso {
namespace runtime {

class Compiler {
public:
  Compiler(const SlotLayout &L, const Method *M) : L(L), M(M) {}

  void expr(const Expr *E) {
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      emit(OpCode::PushConst, cast<IntLit>(E)->value());
      return;
    case Expr::Kind::BoolLit:
      emit(OpCode::PushConst, cast<BoolLit>(E)->value() ? 1 : 0);
      return;
    case Expr::Kind::VarRef: {
      const std::string &Name = cast<VarRef>(E)->name();
      int Slot = M ? L.localSlot(*M, Name) : -1;
      if (Slot >= 0) {
        emit(OpCode::LoadLocal, Slot);
      } else {
        emit(OpCode::LoadShared, L.sharedSlot(Name));
      }
      return;
    }
    case Expr::Kind::ArrayRef: {
      const auto *A = cast<ArrayRef>(E);
      expr(A->index());
      emit(OpCode::LoadArray, L.arraySlot(A->array()));
      return;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<Unary>(E);
      expr(U->operand());
      emit(U->op() == UnaryOp::Not ? OpCode::Not : OpCode::Neg);
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<Binary>(E);
      switch (B->op()) {
      case BinaryOp::And: {
        // Short-circuit: lhs false => 0 without evaluating rhs.
        int Join = Depth;
        expr(B->lhs());
        size_t JZ = emitPatch(OpCode::JumpIfZero);
        expr(B->rhs());
        size_t JEnd = emitPatch(OpCode::Jump);
        patch(JZ);
        Depth = Join; // the JumpIfZero edge
        emit(OpCode::PushConst, 0);
        patch(JEnd);
        return;
      }
      case BinaryOp::Or: {
        int Join = Depth;
        expr(B->lhs());
        size_t JNZ = emitPatch(OpCode::JumpIfNonZero);
        expr(B->rhs());
        size_t JEnd = emitPatch(OpCode::Jump);
        patch(JNZ);
        Depth = Join; // the JumpIfNonZero edge
        emit(OpCode::PushConst, 1);
        patch(JEnd);
        return;
      }
      case BinaryOp::Gt:
      case BinaryOp::Ge:
        // a > b compiles as b < a (operands emitted swapped).
        expr(B->rhs());
        expr(B->lhs());
        emit(B->op() == BinaryOp::Gt ? OpCode::CmpLt : OpCode::CmpLe);
        return;
      default:
        break;
      }
      expr(B->lhs());
      expr(B->rhs());
      switch (B->op()) {
      case BinaryOp::Add:
        emit(OpCode::Add);
        return;
      case BinaryOp::Sub:
        emit(OpCode::Sub);
        return;
      case BinaryOp::Mul:
        emit(OpCode::Mul);
        return;
      case BinaryOp::Mod:
        emit(OpCode::Mod);
        return;
      case BinaryOp::Eq:
        emit(OpCode::CmpEq);
        return;
      case BinaryOp::Ne:
        emit(OpCode::CmpEq);
        emit(OpCode::Not);
        return;
      case BinaryOp::Lt:
        emit(OpCode::CmpLt);
        return;
      case BinaryOp::Le:
        emit(OpCode::CmpLe);
        return;
      case BinaryOp::Gt:
      case BinaryOp::Ge:
      case BinaryOp::And:
      case BinaryOp::Or:
        return; // handled above
      }
      return;
    }
    }
  }

  void stmt(const Stmt *S) {
    switch (S->kind()) {
    case Stmt::Kind::Skip:
      return;
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      expr(A->value());
      int Slot = M ? L.localSlot(*M, A->target()) : -1;
      if (Slot >= 0) {
        emit(OpCode::StoreLocal, Slot);
      } else {
        emit(OpCode::StoreShared, L.sharedSlot(A->target()));
      }
      return;
    }
    case Stmt::Kind::Store: {
      const auto *St = cast<StoreStmt>(S);
      expr(St->index());
      expr(St->value());
      emit(OpCode::StoreArray, L.arraySlot(St->array()));
      return;
    }
    case Stmt::Kind::Seq:
      for (const Stmt *Sub : cast<SeqStmt>(S)->stmts())
        stmt(Sub);
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      expr(I->cond());
      size_t JZ = emitPatch(OpCode::JumpIfZero);
      stmt(I->thenStmt());
      size_t JEnd = emitPatch(OpCode::Jump);
      patch(JZ);
      stmt(I->elseStmt());
      patch(JEnd);
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      size_t Top = P.Code.size();
      expr(W->cond());
      size_t JZ = emitPatch(OpCode::JumpIfZero);
      stmt(W->body());
      emit(OpCode::Jump, static_cast<int64_t>(Top));
      patch(JZ);
      return;
    }
    case Stmt::Kind::LocalDecl: {
      const auto *D = cast<LocalDeclStmt>(S);
      expr(D->init());
      emit(OpCode::StoreLocal, L.localSlot(*M, D->name()));
      return;
    }
    }
  }

  Program finish() {
    emit(OpCode::Halt);
    return std::move(P);
  }

private:
  /// Net operand-stack change of one instruction.
  static int stackEffect(OpCode Op) {
    switch (Op) {
    case OpCode::PushConst:
    case OpCode::LoadShared:
    case OpCode::LoadLocal:
      return 1;
    case OpCode::StoreArray:
      return -2;
    case OpCode::StoreShared:
    case OpCode::StoreLocal:
    case OpCode::Add:
    case OpCode::Sub:
    case OpCode::Mul:
    case OpCode::Mod:
    case OpCode::CmpEq:
    case OpCode::CmpLt:
    case OpCode::CmpLe:
    case OpCode::JumpIfZero:
    case OpCode::JumpIfNonZero:
      return -1;
    case OpCode::LoadArray:
    case OpCode::Neg:
    case OpCode::Not:
    case OpCode::Jump:
    case OpCode::Halt:
      return 0;
    }
    return 0;
  }

  void emit(OpCode Op, int64_t Imm = 0) {
    P.Code.push_back({Op, Imm});
    Depth += stackEffect(Op);
    assert(Depth >= 0 && "operand stack underflow");
    P.MaxStack = std::max(P.MaxStack, static_cast<size_t>(Depth));
  }
  size_t emitPatch(OpCode Op) {
    emit(Op, -1);
    return P.Code.size() - 1;
  }
  void patch(size_t At) {
    P.Code[At].Imm = static_cast<int64_t>(P.Code.size());
  }

  const SlotLayout &L;
  const Method *M;
  Program P;
  /// Operand-stack depth after the last emitted instruction.
  int Depth = 0;
};

} // namespace runtime
} // namespace expresso

Program runtime::compileExpr(const SlotLayout &L, const Expr *E,
                             const Method *M) {
  Compiler C(L, M);
  C.expr(E);
  return C.finish();
}

Program runtime::compileStmt(const SlotLayout &L, const Stmt *S,
                             const Method *M) {
  Compiler C(L, M);
  C.stmt(S);
  return C.finish();
}

//===----------------------------------------------------------------------===//
// VM
//===----------------------------------------------------------------------===//

int64_t runtime::execute(const Program &P, Frame &F, int64_t *Locals,
                         int64_t *Stack) {
  // Sp points one past the top of stack.
  int64_t *Sp = Stack;
  size_t Pc = 0;
  auto push = [&Sp](int64_t V) { *Sp++ = V; };
  auto pop = [&Sp] { return *--Sp; };
  auto top = [&Sp]() -> int64_t & { return Sp[-1]; };
  for (;;) {
    assert(Pc < P.Code.size() && "pc out of range");
    const Instr &I = P.Code[Pc++];
    switch (I.Op) {
    case OpCode::PushConst:
      push(I.Imm);
      break;
    case OpCode::LoadShared:
      push(F.Shared[static_cast<size_t>(I.Imm)]);
      break;
    case OpCode::StoreShared:
      F.Shared[static_cast<size_t>(I.Imm)] = pop();
      break;
    case OpCode::LoadLocal:
      push(Locals[static_cast<size_t>(I.Imm)]);
      break;
    case OpCode::StoreLocal:
      Locals[static_cast<size_t>(I.Imm)] = pop();
      break;
    case OpCode::LoadArray: {
      int64_t Idx = pop();
      auto &Arr = F.Arrays[static_cast<size_t>(I.Imm)];
      auto It = Arr.find(Idx);
      push(It == Arr.end() ? 0 : It->second);
      break;
    }
    case OpCode::StoreArray: {
      int64_t V = pop();
      int64_t Idx = pop();
      F.Arrays[static_cast<size_t>(I.Imm)][Idx] = V;
      break;
    }
    case OpCode::Add: {
      int64_t B = pop();
      top() += B;
      break;
    }
    case OpCode::Sub: {
      int64_t B = pop();
      top() -= B;
      break;
    }
    case OpCode::Mul: {
      int64_t B = pop();
      top() *= B;
      break;
    }
    case OpCode::Mod: {
      int64_t B = pop();
      top() = logic::mathMod(top(), B);
      break;
    }
    case OpCode::Neg:
      top() = -top();
      break;
    case OpCode::Not:
      top() = top() == 0 ? 1 : 0;
      break;
    case OpCode::CmpEq: {
      int64_t B = pop();
      top() = top() == B ? 1 : 0;
      break;
    }
    case OpCode::CmpLt: {
      int64_t B = pop();
      top() = top() < B ? 1 : 0;
      break;
    }
    case OpCode::CmpLe: {
      int64_t B = pop();
      top() = top() <= B ? 1 : 0;
      break;
    }
    case OpCode::Jump:
      Pc = static_cast<size_t>(I.Imm);
      break;
    case OpCode::JumpIfZero:
      if (pop() == 0)
        Pc = static_cast<size_t>(I.Imm);
      break;
    case OpCode::JumpIfNonZero:
      if (pop() != 0)
        Pc = static_cast<size_t>(I.Imm);
      break;
    case OpCode::Halt:
      return Sp == Stack ? 0 : top();
    }
  }
}

//===----------------------------------------------------------------------===//
// Disassembly
//===----------------------------------------------------------------------===//

std::string Program::str() const {
  static const char *Names[] = {
      "push",  "ldsh", "stsh", "ldlo",  "stlo", "ldar", "star",
      "add",   "sub",  "mul",  "mod",   "neg",  "not",  "cmpeq",
      "cmplt", "cmple", "jmp", "jz",    "jnz",  "halt"};
  std::ostringstream OS;
  for (size_t I = 0; I < Code.size(); ++I)
    OS << I << ": " << Names[static_cast<size_t>(Code[I].Op)] << " "
       << Code[I].Imm << "\n";
  return OS.str();
}
