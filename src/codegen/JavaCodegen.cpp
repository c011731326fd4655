//===- codegen/JavaCodegen.cpp - Java explicit-signal emitter (§6) ------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Emits the paper's §6 Java scheme: one ReentrantLock per monitor, one
/// Condition per ground predicate class, `while (!p) c.await()` wait loops,
/// `if (p) c.signal()` for conditional signals, `c.signalAll()` for eager
/// broadcasts. Predicate classes with thread-local variables get the §6
/// waiter-tracking structure (an ArrayDeque of per-thread Conditions plus
/// local snapshots).
///
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "logic/Printer.h"

#include <set>
#include <sstream>

using namespace expresso;
using namespace expresso::codegen;
using namespace expresso::frontend;
using logic::Term;
using logic::TermKind;

namespace {

const char *javaType(TypeKind T) {
  switch (T) {
  case TypeKind::Int:
    return "int";
  case TypeKind::Bool:
    return "boolean";
  case TypeKind::IntArray:
    return "java.util.HashMap<Integer, Integer>";
  case TypeKind::BoolArray:
    return "java.util.HashMap<Integer, Boolean>";
  }
  return "int";
}

void emitTermJava(std::ostringstream &OS, const Term *T,
                  const std::map<std::string, std::string> &Rename) {
  switch (T->kind()) {
  case TermKind::IntConst:
    OS << T->intValue();
    return;
  case TermKind::BoolConst:
    OS << (T->boolValue() ? "true" : "false");
    return;
  case TermKind::Var: {
    auto It = Rename.find(T->varName());
    OS << (It != Rename.end() ? It->second : T->varName());
    return;
  }
  case TermKind::Add: {
    OS << "(";
    bool First = true;
    for (const Term *Op : T->operands()) {
      if (!First)
        OS << " + ";
      First = false;
      emitTermJava(OS, Op, Rename);
    }
    OS << ")";
    return;
  }
  case TermKind::Mul:
    OS << "(";
    emitTermJava(OS, T->operand(0), Rename);
    OS << " * ";
    emitTermJava(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Ite:
    OS << "(";
    emitTermJava(OS, T->operand(0), Rename);
    OS << " ? ";
    emitTermJava(OS, T->operand(1), Rename);
    OS << " : ";
    emitTermJava(OS, T->operand(2), Rename);
    OS << ")";
    return;
  case TermKind::Select:
    emitTermJava(OS, T->operand(0), Rename);
    OS << ".getOrDefault(";
    emitTermJava(OS, T->operand(1), Rename);
    OS << ", " << (T->sort() == logic::Sort::Bool ? "false" : "0") << ")";
    return;
  case TermKind::Eq:
    OS << "(";
    emitTermJava(OS, T->operand(0), Rename);
    OS << " == ";
    emitTermJava(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Le:
    OS << "(";
    emitTermJava(OS, T->operand(0), Rename);
    OS << " <= ";
    emitTermJava(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Lt:
    OS << "(";
    emitTermJava(OS, T->operand(0), Rename);
    OS << " < ";
    emitTermJava(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Divides:
    OS << "(Math.floorMod(";
    emitTermJava(OS, T->operand(0), Rename);
    OS << ", " << T->intValue() << ") == 0)";
    return;
  case TermKind::Not:
    OS << "!";
    emitTermJava(OS, T->operand(0), Rename);
    return;
  case TermKind::And:
  case TermKind::Or: {
    OS << "(";
    bool First = true;
    for (const Term *Op : T->operands()) {
      if (!First)
        OS << (T->kind() == TermKind::And ? " && " : " || ");
      First = false;
      emitTermJava(OS, Op, Rename);
    }
    OS << ")";
    return;
  }
  case TermKind::Store:
    OS << "/* unexpected store */";
    return;
  }
}

std::string termJava(const Term *T,
                     const std::map<std::string, std::string> &Rename = {}) {
  std::ostringstream OS;
  emitTermJava(OS, T, Rename);
  return OS.str();
}

/// Java statement emission. Array accesses go through HashMap get/put.
void emitStmtJava(std::ostringstream &OS, const Stmt *S, unsigned Indent) {
  std::string Pad(Indent * 2, ' ');
  switch (S->kind()) {
  case Stmt::Kind::Skip:
    OS << Pad << ";\n";
    return;
  case Stmt::Kind::Assign: {
    const auto *A = cast<AssignStmt>(S);
    OS << Pad << A->target() << " = " << printExpr(A->value()) << ";\n";
    return;
  }
  case Stmt::Kind::Store: {
    const auto *St = cast<StoreStmt>(S);
    OS << Pad << St->array() << ".put(" << printExpr(St->index()) << ", "
       << printExpr(St->value()) << ");\n";
    return;
  }
  case Stmt::Kind::Seq:
    for (const Stmt *Sub : cast<SeqStmt>(S)->stmts())
      emitStmtJava(OS, Sub, Indent);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    OS << Pad << "if (" << printExpr(I->cond()) << ") {\n";
    emitStmtJava(OS, I->thenStmt(), Indent + 1);
    if (I->elseStmt() && !isa<SkipStmt>(I->elseStmt())) {
      OS << Pad << "} else {\n";
      emitStmtJava(OS, I->elseStmt(), Indent + 1);
    }
    OS << Pad << "}\n";
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    OS << Pad << "while (" << printExpr(W->cond()) << ") {\n";
    emitStmtJava(OS, W->body(), Indent + 1);
    OS << Pad << "}\n";
    return;
  }
  case Stmt::Kind::LocalDecl: {
    const auto *L = cast<LocalDeclStmt>(S);
    OS << Pad << javaType(L->type()) << " " << L->name() << " = "
       << printExpr(L->init()) << ";\n";
    return;
  }
  }
}

} // namespace

std::string codegen::emitJava(const core::PlacementResult &R) {
  const SemaInfo &Sema = *R.Sema;
  std::ostringstream OS;

  std::set<const PredicateClass *, PredicateClassIndexLess> Used, Chained;
  for (const CcrInfo &CI : Sema.Ccrs)
    if (!CI.Guard->isTrue())
      Used.insert(CI.Class);
  if (R.Options.LazyBroadcast)
    for (const core::CcrPlacement &P : R.Placements)
      for (const core::SignalDecision &D : P.Decisions)
        if (D.Broadcast)
          Chained.insert(D.Target);

  auto condName = [](const PredicateClass *Q) {
    return "cond_c" + std::to_string(Q->Index);
  };
  auto waitersName = [](const PredicateClass *Q) {
    return "waiters_c" + std::to_string(Q->Index);
  };

  OS << "// " << Sema.M->Name
     << ": explicit-signal monitor synthesized by expresso-cpp (Java "
        "backend, paper §6)\n";
  OS << "// monitor invariant: " << logic::printTerm(R.Invariant) << "\n";
  OS << "import java.util.concurrent.locks.Condition;\n";
  OS << "import java.util.concurrent.locks.ReentrantLock;\n\n";
  OS << "public class " << Sema.M->Name << " {\n";

  // State.
  for (const Field &F : Sema.M->Fields) {
    OS << "  private " << (F.IsConst ? "final " : "") << javaType(F.Type)
       << " " << F.Name;
    if (F.Init) {
      OS << " = " << printExpr(F.Init);
    } else if (F.Type == TypeKind::IntArray || F.Type == TypeKind::BoolArray) {
      OS << " = new java.util.HashMap<>()";
    } else if (!F.IsConst) {
      OS << (F.Type == TypeKind::Bool ? " = false" : " = 0");
    }
    OS << ";\n";
  }
  OS << "\n  private final ReentrantLock lock = new ReentrantLock();\n";
  for (const PredicateClass *Q : Used) {
    OS << "  // class c" << Q->Index << ": "
       << logic::printTerm(Q->Canonical) << "\n";
    if (Q->isGround()) {
      OS << "  private final Condition " << condName(Q)
         << " = lock.newCondition();\n";
      continue;
    }
    OS << "  private static final class WaiterC" << Q->Index << " {\n";
    OS << "    final Condition cv;\n    boolean notified = false;\n";
    for (size_t I = 0; I < Q->Placeholders.size(); ++I)
      OS << "    "
         << (Q->Placeholders[I]->sort() == logic::Sort::Bool ? "boolean"
                                                             : "int")
         << " p" << I << ";\n";
    OS << "    WaiterC" << Q->Index
       << "(Condition cv) { this.cv = cv; }\n  }\n";
    OS << "  private final java.util.ArrayDeque<WaiterC" << Q->Index << "> "
       << waitersName(Q) << " = new java.util.ArrayDeque<>();\n";
  }

  // Constructor for const configuration fields.
  std::vector<const Field *> CtorParams;
  for (const Field &F : Sema.M->Fields)
    if (F.IsConst && !F.Init)
      CtorParams.push_back(&F);
  OS << "\n  public " << Sema.M->Name << "(";
  for (size_t I = 0; I < CtorParams.size(); ++I)
    OS << (I ? ", " : "") << javaType(CtorParams[I]->Type) << " "
       << CtorParams[I]->Name << "Arg";
  OS << ") {\n";
  for (const Field *F : CtorParams)
    OS << "    this." << F->Name << " = " << F->Name << "Arg;\n";
  if (Sema.M->InitBody)
    emitStmtJava(OS, Sema.M->InitBody, 2);
  OS << "  }\n";

  // A wake helper per local-variable class.
  for (const PredicateClass *Q : Used) {
    if (Q->isGround())
      continue;
    std::map<std::string, std::string> Rename;
    for (size_t I = 0; I < Q->Placeholders.size(); ++I)
      Rename[Q->Placeholders[I]->varName()] = "w.p" + std::to_string(I);
    OS << "\n  private void wakeC" << Q->Index
       << "(boolean checkPredicate, boolean all) {\n";
    OS << "    java.util.Iterator<WaiterC" << Q->Index << "> it = "
       << waitersName(Q) << ".iterator();\n";
    OS << "    while (it.hasNext()) {\n";
    OS << "      WaiterC" << Q->Index << " w = it.next();\n";
    OS << "      if (checkPredicate && !" << termJava(Q->Canonical, Rename)
       << ") continue;\n";
    OS << "      w.notified = true;\n      w.cv.signal();\n"
       << "      it.remove();\n";
    OS << "      if (!all) return;\n";
    OS << "    }\n  }\n";
  }

  // Methods.
  for (const Method &M : Sema.M->Methods) {
    OS << "\n  public void " << M.Name << "(";
    for (size_t I = 0; I < M.Params.size(); ++I)
      OS << (I ? ", " : "") << javaType(M.Params[I].Type) << " "
         << M.Params[I].Name;
    OS << ") {\n    lock.lock();\n    try {\n";
    for (const WaitUntil &W : M.Body) {
      const CcrInfo &CI = Sema.info(&W);
      const core::CcrPlacement &CP = R.placementFor(&W);
      if (!CI.Guard->isTrue()) {
        const PredicateClass *Q = CI.Class;
        if (Q->isGround()) {
          OS << "      while (!(" << printExpr(W.Guard) << ")) "
             << condName(Q) << ".awaitUninterruptibly();\n";
        } else {
          OS << "      while (!(" << printExpr(W.Guard) << ")) {\n";
          OS << "        WaiterC" << Q->Index << " w = new WaiterC"
             << Q->Index << "(lock.newCondition());\n";
          for (size_t I = 0; I < Q->Placeholders.size(); ++I) {
            const std::string &Qual = CI.ClassArgs[I]->varName();
            OS << "        w.p" << I << " = "
               << Qual.substr(Qual.find("::") + 2) << ";\n";
          }
          OS << "        " << waitersName(Q) << ".addLast(w);\n";
          OS << "        while (!w.notified) w.cv.awaitUninterruptibly();\n";
          OS << "      }\n";
        }
      }
      emitStmtJava(OS, W.Body, 3);
      if (R.Options.LazyBroadcast && Chained.count(CI.Class)) {
        OS << "      // lazy broadcast chain\n";
        if (CI.Class->isGround()) {
          OS << "      if (" << termJava(CI.Class->Canonical) << ") "
             << condName(CI.Class) << ".signal();\n";
        } else {
          OS << "      wakeC" << CI.Class->Index << "(true, false);\n";
        }
      }
      for (const core::SignalDecision &D : CP.Decisions) {
        bool Lazy = D.Broadcast && R.Options.LazyBroadcast;
        bool Cond = Lazy ? true : D.Conditional;
        if (D.Target->isGround()) {
          std::string Call =
              condName(D.Target) +
              (D.Broadcast && !Lazy ? ".signalAll();" : ".signal();");
          if (Cond) {
            OS << "      if (" << termJava(D.Target->Canonical) << ") "
               << Call << "\n";
          } else {
            OS << "      " << Call << "\n";
          }
        } else {
          OS << "      wakeC" << D.Target->Index << "("
             << (Cond ? "true" : "false") << ", "
             << (D.Broadcast && !Lazy ? "true" : "false") << ");\n";
        }
      }
    }
    OS << "    } finally {\n      lock.unlock();\n    }\n  }\n";
  }
  OS << "}\n";
  return OS.str();
}
