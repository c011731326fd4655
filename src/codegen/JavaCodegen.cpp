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

#include "codegen/Lowering.h"
#include "logic/Printer.h"
#include "runtime/SignalPlan.h"

#include <sstream>

using namespace expresso;
using namespace expresso::codegen;
using namespace expresso::frontend;

std::string codegen::emitJava(const core::PlacementResult &R) {
  const SemaInfo &Sema = *R.Sema;
  const runtime::WakeLowering Lowered(Sema,
                                      runtime::SignalPlan::fromPlacement(R));
  const std::vector<const PredicateClass *> Used = usedClasses(Sema);
  const std::vector<const Field *> Params = ctorParams(*Sema.M);
  std::ostringstream OS;

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
  OS << "public class " << targetName(Sema.M->Name) << " {\n";

  // State.
  for (const Field &F : Sema.M->Fields) {
    OS << "  private " << (F.IsConst ? "final " : "")
       << JavaSpelling.type(F.Type) << " " << targetName(F.Name);
    if (F.Init) {
      OS << " = " << printExpr(F.Init, JavaSpelling, Sema.M);
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
      OS << "    " << JavaSpelling.type(placeholderType(Q, I)) << " p" << I
         << ";\n";
    OS << "    WaiterC" << Q->Index
       << "(Condition cv) { this.cv = cv; }\n  }\n";
    OS << "  private final java.util.ArrayDeque<WaiterC" << Q->Index << "> "
       << waitersName(Q) << " = new java.util.ArrayDeque<>();\n";
  }

  // Constructor for const configuration fields.
  OS << "\n  public " << targetName(Sema.M->Name) << "(";
  const char *Sep = "";
  for (const Field *F : Params) {
    OS << Sep << JavaSpelling.type(F->Type) << " " << targetName(F->Name)
       << "Arg";
    Sep = ", ";
  }
  OS << ") {\n";
  for (const Field *F : Params)
    OS << "    this." << targetName(F->Name) << " = " << targetName(F->Name)
       << "Arg;\n";
  if (Sema.M->InitBody)
    OS << printStmt(Sema.M->InitBody, 2, JavaSpelling, Sema.M);
  OS << "  }\n";

  // A wake helper per local-variable class.
  for (const PredicateClass *Q : Used) {
    if (Q->isGround())
      continue;
    OS << "\n  private void wakeC" << Q->Index
       << "(boolean checkPredicate, boolean all) {\n";
    OS << "    java.util.Iterator<WaiterC" << Q->Index << "> it = "
       << waitersName(Q) << ".iterator();\n";
    OS << "    while (it.hasNext()) {\n";
    OS << "      WaiterC" << Q->Index << " w = it.next();\n";
    OS << "      if (checkPredicate && !";
    renderTerm(OS, Q->Canonical, JavaSpelling, Q, "w.");
    OS << ") continue;\n";
    OS << "      w.notified = true;\n      w.cv.signal();\n"
       << "      it.remove();\n";
    OS << "      if (!all) return;\n";
    OS << "    }\n  }\n";
  }

  // Methods.
  for (const Method &M : Sema.M->Methods) {
    OS << "\n  public void " << targetName(M.Name) << "(";
    for (size_t I = 0; I < M.Params.size(); ++I)
      OS << (I ? ", " : "") << JavaSpelling.type(M.Params[I].Type) << " "
         << targetName(M.Params[I].Name);
    OS << ") {\n    lock.lock();\n    try {\n";
    for (const WaitUntil &W : M.Body) {
      const CcrInfo &CI = Sema.info(&W);
      if (!CI.Guard->isTrue()) {
        const PredicateClass *Q = CI.Class;
        OS << "      while (!(" << printExpr(W.Guard, JavaSpelling, Sema.M)
           << ")) ";
        if (Q->isGround()) {
          OS << condName(Q) << ".awaitUninterruptibly();\n";
        } else {
          OS << "{\n";
          OS << "        WaiterC" << Q->Index << " w = new WaiterC"
             << Q->Index << "(lock.newCondition());\n";
          for (size_t I = 0; I < Q->Placeholders.size(); ++I)
            OS << "        w.p" << I << " = " << localName(CI.ClassArgs[I])
               << ";\n";
          OS << "        " << waitersName(Q) << ".addLast(w);\n";
          OS << "        while (!w.notified) w.cv.awaitUninterruptibly();\n";
          OS << "      }\n";
        }
      }
      OS << printStmt(W.Body, 3, JavaSpelling, Sema.M);
      for (const runtime::Wake &Wk : Lowered.wakesAfter(&W)) {
        const PredicateClass *Q = Wk.Target;
        if (Wk.Chain)
          OS << "      // lazy broadcast chain\n";
        if (!Q->isGround()) {
          OS << "      wakeC" << Q->Index << "("
             << (Wk.Conditional ? "true" : "false") << ", "
             << (Wk.All ? "true" : "false") << ");\n";
          continue;
        }
        OS << "      ";
        if (Wk.Conditional) {
          OS << "if (";
          renderTerm(OS, Q->Canonical, JavaSpelling);
          OS << ") ";
        }
        OS << condName(Q) << (Wk.All ? ".signalAll();" : ".signal();")
           << "\n";
      }
    }
    OS << "    } finally {\n      lock.unlock();\n    }\n  }\n";
  }
  OS << "}\n";
  return OS.str();
}
