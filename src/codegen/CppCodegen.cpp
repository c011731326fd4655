//===- codegen/CppCodegen.cpp - C++ explicit-signal emitter ---------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "codegen/Lowering.h"
#include "logic/Printer.h"
#include "runtime/SignalPlan.h"

#include <sstream>

using namespace expresso;
using namespace expresso::codegen;
using namespace expresso::frontend;

namespace {

/// Per-class naming helpers.
std::string cvName(const PredicateClass *Q) {
  return "cv_c" + std::to_string(Q->Index) + "_";
}
std::string waiterStructName(const PredicateClass *Q) {
  return "WaiterC" + std::to_string(Q->Index);
}
std::string waiterListName(const PredicateClass *Q) {
  return "waiters_c" + std::to_string(Q->Index) + "_";
}

class CppEmitter {
public:
  CppEmitter(const core::PlacementResult &R)
      : R(R), Sema(*R.Sema),
        Lowered(Sema, runtime::SignalPlan::fromPlacement(R)) {}

  std::string run() {
    OS << "// " << Sema.M->Name
       << ": explicit-signal monitor synthesized by expresso-cpp\n";
    OS << "// (reproduction of PLDI'18 \"Symbolic Reasoning for Automatic "
          "Signal Placement\")\n";
    OS << "// monitor invariant: " << logic::printTerm(R.Invariant) << "\n";
    OS << "#include <condition_variable>\n";
    OS << "#include <deque>\n";
    OS << "#include <map>\n";
    OS << "#include <mutex>\n\n";
    OS << "class " << targetName(Sema.M->Name) << " {\n";
    emitState();
    emitWaiterInfrastructure();
    OS << "public:\n";
    emitConstructor();
    for (const Method &M : Sema.M->Methods)
      emitMethod(M);
    OS << "};\n";
    return OS.str();
  }

private:
  void emitState() {
    OS << "private:\n";
    OS << "  // shared monitor state\n";
    for (const Field &F : Sema.M->Fields) {
      OS << "  " << (F.IsConst ? "const " : "") << CppSpelling.type(F.Type)
         << " " << targetName(F.Name);
      if (F.Init) {
        OS << " = " << printExpr(F.Init, CppSpelling, Sema.M);
      } else if (!F.IsConst && F.Type == TypeKind::Int) {
        OS << " = 0";
      } else if (!F.IsConst && F.Type == TypeKind::Bool) {
        OS << " = false";
      }
      OS << ";\n";
    }
    OS << "\n  std::mutex m_;\n";
    OS << "  static long mod_(long a, long b) { long r = a % b; return r < 0 "
          "? r + b : r; }\n";
  }

  void emitWaiterInfrastructure() {
    for (const PredicateClass *Q : usedClasses(Sema)) {
      OS << "\n  // predicate class c" << Q->Index << ": "
         << logic::printTerm(Q->Canonical) << "\n";
      if (Q->isGround()) {
        OS << "  std::condition_variable " << cvName(Q) << ";\n";
        continue;
      }
      // §6: track blocked threads' local values for conditional signaling.
      OS << "  struct " << waiterStructName(Q) << " {\n";
      OS << "    std::condition_variable cv;\n";
      OS << "    bool notified = false;\n";
      for (size_t I = 0; I < Q->Placeholders.size(); ++I)
        OS << "    " << CppSpelling.type(placeholderType(Q, I)) << " p" << I
           << ";\n";
      OS << "  };\n";
      OS << "  std::deque<" << waiterStructName(Q) << " *> "
         << waiterListName(Q) << ";\n";
      // Targeted wake: first waiter (optionally first whose predicate
      // holds).
      OS << "  void wake_c" << Q->Index << "_(bool checkPredicate, bool all) "
         << "{\n";
      OS << "    for (auto it = " << waiterListName(Q) << ".begin(); it != "
         << waiterListName(Q) << ".end();) {\n";
      OS << "      auto *w = *it;\n";
      OS << "      if (checkPredicate && !";
      renderTerm(OS, Q->Canonical, CppSpelling, Q, "w->");
      OS << ") { ++it; continue; }\n";
      OS << "      w->notified = true;\n";
      OS << "      w->cv.notify_one();\n";
      OS << "      it = " << waiterListName(Q) << ".erase(it);\n";
      OS << "      if (!all) return;\n";
      OS << "    }\n";
      OS << "  }\n";
    }
  }

  void emitConstructor() {
    OS << "  explicit " << targetName(Sema.M->Name) << "(";
    const std::vector<const Field *> Params = ctorParams(*Sema.M);
    const char *Sep = "";
    for (const Field *F : Params) {
      OS << Sep << CppSpelling.type(F->Type) << " " << targetName(F->Name)
         << "_arg";
      Sep = ", ";
    }
    OS << ")";
    Sep = " : ";
    for (const Field *F : Params) {
      OS << Sep << targetName(F->Name) << "(" << targetName(F->Name)
         << "_arg)";
      Sep = ", ";
    }
    OS << " {\n";
    if (Sema.M->InitBody)
      OS << printStmt(Sema.M->InitBody, 2, CppSpelling, Sema.M);
    OS << "  }\n";
  }

  void emitMethod(const Method &M) {
    OS << "\n  void " << targetName(M.Name) << "(";
    const char *Sep = "";
    for (const Param &P : M.Params) {
      OS << Sep << CppSpelling.type(P.Type) << " " << targetName(P.Name);
      Sep = ", ";
    }
    OS << ") {\n";
    OS << "    std::unique_lock<std::mutex> lock_(m_);\n";
    for (const WaitUntil &W : M.Body) {
      const CcrInfo &CI = Sema.info(&W);
      // Wait loop.
      if (!CI.Guard->isTrue()) {
        const PredicateClass *Q = CI.Class;
        OS << "    while (!(" << printExpr(W.Guard, CppSpelling, Sema.M)
           << ")) ";
        if (Q->isGround()) {
          OS << cvName(Q) << ".wait(lock_);\n";
        } else {
          OS << "{\n";
          OS << "      " << waiterStructName(Q) << " w_;\n";
          for (size_t I = 0; I < Q->Placeholders.size(); ++I)
            OS << "      w_.p" << I << " = " << localName(CI.ClassArgs[I])
               << ";\n";
          OS << "      " << waiterListName(Q) << ".push_back(&w_);\n";
          OS << "      w_.cv.wait(lock_, [&] { return w_.notified; });\n";
          OS << "    }\n";
        }
      }
      // Body, then the wakes Σ places after it.
      OS << printStmt(W.Body, 2, CppSpelling, Sema.M);
      for (const runtime::Wake &Wk : Lowered.wakesAfter(&W))
        emitWake(Wk);
    }
    OS << "  }\n";
  }

  void emitWake(const runtime::Wake &Wk) {
    const PredicateClass *Q = Wk.Target;
    if (Wk.Chain)
      OS << "    // lazy broadcast chain\n";
    if (!Q->isGround()) {
      OS << "    wake_c" << Q->Index << "_("
         << (Wk.Conditional ? "true" : "false") << ", "
         << (Wk.All ? "true" : "false") << ");\n";
      return;
    }
    OS << "    ";
    if (Wk.Conditional) {
      OS << "if (";
      renderTerm(OS, Q->Canonical, CppSpelling);
      OS << ") ";
    }
    OS << cvName(Q) << (Wk.All ? ".notify_all();" : ".notify_one();") << "\n";
  }

  const core::PlacementResult &R;
  const SemaInfo &Sema;
  const runtime::WakeLowering Lowered;
  std::ostringstream OS;
};

} // namespace

std::string codegen::emitCpp(const core::PlacementResult &R) {
  return CppEmitter(R).run();
}
