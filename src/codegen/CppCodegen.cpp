//===- codegen/CppCodegen.cpp - C++ explicit-signal emitter ---------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "logic/Printer.h"

#include <map>
#include <set>
#include <sstream>

using namespace expresso;
using namespace expresso::codegen;
using namespace expresso::frontend;
using logic::Term;
using logic::TermKind;

namespace {

/// Emits a logic term as a C++ expression. \p Rename maps variable names
/// (e.g. the positional placeholders `$p0`) to replacement spellings.
void emitTerm(std::ostringstream &OS, const Term *T,
              const std::map<std::string, std::string> &Rename) {
  switch (T->kind()) {
  case TermKind::IntConst:
    OS << T->intValue() << "L";
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
      emitTerm(OS, Op, Rename);
    }
    OS << ")";
    return;
  }
  case TermKind::Mul:
    OS << "(";
    emitTerm(OS, T->operand(0), Rename);
    OS << " * ";
    emitTerm(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Ite:
    OS << "(";
    emitTerm(OS, T->operand(0), Rename);
    OS << " ? ";
    emitTerm(OS, T->operand(1), Rename);
    OS << " : ";
    emitTerm(OS, T->operand(2), Rename);
    OS << ")";
    return;
  case TermKind::Select:
    emitTerm(OS, T->operand(0), Rename);
    OS << "[";
    emitTerm(OS, T->operand(1), Rename);
    OS << "]";
    return;
  case TermKind::Eq:
    OS << "(";
    emitTerm(OS, T->operand(0), Rename);
    OS << " == ";
    emitTerm(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Le:
    OS << "(";
    emitTerm(OS, T->operand(0), Rename);
    OS << " <= ";
    emitTerm(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Lt:
    OS << "(";
    emitTerm(OS, T->operand(0), Rename);
    OS << " < ";
    emitTerm(OS, T->operand(1), Rename);
    OS << ")";
    return;
  case TermKind::Divides:
    OS << "(mod_(";
    emitTerm(OS, T->operand(0), Rename);
    OS << ", " << T->intValue() << "L) == 0)";
    return;
  case TermKind::Not:
    OS << "!";
    emitTerm(OS, T->operand(0), Rename);
    return;
  case TermKind::And:
  case TermKind::Or: {
    OS << "(";
    bool First = true;
    for (const Term *Op : T->operands()) {
      if (!First)
        OS << (T->kind() == TermKind::And ? " && " : " || ");
      First = false;
      emitTerm(OS, Op, Rename);
    }
    OS << ")";
    return;
  }
  case TermKind::Store:
    OS << "/* unexpected store */";
    return;
  }
}

std::string termCpp(const Term *T,
                    const std::map<std::string, std::string> &Rename = {}) {
  std::ostringstream OS;
  emitTerm(OS, T, Rename);
  return OS.str();
}

const char *cppType(TypeKind T) {
  switch (T) {
  case TypeKind::Int:
    return "long";
  case TypeKind::Bool:
    return "bool";
  case TypeKind::IntArray:
    return "std::map<long, long>";
  case TypeKind::BoolArray:
    return "std::map<long, bool>";
  }
  return "long";
}

/// C++ statement emission (the DSL syntax is already C++-compatible except
/// for local declarations, which get C++ types).
void emitStmt(std::ostringstream &OS, const Stmt *S, unsigned Indent) {
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
    OS << Pad << St->array() << "[" << printExpr(St->index())
       << "] = " << printExpr(St->value()) << ";\n";
    return;
  }
  case Stmt::Kind::Seq:
    for (const Stmt *Sub : cast<SeqStmt>(S)->stmts())
      emitStmt(OS, Sub, Indent);
    return;
  case Stmt::Kind::If: {
    const auto *I = cast<IfStmt>(S);
    OS << Pad << "if (" << printExpr(I->cond()) << ") {\n";
    emitStmt(OS, I->thenStmt(), Indent + 1);
    if (I->elseStmt() && !isa<SkipStmt>(I->elseStmt())) {
      OS << Pad << "} else {\n";
      emitStmt(OS, I->elseStmt(), Indent + 1);
    }
    OS << Pad << "}\n";
    return;
  }
  case Stmt::Kind::While: {
    const auto *W = cast<WhileStmt>(S);
    OS << Pad << "while (" << printExpr(W->cond()) << ") {\n";
    emitStmt(OS, W->body(), Indent + 1);
    OS << Pad << "}\n";
    return;
  }
  case Stmt::Kind::LocalDecl: {
    const auto *L = cast<LocalDeclStmt>(S);
    OS << Pad << cppType(L->type()) << " " << L->name() << " = "
       << printExpr(L->init()) << ";\n";
    return;
  }
  }
}

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

/// Rename map sending placeholders to a waiter record's fields.
std::map<std::string, std::string> waiterRename(const PredicateClass *Q,
                                                const std::string &Obj) {
  std::map<std::string, std::string> Rename;
  for (size_t I = 0; I < Q->Placeholders.size(); ++I)
    Rename[Q->Placeholders[I]->varName()] = Obj + "->p" + std::to_string(I);
  return Rename;
}

class CppEmitter {
public:
  CppEmitter(const core::PlacementResult &R) : R(R), Sema(*R.Sema) {}

  std::string run() {
    collectUsedClasses();
    OS << "// " << Sema.M->Name
       << ": explicit-signal monitor synthesized by expresso-cpp\n";
    OS << "// (reproduction of PLDI'18 \"Symbolic Reasoning for Automatic "
          "Signal Placement\")\n";
    OS << "// monitor invariant: " << logic::printTerm(R.Invariant) << "\n";
    OS << "#include <condition_variable>\n";
    OS << "#include <deque>\n";
    OS << "#include <map>\n";
    OS << "#include <mutex>\n\n";
    OS << "class " << Sema.M->Name << " {\n";
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
  void collectUsedClasses() {
    for (const CcrInfo &CI : Sema.Ccrs)
      if (!CI.Guard->isTrue())
        Used.insert(CI.Class);
    if (R.Options.LazyBroadcast)
      for (const core::CcrPlacement &P : R.Placements)
        for (const core::SignalDecision &D : P.Decisions)
          if (D.Broadcast)
            Chained.insert(D.Target);
  }

  void emitState() {
    OS << "private:\n";
    OS << "  // shared monitor state\n";
    for (const Field &F : Sema.M->Fields) {
      OS << "  " << (F.IsConst ? "const " : "") << cppType(F.Type) << " "
         << F.Name;
      if (F.Init) {
        OS << " = " << printExpr(F.Init);
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
    for (const PredicateClass *Q : Used) {
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
        OS << "    "
           << (Q->Placeholders[I]->sort() == logic::Sort::Bool ? "bool"
                                                               : "long")
           << " p" << I << ";\n";
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
      OS << "      if (checkPredicate && !"
         << termCpp(Q->Canonical, waiterRename(Q, "w")) << ") { ++it; "
         << "continue; }\n";
      OS << "      w->notified = true;\n";
      OS << "      w->cv.notify_one();\n";
      OS << "      it = " << waiterListName(Q) << ".erase(it);\n";
      OS << "      if (!all) return;\n";
      OS << "    }\n";
      OS << "  }\n";
    }
  }

  void emitConstructor() {
    // const fields without initializers become constructor parameters.
    std::vector<const Field *> Params;
    for (const Field &F : Sema.M->Fields)
      if (F.IsConst && !F.Init)
        Params.push_back(&F);
    OS << "  explicit " << Sema.M->Name << "(";
    bool First = true;
    for (const Field *F : Params) {
      if (!First)
        OS << ", ";
      First = false;
      OS << cppType(F->Type) << " " << F->Name << "_arg";
    }
    OS << ")";
    First = true;
    for (const Field *F : Params) {
      OS << (First ? " : " : ", ") << F->Name << "(" << F->Name << "_arg)";
      First = false;
    }
    OS << " {\n";
    if (Sema.M->InitBody)
      emitStmt(OS, Sema.M->InitBody, 2);
    OS << "  }\n";
  }

  void emitMethod(const Method &M) {
    OS << "\n  void " << M.Name << "(";
    bool First = true;
    for (const Param &P : M.Params) {
      if (!First)
        OS << ", ";
      First = false;
      OS << cppType(P.Type) << " " << P.Name;
    }
    OS << ") {\n";
    OS << "    std::unique_lock<std::mutex> lock_(m_);\n";
    for (const WaitUntil &W : M.Body) {
      const CcrInfo &CI = Sema.info(&W);
      const core::CcrPlacement &CP = R.placementFor(&W);
      // Wait loop.
      if (!CI.Guard->isTrue()) {
        const PredicateClass *Q = CI.Class;
        if (Q->isGround()) {
          OS << "    while (!(" << printExpr(W.Guard) << ")) " << cvName(Q)
             << ".wait(lock_);\n";
        } else {
          OS << "    while (!(" << printExpr(W.Guard) << ")) {\n";
          OS << "      " << waiterStructName(Q) << " w_;\n";
          for (size_t I = 0; I < Q->Placeholders.size(); ++I) {
            const std::string &Qual = CI.ClassArgs[I]->varName();
            OS << "      w_.p" << I << " = "
               << Qual.substr(Qual.find("::") + 2) << ";\n";
          }
          OS << "      " << waiterListName(Q) << ".push_back(&w_);\n";
          OS << "      w_.cv.wait(lock_, [&] { return w_.notified; });\n";
          OS << "    }\n";
        }
      }
      // Body.
      emitStmt(OS, W.Body, 2);
      // Lazy-broadcast chain for this CCR's own class (§6).
      if (R.Options.LazyBroadcast && Chained.count(CI.Class))
        emitWake(CI.Class, /*Conditional=*/true, /*All=*/false,
                 "    // lazy broadcast chain\n");
      // Signals.
      for (const core::SignalDecision &D : CP.Decisions) {
        bool All = D.Broadcast && !R.Options.LazyBroadcast;
        bool Cond = D.Broadcast && R.Options.LazyBroadcast
                        ? true // lazy broadcast wakes one, predicate-checked
                        : D.Conditional;
        emitWake(D.Target, Cond, All, "");
      }
    }
    OS << "  }\n";
  }

  void emitWake(const PredicateClass *Q, bool Conditional, bool All,
                const std::string &Comment) {
    OS << Comment;
    if (Q->isGround()) {
      std::string Notify =
          cvName(Q) + (All ? ".notify_all();" : ".notify_one();");
      if (Conditional) {
        OS << "    if (" << termCpp(Q->Canonical) << ") " << Notify << "\n";
      } else {
        OS << "    " << Notify << "\n";
      }
      return;
    }
    OS << "    wake_c" << Q->Index << "_(" << (Conditional ? "true" : "false")
       << ", " << (All ? "true" : "false") << ");\n";
  }

  const core::PlacementResult &R;
  const SemaInfo &Sema;
  std::ostringstream OS;
  std::set<const PredicateClass *, PredicateClassIndexLess> Used;
  std::set<const PredicateClass *, PredicateClassIndexLess> Chained;
};

} // namespace

std::string codegen::emitCpp(const core::PlacementResult &R) {
  return CppEmitter(R).run();
}
