//===- frontend/Ast.cpp - Monitor-language AST --------------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "frontend/Ast.h"

#include <sstream>

using namespace expresso;
using namespace expresso::frontend;

const Spelling frontend::DslSpelling = {
    {"int", "bool", "int[]", "bool[]"}, "", "[", {"]", "]"}, "[", "] = ", ";",
    nullptr, nullptr};

const char *frontend::typeName(TypeKind T) { return DslSpelling.type(T); }

const char *frontend::binaryOpSpelling(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Add:
    return "+";
  case BinaryOp::Sub:
    return "-";
  case BinaryOp::Mul:
    return "*";
  case BinaryOp::Mod:
    return "%";
  case BinaryOp::Eq:
    return "==";
  case BinaryOp::Ne:
    return "!=";
  case BinaryOp::Lt:
    return "<";
  case BinaryOp::Le:
    return "<=";
  case BinaryOp::Gt:
    return ">";
  case BinaryOp::Ge:
    return ">=";
  case BinaryOp::And:
    return "&&";
  case BinaryOp::Or:
    return "||";
  }
  return "?";
}

const Field *Monitor::findField(const std::string &FieldName) const {
  for (const Field &F : Fields)
    if (F.Name == FieldName)
      return &F;
  return nullptr;
}

const Method *Monitor::findMethod(const std::string &MethodName) const {
  for (const Method &M : Methods)
    if (M.Name == MethodName)
      return &M;
  return nullptr;
}

std::vector<const WaitUntil *> Monitor::ccrs() const {
  std::vector<const WaitUntil *> Result;
  for (const Method &M : Methods)
    for (const WaitUntil &W : M.Body)
      Result.push_back(&W);
  return Result;
}

namespace {

int precedenceOf(BinaryOp Op) {
  switch (Op) {
  case BinaryOp::Or:
    return 1;
  case BinaryOp::And:
    return 2;
  case BinaryOp::Eq:
  case BinaryOp::Ne:
    return 3;
  case BinaryOp::Lt:
  case BinaryOp::Le:
  case BinaryOp::Gt:
  case BinaryOp::Ge:
    return 4;
  case BinaryOp::Add:
  case BinaryOp::Sub:
    return 5;
  case BinaryOp::Mul:
  case BinaryOp::Mod:
    return 6;
  }
  return 0;
}

/// One walk over statements and expressions, spelling the constructs that
/// differ between targets through a Spelling table.
struct SourcePrinter {
  std::ostringstream &OS;
  const Spelling &Sp;
  const Monitor *M;

  void expr(const Expr *E, int Parent) {
    switch (E->kind()) {
    case Expr::Kind::IntLit:
      OS << cast<IntLit>(E)->value();
      return;
    case Expr::Kind::BoolLit:
      OS << (cast<BoolLit>(E)->value() ? "true" : "false");
      return;
    case Expr::Kind::VarRef:
      OS << Sp.ident(cast<VarRef>(E)->name());
      return;
    case Expr::Kind::ArrayRef: {
      const auto *A = cast<ArrayRef>(E);
      const Field *F = M ? M->findField(A->array()) : nullptr;
      OS << Sp.ident(A->array()) << Sp.ReadOpen;
      expr(A->index(), 0);
      OS << Sp.ReadClose[F && F->Type == TypeKind::BoolArray];
      return;
    }
    case Expr::Kind::Unary: {
      const auto *U = cast<Unary>(E);
      OS << (U->op() == UnaryOp::Not ? "!" : "-");
      expr(U->operand(), 7);
      return;
    }
    case Expr::Kind::Binary: {
      const auto *B = cast<Binary>(E);
      if (B->op() == BinaryOp::Mod && Sp.FloorMod) {
        OS << Sp.FloorMod << "(";
        expr(B->lhs(), 0);
        OS << ", ";
        expr(B->rhs(), 0);
        OS << ")";
        return;
      }
      int Prec = precedenceOf(B->op());
      if (Parent > Prec)
        OS << "(";
      expr(B->lhs(), Prec);
      OS << " " << binaryOpSpelling(B->op()) << " ";
      expr(B->rhs(), Prec + 1);
      if (Parent > Prec)
        OS << ")";
      return;
    }
    }
  }

  void stmt(const Stmt *S, unsigned Indent) {
    std::string Pad(Indent * 2, ' ');
    switch (S->kind()) {
    case Stmt::Kind::Skip:
      OS << Pad << ";\n";
      return;
    case Stmt::Kind::Assign: {
      const auto *A = cast<AssignStmt>(S);
      OS << Pad << Sp.ident(A->target()) << " = ";
      expr(A->value(), 0);
      OS << ";\n";
      return;
    }
    case Stmt::Kind::Store: {
      const auto *St = cast<StoreStmt>(S);
      OS << Pad << Sp.ident(St->array()) << Sp.WriteOpen;
      expr(St->index(), 0);
      OS << Sp.WriteMid;
      expr(St->value(), 0);
      OS << Sp.WriteClose << "\n";
      return;
    }
    case Stmt::Kind::Seq:
      for (const Stmt *Sub : cast<SeqStmt>(S)->stmts())
        stmt(Sub, Indent);
      return;
    case Stmt::Kind::If: {
      const auto *I = cast<IfStmt>(S);
      OS << Pad << "if (";
      expr(I->cond(), 0);
      OS << ") {\n";
      stmt(I->thenStmt(), Indent + 1);
      if (I->elseStmt() && !isa<SkipStmt>(I->elseStmt())) {
        OS << Pad << "} else {\n";
        stmt(I->elseStmt(), Indent + 1);
      }
      OS << Pad << "}\n";
      return;
    }
    case Stmt::Kind::While: {
      const auto *W = cast<WhileStmt>(S);
      OS << Pad << "while (";
      expr(W->cond(), 0);
      OS << ") {\n";
      stmt(W->body(), Indent + 1);
      OS << Pad << "}\n";
      return;
    }
    case Stmt::Kind::LocalDecl: {
      const auto *L = cast<LocalDeclStmt>(S);
      OS << Pad << Sp.type(L->type()) << " " << Sp.ident(L->name()) << " = ";
      expr(L->init(), 0);
      OS << ";\n";
      return;
    }
    }
  }
};

} // namespace

std::string frontend::printExpr(const Expr *E, const Spelling &Sp,
                                const Monitor *M) {
  std::ostringstream OS;
  SourcePrinter{OS, Sp, M}.expr(E, 0);
  return OS.str();
}

std::string frontend::printStmt(const Stmt *S, unsigned Indent,
                                const Spelling &Sp, const Monitor *M) {
  std::ostringstream OS;
  SourcePrinter{OS, Sp, M}.stmt(S, Indent);
  return OS.str();
}
