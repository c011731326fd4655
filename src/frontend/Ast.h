//===- frontend/Ast.h - Monitor-language AST --------------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Abstract syntax for the implicit-signal monitor language of Figure 3:
///
///   Monitor   M ::= monitor M { (fld | init | m)* }
///   Field   fld ::= [const] ty f [= lit] ;
///   Method    m ::= atomic void m(params) { w* }
///   WUntil    w ::= waituntil (p) { s }        (bare s == waituntil(true){s})
///   Statement s ::= skip | s1; s2 | v = e | a[i] = e
///                 | if (p) s1 [else s2] | while (p) s | ty v = e
///
/// Nodes use LLVM-style `classof` RTTI (support/Casting.h). A Monitor owns
/// every node of its tree through an internal arena.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_FRONTEND_AST_H
#define EXPRESSO_FRONTEND_AST_H

#include "support/Casting.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace expresso {
namespace frontend {

/// Surface types of the monitor language.
enum class TypeKind { Int, Bool, IntArray, BoolArray };

const char *typeName(TypeKind T);

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

/// Base class of all expressions.
class Expr {
public:
  enum class Kind {
    IntLit,
    BoolLit,
    VarRef,
    ArrayRef,
    Unary,
    Binary,
  };

  Kind kind() const { return TheKind; }
  SourceLoc loc() const { return Loc; }
  virtual ~Expr() = default;

protected:
  Expr(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

/// Integer literal.
class IntLit : public Expr {
public:
  IntLit(int64_t Value, SourceLoc Loc) : Expr(Kind::IntLit, Loc), Value(Value) {}
  int64_t value() const { return Value; }
  static bool classof(const Expr *E) { return E->kind() == Kind::IntLit; }

private:
  int64_t Value;
};

/// `true` / `false`.
class BoolLit : public Expr {
public:
  BoolLit(bool Value, SourceLoc Loc) : Expr(Kind::BoolLit, Loc), Value(Value) {}
  bool value() const { return Value; }
  static bool classof(const Expr *E) { return E->kind() == Kind::BoolLit; }

private:
  bool Value;
};

/// Reference to a field, parameter, or local.
class VarRef : public Expr {
public:
  VarRef(std::string Name, SourceLoc Loc)
      : Expr(Kind::VarRef, Loc), Name(std::move(Name)) {}
  const std::string &name() const { return Name; }
  static bool classof(const Expr *E) { return E->kind() == Kind::VarRef; }

private:
  std::string Name;
};

/// Array element read `a[i]`.
class ArrayRef : public Expr {
public:
  ArrayRef(std::string Array, const Expr *Index, SourceLoc Loc)
      : Expr(Kind::ArrayRef, Loc), Array(std::move(Array)), Index(Index) {}
  const std::string &array() const { return Array; }
  const Expr *index() const { return Index; }
  static bool classof(const Expr *E) { return E->kind() == Kind::ArrayRef; }

private:
  std::string Array;
  const Expr *Index;
};

/// Unary operators.
enum class UnaryOp { Not, Neg };

class Unary : public Expr {
public:
  Unary(UnaryOp Op, const Expr *Operand, SourceLoc Loc)
      : Expr(Kind::Unary, Loc), Op(Op), Operand(Operand) {}
  UnaryOp op() const { return Op; }
  const Expr *operand() const { return Operand; }
  static bool classof(const Expr *E) { return E->kind() == Kind::Unary; }

private:
  UnaryOp Op;
  const Expr *Operand;
};

/// Binary operators.
enum class BinaryOp {
  Add,
  Sub,
  Mul,
  Eq,
  Ne,
  Lt,
  Le,
  Gt,
  Ge,
  And,
  Or,
  Mod, ///< only with a constant divisor; lowers to divisibility reasoning
};

const char *binaryOpSpelling(BinaryOp Op);

class Binary : public Expr {
public:
  Binary(BinaryOp Op, const Expr *Lhs, const Expr *Rhs, SourceLoc Loc)
      : Expr(Kind::Binary, Loc), Op(Op), Lhs(Lhs), Rhs(Rhs) {}
  BinaryOp op() const { return Op; }
  const Expr *lhs() const { return Lhs; }
  const Expr *rhs() const { return Rhs; }
  static bool classof(const Expr *E) { return E->kind() == Kind::Binary; }

private:
  BinaryOp Op;
  const Expr *Lhs;
  const Expr *Rhs;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

/// Base class of all statements.
class Stmt {
public:
  enum class Kind {
    Skip,
    Assign,
    Store,
    Seq,
    If,
    While,
    LocalDecl,
  };

  Kind kind() const { return TheKind; }
  SourceLoc loc() const { return Loc; }
  virtual ~Stmt() = default;

protected:
  Stmt(Kind K, SourceLoc Loc) : TheKind(K), Loc(Loc) {}

private:
  Kind TheKind;
  SourceLoc Loc;
};

/// `skip;` (empty statement).
class SkipStmt : public Stmt {
public:
  explicit SkipStmt(SourceLoc Loc) : Stmt(Kind::Skip, Loc) {}
  static bool classof(const Stmt *S) { return S->kind() == Kind::Skip; }
};

/// `v = e;`
class AssignStmt : public Stmt {
public:
  AssignStmt(std::string Target, const Expr *Value, SourceLoc Loc)
      : Stmt(Kind::Assign, Loc), Target(std::move(Target)), Value(Value) {}
  const std::string &target() const { return Target; }
  const Expr *value() const { return Value; }
  static bool classof(const Stmt *S) { return S->kind() == Kind::Assign; }

private:
  std::string Target;
  const Expr *Value;
};

/// `a[i] = e;`
class StoreStmt : public Stmt {
public:
  StoreStmt(std::string Array, const Expr *Index, const Expr *Value,
            SourceLoc Loc)
      : Stmt(Kind::Store, Loc), Array(std::move(Array)), Index(Index),
        Value(Value) {}
  const std::string &array() const { return Array; }
  const Expr *index() const { return Index; }
  const Expr *value() const { return Value; }
  static bool classof(const Stmt *S) { return S->kind() == Kind::Store; }

private:
  std::string Array;
  const Expr *Index;
  const Expr *Value;
};

/// Statement sequence (block).
class SeqStmt : public Stmt {
public:
  SeqStmt(std::vector<const Stmt *> Stmts, SourceLoc Loc)
      : Stmt(Kind::Seq, Loc), Stmts(std::move(Stmts)) {}
  const std::vector<const Stmt *> &stmts() const { return Stmts; }
  static bool classof(const Stmt *S) { return S->kind() == Kind::Seq; }

private:
  std::vector<const Stmt *> Stmts;
};

/// `if (p) s1 else s2` (Else may be a SkipStmt).
class IfStmt : public Stmt {
public:
  IfStmt(const Expr *Cond, const Stmt *Then, const Stmt *Else, SourceLoc Loc)
      : Stmt(Kind::If, Loc), Cond(Cond), Then(Then), Else(Else) {}
  const Expr *cond() const { return Cond; }
  const Stmt *thenStmt() const { return Then; }
  const Stmt *elseStmt() const { return Else; }
  static bool classof(const Stmt *S) { return S->kind() == Kind::If; }

private:
  const Expr *Cond;
  const Stmt *Then;
  const Stmt *Else;
};

/// `while (p) s`
class WhileStmt : public Stmt {
public:
  WhileStmt(const Expr *Cond, const Stmt *Body, SourceLoc Loc)
      : Stmt(Kind::While, Loc), Cond(Cond), Body(Body) {}
  const Expr *cond() const { return Cond; }
  const Stmt *body() const { return Body; }
  static bool classof(const Stmt *S) { return S->kind() == Kind::While; }

private:
  const Expr *Cond;
  const Stmt *Body;
};

/// `ty v = e;` — method-local variable declaration.
class LocalDeclStmt : public Stmt {
public:
  LocalDeclStmt(TypeKind Type, std::string Name, const Expr *Init,
                SourceLoc Loc)
      : Stmt(Kind::LocalDecl, Loc), Type(Type), Name(std::move(Name)),
        Init(Init) {}
  TypeKind type() const { return Type; }
  const std::string &name() const { return Name; }
  const Expr *init() const { return Init; }
  static bool classof(const Stmt *S) { return S->kind() == Kind::LocalDecl; }

private:
  TypeKind Type;
  std::string Name;
  const Expr *Init;
};

//===----------------------------------------------------------------------===//
// Monitor structure
//===----------------------------------------------------------------------===//

/// A conditional critical region: `waituntil (Guard) { Body }`.
struct WaitUntil {
  const Expr *Guard = nullptr;
  const Stmt *Body = nullptr;
  SourceLoc Loc;
  /// Monitor-wide index, assigned by the parser in program order.
  unsigned Id = 0;
};

/// A monitor field.
struct Field {
  std::string Name;
  TypeKind Type = TypeKind::Int;
  bool IsConst = false;
  /// Literal initializer, if present (ints / bools only).
  const Expr *Init = nullptr;
  SourceLoc Loc;
};

/// A method parameter.
struct Param {
  std::string Name;
  TypeKind Type = TypeKind::Int;
};

/// An atomic monitor method: a sequence of waituntil statements.
struct Method {
  std::string Name;
  std::vector<Param> Params;
  std::vector<WaitUntil> Body;
  SourceLoc Loc;
};

/// A whole monitor; owns every AST node via its arena.
class Monitor {
public:
  std::string Name;
  std::vector<Field> Fields;
  /// Optional explicit constructor body (runs after field initializers).
  const Stmt *InitBody = nullptr;
  /// Configuration contracts: boolean expressions over `const` fields that
  /// the environment guarantees at construction (e.g. `requires capacity >
  /// 0;`). They strengthen the initiation check of monitor invariants.
  std::vector<const Expr *> Requires;
  std::vector<Method> Methods;

  const Field *findField(const std::string &Name) const;
  const Method *findMethod(const std::string &Name) const;

  /// All waituntil statements across all methods, in program order
  /// (CCRs(M) in the paper).
  std::vector<const WaitUntil *> ccrs() const;

  /// Arena: nodes are allocated through these and owned by the monitor.
  template <typename T, typename... Args> T *make(Args &&...As) {
    auto Node = std::make_unique<T>(std::forward<Args>(As)...);
    T *Raw = Node.get();
    Arena.push_back(AnyPtr(std::move(Node)));
    return Raw;
  }

private:
  // Type-erased unified arena used by make<>.
  class AnyPtr {
  public:
    template <typename T>
    explicit AnyPtr(std::unique_ptr<T> P)
        : Ptr(P.release()), Deleter([](void *V) { delete static_cast<T *>(V); }) {}
    AnyPtr(AnyPtr &&O) noexcept : Ptr(O.Ptr), Deleter(O.Deleter) {
      O.Ptr = nullptr;
    }
    ~AnyPtr() {
      if (Ptr)
        Deleter(Ptr);
    }

  private:
    void *Ptr;
    void (*Deleter)(void *);
  };
  std::vector<AnyPtr> Arena;
};

/// How a target spells the constructs in which the monitor language, C++
/// and Java differ. The source printer below and the codegen term renderer
/// each walk their tree once and look these spellings up.
struct Spelling {
  /// Type names, indexed by TypeKind.
  const char *Types[4];
  /// Suffix of integer literals in rendered logic terms.
  const char *IntSuffix;
  /// An array read is `a<ReadOpen>i<ReadClose>`. ReadClose is indexed by
  /// element type (0 int, 1 bool) because Java's getOrDefault names a
  /// default value. Java int reads also unbox: `==` between two boxed
  /// Integers compares references.
  const char *ReadOpen;
  const char *ReadClose[2];
  /// An array write is `a<WriteOpen>i<WriteMid>v<WriteClose>`.
  const char *WriteOpen, *WriteMid, *WriteClose;
  /// Floor mod as a call `FloorMod(a, b)`. Null keeps the monitor
  /// language's infix `%`, which is floor mod already.
  const char *FloorMod;
  /// Maps a source identifier to the target's. Null keeps the name.
  std::string (*Ident)(std::string_view);

  const char *type(TypeKind T) const { return Types[static_cast<int>(T)]; }
  std::string ident(std::string_view Name) const {
    return Ident ? Ident(Name) : std::string(Name);
  }
};

/// The monitor language's own spelling.
extern const Spelling DslSpelling;

/// Renders a statement / expression as source in spelling \p Sp, by
/// default back to the monitor language. \p M, the enclosing monitor, gives
/// array element types; spellings whose int and bool reads differ need it.
std::string printExpr(const Expr *E, const Spelling &Sp = DslSpelling,
                      const Monitor *M = nullptr);
std::string printStmt(const Stmt *S, unsigned Indent = 0,
                      const Spelling &Sp = DslSpelling,
                      const Monitor *M = nullptr);

} // namespace frontend
} // namespace expresso

#endif // EXPRESSO_FRONTEND_AST_H
