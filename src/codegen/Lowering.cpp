//===- codegen/Lowering.cpp - Shared lowering of Σ to target code ---------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "codegen/Lowering.h"

#include "codegen/Codegen.h"

#include <unordered_set>

using namespace expresso;
using namespace expresso::codegen;
using namespace expresso::frontend;
using logic::Term;
using logic::TermKind;

const Spelling codegen::CppSpelling = {
    {"long", "bool", "std::map<long, long>", "std::map<long, bool>"},
    "L",
    "[",
    {"]", "]"},
    "[",
    "] = ",
    ";",
    "mod_",
    &codegen::targetName};

const Spelling codegen::JavaSpelling = {
    {"int", "boolean", "java.util.HashMap<Integer, Integer>",
     "java.util.HashMap<Integer, Boolean>"},
    "",
    ".getOrDefault(",
    {", 0).intValue()", ", false)"},
    ".put(",
    ", ",
    ");",
    "Math.floorMod",
    &codegen::targetName};

std::string codegen::targetName(std::string_view Name) {
  static const std::unordered_set<std::string_view> Words = {
      // C++20 keywords and alternative tokens.
      "alignas", "alignof", "and", "and_eq", "asm", "auto", "bitand",
      "bitor", "bool", "break", "case", "catch", "char", "char8_t",
      "char16_t", "char32_t", "class", "co_await", "co_return", "co_yield",
      "compl", "concept", "const", "const_cast", "consteval", "constexpr",
      "constinit", "continue", "decltype", "default", "delete", "do",
      "double", "dynamic_cast", "else", "enum", "explicit", "export",
      "extern", "false", "float", "for", "friend", "goto", "if", "inline",
      "int", "long", "mutable", "namespace", "new", "noexcept", "not",
      "not_eq", "nullptr", "operator", "or", "or_eq", "private",
      "protected", "public", "register", "reinterpret_cast", "requires",
      "return", "short", "signed", "sizeof", "static", "static_assert",
      "static_cast", "struct", "switch", "template", "this", "thread_local",
      "throw", "true", "try", "typedef", "typeid", "typename", "union",
      "unsigned", "using", "virtual", "void", "volatile", "wchar_t",
      "while", "xor", "xor_eq",
      // Java 17 keywords and literals not listed above.
      "_", "abstract", "assert", "boolean", "byte", "extends", "final",
      "finally", "implements", "import", "instanceof", "interface",
      "native", "null", "package", "strictfp", "super", "synchronized",
      "throws", "transient",
      // The final methods of java.lang.Object.
      "getClass", "notify", "notifyAll", "wait",
      // Names the emitters declare (C++'s mutex, mod helper and lock guard,
      // Java's lock, the waiter records, the wake helpers' parameters and
      // locals) or use unqualified.
      "m_", "mod_", "lock_", "w_", "lock", "w", "it", "checkPredicate",
      "all", "std", "java", "Math", "Integer", "Boolean", "Condition",
      "ReentrantLock"};
  static const std::unordered_set<std::string_view> ClassStems = {
      "cv_c", "waiters_c", "wake_c", "WaiterC", "cond_c", "wakeC"};
  auto Reserved = [](std::string_view N) {
    // Constructor parameters are a field's name plus "_arg" (C++) or "Arg"
    // (Java).
    if (Words.count(N) || N.ends_with("_arg") || N.ends_with("Arg"))
      return true;
    // Per-class names: a stem, the class index and, in C++, one '_'.
    if (N.ends_with('_'))
      N.remove_suffix(1);
    size_t Stem = N.find_last_not_of("0123456789") + 1;
    return Stem > 0 && Stem < N.size() && ClassStems.count(N.substr(0, Stem));
  };
  std::string Out(Name);
  while (Reserved(Out))
    Out += '_';
  return Out;
}

void codegen::renderTerm(std::ostream &OS, const Term *T, const Spelling &Sp,
                         const PredicateClass *Waiter, const char *Obj) {
  auto Sub = [&](const Term *Op) { renderTerm(OS, Op, Sp, Waiter, Obj); };
  auto Infix = [&](const char *Op) {
    OS << "(";
    bool First = true;
    for (const Term *Operand : T->operands()) {
      if (!First)
        OS << Op;
      First = false;
      Sub(Operand);
    }
    OS << ")";
  };
  switch (T->kind()) {
  case TermKind::IntConst:
    OS << T->intValue() << Sp.IntSuffix;
    return;
  case TermKind::BoolConst:
    OS << (T->boolValue() ? "true" : "false");
    return;
  case TermKind::Var:
    if (Waiter)
      for (size_t I = 0; I < Waiter->Placeholders.size(); ++I)
        if (Waiter->Placeholders[I] == T) {
          OS << Obj << "p" << I;
          return;
        }
    OS << Sp.ident(T->varName());
    return;
  case TermKind::Add:
    Infix(" + ");
    return;
  case TermKind::Mul:
    Infix(" * ");
    return;
  case TermKind::Ite:
    OS << "(";
    Sub(T->operand(0));
    OS << " ? ";
    Sub(T->operand(1));
    OS << " : ";
    Sub(T->operand(2));
    OS << ")";
    return;
  case TermKind::Select:
    Sub(T->operand(0));
    OS << Sp.ReadOpen;
    Sub(T->operand(1));
    OS << Sp.ReadClose[T->sort() == logic::Sort::Bool];
    return;
  case TermKind::Eq:
    Infix(" == ");
    return;
  case TermKind::Le:
    Infix(" <= ");
    return;
  case TermKind::Lt:
    Infix(" < ");
    return;
  case TermKind::Divides:
    OS << "(" << Sp.FloorMod << "(";
    Sub(T->operand(0));
    OS << ", " << T->intValue() << Sp.IntSuffix << ") == 0)";
    return;
  case TermKind::Not:
    OS << "!";
    Sub(T->operand(0));
    return;
  case TermKind::And:
    Infix(" && ");
    return;
  case TermKind::Or:
    Infix(" || ");
    return;
  case TermKind::Store:
    OS << "/* unexpected store */";
    return;
  }
}

std::string codegen::localName(const Term *QualifiedVar) {
  std::string_view Qual = QualifiedVar->varName();
  return targetName(Qual.substr(Qual.find("::") + 2));
}

TypeKind codegen::placeholderType(const PredicateClass *Q, size_t I) {
  return Q->Placeholders[I]->sort() == logic::Sort::Bool ? TypeKind::Bool
                                                         : TypeKind::Int;
}

std::vector<const PredicateClass *>
codegen::usedClasses(const SemaInfo &Sema) {
  // Indexed by PredicateClass::Index, so the classes come out in that order.
  std::vector<bool> IsUsed(Sema.Classes.size());
  for (const CcrInfo &CI : Sema.Ccrs)
    if (!CI.Guard->isTrue())
      IsUsed[CI.Class->Index] = true;
  std::vector<const PredicateClass *> Used;
  for (const auto &Q : Sema.Classes)
    if (IsUsed[Q->Index])
      Used.push_back(Q.get());
  return Used;
}

std::vector<const Field *> codegen::ctorParams(const Monitor &M) {
  std::vector<const Field *> Params;
  for (const Field &F : M.Fields)
    if (F.IsConst && !F.Init)
      Params.push_back(&F);
  return Params;
}

std::optional<EmitKind> codegen::parseEmitKind(std::string_view Name) {
  static const std::pair<std::string_view, EmitKind> Kinds[] = {
      {"summary", EmitKind::Summary}, {"ir", EmitKind::Ir},
      {"cpp", EmitKind::Cpp}, {"java", EmitKind::Java}};
  for (const auto &[Spelled, Kind] : Kinds)
    if (Name == Spelled)
      return Kind;
  return std::nullopt;
}

std::string codegen::emit(const core::PlacementResult &R, EmitKind Kind) {
  return Kind == EmitKind::Ir     ? printTargetIr(R)
         : Kind == EmitKind::Cpp  ? emitCpp(R)
         : Kind == EmitKind::Java ? emitJava(R)
                                  : R.summary();
}
