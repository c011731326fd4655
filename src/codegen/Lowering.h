//===- codegen/Lowering.h - Shared lowering of Σ to target code -*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The part of code generation the C++ and Java backends share: the two
/// targets' spelling tables, one renderer from logic terms to target
/// expressions, and the classes and constructor parameters a monitor
/// skeleton declares. The wakes after each CCR come from
/// runtime::WakeLowering, the step the explicit engine runs too; the
/// backends only lay them out in their own monitor skeletons.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_CODEGEN_LOWERING_H
#define EXPRESSO_CODEGEN_LOWERING_H

#include "core/SignalPlacement.h"

#include <ostream>
#include <string_view>
#include <vector>

namespace expresso {
namespace codegen {

extern const frontend::Spelling CppSpelling;
extern const frontend::Spelling JavaSpelling;

/// \p Name as an identifier of either target: a C++ or Java keyword, a final
/// method of java.lang.Object (which a monitor method named `wait` would try
/// to override), or a name the emitters declare or use (`lock`, `m_`,
/// `cv_c0_`, `Math`, ...) gets trailing underscores until it is free. Both
/// spellings map identifiers through it, so the two targets name alike.
std::string targetName(std::string_view Name);

/// Renders \p T as a target expression in spelling \p Sp, which must spell
/// floor mod as a call (CppSpelling and JavaSpelling do). When \p Waiter is
/// given, its placeholders print as `<Obj>p<i>`, the snapshot fields of a
/// waiter record.
void renderTerm(std::ostream &OS, const logic::Term *T,
                const frontend::Spelling &Sp,
                const frontend::PredicateClass *Waiter = nullptr,
                const char *Obj = "");

/// The target name of a thread-local variable lowered as `m::x`.
std::string localName(const logic::Term *QualifiedVar);

/// The surface type of \p Q's \p I-th placeholder, as a waiter record
/// stores it.
frontend::TypeKind placeholderType(const frontend::PredicateClass *Q,
                                   size_t I);

/// Classes some CCR waits on, in Index order: the classes that get a
/// condition variable or a waiter queue.
std::vector<const frontend::PredicateClass *>
usedClasses(const frontend::SemaInfo &Sema);

/// `const` fields without an initializer: the constructor's parameters.
std::vector<const frontend::Field *> ctorParams(const frontend::Monitor &M);

} // namespace codegen
} // namespace expresso

#endif // EXPRESSO_CODEGEN_LOWERING_H
