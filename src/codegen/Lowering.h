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
/// expressions, and one lowering of Σ to the explicit wake operations of §6.
/// The backends only lay the result out in their own monitor skeletons.
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

/// One wake operation after a CCR's body.
struct Wake {
  const frontend::PredicateClass *Target = nullptr;
  bool Conditional = true; ///< test the class predicate before waking
  bool All = false;        ///< wake every waiter (eager broadcast)
  bool Chain = false;      ///< lazy-broadcast chain on the CCR's own class
};

/// Σ lowered to explicit wakes (§6). Under lazy broadcast, a broadcast to
/// class Q becomes one predicate-checked wake, and every CCR waiting on Q
/// passes the wake on after its body (the chain).
class WakeLowering {
public:
  explicit WakeLowering(const core::PlacementResult &R);

  /// The wakes after \p W's body, in emission order, chain wake first.
  const std::vector<Wake> &wakesAfter(const frontend::WaitUntil *W) const;

  /// Classes some CCR waits on, in Index order.
  std::vector<const frontend::PredicateClass *> Used;
  /// `const` fields without an initializer: the constructor's parameters.
  std::vector<const frontend::Field *> CtorParams;

private:
  /// Aligned with SemaInfo::Ccrs.
  const std::vector<frontend::CcrInfo> &Ccrs;
  std::vector<std::vector<Wake>> Wakes;
};

} // namespace codegen
} // namespace expresso

#endif // EXPRESSO_CODEGEN_LOWERING_H
