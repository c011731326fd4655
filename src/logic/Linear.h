//===- logic/Linear.h - Linear integer forms --------------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Canonical linear forms over integer "atom" terms. A `LinearTerm` is
///   sum_i Coeff_i * Atom_i + Constant
/// where each Atom is an integer term that linearization treats as opaque
/// (a variable, an array read, or an integer ite). These forms are the
/// common currency of the simplifier, the MiniSmt LIA layer, and Cooper QE.
///
/// Normalized atoms come in four shapes (integers throughout):
///   Le:   L <= 0        Eq:  L == 0
///   Dvd:  D | L         NDvd: not (D | L)
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_LOGIC_LINEAR_H
#define EXPRESSO_LOGIC_LINEAR_H

#include "logic/Term.h"

#include <cstdint>
#include <map>
#include <optional>

namespace expresso {
namespace logic {

/// A linear combination of opaque integer atoms plus a constant.
struct LinearTerm {
  /// Atom -> coefficient; never stores zero coefficients. Ordered by term
  /// creation index, not pointer: iteration order reaches the LIA tableau's
  /// column order, so it must be reproducible across runs.
  std::map<const Term *, int64_t, TermIdLess> Coeffs;
  int64_t Constant = 0;

  bool isConstant() const { return Coeffs.empty(); }

  /// Coefficient of \p Atom (0 if absent).
  int64_t coeff(const Term *Atom) const {
    auto It = Coeffs.find(Atom);
    return It == Coeffs.end() ? 0 : It->second;
  }

  void addAtom(const Term *Atom, int64_t Coeff);
  void addLinear(const LinearTerm &O, int64_t Scale = 1);
  void scale(int64_t Factor);

  /// GCD of all atom coefficients (0 when constant).
  int64_t coeffGcd() const;

  /// Returns this form negated.
  LinearTerm negated() const;

  /// True when the two forms have identical atom parts (constants may
  /// differ).
  static bool sameAtoms(const LinearTerm &A, const LinearTerm &B);

  bool operator==(const LinearTerm &O) const = default;
  /// Deterministic ordering for use as a map key.
  bool operator<(const LinearTerm &O) const;

  /// Rebuilds a Term. The result is `Coeffs . Atoms + Constant`.
  const Term *toTerm(TermContext &C) const;
};

/// Linearizes an integer term. Non-linear subterms (select, ite) become
/// opaque atoms; returns nullopt only if \p T is not integer-sorted.
std::optional<LinearTerm> linearize(const Term *T);

/// Kinds of normalized linear atoms.
enum class LinAtomKind : uint8_t { Le, Eq, Dvd, NDvd };

/// A normalized linear atom (see file comment).
struct LinAtom {
  LinAtomKind Kind = LinAtomKind::Le;
  LinearTerm L;
  int64_t Divisor = 1; ///< Only for Dvd / NDvd.

  /// Rebuilds a boolean Term for this atom.
  const Term *toTerm(TermContext &C) const;
};

/// Normalizes a (possibly negated) comparison or divisibility term into a
/// LinAtom with integer tightening:
///   a <= b   => a - b <= 0, coefficients divided by their gcd with ceiling
///               division on the constant;
///   a == b   => a - b == 0 (or `false` as Le 1 <= 0 when gcd ∤ constant);
///   D | t    => coefficients and constant reduced into [0, D), then
///               gcd(D, coefficients) divided out (`false` when it does not
///               divide the constant), then every term scaled so the
///               lowest-id coefficient is 1 when it is a unit mod D;
///   not(...) for Le/Lt/Eq is rewritten arithmetically; negated Dvd stays
///   NDvd (`true` where Dvd would be `false`).
/// Returns nullopt for terms that are not linear-arithmetic atoms (boolean
/// variables etc.).
std::optional<LinAtom> normalizeLinAtom(const Term *T);

/// 64-bit gcd on magnitudes; gcd(0, x) = |x|.
int64_t gcd64(int64_t A, int64_t B);
/// Least common multiple on magnitudes.
int64_t lcm64(int64_t A, int64_t B);
/// Floor division (rounds toward negative infinity).
int64_t floorDiv(int64_t A, int64_t B);
/// Ceiling division (rounds toward positive infinity).
int64_t ceilDiv(int64_t A, int64_t B);
/// Mathematical modulus; result always in [0, |B|).
int64_t mathMod(int64_t A, int64_t B);

} // namespace logic
} // namespace expresso

#endif // EXPRESSO_LOGIC_LINEAR_H
