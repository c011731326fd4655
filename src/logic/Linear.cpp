//===- logic/Linear.cpp - Linear integer forms ------------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "logic/Linear.h"

#include <cassert>
#include <cstdlib>

using namespace expresso;
using namespace expresso::logic;

int64_t logic::gcd64(int64_t A, int64_t B) {
  A = std::llabs(A);
  B = std::llabs(B);
  while (B != 0) {
    int64_t T = A % B;
    A = B;
    B = T;
  }
  return A;
}

int64_t logic::lcm64(int64_t A, int64_t B) {
  if (A == 0 || B == 0)
    return 0;
  return std::llabs(A / gcd64(A, B) * B);
}

int64_t logic::floorDiv(int64_t A, int64_t B) {
  assert(B != 0);
  int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) != (B < 0)))
    --Q;
  return Q;
}

int64_t logic::ceilDiv(int64_t A, int64_t B) {
  assert(B != 0);
  int64_t Q = A / B;
  if ((A % B != 0) && ((A < 0) == (B < 0)))
    ++Q;
  return Q;
}

int64_t logic::mathMod(int64_t A, int64_t B) {
  assert(B != 0);
  int64_t M = A % B;
  if (M < 0)
    M += std::llabs(B);
  return M;
}

//===----------------------------------------------------------------------===//
// LinearTerm
//===----------------------------------------------------------------------===//

void LinearTerm::addAtom(const Term *Atom, int64_t Coeff) {
  if (Coeff == 0)
    return;
  auto [It, Inserted] = Coeffs.emplace(Atom, Coeff);
  if (!Inserted) {
    It->second += Coeff;
    if (It->second == 0)
      Coeffs.erase(It);
  }
}

void LinearTerm::addLinear(const LinearTerm &O, int64_t Scale) {
  if (Scale == 0)
    return;
  for (const auto &[Atom, Coeff] : O.Coeffs)
    addAtom(Atom, Coeff * Scale);
  Constant += O.Constant * Scale;
}

void LinearTerm::scale(int64_t Factor) {
  if (Factor == 0) {
    Coeffs.clear();
    Constant = 0;
    return;
  }
  if (Factor == 1)
    return;
  for (auto &[Atom, Coeff] : Coeffs)
    Coeff *= Factor;
  Constant *= Factor;
}

int64_t LinearTerm::coeffGcd() const {
  int64_t G = 0;
  for (const auto &[Atom, Coeff] : Coeffs)
    G = gcd64(G, Coeff);
  return G;
}

LinearTerm LinearTerm::negated() const {
  LinearTerm R = *this;
  R.scale(-1);
  return R;
}

bool LinearTerm::sameAtoms(const LinearTerm &A, const LinearTerm &B) {
  return A.Coeffs == B.Coeffs;
}

bool LinearTerm::operator<(const LinearTerm &O) const {
  if (Constant != O.Constant)
    return Constant < O.Constant;
  auto It = Coeffs.begin(), OIt = O.Coeffs.begin();
  for (; It != Coeffs.end() && OIt != O.Coeffs.end(); ++It, ++OIt) {
    if (It->first->id() != OIt->first->id())
      return It->first->id() < OIt->first->id();
    if (It->second != OIt->second)
      return It->second < OIt->second;
  }
  return It == Coeffs.end() && OIt != O.Coeffs.end();
}

const Term *LinearTerm::toTerm(TermContext &C) const {
  std::vector<const Term *> Summands;
  Summands.reserve(Coeffs.size() + 1);
  for (const auto &[Atom, Coeff] : Coeffs)
    Summands.push_back(C.mulConst(Coeff, Atom));
  if (Constant != 0)
    Summands.push_back(C.intConst(Constant));
  return C.add(std::move(Summands));
}

//===----------------------------------------------------------------------===//
// Linearization
//===----------------------------------------------------------------------===//

namespace {

bool linearizeInto(const Term *T, int64_t Scale, LinearTerm &Out) {
  switch (T->kind()) {
  case TermKind::IntConst:
    Out.Constant += Scale * T->intValue();
    return true;
  case TermKind::Add:
    for (const Term *Op : T->operands())
      if (!linearizeInto(Op, Scale, Out))
        return false;
    return true;
  case TermKind::Mul:
    // Smart constructors guarantee Ops[0] is the constant coefficient.
    return linearizeInto(T->operand(1), Scale * T->operand(0)->intValue(), Out);
  case TermKind::Var:
  case TermKind::Select:
  case TermKind::Ite:
    if (T->sort() != Sort::Int)
      return false;
    Out.addAtom(T, Scale);
    return true;
  default:
    return false;
  }
}

} // namespace

std::optional<LinearTerm> logic::linearize(const Term *T) {
  if (T->sort() != Sort::Int)
    return std::nullopt;
  LinearTerm Out;
  if (!linearizeInto(T, 1, Out))
    return std::nullopt;
  return Out;
}

//===----------------------------------------------------------------------===//
// Atom normalization
//===----------------------------------------------------------------------===//

namespace {

/// Reduces every coefficient and the constant of \p L into [0, D), dropping
/// atoms whose coefficient becomes 0.
void reduceModulo(LinearTerm &L, int64_t D) {
  for (auto It = L.Coeffs.begin(); It != L.Coeffs.end();) {
    It->second = mathMod(It->second, D);
    if (It->second == 0) {
      It = L.Coeffs.erase(It);
    } else {
      ++It;
    }
  }
  L.Constant = mathMod(L.Constant, D);
}

/// A * B mod M for A, B in [0, M), without overflow.
int64_t mulMod(int64_t A, int64_t B, int64_t M) {
  return static_cast<int64_t>(static_cast<__int128>(A) * B % M);
}

/// The inverse of \p A modulo \p M (A in [1, M), coprime to M).
int64_t modInverse(int64_t A, int64_t M) {
  // Extended Euclid on (A, M), tracking only A's Bezout coefficient.
  int64_t R0 = M, R1 = A, T0 = 0, T1 = 1;
  while (R1 != 0) {
    int64_t Q = R0 / R1;
    int64_t R2 = R0 - Q * R1;
    R0 = R1;
    R1 = R2;
    int64_t T2 = T0 - Q * T1;
    T0 = T1;
    T1 = T2;
  }
  assert(R0 == 1 && "modInverse of a non-unit");
  return mathMod(T0, M);
}

/// Divides an Le-form (L <= 0) through by the gcd of its coefficients using
/// integer tightening, canonicalizes Eq forms, and puts Dvd / NDvd forms in
/// normal form (see below).
void tighten(LinAtom &A) {
  if (A.Kind == LinAtomKind::Le) {
    int64_t G = A.L.coeffGcd();
    if (G > 1) {
      for (auto &[Atom, Coeff] : A.L.Coeffs)
        Coeff /= G;
      A.L.Constant = ceilDiv(A.L.Constant, G);
    }
    return;
  }
  if (A.Kind == LinAtomKind::Eq) {
    int64_t G = A.L.coeffGcd();
    if (G > 1) {
      if (A.L.Constant % G != 0) {
        // No integer solutions: canonicalize to `1 <= 0` (false).
        A.Kind = LinAtomKind::Le;
        A.L = LinearTerm();
        A.L.Constant = 1;
        return;
      }
      for (auto &[Atom, Coeff] : A.L.Coeffs)
        Coeff /= G;
      A.L.Constant /= G;
    }
    // Sign-normalize so the lowest-id atom has a positive coefficient.
    if (!A.L.Coeffs.empty()) {
      auto MinIt = A.L.Coeffs.begin();
      for (auto It = A.L.Coeffs.begin(); It != A.L.Coeffs.end(); ++It)
        if (It->first->id() < MinIt->first->id())
          MinIt = It;
      if (MinIt->second < 0)
        A.L.scale(-1);
    }
    return;
  }
  // Dvd / NDvd: reduce coefficients and constant modulo the divisor.
  int64_t D = A.Divisor;
  assert(D >= 1);
  reduceModulo(A.L, D);
  if (A.L.Coeffs.empty())
    return;
  // D | g*L' + c with g = gcd(D, coefficients): when g does not divide c
  // the sum is c mod g everywhere, so Dvd is false and NDvd true;
  // otherwise divide D, the coefficients and c by g.
  int64_t G = gcd64(D, A.L.coeffGcd());
  if (G > 1) {
    if (A.L.Constant % G != 0) {
      bool Holds = A.Kind == LinAtomKind::NDvd;
      A.Kind = LinAtomKind::Le;
      A.L = LinearTerm();
      A.L.Constant = Holds ? 0 : 1; // `0 <= 0` or `1 <= 0`
      return;
    }
    for (auto &[Atom, Coeff] : A.L.Coeffs)
      Coeff /= G;
    A.L.Constant /= G;
    D /= G;
    A.Divisor = D;
  }
  // Scaling by a unit mod D keeps the atom's meaning; scale the lowest-id
  // atom's coefficient to 1 when it is a unit, so `9 | 8v + 1` and
  // `9 | v + 8` (that is, `36 | 8v + 28`) become one atom.
  int64_t Lead = A.L.Coeffs.begin()->second;
  if (Lead != 1 && gcd64(Lead, D) == 1) {
    int64_t Inv = modInverse(Lead, D);
    for (auto &[Atom, Coeff] : A.L.Coeffs)
      Coeff = mulMod(Coeff, Inv, D);
    A.L.Constant = mulMod(A.L.Constant, Inv, D);
  }
}

} // namespace

const Term *LinAtom::toTerm(TermContext &C) const {
  switch (Kind) {
  case LinAtomKind::Le: {
    // Render as `atoms <= -constant` for readability.
    LinearTerm AtomPart = L;
    int64_t Cst = AtomPart.Constant;
    AtomPart.Constant = 0;
    // Prefer positive coefficients on the left: if all coefficients are
    // negative, render as `-atoms >= constant`, i.e. constant <= atoms.
    bool AllNeg = !AtomPart.Coeffs.empty();
    for (const auto &[Atom, Coeff] : AtomPart.Coeffs)
      AllNeg &= Coeff < 0;
    if (AllNeg) {
      LinearTerm Pos = AtomPart.negated();
      return C.le(C.intConst(Cst), Pos.toTerm(C));
    }
    return C.le(AtomPart.toTerm(C), C.intConst(-Cst));
  }
  case LinAtomKind::Eq: {
    LinearTerm AtomPart = L;
    int64_t Cst = AtomPart.Constant;
    AtomPart.Constant = 0;
    return C.eq(AtomPart.toTerm(C), C.intConst(-Cst));
  }
  case LinAtomKind::Dvd:
    return C.divides(Divisor, L.toTerm(C));
  case LinAtomKind::NDvd:
    return C.not_(C.divides(Divisor, L.toTerm(C)));
  }
  assert(false && "unhandled atom kind");
  return nullptr;
}

std::optional<LinAtom> logic::normalizeLinAtom(const Term *T) {
  bool Negated = false;
  if (T->kind() == TermKind::Not) {
    Negated = true;
    T = T->operand(0);
  }

  LinAtom A;
  switch (T->kind()) {
  case TermKind::Le:
  case TermKind::Lt: {
    auto Lhs = linearize(T->operand(0));
    auto Rhs = linearize(T->operand(1));
    if (!Lhs || !Rhs)
      return std::nullopt;
    A.Kind = LinAtomKind::Le;
    if (!Negated) {
      // a <= b  =>  a - b <= 0 ;  a < b  =>  a - b + 1 <= 0
      A.L = *Lhs;
      A.L.addLinear(*Rhs, -1);
      if (T->kind() == TermKind::Lt)
        A.L.Constant += 1;
    } else {
      // not(a <= b) => b - a + 1 <= 0 ;  not(a < b) => b - a <= 0
      A.L = *Rhs;
      A.L.addLinear(*Lhs, -1);
      if (T->kind() == TermKind::Le)
        A.L.Constant += 1;
    }
    break;
  }
  case TermKind::Eq: {
    if (T->operand(0)->sort() != Sort::Int)
      return std::nullopt;
    if (Negated)
      return std::nullopt; // Disequality splits at NNF level, not here.
    auto Lhs = linearize(T->operand(0));
    auto Rhs = linearize(T->operand(1));
    if (!Lhs || !Rhs)
      return std::nullopt;
    A.Kind = LinAtomKind::Eq;
    A.L = *Lhs;
    A.L.addLinear(*Rhs, -1);
    break;
  }
  case TermKind::Divides: {
    auto Arg = linearize(T->operand(0));
    if (!Arg)
      return std::nullopt;
    A.Kind = Negated ? LinAtomKind::NDvd : LinAtomKind::Dvd;
    A.Divisor = T->intValue();
    A.L = *Arg;
    break;
  }
  default:
    return std::nullopt;
  }
  tighten(A);
  return A;
}
