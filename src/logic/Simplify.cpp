//===- logic/Simplify.cpp - Semantic term simplification --------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "logic/Simplify.h"

#include "logic/Linear.h"
#include "logic/Term.h"

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

using namespace expresso;
using namespace expresso::logic;

namespace {

/// Deterministic key identifying the atom part of a linear form.
using CoeffKey = std::vector<std::pair<uint32_t, int64_t>>;

CoeffKey keyOf(const LinearTerm &L) {
  CoeffKey K;
  K.reserve(L.Coeffs.size());
  for (const auto &[Atom, Coeff] : L.Coeffs)
    K.emplace_back(Atom->id(), Coeff);
  // std::map iteration is ordered by pointer; re-sort by id for determinism.
  std::sort(K.begin(), K.end());
  return K;
}

CoeffKey negatedKey(const CoeffKey &K) {
  CoeffKey N = K;
  for (auto &[Id, Coeff] : N)
    Coeff = -Coeff;
  return N;
}

class Simplifier {
public:
  explicit Simplifier(TermContext &C) : C(C) {}

  const Term *run(const Term *T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    const Term *R = visit(T);
    Memo.emplace(T, R);
    return R;
  }

private:
  const Term *visit(const Term *T) {
    switch (T->kind()) {
    case TermKind::And:
      return visitJunction(T, /*IsAnd=*/true);
    case TermKind::Or:
      return visitJunction(T, /*IsAnd=*/false);
    case TermKind::Not: {
      const Term *Op = run(T->operand(0));
      return canonicalizeAtom(C.not_(Op));
    }
    case TermKind::Le:
    case TermKind::Lt:
    case TermKind::Eq:
    case TermKind::Divides:
      return canonicalizeAtom(rebuildChildren(T));
    case TermKind::Ite: {
      const Term *Cond = run(T->operand(0));
      const Term *Then = run(T->operand(1));
      const Term *Else = run(T->operand(2));
      return C.ite(Cond, Then, Else);
    }
    default:
      return rebuildChildren(T);
    }
  }

  const Term *rebuildChildren(const Term *T) {
    if (T->numOperands() == 0)
      return T;
    std::vector<const Term *> Ops;
    Ops.reserve(T->numOperands());
    bool Changed = false;
    for (const Term *Op : T->operands()) {
      const Term *NewOp = run(Op);
      Changed |= NewOp != Op;
      Ops.push_back(NewOp);
    }
    if (!Changed)
      return T;
    switch (T->kind()) {
    case TermKind::Add:
      return C.add(std::move(Ops));
    case TermKind::Mul:
      return C.mul(Ops[0], Ops[1]);
    case TermKind::Ite:
      return C.ite(Ops[0], Ops[1], Ops[2]);
    case TermKind::Select:
      return C.select(Ops[0], Ops[1]);
    case TermKind::Store:
      return C.store(Ops[0], Ops[1], Ops[2]);
    case TermKind::Eq:
      return C.eq(Ops[0], Ops[1]);
    case TermKind::Le:
      return C.le(Ops[0], Ops[1]);
    case TermKind::Lt:
      return C.lt(Ops[0], Ops[1]);
    case TermKind::Divides:
      return C.divides(T->intValue(), Ops[0]);
    case TermKind::Not:
      return C.not_(Ops[0]);
    case TermKind::And:
      return C.and_(std::move(Ops));
    case TermKind::Or:
      return C.or_(std::move(Ops));
    default:
      return T;
    }
  }

  /// Rewrites an arithmetic atom (possibly under Not) into its canonical
  /// tightened form; leaves other booleans untouched.
  const Term *canonicalizeAtom(const Term *T) {
    if (T->sort() != Sort::Bool || T->isBoolConst())
      return T;
    auto Atom = normalizeLinAtom(T);
    if (!Atom)
      return T;
    if (Atom->L.isConstant()) {
      switch (Atom->Kind) {
      case LinAtomKind::Le:
        return C.boolConst(Atom->L.Constant <= 0);
      case LinAtomKind::Eq:
        return C.boolConst(Atom->L.Constant == 0);
      case LinAtomKind::Dvd:
        return C.boolConst(mathMod(Atom->L.Constant, Atom->Divisor) == 0);
      case LinAtomKind::NDvd:
        return C.boolConst(mathMod(Atom->L.Constant, Atom->Divisor) != 0);
      }
    }
    return Atom->toTerm(C);
  }

  /// Simplifies an And (IsAnd) or Or node with linear-atom pruning and
  /// absorption. Conservative: any non-linear member passes through.
  const Term *visitJunction(const Term *T, bool IsAnd) {
    std::vector<const Term *> Members;
    Members.reserve(T->numOperands());
    for (const Term *Op : T->operands())
      Members.push_back(run(Op));

    // Partition into linear Le atoms, linear Eq atoms, and opaque rest.
    // For Le in an And we keep, per atom part, the *largest* constant
    // (tightest bound); in an Or the smallest (weakest bound).
    std::map<CoeffKey, int64_t> LeBest;
    std::map<CoeffKey, LinearTerm> LeRepr;
    std::map<CoeffKey, int64_t> EqConst;
    std::map<CoeffKey, LinearTerm> EqRepr;
    std::vector<const Term *> Rest;

    for (const Term *M : Members) {
      auto Atom = normalizeLinAtom(M);
      if (!Atom || Atom->L.isConstant() ||
          (Atom->Kind != LinAtomKind::Le && Atom->Kind != LinAtomKind::Eq)) {
        Rest.push_back(M);
        continue;
      }
      if (Atom->Kind == LinAtomKind::Le) {
        LinearTerm AtomPart = Atom->L;
        int64_t Cst = AtomPart.Constant;
        AtomPart.Constant = 0;
        CoeffKey K = keyOf(AtomPart);
        auto [It, Inserted] = LeBest.emplace(K, Cst);
        if (!Inserted)
          It->second = IsAnd ? std::max(It->second, Cst)
                             : std::min(It->second, Cst);
        LeRepr.emplace(K, AtomPart);
        continue;
      }
      // Eq atom.
      LinearTerm AtomPart = Atom->L;
      int64_t Cst = AtomPart.Constant;
      AtomPart.Constant = 0;
      CoeffKey K = keyOf(AtomPart);
      auto [It, Inserted] = EqConst.emplace(K, Cst);
      if (!Inserted && It->second != Cst) {
        // x = a and x = b with a != b.
        if (IsAnd)
          return C.getFalse();
        // In an Or just keep both (rare); treat second as opaque.
        LinAtom Keep = *Atom;
        Rest.push_back(Keep.toTerm(C));
        continue;
      }
      EqRepr.emplace(K, AtomPart);
    }

    if (IsAnd) {
      // Contradiction / equality-merge between L <= a and -L <= b:
      //   value v of L satisfies v <= -a and v >= b' (where b' = bConst).
      for (auto It = LeBest.begin(); It != LeBest.end(); ++It) {
        CoeffKey Neg = negatedKey(It->first);
        auto NIt = LeBest.find(Neg);
        if (NIt == LeBest.end() || !(It->first < Neg))
          continue;
        int64_t Hi = -It->second; // v <= Hi
        int64_t Lo = NIt->second; // v >= Lo
        if (Lo > Hi)
          return C.getFalse();
        if (Lo == Hi) {
          // Merge into an equality; mark both Le entries dead via sentinel.
          LinearTerm AtomPart = LeRepr.at(It->first);
          LinearTerm EqForm = AtomPart;
          EqForm.Constant = -Hi; // L - Hi == 0 as AtomPart + (-Hi)
          LinAtom EqAtom;
          EqAtom.Kind = LinAtomKind::Eq;
          EqAtom.L = AtomPart;
          EqAtom.L.Constant = -Hi;
          Rest.push_back(run(EqAtom.toTerm(C)));
          It->second = INT64_MIN; // sentinel: drop
          NIt->second = INT64_MIN;
        }
      }
      // Eq vs Le on the same (or negated) atom part.
      for (const auto &[K, Cst] : EqConst) {
        auto LIt = LeBest.find(K);
        if (LIt != LeBest.end() && LIt->second != INT64_MIN) {
          // L == -Cst, require L + a <= 0 i.e. -Cst <= -a  i.e. a <= Cst.
          if (LIt->second > Cst)
            return C.getFalse();
          LIt->second = INT64_MIN; // implied by the equality
        }
        auto NIt = LeBest.find(negatedKey(K));
        if (NIt != LeBest.end() && NIt->second != INT64_MIN) {
          // -L + b <= 0 i.e. L >= b; with L == -Cst need b <= -Cst.
          if (NIt->second > -Cst)
            return C.getFalse();
          NIt->second = INT64_MIN;
        }
      }
    } else {
      // Tautology: L <= -a  or  L >= b covers all integers iff b <= -a + 1.
      for (auto It = LeBest.begin(); It != LeBest.end(); ++It) {
        CoeffKey Neg = negatedKey(It->first);
        auto NIt = LeBest.find(Neg);
        if (NIt == LeBest.end() || !(It->first < Neg))
          continue;
        int64_t Hi = -It->second;
        int64_t Lo = NIt->second;
        if (Lo <= Hi + 1)
          return C.getTrue();
      }
    }

    // Rebuild members: surviving Le bounds, equalities, then the rest.
    std::vector<const Term *> Out;
    for (const auto &[K, Cst] : LeBest) {
      if (Cst == INT64_MIN)
        continue;
      LinAtom A;
      A.Kind = LinAtomKind::Le;
      A.L = LeRepr.at(K);
      A.L.Constant = Cst;
      Out.push_back(A.toTerm(C));
    }
    for (const auto &[K, Cst] : EqConst) {
      LinAtom A;
      A.Kind = LinAtomKind::Eq;
      A.L = EqRepr.at(K);
      A.L.Constant = Cst;
      Out.push_back(A.toTerm(C));
    }
    Out.insert(Out.end(), Rest.begin(), Rest.end());

    const Term *Result = IsAnd ? C.and_(Out) : C.or_(Out);

    // Absorption: X and (X or B) = X ; X or (X and B) = X.
    if (Result->kind() == (IsAnd ? TermKind::And : TermKind::Or))
      Result = absorb(Result, IsAnd);
    return Result;
  }

  const Term *absorb(const Term *T, bool IsAnd) {
    const auto &Ops = T->operands();
    TermKind InnerKind = IsAnd ? TermKind::Or : TermKind::And;
    std::vector<const Term *> Kept;
    Kept.reserve(Ops.size());
    for (const Term *Candidate : Ops) {
      bool Absorbed = false;
      if (Candidate->kind() == InnerKind) {
        for (const Term *Other : Ops) {
          if (Other == Candidate || Other->kind() == InnerKind)
            continue;
          for (const Term *Inner : Candidate->operands()) {
            if (Inner == Other) {
              Absorbed = true;
              break;
            }
          }
          if (Absorbed)
            break;
        }
      }
      if (!Absorbed)
        Kept.push_back(Candidate);
    }
    if (Kept.size() == Ops.size())
      return T;
    return IsAnd ? C.and_(std::move(Kept)) : C.or_(std::move(Kept));
  }

  TermContext &C;
  std::map<const Term *, const Term *> Memo;
};

} // namespace

const Term *logic::simplify(TermContext &C, const Term *T) {
  // Memo on the input term. A simplification run is a pure function of the
  // term and the nodes already interned, and a repeat run re-interns only
  // nodes the first run published, so it adds no term and claims no id: a
  // hit leaves the id sequence (and with it operand order and printed bytes)
  // exactly as the recomputation would. Concurrent callers compute the same
  // pointer, so a racing store writes the value already there.
  if (const Term *Hit = T->Simplified.load(std::memory_order_acquire))
    return Hit;
  // Iterate to a (cheap) fixpoint; two rounds catch most cascades.
  const Term *Cur = T;
  for (int I = 0; I < 3; ++I) {
    const Term *Next = Simplifier(C).run(Cur);
    if (Next == Cur) {
      // A converged result is its own simplified form.
      Cur->Simplified.store(Cur, std::memory_order_release);
      break;
    }
    Cur = Next;
  }
  // A result that hit the round cap may simplify further on its own, so it
  // is cached for its input only.
  T->Simplified.store(Cur, std::memory_order_release);
  return Cur;
}
