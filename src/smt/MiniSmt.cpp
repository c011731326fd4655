//===- smt/MiniSmt.cpp - From-scratch SMT solver for QF_LIA -------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "smt/MiniSmt.h"

#include "logic/Simplify.h"
#include "qe/Cooper.h"
#include "smt/Sat.h"

#include <map>
#include <unordered_map>

using namespace expresso;
using namespace expresso::smt;
using namespace expresso::logic;

namespace {

/// Lifts integer if-then-else terms out of atoms: each ite becomes a fresh
/// variable constrained by (c -> v = then) and (!c -> v = else).
class IteLifter {
public:
  IteLifter(TermContext &C) : C(C) {}

  const Term *run(const Term *T, std::vector<const Term *> &SideConditions) {
    const Term *R = rewrite(T);
    SideConditions = std::move(Conditions);
    return R;
  }

private:
  const Term *rewrite(const Term *T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    const Term *Result;
    if (T->numOperands() == 0) {
      Result = T;
    } else {
      std::vector<const Term *> Ops;
      Ops.reserve(T->numOperands());
      for (const Term *Op : T->operands())
        Ops.push_back(rewrite(Op));
      switch (T->kind()) {
      case TermKind::Ite: {
        const Term *V = C.freshVar("ite", Sort::Int);
        Conditions.push_back(C.implies(Ops[0], C.eq(V, Ops[1])));
        Conditions.push_back(C.implies(C.not_(Ops[0]), C.eq(V, Ops[2])));
        Result = V;
        break;
      }
      case TermKind::Add:
        Result = C.add(std::move(Ops));
        break;
      case TermKind::Mul:
        Result = C.mul(Ops[0], Ops[1]);
        break;
      case TermKind::Select:
        Result = C.select(Ops[0], Ops[1]);
        break;
      case TermKind::Store:
        Result = C.store(Ops[0], Ops[1], Ops[2]);
        break;
      case TermKind::Eq:
        Result = C.eq(Ops[0], Ops[1]);
        break;
      case TermKind::Le:
        Result = C.le(Ops[0], Ops[1]);
        break;
      case TermKind::Lt:
        Result = C.lt(Ops[0], Ops[1]);
        break;
      case TermKind::Divides:
        Result = C.divides(T->intValue(), Ops[0]);
        break;
      case TermKind::Not:
        Result = C.not_(Ops[0]);
        break;
      case TermKind::And:
        Result = C.and_(std::move(Ops));
        break;
      case TermKind::Or:
        Result = C.or_(std::move(Ops));
        break;
      default:
        Result = T;
        break;
      }
    }
    Memo.emplace(T, Result);
    return Result;
  }

  TermContext &C;
  std::vector<const Term *> Conditions;
  std::unordered_map<const Term *, const Term *> Memo;
};

/// Replaces array reads with fresh variables and returns the Ackermann
/// congruence axioms. Innermost selects are replaced first.
class Ackermannizer {
public:
  Ackermannizer(TermContext &C) : C(C) {}

  /// Returns the select-free formula; axioms are appended to \p Axioms.
  /// Fails (returns nullptr) if a Store survives into this stage.
  const Term *run(const Term *T, std::vector<const Term *> &Axioms,
                  std::map<const Term *, const Term *, logic::TermIdLess>
                      &SelectVarOut) {
    const Term *R = rewrite(T);
    if (!R)
      return nullptr;
    // Congruence: for reads of the same array, equal indices imply equal
    // values. Emit directly in NNF.
    for (const auto &[Array, Reads] : ReadsPerArray) {
      for (size_t I = 0; I < Reads.size(); ++I) {
        for (size_t J = I + 1; J < Reads.size(); ++J) {
          const auto &[Idx1, Var1] = Reads[I];
          const auto &[Idx2, Var2] = Reads[J];
          const Term *Distinct =
              C.or_(C.lt(Idx1, Idx2), C.lt(Idx2, Idx1));
          const Term *EqVals;
          if (Var1->sort() == Sort::Bool) {
            EqVals = C.or_(C.and_(Var1, Var2),
                           C.and_(C.not_(Var1), C.not_(Var2)));
          } else {
            EqVals = C.eq(Var1, Var2);
          }
          Axioms.push_back(C.or_(Distinct, EqVals));
        }
      }
    }
    SelectVarOut = SelectVar;
    return R;
  }

private:
  const Term *rewrite(const Term *T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    const Term *Result;
    if (T->kind() == TermKind::Store) {
      Result = nullptr; // unsupported residue
    } else if (T->numOperands() == 0) {
      Result = T;
    } else {
      std::vector<const Term *> Ops;
      Ops.reserve(T->numOperands());
      bool ChildFailed = false;
      for (const Term *Op : T->operands()) {
        const Term *NewOp = rewrite(Op);
        if (!NewOp) {
          ChildFailed = true;
          break;
        }
        Ops.push_back(NewOp);
      }
      if (ChildFailed) {
        Result = nullptr;
      } else {
        switch (T->kind()) {
        case TermKind::Select: {
          if (!Ops[0]->isVar()) {
            Result = nullptr; // select base must be an array variable here
            break;
          }
          const Term *Key = C.select(Ops[0], Ops[1]);
          auto SIt = SelectVar.find(Key);
          if (SIt == SelectVar.end()) {
            const Term *V =
                C.freshVar("sel!" + Ops[0]->varName(), Key->sort());
            SIt = SelectVar.emplace(Key, V).first;
            ReadsPerArray[Ops[0]].emplace_back(Ops[1], V);
          }
          Result = SIt->second;
          break;
        }
        case TermKind::Add:
          Result = C.add(std::move(Ops));
          break;
        case TermKind::Mul:
          Result = C.mul(Ops[0], Ops[1]);
          break;
        case TermKind::Eq:
          Result = C.eq(Ops[0], Ops[1]);
          break;
        case TermKind::Le:
          Result = C.le(Ops[0], Ops[1]);
          break;
        case TermKind::Lt:
          Result = C.lt(Ops[0], Ops[1]);
          break;
        case TermKind::Divides:
          Result = C.divides(T->intValue(), Ops[0]);
          break;
        case TermKind::Not:
          Result = C.not_(Ops[0]);
          break;
        case TermKind::And:
          Result = C.and_(std::move(Ops));
          break;
        case TermKind::Or:
          Result = C.or_(std::move(Ops));
          break;
        case TermKind::Ite:
          Result = C.ite(Ops[0], Ops[1], Ops[2]);
          break;
        default:
          Result = T;
          break;
        }
      }
    }
    Memo.emplace(T, Result);
    return Result;
  }

  TermContext &C;
  std::unordered_map<const Term *, const Term *> Memo;
  /// Canonical select term -> fresh variable. Id-ordered so congruence
  /// axioms and model reconstruction iterate reproducibly.
  std::map<const Term *, const Term *, logic::TermIdLess> SelectVar;
  /// Array var -> list of (index term, fresh var).
  std::map<const Term *, std::vector<std::pair<const Term *, const Term *>>,
           logic::TermIdLess>
      ReadsPerArray;
};

/// Tseitin encoder over monotone NNF with theory-atom literals.
class Encoder {
public:
  Encoder(TermContext &C, SatSolver &Sat) : C(C), Sat(Sat) {}

  /// Encodes \p T; returns the literal representing it, or nullopt on an
  /// unsupported leaf.
  std::optional<Lit> encode(const Term *T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    std::optional<Lit> Result = encodeUncached(T);
    if (Result)
      Memo.emplace(T, *Result);
    return Result;
  }

  /// Theory atom attached to a SAT variable, if any.
  const std::map<int, LinAtom> &theoryAtoms() const { return AtomOfVar; }
  const std::map<int, const Term *> &boolVars() const { return BoolVarOfVar; }

private:
  std::optional<Lit> encodeUncached(const Term *T) {
    if (T->isTrue())
      return litTrue();
    if (T->isFalse())
      return ~litTrue();
    switch (T->kind()) {
    case TermKind::Var: {
      assert(T->sort() == Sort::Bool);
      return Lit(satVarForBool(T), false);
    }
    case TermKind::Not: {
      const Term *Op = T->operand(0);
      if (Op->isVar())
        return Lit(satVarForBool(Op), true);
      // Negated divisibility is a positive theory atom of its own.
      auto Atom = normalizeLinAtom(T);
      if (Atom)
        return atomLit(*Atom);
      // Negated boolean equality survives NNF: encode operand, negate.
      auto Inner = encode(Op);
      if (!Inner)
        return std::nullopt;
      return ~*Inner;
    }
    case TermKind::And:
    case TermKind::Or: {
      std::vector<Lit> Kids;
      Kids.reserve(T->numOperands());
      for (const Term *Op : T->operands()) {
        auto K = encode(Op);
        if (!K)
          return std::nullopt;
        Kids.push_back(*K);
      }
      int G = Sat.newVar();
      Lit GL(G, false);
      bool IsAnd = T->kind() == TermKind::And;
      // IsAnd: g <-> (k1 & ... & kn); else g <-> (k1 | ... | kn).
      std::vector<Lit> Long;
      Long.reserve(Kids.size() + 1);
      Long.push_back(IsAnd ? GL : ~GL);
      for (Lit K : Kids) {
        Sat.addClause({IsAnd ? ~GL : GL, IsAnd ? K : ~K});
        Long.push_back(IsAnd ? ~K : K);
      }
      Sat.addClause(std::move(Long));
      return GL;
    }
    case TermKind::Eq:
      if (T->operand(0)->sort() == Sort::Bool) {
        // Residual iff (should be expanded earlier; handle defensively).
        auto A = encode(T->operand(0));
        auto B = encode(T->operand(1));
        if (!A || !B)
          return std::nullopt;
        int G = Sat.newVar();
        Lit GL(G, false);
        Sat.addClause({~GL, ~*A, *B});
        Sat.addClause({~GL, *A, ~*B});
        Sat.addClause({GL, *A, *B});
        Sat.addClause({GL, ~*A, ~*B});
        return GL;
      }
      [[fallthrough]];
    case TermKind::Le:
    case TermKind::Lt:
    case TermKind::Divides: {
      auto Atom = normalizeLinAtom(T);
      if (!Atom)
        return std::nullopt;
      return atomLit(*Atom);
    }
    default:
      return std::nullopt;
    }
  }

  Lit litTrue() {
    if (TrueVar < 0) {
      TrueVar = Sat.newVar();
      Sat.addClause({Lit(TrueVar, false)});
    }
    return Lit(TrueVar, false);
  }

  int satVarForBool(const Term *V) {
    auto It = VarOfBool.find(V);
    if (It != VarOfBool.end())
      return It->second;
    int S = Sat.newVar();
    VarOfBool.emplace(V, S);
    BoolVarOfVar.emplace(S, V);
    return S;
  }

  std::optional<Lit> atomLit(const LinAtom &Atom) {
    if (Atom.L.isConstant()) {
      bool Truth = false;
      switch (Atom.Kind) {
      case LinAtomKind::Le:
        Truth = Atom.L.Constant <= 0;
        break;
      case LinAtomKind::Eq:
        Truth = Atom.L.Constant == 0;
        break;
      case LinAtomKind::Dvd:
        Truth = mathMod(Atom.L.Constant, Atom.Divisor) == 0;
        break;
      case LinAtomKind::NDvd:
        Truth = mathMod(Atom.L.Constant, Atom.Divisor) != 0;
        break;
      }
      return Truth ? litTrue() : ~litTrue();
    }
    // Canonical identity: the rebuilt atom term.
    const Term *Key = Atom.toTerm(C);
    auto It = VarOfAtom.find(Key);
    if (It != VarOfAtom.end())
      return Lit(It->second, false);
    int S = Sat.newVar();
    VarOfAtom.emplace(Key, S);
    AtomOfVar.emplace(S, Atom);
    return Lit(S, false);
  }

  TermContext &C;
  SatSolver &Sat;
  std::unordered_map<const Term *, Lit> Memo;
  std::map<const Term *, int, logic::TermIdLess> VarOfBool;
  std::map<const Term *, int, logic::TermIdLess> VarOfAtom;
  std::map<int, LinAtom> AtomOfVar;
  std::map<int, const Term *> BoolVarOfVar;
  int TrueVar = -1;
};

} // namespace

SmtResult MiniSmt::checkSat(const Term *F) {
  SmtResult Result;
  assert(F->sort() == Sort::Bool && "checkSat requires a boolean term");

  // Variables of the *input* formula: every Sat model binds all of them,
  // even those simplification eliminates, so callers can evaluate the
  // original term against the model.
  std::vector<const Term *> InputVars = freeVars(F);
  auto FillDefaults = [&InputVars](Assignment &Model) {
    for (const Term *V : InputVars) {
      if (Model.count(V->varName()))
        continue;
      switch (V->sort()) {
      case Sort::Int:
        Model[V->varName()] = Value::ofInt(0);
        break;
      case Sort::Bool:
        Model[V->varName()] = Value::ofBool(false);
        break;
      case Sort::IntArray:
      case Sort::BoolArray:
        Model[V->varName()] = Value::ofArray(V->sort(), {}, 0);
        break;
      }
    }
  };

  // --- Preprocessing pipeline. -------------------------------------------
  F = simplify(C, F);
  std::vector<const Term *> IteConds;
  F = IteLifter(C).run(F, IteConds);
  if (!IteConds.empty()) {
    IteConds.push_back(F);
    F = C.and_(std::move(IteConds));
  }
  F = expandBoolEq(C, F);
  F = toNNF(C, F);

  std::vector<const Term *> AckAxioms;
  std::map<const Term *, const Term *, logic::TermIdLess> SelectVars;
  const Term *NoArrays = Ackermannizer(C).run(F, AckAxioms, SelectVars);
  if (!NoArrays)
    return Result; // Unknown: store residue or non-variable array base
  F = NoArrays;
  if (!AckAxioms.empty()) {
    AckAxioms.push_back(F);
    F = C.and_(std::move(AckAxioms));
  }
  F = simplify(C, F);
  if (F->isTrue()) {
    Result.Answer = SatAnswer::Sat;
    Result.ModelComplete = true;
    FillDefaults(Result.Model);
    return Result;
  }
  if (F->isFalse()) {
    Result.Answer = SatAnswer::Unsat;
    return Result;
  }

  // --- Tseitin + CDCL(T) loop. -------------------------------------------
  SatSolver Sat;
  Encoder Enc(C, Sat);
  auto Root = Enc.encode(F);
  if (!Root)
    return Result; // Unknown: unsupported leaf
  Sat.addClause({*Root});

  LiaSolver Lia(Cfg.Lia);
  for (int Round = 0; Round < Cfg.MaxTheoryRounds; ++Round) {
    ++TheoryRounds;
    // Cancellation poll: one relaxed load per theory round. An expired
    // token degrades the answer to Unknown, which every caller treats
    // conservatively (and a cancelled placement discards outright).
    if (Cfg.Cancel && Cfg.Cancel->expired())
      return Result; // Unknown: cancelled
    if (Sat.solve() == SatSolver::Result::Unsat) {
      Result.Answer = SatAnswer::Unsat;
      return Result;
    }
    // Gather theory atoms assigned true. Monotone NNF makes it sound to
    // ignore atoms assigned false.
    std::vector<LinAtom> Atoms;
    std::vector<int> AtomVars;
    for (const auto &[VarIdx, Atom] : Enc.theoryAtoms()) {
      if (Sat.modelValue(VarIdx)) {
        Atoms.push_back(Atom);
        AtomVars.push_back(VarIdx);
      }
    }
    LiaResult LR = Lia.solve(Atoms);
    if (LR.Status == LiaStatus::Infeasible) {
      std::vector<Lit> Block;
      Block.reserve(LR.Core.size());
      for (int CoreIdx : LR.Core)
        Block.push_back(Lit(AtomVars[static_cast<size_t>(CoreIdx)], true));
      if (Block.empty())
        // Degenerate empty core: contradiction independent of atoms.
        return Result; // Unknown (should not happen)
      Sat.addClause(std::move(Block));
      continue;
    }
    if (LR.Status == LiaStatus::Unknown) {
      if (!Cfg.UseCooperFallback)
        return Result; // Unknown
      std::vector<const Term *> Conj;
      Conj.reserve(Atoms.size());
      for (const LinAtom &A : Atoms)
        Conj.push_back(A.toTerm(C));
      auto Decided = qe::decideSat(C, C.and_(std::move(Conj)));
      if (!Decided)
        return Result; // Unknown
      if (!*Decided) {
        std::vector<Lit> Block;
        for (int V : AtomVars)
          Block.push_back(Lit(V, true));
        Sat.addClause(std::move(Block));
        continue;
      }
      // Satisfiable but no numeric witness: report partial model.
      Result.Answer = SatAnswer::Sat;
      for (const auto &[VarIdx, BV] : Enc.boolVars())
        Result.Model[BV->varName()] = Value::ofBool(Sat.modelValue(VarIdx));
      Result.ModelComplete = false;
      FillDefaults(Result.Model);
      return Result;
    }

    // Feasible: assemble the full model.
    Result.Answer = SatAnswer::Sat;
    Result.ModelComplete = true;
    for (const auto &[VarIdx, BV] : Enc.boolVars())
      Result.Model[BV->varName()] = Value::ofBool(Sat.modelValue(VarIdx));
    for (const auto &[AtomTerm, V] : LR.Model) {
      if (AtomTerm->isVar()) {
        Result.Model[AtomTerm->varName()] = AtomTerm->sort() == Sort::Bool
                                                ? Value::ofBool(V != 0)
                                                : Value::ofInt(V);
      }
    }
    // Default any variable the theory left unconstrained: of the processed
    // formula, every select variable (b[i]'s in a[b[i]] > 0 occurs only as
    // another select's index) and every input (i in a[i] > 0 occurs only
    // inside a select).
    std::vector<const Term *> Unconstrained = freeVars(F);
    for (const auto &[SelectTerm, FreshVar] : SelectVars)
      Unconstrained.push_back(FreshVar);
    for (const Term *V : Unconstrained) {
      if (V->sort() == Sort::Int)
        Result.Model.try_emplace(V->varName(), Value::ofInt(0));
      else if (V->sort() == Sort::Bool)
        Result.Model.try_emplace(V->varName(), Value::ofBool(false));
    }
    FillDefaults(Result.Model);
    // Reconstruct array models from Ackermann select variables. Select keys
    // carry rewritten indices, so a nested read's index is the inner read's
    // select variable, already bound to the inner array's element.
    for (const auto &[SelectTerm, FreshVar] : SelectVars) {
      const Term *Array = SelectTerm->operand(0);
      int64_t IdxVal = evaluate(SelectTerm->operand(1), Result.Model).asInt();
      Value &AV = Result.Model.try_emplace(Array->varName(),
                                           Value::ofArray(Array->sort(), {}, 0))
                      .first->second;
      AV.A[IdxVal] = Result.Model.at(FreshVar->varName()).I;
    }
    return Result;
  }
  return Result; // Unknown: round budget exhausted
}
