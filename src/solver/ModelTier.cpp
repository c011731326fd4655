//===- solver/ModelTier.cpp - Answering Sat from earlier models ---------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "solver/ModelTier.h"

#include <algorithm>

using namespace expresso;
using namespace expresso::solver;
using namespace expresso::logic;

ModelTier::Formula::Formula(const Term *F) {
  std::unordered_map<const Term *, uint32_t> Index;
  add(F, Index);
}

uint32_t
ModelTier::Formula::add(const Term *T,
                        std::unordered_map<const Term *, uint32_t> &Index) {
  auto It = Index.find(T);
  if (It != Index.end())
    return It->second;
  if (T->sort() == Sort::IntArray || T->sort() == Sort::BoolArray ||
      T->kind() == TermKind::Select)
    Usable = false;
  std::vector<uint32_t> Children;
  Children.reserve(T->numOperands());
  for (const Term *Op : T->operands()) {
    if (!Usable)
      return 0;
    Children.push_back(add(Op, Index));
  }
  if (!Usable)
    return 0;
  Node N;
  N.Kind = T->kind();
  if (T->isIntConst() || T->isBoolConst() || T->kind() == TermKind::Divides)
    N.IntVal = T->intValue();
  uint32_t Id = static_cast<uint32_t>(Nodes.size());
  if (T->isVar()) {
    N.Var = T;
    VarNodes.push_back(Id);
  }
  N.FirstOp = static_cast<uint32_t>(Ops.size());
  N.NumOps = static_cast<uint32_t>(Children.size());
  Ops.insert(Ops.end(), Children.begin(), Children.end());
  Nodes.push_back(N);
  Index.emplace(T, Id);
  return Id;
}

std::optional<bool> ModelTier::holds(const Formula &F, const Model &M,
                                     std::vector<int64_t> &Vals) {
  Vals.resize(F.Nodes.size());
  for (size_t I = 0; I < F.Nodes.size(); ++I) {
    const Formula::Node &N = F.Nodes[I];
    const uint32_t *Op = F.Ops.data() + N.FirstOp;
    int64_t V = 0;
    switch (N.Kind) {
    case TermKind::IntConst:
    case TermKind::BoolConst:
      V = N.IntVal;
      break;
    case TermKind::Var: {
      auto It = M.find(N.Var);
      V = It == M.end() ? 0 : It->second;
      break;
    }
    case TermKind::Add:
      for (uint32_t K = 0; K < N.NumOps; ++K)
        if (__builtin_add_overflow(V, Vals[Op[K]], &V))
          return std::nullopt;
      break;
    case TermKind::Mul:
      if (__builtin_mul_overflow(Vals[Op[0]], Vals[Op[1]], &V))
        return std::nullopt;
      break;
    case TermKind::Ite:
      V = Vals[Op[0]] ? Vals[Op[1]] : Vals[Op[2]];
      break;
    case TermKind::Eq:
      V = Vals[Op[0]] == Vals[Op[1]];
      break;
    case TermKind::Le:
      V = Vals[Op[0]] <= Vals[Op[1]];
      break;
    case TermKind::Lt:
      V = Vals[Op[0]] < Vals[Op[1]];
      break;
    case TermKind::Divides:
      // The divisor is >= 1, so `%` neither overflows nor depends on sign.
      V = Vals[Op[0]] % N.IntVal == 0;
      break;
    case TermKind::Not:
      V = !Vals[Op[0]];
      break;
    case TermKind::And:
      V = 1;
      for (uint32_t K = 0; K < N.NumOps && V; ++K)
        V = Vals[Op[K]];
      break;
    case TermKind::Or:
      for (uint32_t K = 0; K < N.NumOps && !V; ++K)
        V = Vals[Op[K]];
      break;
    case TermKind::Select:
    case TermKind::Store:
      return std::nullopt; // unreachable: Formula marks these unusable
    }
    Vals[I] = V;
  }
  return Vals.back() != 0;
}

bool ModelTier::answer(const Formula &F, CheckResult &Out) {
  if (!F.usable())
    return false;
  std::vector<std::shared_ptr<const Model>> Snapshot;
  {
    std::lock_guard<std::mutex> Lock(Mu);
    Snapshot = Models;
  }
  std::vector<int64_t> Vals;
  for (const std::shared_ptr<const Model> &M : Snapshot) {
    if (holds(F, *M, Vals) != true)
      continue;
    {
      std::lock_guard<std::mutex> Lock(Mu);
      auto It = std::find(Models.begin(), Models.end(), M);
      if (It != Models.end())
        std::rotate(Models.begin(), It, It + 1);
    }
    Out = CheckResult();
    Out.TheAnswer = Answer::Sat;
    Out.ModelComplete = true;
    for (uint32_t I : F.VarNodes) {
      const Term *Var = F.Nodes[I].Var;
      Out.Model[Var->varName()] = Var->sort() == Sort::Bool
                                      ? Value::ofBool(Vals[I] != 0)
                                      : Value::ofInt(Vals[I]);
    }
    return true;
  }
  return false;
}

void ModelTier::keep(const Formula &F, const CheckResult &R) {
  if (!F.usable() || R.TheAnswer != Answer::Sat)
    return;
  auto M = std::make_shared<Model>();
  for (uint32_t I : F.VarNodes) {
    const Term *Var = F.Nodes[I].Var;
    auto It = R.Model.find(Var->varName());
    // Unbound variables read 0 or false, so only other values are stored.
    if (It != R.Model.end() && It->second.S == Var->sort() && It->second.I)
      M->emplace(Var, It->second.I);
  }
  std::vector<int64_t> Vals;
  if (holds(F, *M, Vals) != true)
    return;
  std::lock_guard<std::mutex> Lock(Mu);
  Models.insert(Models.begin(), std::move(M));
  if (Models.size() > Capacity)
    Models.pop_back();
}
