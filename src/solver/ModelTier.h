//===- solver/ModelTier.h - Answering Sat from earlier models ---*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The third tier of solver::CachingSolver, between the persistent store
/// and the backend: a short list of complete models from earlier Sat
/// answers. A formula that one of them satisfies is Sat, with that model as
/// its witness, and needs no backend call. This is the counterexample cache
/// of KLEE (Cadar et al., OSDI 2008).
///
/// Exactness: a total assignment that makes a formula true is a witness of
/// its satisfiability, so the tier never answers wrongly. It answers only
/// Sat, never Unsat or Unknown. Where the backend would answer Unknown on
/// a satisfiable formula, the tier may answer Sat instead; only abduction's
/// consistency check tells the two apart (docs/ARCHITECTURE.md, "Tiered
/// flow and determinism"). Variables a model does not bind read 0 (or
/// false). Three guards keep evaluation exact:
///   * formulas over arrays bypass the tier (logic::Value compares arrays
///     only by their scalar payload);
///   * arithmetic is overflow-checked, and an overflowing evaluation
///     answers nothing;
///   * a model is kept only after it satisfies the formula it was returned
///     for, so a backend's wrong "complete" model is never reused.
///
/// Thread safety: the model list is mutex-guarded; evaluation runs on a
/// snapshot outside the lock.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SOLVER_MODELTIER_H
#define EXPRESSO_SOLVER_MODELTIER_H

#include "solver/SmtSolver.h"

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <unordered_map>
#include <vector>

namespace expresso {
namespace solver {

class ModelTier {
public:
  /// Models kept. 4 and 64 answered the same lookups on the traced
  /// perfbench `analyze` pass.
  static constexpr size_t Capacity = 16;

  /// One formula flattened for evaluation: its DAG in post-order (root
  /// last), each node once — the per-query evaluation memo. Built once per
  /// owned miss and shared by answer() and keep().
  class Formula {
  public:
    explicit Formula(const logic::Term *F);
    /// False when the formula mentions an array; the tier then skips it.
    bool usable() const { return Usable; }

  private:
    friend class ModelTier;
    struct Node {
      logic::TermKind Kind = logic::TermKind::BoolConst;
      int64_t IntVal = 0;       ///< constant, or divisor of a Divides node
      uint32_t FirstOp = 0;     ///< into Ops
      uint32_t NumOps = 0;
      const logic::Term *Var = nullptr; ///< Var nodes only
    };
    uint32_t add(const logic::Term *T,
                 std::unordered_map<const logic::Term *, uint32_t> &Index);

    std::vector<Node> Nodes;
    std::vector<uint32_t> Ops;
    std::vector<uint32_t> VarNodes; ///< Var nodes, in post-order
    bool Usable = true;
  };

  /// Fills \p Out with Sat and a complete witness when a kept model
  /// satisfies \p F; the model then moves to the front. False otherwise.
  bool answer(const Formula &F, CheckResult &Out);

  /// Keeps the model of \p R, a backend's Sat answer for \p F, completed
  /// with 0/false — but only when it satisfies \p F.
  void keep(const Formula &F, const CheckResult &R);

private:
  using Model = std::unordered_map<const logic::Term *, int64_t>;

  /// \p F's truth value under \p M in one post-order pass over its nodes;
  /// nullopt when an int64 operation overflows. \p Vals is scratch.
  static std::optional<bool> holds(const Formula &F, const Model &M,
                                   std::vector<int64_t> &Vals);

  std::mutex Mu;
  std::vector<std::shared_ptr<const Model>> Models; ///< most recently useful first
};

} // namespace solver
} // namespace expresso

#endif // EXPRESSO_SOLVER_MODELTIER_H
