//===- solver/SmtSolver.h - Solver backend abstraction ----------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The solver interface used by every analysis (WP validity, abduction
/// consistency, commutativity, invariant fixpoints). Two backends:
///
///   * Z3 (the paper's solver, built when z3++.h is available), and
///   * MiniSmt (the from-scratch CDCL(T) solver in src/smt).
///
/// A cross-checking backend runs both and asserts agreement; the test suite
/// uses it for differential validation of MiniSmt against Z3.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SOLVER_SMTSOLVER_H
#define EXPRESSO_SOLVER_SMTSOLVER_H

#include "logic/TermOps.h"
#include "support/CancelToken.h"

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace expresso {
namespace solver {

/// Three-valued satisfiability answer.
enum class Answer { Sat, Unsat, Unknown };

/// Three-valued validity answer.
enum class Validity { Valid, Invalid, Unknown };

/// Result of a satisfiability query.
struct CheckResult {
  Answer TheAnswer = Answer::Unknown;
  /// Witness assignment when TheAnswer is Sat (possibly partial).
  logic::Assignment Model;
  bool ModelComplete = false;
};

/// Abstract SMT backend over logic::Term formulas. Each solver is bound to
/// the TermContext whose terms it accepts.
class SmtSolver {
public:
  explicit SmtSolver(logic::TermContext &C) : Ctx(C) {}
  virtual ~SmtSolver();

  /// Decides satisfiability of the boolean term \p F.
  virtual CheckResult checkSat(const logic::Term *F) = 0;

  /// Backend name for diagnostics ("z3", "mini", "crosscheck").
  virtual std::string name() const = 0;

  /// Validity of \p F: F is valid iff not F is unsatisfiable.
  Validity checkValid(const logic::Term *F);

  /// True iff \p F is valid; Unknown counts as "not proved" (the paper's
  /// conservative direction: failing to prove a triple only costs signals).
  bool isValid(const logic::Term *F) {
    return checkValid(F) == Validity::Valid;
  }

  /// True iff \p F is satisfiable; Unknown counts as "possibly sat" only
  /// when \p UnknownMeansSat is set.
  bool isSat(const logic::Term *F, bool UnknownMeansSat = false) {
    Answer A = checkSat(F).TheAnswer;
    return A == Answer::Sat || (UnknownMeansSat && A == Answer::Unknown);
  }

  //===--------------------------------------------------------------------===
  // Incremental session API
  //===--------------------------------------------------------------------===
  //
  // A solver session is a stack of assertion scopes: push() opens a scope,
  // assertTerm() adds a formula to the current scope, pop() discards the
  // innermost scope and everything asserted in it, and checkSatAssuming(A)
  // decides  sat(asserted-stack ∧ A)  without disturbing the stack. Plain
  // checkSat() remains *absolute*: it ignores the session stack entirely
  // (every backend guarantees this), so mixing one-shot and session traffic
  // on one backend is safe.
  //
  // The base class fails closed: push/pop/assertTerm refuse (return false)
  // and checkSatAssuming answers Unknown, so a caller that forgot to test
  // supportsIncremental() can never extract a wrong answer — only a useless
  // one. Backends opt in:
  //   * Z3Backend keeps one long-lived z3::solver per instance and maps the
  //     API onto native push/pop/check-with-assumptions;
  //   * the MiniSmt backend implements assertion-stack *snapshots*: the
  //     stack is recorded term-by-term and every check re-solves the
  //     accumulated conjunction one-shot (correctness, not speed);
  //   * builds without Z3 (Z3Stub) have no Z3 backend at all — requesting
  //     one yields null, which is as closed as failing gets.

  /// True when this backend implements the session API (push/pop/assert/
  /// checkSatAssuming) with stack ∧ assumptions semantics.
  virtual bool supportsIncremental() const { return false; }

  /// True when sessions are *natively* incremental — asserted prefixes live
  /// inside the backend's solver state instead of being re-conjoined into
  /// every check. Callers use this to decide whether asserting a shared
  /// prefix is a win (Z3) or pure re-encoding overhead (MiniSmt snapshots).
  virtual bool nativeIncremental() const { return false; }

  /// Opens an assertion scope. Returns false (and changes nothing) when the
  /// backend has no session support or the solver errored.
  virtual bool push() { return false; }

  /// Discards the innermost scope. False when no scope is open.
  virtual bool pop() { return false; }

  /// Asserts \p F in the current scope. False on failure; a failed assert
  /// leaves the stack unchanged.
  virtual bool assertTerm(const logic::Term *F) {
    (void)F;
    return false;
  }

  /// Decides sat(asserted-stack ∧ Assumptions). The assumptions are not
  /// retained. Fail-closed default: Unknown.
  virtual CheckResult checkSatAssuming(
      const std::vector<const logic::Term *> &Assumptions) {
    (void)Assumptions;
    ++Queries;
    return CheckResult();
  }

  /// Decides, for each \p Fs[i] *independently*, sat(asserted-stack ∧
  /// Fs[i]), returning one CheckResult per formula: exactly |Fs|
  /// checkSatAssuming({F}) calls. Nothing in src/ calls it — placement and
  /// inference discharge every VC through one checkSatAssuming — and no
  /// backend here overrides it; it stays for decorators outside src/ that
  /// forward the whole session API.
  virtual std::vector<CheckResult>
  checkSatBatch(const std::vector<const logic::Term *> &Fs) {
    std::vector<CheckResult> Out;
    Out.reserve(Fs.size());
    for (const logic::Term *F : Fs)
      Out.push_back(checkSatAssuming({F}));
    return Out;
  }

  uint64_t numQueries() const {
    return Queries.load(std::memory_order_relaxed);
  }

  /// Attaches a cooperative cancellation token. Every subsequent check
  /// polls it and answers Unknown once it expires — the conservative
  /// direction for all of Expresso's analyses (an unproved triple only
  /// costs signals). Backends with native interruption (Z3) additionally
  /// register interrupt hooks so an explicit cancel() aborts a solve in
  /// flight instead of waiting for its next poll point. Null detaches.
  /// Must not be called while checks are executing on other threads.
  virtual void setCancelToken(support::CancelToken *T) { Cancel = T; }

  support::CancelToken *cancelToken() const { return Cancel; }

  logic::TermContext &context() { return Ctx; }

protected:
  /// True once the attached token (if any) has expired; checked by every
  /// backend at query entry.
  bool cancelled() const { return Cancel && Cancel->expired(); }

  logic::TermContext &Ctx;
  /// Atomic so a solver shared across placement workers (the sharded
  /// CachingSolver) keeps an exact count under concurrent checkSat calls.
  std::atomic<uint64_t> Queries{0};
  /// Cooperative cancellation token; not owned, null when detached.
  support::CancelToken *Cancel = nullptr;
};

/// Which backend to instantiate.
enum class SolverKind { Mini, Z3, Default, CrossCheck };

/// True when this build has the Z3 backend compiled in.
bool hasZ3();

/// Idle Z3 contexts on the process-wide free list that session backends
/// borrow from; 0 in builds without Z3.
size_t z3IdleContexts();

/// The name() of the backend SolverKind::Default resolves to in this build
/// ("z3" or "mini") — computable without minting a backend. Used to key the
/// persistent query cache to the answering solver.
std::string defaultSolverName();

/// Creates the requested backend. `Default` prefers Z3 (the paper's solver)
/// and falls back to MiniSmt. Returns nullptr only for SolverKind::Z3 in a
/// build without Z3.
std::unique_ptr<SmtSolver> createSolver(SolverKind Kind,
                                        logic::TermContext &C);

/// Parses "mini" / "z3" / "default" / "crosscheck" (for CLI flags).
SolverKind parseSolverKind(const std::string &Name);

} // namespace solver
} // namespace expresso

#endif // EXPRESSO_SOLVER_SMTSOLVER_H
