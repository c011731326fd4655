//===- solver/SolverSession.h - Scoped incremental VC sessions --*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The discharge layer between the analyses (signal placement, invariant
/// inference) and the solver stack. Every VC either analysis issues goes
/// through a SolverSession, whatever the --incremental mode. One session
/// pairs a worker's backend with the shared CachingSolver (when caching is
/// enabled) and exposes the scope structure Algorithm 1 needs:
///
///   * a session-lifetime *invariant scope* — the monitor invariant I is
///     asserted once per worker and stays for every CCR the worker handles;
///   * a per-CCR *guard scope* — Guard(w) is asserted (lazily) while the
///     CCR's own checks run and popped when the CCR is done, so switching
///     CCRs is one pop + one push instead of a new solver context.
///
/// Soundness contract: a formula may only be discharged under a scope whose
/// assertions it *semantically entails*. Every placement VC is the negation
/// of `Pre => wp(...)` with Pre = I ∧ Guard ∧ ..., so the negation is
/// equivalent to Pre ∧ ¬wp(...) and entails I (and, for the signalling
/// CCR's own checks, its guard). Asserting the entailed prefix is therefore
/// redundant — sat(prefix ∧ F) == sat(F) — and the *equivalent one-shot
/// formula* of every scoped query is the delta F itself. That identity is
/// what keeps the cache on the path unchanged: scoped queries are keyed,
/// counted, single-flighted, and persisted exactly like one-shot queries,
/// byte-for-byte (see persist/TermCodec.h on key derivation).
///
/// Two discharge modes, one call sequence:
///
///   * native (--incremental=on over a natively incremental backend, i.e.
///     Z3): prefixes are pushed and asserted on the backend, and every check
///     is one checkSatAssuming delta against them. Queries whose answers the
///     backend fails to produce incrementally (session breakage, Unknown
///     from an incremental check) are re-discharged with a plain checkSat,
///     so a session never answers weaker than one-shot mode;
///   * one-shot (--incremental=off, or a backend that is not natively
///     incremental, e.g. MiniSmt snapshots): the session never calls push,
///     assertTerm or checkSatAssuming — each VC is exactly one absolute
///     Backend.checkSat. For Z3 that is a fresh z3::context per query,
///     outside the context pool: the paper-style ablation baseline.
///
/// Either way each VC is one cache lookup (checkSatUnderGuard,
/// checkSatUnderInvariant or the absolute view) and, on a miss, one
/// backend discharge. native() says which mode the session runs in.
///
/// Answers are identical either way; the differential harness in
/// tests/IncrementalSolverTest.cpp holds the two modes to byte parity.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SOLVER_SOLVERSESSION_H
#define EXPRESSO_SOLVER_SOLVERSESSION_H

#include "solver/CachingSolver.h"

#include <vector>

namespace expresso {
namespace solver {

/// A per-worker discharge session. Not thread-safe: one worker thread owns
/// one session (and its backend) for the session's lifetime.
class SolverSession {
public:
  /// \p Cache may be null (the --no-cache configuration); \p Backend is the
  /// worker's private backend, borrowed for the session's lifetime.
  /// \p Incremental selects the mode: prefixes are asserted on the backend
  /// only when it is set and the backend is natively incremental; otherwise
  /// every discharge is one absolute checkSat.
  SolverSession(CachingSolver *Cache, SmtSolver &Backend,
                bool Incremental = true);
  ~SolverSession();

  SolverSession(const SolverSession &) = delete;
  SolverSession &operator=(const SolverSession &) = delete;

  /// Asserts the monitor invariant in the session-lifetime scope (first
  /// call only; later calls must pass the same term and are no-ops). On
  /// non-native or broken backends this records nothing and returns true —
  /// discharges simply stay one-shot-equivalent.
  bool setInvariant(const logic::Term *I);

  /// Enters the per-CCR guard scope (the guard is pushed lazily, on the
  /// first checkSatUnderGuard). Must be balanced with exitCcr().
  void enterCcr(const logic::Term *Guard);
  void exitCcr();

  /// Decides sat(F) for an F that entails I ∧ Guard(current CCR).
  CheckResult checkSatUnderGuard(const logic::Term *F);

  /// Decides sat(F) for an F that entails I only (e.g. the one-wake checks,
  /// whose precondition carries the *woken* CCR's guard). Drops the guard
  /// scope if it is currently pushed.
  CheckResult checkSatUnderInvariant(const logic::Term *F);

  /// True while prefixes are asserted on the backend: --incremental on over
  /// a natively incremental backend, until a push/assert failure downgrades
  /// the session to one-shot discharge.
  bool native() const { return Native; }

  /// An SmtSolver view of the *absolute* path — plain cached one-shot
  /// checkSat, blind to every session scope. Hand this to code whose
  /// queries entail no prefix at all (commutativity checks).
  SmtSolver &absoluteSolver() { return Absolute; }

  /// Total formulas this session decided (scoped + absolute): the worker's
  /// query count.
  uint64_t numQueries() const { return Lookups; }

private:
  class AbsoluteView : public SmtSolver {
  public:
    AbsoluteView(SolverSession &Parent)
        : SmtSolver(Parent.Backend.context()), Parent(Parent) {}
    CheckResult checkSat(const logic::Term *F) override {
      ++Queries;
      return Parent.checkSatAbsolute(F);
    }
    std::string name() const override {
      return "session-abs(" + Parent.Backend.name() + ")";
    }

  private:
    SolverSession &Parent;
  };

  CheckResult checkSatAbsolute(const logic::Term *F);

  /// Pops every scope this session pushed and downgrades to non-native
  /// (one-shot-equivalent) discharge. Called on any push/assert failure.
  void markBroken();

  bool ensureGuardPushed();
  void dropGuardScope();

  /// Computes sat(stack ∧ F) on the backend, falling back to a one-shot
  /// solve when the scoped answer is Unknown (or the session is not
  /// native), so scoped answers can never be *weaker* than one-shot mode's.
  CheckResult computeScoped(const logic::Term *F);

  CachingSolver *Cache; ///< shared memo + persistent tier; may be null
  SmtSolver &Backend;   ///< worker-private backend, borrowed
  AbsoluteView Absolute;
  bool Native = false;          ///< backend prefix assertion in effect
  const logic::Term *Invariant = nullptr;
  bool InvariantPushed = false;
  const logic::Term *Guard = nullptr; ///< current CCR guard (null outside)
  bool GuardPushed = false;
  uint64_t Lookups = 0;
};

} // namespace solver
} // namespace expresso

#endif // EXPRESSO_SOLVER_SOLVERSESSION_H
