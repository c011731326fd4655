//===- solver/Z3Solver.cpp - Z3 backend (the paper's solver) -----------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Translates logic::Term formulas into Z3 expressions and queries Z3,
/// mirroring the paper's implementation section ("invokes the Z3 SMT solver
/// for checking logical validity"). Compiled only when z3++.h is available;
/// Z3Stub.cpp provides the factory otherwise.
///
/// Every solver is Z3's bare SMT kernel (z3::solver::simple()). The default
/// combined solver runs a tactic pre-pass whose start-up dominates the small
/// queries placement issues; the kernel answers them without it.
///
/// Two discharge paths coexist per backend instance:
///
///   * The session API (push/pop/assertTerm/checkSatAssuming) runs against
///     one lazily-created long-lived z3::solver in a pooled z3::context
///     (below), with a persistent Term→expr translation memo, so shared
///     prefixes are asserted and internalized once and each delta rides
///     Z3's incremental state: one checkSatAssuming per VC, inside a
///     temporary scope.
///   * checkSat() is *absolute*. While a session is live it runs on a
///     second solver in the session's context, sharing the translation
///     memo, and pushes, checks and pops over a stack that is always empty.
///     With no session (the --incremental=off ablation baseline) it builds
///     a new z3::context and solver per query, the paper-style
///     one-context-per-query configuration.
///
/// Every session entry point catches z3 exceptions and fails closed (false
/// or Unknown) — a broken session can cost performance, never an answer.
///
/// Session contexts are recycled. Building a z3::context costs milliseconds
/// (about 16.7 MB of tables touched) and does no solving, so a session
/// takes its context from a process-wide free list of idle contexts, and
/// the backend's destructor hands it back once the session's solvers and
/// translation memo — everything that refers into the context — are gone.
/// A context goes back only if its session was never retired: no z3
/// exception, no Unknown answer and no interrupt touched it. That is
/// recorded in the session when it happens, never re-derived from the
/// cancel token, which may be gone by then. The free list keeps at most
/// hardware_concurrency() idle contexts and frees the rest. Reuse cannot
/// change an answer: the queries are quantifier-free linear integer
/// arithmetic over arrays, which Z3 decides completely whatever the context
/// handled before. Only sat models may differ. They steer which lookups
/// CachingSolver's model tier answers, so a session frees its expressions
/// in a fixed order (~Session): the models a reused context yields then do
/// not depend on the process's heap layout. The per-query contexts of the
/// --incremental=off path are never pooled.
///
//===----------------------------------------------------------------------===//

#include "solver/SmtSolver.h"

#include <z3++.h>

#include <algorithm>
#include <atomic>
#include <climits>
#include <cmath>
#include <memory>
#include <mutex>
#include <optional>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

using namespace expresso;
using namespace expresso::solver;
using namespace expresso::logic;

namespace {

/// The process-wide free list of idle session contexts. Leaked on purpose:
/// a backend destroyed during static teardown must still find it.
class ContextPool {
public:
  static ContextPool &get() {
    static ContextPool *P = new ContextPool;
    return *P;
  }

  /// An idle context, or a new one when none is idle.
  std::unique_ptr<z3::context> acquire() {
    {
      std::lock_guard<std::mutex> Lock(Mu);
      if (!Idle.empty()) {
        std::unique_ptr<z3::context> Z = std::move(Idle.back());
        Idle.pop_back();
        return Z;
      }
    }
    return std::make_unique<z3::context>();
  }

  /// Takes \p Z back, or frees it (after the lock is released) when the
  /// list is full. The caller has destroyed every solver and expr of \p Z.
  void release(std::unique_ptr<z3::context> Z) {
    std::lock_guard<std::mutex> Lock(Mu);
    if (Idle.size() < Cap)
      Idle.push_back(std::move(Z));
  }

  size_t idle() {
    std::lock_guard<std::mutex> Lock(Mu);
    return Idle.size();
  }

private:
  const size_t Cap = std::max(1u, std::thread::hardware_concurrency());
  std::mutex Mu;
  std::vector<std::unique_ptr<z3::context>> Idle;
};

/// A session's context, borrowed from the pool. The borrow is returned on
/// destruction unless retire() was called; Session declares it first so it
/// is destroyed last, after the solvers and memo that refer into it.
class PooledContext {
public:
  PooledContext() : Z(ContextPool::get().acquire()) {}
  ~PooledContext() {
    if (!Retired.load(std::memory_order_relaxed))
      ContextPool::get().release(std::move(Z));
  }
  PooledContext(const PooledContext &) = delete;
  PooledContext &operator=(const PooledContext &) = delete;

  z3::context &get() { return *Z; }
  /// Keeps the context out of the pool. Atomic because an interrupt hook
  /// calls it from the cancelling thread.
  void retire() { Retired.store(true, std::memory_order_relaxed); }

private:
  std::unique_ptr<z3::context> Z;
  std::atomic<bool> Retired{false};
};

class Z3Backend : public SmtSolver {
public:
  explicit Z3Backend(TermContext &C) : SmtSolver(C) {}

  CheckResult checkSat(const Term *F) override {
    ++Queries;
    if (cancelled()) {
      // Unknown without touching a solver. A live session is retired, as
      // after any cancelled check: later session calls fail closed.
      if (TheSession)
        killSession();
      return CheckResult();
    }
    // While a session is live, the query rides its context and translation
    // memo on a second solver whose stack is always empty, so the check
    // stays absolute. Without one (--incremental=off), every query gets a
    // context of its own.
    if (TheSession)
      return scopedCheck(*TheSession, /*Absolute=*/true, {F});
    try {
      z3::context Z3Ctx;
      z3::solver Solver(Z3Ctx, z3::solver::simple());
      std::unordered_map<const Term *, z3::expr> Memo;
      return solve(Z3Ctx, Solver, {F}, Memo, [&Z3Ctx] { Z3Ctx.interrupt(); });
    } catch (const z3::exception &) {
      return CheckResult(); // Unknown — an interrupted solve may throw
    }
  }

  std::string name() const override { return "z3"; }

  //===--------------------------------------------------------------------===
  // Incremental sessions: one long-lived z3::solver per backend instance.
  //===--------------------------------------------------------------------===

  bool supportsIncremental() const override { return true; }
  bool nativeIncremental() const override { return true; }

  bool push() override {
    Session *S = session();
    if (!S)
      return false;
    try {
      S->Solver.push();
      ++S->Depth;
      return true;
    } catch (const z3::exception &) {
      killSession();
      return false;
    }
  }

  bool pop() override {
    Session *S = session();
    if (!S || S->Depth == 0)
      return false;
    try {
      S->Solver.pop();
      --S->Depth;
      return true;
    } catch (const z3::exception &) {
      killSession();
      return false;
    }
  }

  bool assertTerm(const Term *F) override {
    Session *S = session();
    if (!S || !F || F->sort() != Sort::Bool)
      return false;
    try {
      S->Solver.add(translate(S->Ctx, F, S->Memo));
      return true;
    } catch (const z3::exception &) {
      killSession();
      return false;
    }
  }

  CheckResult checkSatAssuming(
      const std::vector<const Term *> &Assumptions) override {
    ++Queries;
    if (cancelled()) {
      keepFromPool(); // an Unknown answer, even one that never ran
      return CheckResult();
    }
    Session *S = session();
    if (!S)
      return CheckResult();
    return scopedCheck(*S, /*Absolute=*/false, Assumptions);
  }

private:
  /// Long-lived per-instance session state, created on first use. Terms are
  /// interned and never freed, so the translation memo stays valid for the
  /// backend's lifetime and shared subterms translate exactly once.
  struct Session {
    PooledContext Lease; ///< declared first: outlives everything below
    z3::context &Ctx;
    z3::solver Solver; ///< carries the push()/assertTerm() stack
    /// Answers checkSat() while the session lives; created on first use.
    /// Its stack is empty between checks, so every check is absolute.
    std::optional<z3::solver> Absolute;
    std::unordered_map<const Term *, z3::expr> Memo;
    unsigned Depth = 0; ///< open push() scopes
    Session() : Ctx(Lease.get()), Solver(Ctx, z3::solver::simple()) {}
    /// Frees the memo's expressions in term-id order. Z3 hands the ids of
    /// freed ASTs to the next ones a context builds and orders terms by id
    /// in places, so the order a session frees in shapes the models of the
    /// sessions that reuse its context. The hash map's own order follows
    /// the heap addresses of the Terms.
    ~Session() {
      std::vector<std::pair<uint32_t, z3::expr>> Held;
      Held.reserve(Memo.size());
      for (auto &[T, E] : Memo)
        Held.emplace_back(T->id(), E);
      Memo.clear(); // Held keeps every expression alive
      std::sort(Held.begin(), Held.end(),
                [](const auto &A, const auto &B) { return A.first < B.first; });
      while (!Held.empty())
        Held.pop_back();
    }
    /// The interrupt hook: an interrupted context never goes back.
    void interrupt() {
      Lease.retire();
      Ctx.interrupt();
    }
  };

  Session *session() {
    if (SessionDead)
      return nullptr;
    if (!TheSession) {
      try {
        TheSession = std::make_unique<Session>();
      } catch (const z3::exception &) {
        SessionDead = true;
        return nullptr;
      }
    }
    return TheSession.get();
  }

  /// After any z3 exception or cancelled check the session state is
  /// unreliable; retire it so every later session call fails closed. Plain
  /// checkSat falls back to a context per query. A retired session's
  /// context is freed, not pooled.
  void killSession() {
    keepFromPool();
    TheSession.reset();
    SessionDead = true;
  }

  /// Marks a live session's context to be freed, not pooled, when the
  /// session ends.
  void keepFromPool() {
    if (TheSession)
      TheSession->Lease.retire();
  }

  /// Adds \p Fs to \p Solver's current scope and checks, reading a model
  /// over the free variables of \p Fs on sat. An explicit cancel() runs \p
  /// OnCancel, which interrupts the context mid-solve; the deadline itself
  /// rides Z3's native timeout watchdog (applyDeadline), which cannot
  /// perturb a check that completes in time. Throws what Z3 throws.
  CheckResult solve(z3::context &Z, z3::solver &Solver,
                    const std::vector<const Term *> &Fs,
                    std::unordered_map<const Term *, z3::expr> &Memo,
                    support::CancelToken::InterruptHook OnCancel) {
    applyDeadline(Solver);
    support::ScopedInterrupt Guard(Cancel, std::move(OnCancel));
    for (const Term *F : Fs)
      Solver.add(translate(Z, F, Memo));
    CheckResult Out;
    switch (Solver.check()) {
    case z3::unsat:
      Out.TheAnswer = Answer::Unsat;
      break;
    case z3::unknown:
      break;
    case z3::sat:
      extractModel(Out, Z, Solver.get_model(), Fs, Memo);
      break;
    }
    return Out;
  }

  /// Decides sat(stack ∧ Fs) inside a temporary scope, which keeps \p Fs
  /// (arbitrary formulas, not just literals) out of the stack: on the
  /// session solver, or with \p Absolute on the session's empty-stack
  /// solver, which makes it sat(Fs).
  CheckResult scopedCheck(Session &S, bool Absolute,
                          const std::vector<const Term *> &Fs) {
    CheckResult Out;
    try {
      if (Absolute && !S.Absolute)
        S.Absolute.emplace(S.Ctx, z3::solver::simple());
      z3::solver &Solver = Absolute ? *S.Absolute : S.Solver;
      Solver.push();
      Out = solve(S.Ctx, Solver, Fs, S.Memo, [&S] { S.interrupt(); });
      Solver.pop();
    } catch (const z3::exception &) {
      killSession();
      return CheckResult();
    }
    // Fail closed: a session whose check was cut short by cancellation is
    // retired, not resumed — later sessions start from a clean context. Any
    // Unknown keeps the context out of the pool.
    if (Out.TheAnswer == Answer::Unknown) {
      S.Lease.retire();
      if (cancelled())
        killSession();
    }
    return Out;
  }

  /// Arms Z3's per-check timeout watchdog with the token's remaining
  /// budget. A watchdog only *interrupts* — it never changes how a check
  /// that finishes in time searches — so checks completed under deadline
  /// stay byte-identical to a run with no deadline at all.
  void applyDeadline(z3::solver &Solver) {
    if (!Cancel)
      return;
    double Left = Cancel->remainingSeconds();
    if (!std::isfinite(Left))
      return; // cancel-only token: the interrupt hook covers it
    double Ms = Left * 1000.0 + 1.0;
    unsigned Timeout =
        Ms >= static_cast<double>(UINT_MAX) ? UINT_MAX
                                            : static_cast<unsigned>(Ms);
    z3::params P(Solver.ctx());
    P.set("timeout", Timeout);
    Solver.set(P);
  }

  /// Collects the distinct Select nodes of \p T's DAG in deterministic
  /// DFS order. Model extraction reads array contents through these — and
  /// *only* these, never the whole translation memo: a session memo holds
  /// terms from every earlier query, and scanning it would both cost
  /// O(session lifetime) per extraction and inject other queries' select
  /// points into this formula's model, breaking model parity with a
  /// one-shot solve of the same formula.
  static void collectSelects(const Term *T,
                             std::unordered_set<const Term *> &Seen,
                             std::vector<const Term *> &Out) {
    if (!Seen.insert(T).second)
      return;
    if (T->kind() == TermKind::Select)
      Out.push_back(T);
    for (const Term *Op : T->operands())
      collectSelects(Op, Seen, Out);
  }

  /// Fills \p Out with Sat plus a model over the free variables of \p
  /// Roots, read from \p Model. Array variables are reconstructed pointwise
  /// through the select terms occurring in \p Roots (all already translated
  /// in \p Memo, since the roots themselves were).
  void extractModel(CheckResult &Out, z3::context &Z, z3::model Model,
                    const std::vector<const Term *> &Roots,
                    std::unordered_map<const Term *, z3::expr> &Memo) {
    Out.TheAnswer = Answer::Sat;
    Out.ModelComplete = true;
    std::unordered_set<const Term *> Seen;
    std::vector<const Term *> Selects;
    for (const Term *Root : Roots)
      collectSelects(Root, Seen, Selects);
    for (const Term *Root : Roots) {
      for (const Term *V : freeVars(Root)) {
        if (Out.Model.count(V->varName()))
          continue;
        z3::expr E = translate(Z, V, Memo);
        z3::expr Val = Model.eval(E, /*model_completion=*/true);
        switch (V->sort()) {
        case Sort::Int: {
          int64_t I = 0;
          if (Val.is_numeral_i64(I)) {
            Out.Model[V->varName()] = Value::ofInt(I);
          } else {
            Out.ModelComplete = false;
          }
          break;
        }
        case Sort::Bool:
          Out.Model[V->varName()] = Value::ofBool(Val.is_true());
          break;
        case Sort::IntArray:
        case Sort::BoolArray: {
          // Reconstruct pointwise through the roots' own select terms.
          Value AV = Value::ofArray(V->sort(), {}, 0);
          for (const Term *SelTerm : Selects) {
            if (SelTerm->operand(0) != V)
              continue;
            z3::expr Idx =
                Model.eval(translate(Z, SelTerm->operand(1), Memo), true);
            z3::expr Elem = Model.eval(translate(Z, SelTerm, Memo), true);
            int64_t IdxV = 0;
            if (!Idx.is_numeral_i64(IdxV))
              continue;
            if (SelTerm->sort() == Sort::Bool) {
              AV.A[IdxV] = Elem.is_true() ? 1 : 0;
            } else {
              int64_t EV = 0;
              if (Elem.is_numeral_i64(EV))
                AV.A[IdxV] = EV;
            }
          }
          Out.Model[V->varName()] = AV;
          break;
        }
        }
      }
    }
  }

  std::unique_ptr<Session> TheSession;
  bool SessionDead = false;

  z3::expr translate(z3::context &Z, const Term *T,
                     std::unordered_map<const Term *, z3::expr> &Memo) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    z3::expr E = translateUncached(Z, T, Memo);
    Memo.emplace(T, E);
    return E;
  }

  z3::sort z3Sort(z3::context &Z, Sort S) {
    switch (S) {
    case Sort::Int:
      return Z.int_sort();
    case Sort::Bool:
      return Z.bool_sort();
    case Sort::IntArray:
      return Z.array_sort(Z.int_sort(), Z.int_sort());
    case Sort::BoolArray:
      return Z.array_sort(Z.int_sort(), Z.bool_sort());
    }
    return Z.int_sort();
  }

  z3::expr translateUncached(z3::context &Z, const Term *T,
                             std::unordered_map<const Term *, z3::expr> &Memo) {
    switch (T->kind()) {
    case TermKind::IntConst:
      return Z.int_val(T->intValue());
    case TermKind::BoolConst:
      return Z.bool_val(T->boolValue());
    case TermKind::Var:
      return Z.constant(T->varName().c_str(), z3Sort(Z, T->sort()));
    case TermKind::Add: {
      z3::expr E = translate(Z, T->operand(0), Memo);
      for (unsigned I = 1; I < T->numOperands(); ++I)
        E = E + translate(Z, T->operand(I), Memo);
      return E;
    }
    case TermKind::Mul:
      return translate(Z, T->operand(0), Memo) *
             translate(Z, T->operand(1), Memo);
    case TermKind::Ite:
      return z3::ite(translate(Z, T->operand(0), Memo),
                     translate(Z, T->operand(1), Memo),
                     translate(Z, T->operand(2), Memo));
    case TermKind::Select:
      return z3::select(translate(Z, T->operand(0), Memo),
                        translate(Z, T->operand(1), Memo));
    case TermKind::Store:
      return z3::store(translate(Z, T->operand(0), Memo),
                       translate(Z, T->operand(1), Memo),
                       translate(Z, T->operand(2), Memo));
    case TermKind::Eq:
      return translate(Z, T->operand(0), Memo) ==
             translate(Z, T->operand(1), Memo);
    case TermKind::Le:
      return translate(Z, T->operand(0), Memo) <=
             translate(Z, T->operand(1), Memo);
    case TermKind::Lt:
      return translate(Z, T->operand(0), Memo) <
             translate(Z, T->operand(1), Memo);
    case TermKind::Divides:
      return z3::mod(translate(Z, T->operand(0), Memo),
                     Z.int_val(T->intValue())) == Z.int_val(0);
    case TermKind::Not:
      return !translate(Z, T->operand(0), Memo);
    case TermKind::And: {
      z3::expr_vector V(Z);
      for (const Term *Op : T->operands())
        V.push_back(translate(Z, Op, Memo));
      return z3::mk_and(V);
    }
    case TermKind::Or: {
      z3::expr_vector V(Z);
      for (const Term *Op : T->operands())
        V.push_back(translate(Z, Op, Memo));
      return z3::mk_or(V);
    }
    }
    return Z.bool_val(false);
  }
};

} // namespace

namespace expresso {
namespace solver {
std::unique_ptr<SmtSolver> createZ3Backend(TermContext &C) {
  return std::make_unique<Z3Backend>(C);
}
bool hasZ3() { return true; }
size_t z3IdleContexts() { return ContextPool::get().idle(); }
} // namespace solver
} // namespace expresso
