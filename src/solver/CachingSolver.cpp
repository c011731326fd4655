//===- solver/CachingSolver.cpp - Sharded memoizing solver --------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "solver/CachingSolver.h"

#include "obs/Trace.h"
#include "persist/QueryStore.h"
#include "persist/TermCodec.h"

using namespace expresso;
using namespace expresso::solver;
using namespace expresso::logic;

namespace {

const char *answerName(Answer A) {
  switch (A) {
  case Answer::Sat:
    return "sat";
  case Answer::Unsat:
    return "unsat";
  case Answer::Unknown:
    break;
  }
  return "unknown";
}

} // namespace

std::unique_ptr<CachingSolver>
CachingSolver::create(TermContext &C, std::unique_ptr<SmtSolver> Backend) {
  if (!Backend || &Backend->context() != &C)
    return nullptr;
  return std::make_unique<CachingSolver>(std::move(Backend));
}

CachingSolver::Shard &CachingSolver::shardFor(const Term *F) {
  // The structural hash is well-mixed (multiplicative mixing at intern
  // time), so the low bits stripe evenly across shards.
  return Shards[F->structuralHash() % NumShards];
}

CheckResult CachingSolver::computeOwned(const Term *F,
                                        const ComputeFn &Compute,
                                        obs::Span &Q) {
  persist::QueryStore *QS = Store.get();
  std::string Key;
  CheckResult R;
  if (QS) {
    // Second tier: probe the persistent store by the formula's canonical
    // encoding — always the *equivalent one-shot formula*, whatever
    // session machinery sits inside Compute, so a store warmed in one
    // discharge mode answers every other. Only the single-flight owner
    // reaches here, so the disk counters are exactly the
    // per-distinct-formula found/not-found totals.
    Key = persist::encodeTermKey(F);
    if (QS->lookup(Key, R)) {
      DiskHits.fetch_add(1, std::memory_order_relaxed);
      Q.arg("tier", "disk");
      return R;
    }
    DiskMisses.fetch_add(1, std::memory_order_relaxed);
  }
  // Third tier: a kept model that satisfies F is a witness, so F is Sat.
  ModelTier::Formula Flat(F);
  if (Models.answer(Flat, R)) {
    ModelHits.fetch_add(1, std::memory_order_relaxed);
    Q.arg("tier", "model");
  } else {
    if (Q.enabled()) {
      Q.arg("tier", "solve");
      Q.arg("backend", Backend->name());
    }
    R = Compute(F);
    Models.keep(Flat, R);
  }
  // Publication gate: a result computed under an expired token is a
  // cancellation artifact (Unknown), not the formula's answer — keep it out
  // of the shared store. (append is a no-op when read-only.)
  if (QS && !cancelled())
    QS->append(Key, R);
  return R;
}

CheckResult CachingSolver::lookupOrCompute(const Term *F,
                                           const ComputeFn &Compute) {
  obs::Span Q(Trace, "solver.query");
  ++Queries;
  Shard &S = shardFor(F);
  std::promise<CheckResult> Promise;
  std::shared_future<CheckResult> Future;
  bool Owner = false;
  {
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(F);
    if (It != S.Map.end()) {
      // Hit — possibly an in-flight entry another thread is computing; we
      // wait on the future instead of re-solving. Counting in-flight finds
      // as hits keeps hit/miss totals equal to a serial run's (first ask of
      // a formula is the one miss; every later ask is a hit).
      Future = It->second;
      Hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      Owner = true;
      Future = Promise.get_future().share();
      S.Map.emplace(F, Future);
      Misses.fetch_add(1, std::memory_order_relaxed);
    }
  }
  if (!Owner) {
    CheckResult R = Future.get();
    if (Q.enabled()) {
      Q.arg("tier", "memo");
      Q.arg("answer", answerName(R.TheAnswer));
    }
    return R;
  }

  // Compute outside the shard lock so other formulas in this shard proceed.
  // Unknown is not a semantic answer (a timeout-ish backend could do better
  // on a retry), but re-asking within one analysis run would
  // deterministically reproduce it, so caching Unknown too avoids pointless
  // repeat work.
  try {
    Promise.set_value(computeOwned(F, Compute, Q));
  } catch (...) {
    // Unpoison the entry so a later ask retries, and propagate the error to
    // any concurrent waiters before rethrowing to our caller.
    {
      std::lock_guard<std::mutex> Lock(S.Mu);
      S.Map.erase(F);
    }
    Promise.set_exception(std::current_exception());
    throw;
  }
  CheckResult R = Future.get();
  if (Q.enabled())
    Q.arg("answer", answerName(R.TheAnswer));
  return R;
}

CheckResult CachingSolver::checkSat(const Term *F) {
  return lookupOrCompute(F,
                         [this](const Term *G) { return Backend->checkSat(G); });
}

void CachingSolver::setCancelToken(support::CancelToken *T) {
  SmtSolver::setCancelToken(T);
  Backend->setCancelToken(T);
}

size_t CachingSolver::cacheSize() const {
  size_t N = 0;
  for (const Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    N += S.Map.size();
  }
  return N;
}

void CachingSolver::clearCache() {
  for (Shard &S : Shards) {
    std::lock_guard<std::mutex> Lock(S.Mu);
    S.Map.clear();
  }
}

std::vector<std::unique_ptr<SmtSolver>>
solver::mintWorkerBackends(TermContext &C, const SolverFactory &Factory,
                           unsigned Jobs) {
  std::vector<std::unique_ptr<SmtSolver>> Raw;
  if (Jobs == 0 || !Factory)
    return Raw;
  for (unsigned J = 0; J < Jobs; ++J) {
    std::unique_ptr<SmtSolver> Backend = Factory.create(C);
    if (!Backend || &Backend->context() != &C)
      return {};
    Raw.push_back(std::move(Backend));
  }
  return Raw;
}
