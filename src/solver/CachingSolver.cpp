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
                                        obs::Span *Q) {
  CheckResult R;
  if (persist::QueryStore *QS = Store.get()) {
    // Second tier: probe the persistent store by the formula's canonical
    // encoding — always the *equivalent one-shot formula*, whatever
    // session/batching machinery sits inside Compute, so a store warmed in
    // one discharge mode answers every other. Only the single-flight owner
    // reaches here, so the disk counters are exactly the
    // per-distinct-formula found/not-found totals.
    std::string Key = persist::encodeTermKey(F);
    if (QS->lookup(Key, R)) {
      DiskHits.fetch_add(1, std::memory_order_relaxed);
      if (Q)
        Q->arg("tier", "disk");
    } else {
      DiskMisses.fetch_add(1, std::memory_order_relaxed);
      if (Q && Q->enabled()) {
        Q->arg("tier", "solve");
        Q->arg("backend", Backend->name());
      }
      R = Compute(F);
      // Publication gate: a result computed under an expired token is a
      // cancellation artifact (Unknown), not the formula's answer — keep
      // it out of the shared store. (append is a no-op when read-only.)
      if (!cancelled())
        QS->append(Key, R);
    }
  } else {
    if (Q && Q->enabled()) {
      Q->arg("tier", "solve");
      Q->arg("backend", Backend->name());
    }
    R = Compute(F);
  }
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
    Promise.set_value(computeOwned(F, Compute, &Q));
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

std::vector<CheckResult>
CachingSolver::lookupOrComputeBatch(const std::vector<const Term *> &Fs,
                                    const BatchComputeFn &Compute) {
  const size_t N = Fs.size();
  obs::Span BatchSpan(Trace, "solver.batch");
  std::vector<std::shared_future<CheckResult>> Futures(N);
  std::vector<std::promise<CheckResult>> Promises(N);
  std::vector<char> Owner(N, 0);
  size_t OwnedCount = 0; // span bookkeeping only; counters stay atomic

  // Phase 1: classify strictly in order. Duplicates within the batch find
  // the first occurrence's in-flight entry and count as hits — exactly what
  // asking them one-by-one would have counted. Nothing is waited on yet
  // (an in-batch duplicate's future is fulfilled by *this* call, below).
  for (size_t I = 0; I < N; ++I) {
    ++Queries;
    Shard &S = shardFor(Fs[I]);
    std::lock_guard<std::mutex> Lock(S.Mu);
    auto It = S.Map.find(Fs[I]);
    if (It != S.Map.end()) {
      Futures[I] = It->second;
      Hits.fetch_add(1, std::memory_order_relaxed);
    } else {
      Owner[I] = 1;
      ++OwnedCount;
      Futures[I] = Promises[I].get_future().share();
      S.Map.emplace(Fs[I], Futures[I]);
      Misses.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Phases 2 and 3 run under one exception contract mirroring the
  // single-formula path: any throw (key encoding, store I/O, the compute
  // call, a wrong-sized compute result) unpoisons every still-unpublished
  // owned entry and forwards the exception to its waiters — a failed batch
  // must never leave permanently-broken futures in the memo.
  try {
    // Phase 2: persistent-tier probe per owned miss, in order. Store hits
    // publish immediately; the rest become the residual the backend solves.
    persist::QueryStore *QS = Store.get();
    std::vector<const Term *> Residual;
    std::vector<size_t> ResidualIdx;
    std::vector<std::string> ResidualKeys;
    for (size_t I = 0; I < N; ++I) {
      if (!Owner[I])
        continue;
      if (QS) {
        std::string Key = persist::encodeTermKey(Fs[I]);
        CheckResult R;
        if (QS->lookup(Key, R)) {
          DiskHits.fetch_add(1, std::memory_order_relaxed);
          Promises[I].set_value(std::move(R));
          Owner[I] = 0; // published
          continue;
        }
        DiskMisses.fetch_add(1, std::memory_order_relaxed);
        ResidualKeys.push_back(std::move(Key));
      }
      Residual.push_back(Fs[I]);
      ResidualIdx.push_back(I);
    }

    if (BatchSpan.enabled()) {
      BatchSpan.arg("n", static_cast<uint64_t>(N));
      BatchSpan.arg("memo_hits", static_cast<uint64_t>(N - OwnedCount));
      BatchSpan.arg("disk_hits",
                    static_cast<uint64_t>(OwnedCount - Residual.size()));
      BatchSpan.arg("solved", static_cast<uint64_t>(Residual.size()));
      if (!Residual.empty())
        BatchSpan.arg("backend", Backend->name());
    }

    // Phase 3: one compute call over the residual, then write-through and
    // publication.
    if (!Residual.empty()) {
      std::vector<CheckResult> Rs = Compute(Residual);
      if (Rs.size() != Residual.size())
        throw std::logic_error(
            "CachingSolver batch compute returned wrong result count");
      for (size_t K = 0; K < ResidualIdx.size(); ++K) {
        size_t I = ResidualIdx[K];
        // Same publication gate as computeOwned: no store writes once the
        // token has expired.
        if (QS && !cancelled())
          QS->append(ResidualKeys[K], Rs[K]);
        Promises[I].set_value(std::move(Rs[K]));
        Owner[I] = 0; // published
      }
    }
  } catch (...) {
    for (size_t I = 0; I < N; ++I) {
      if (!Owner[I])
        continue;
      Shard &S = shardFor(Fs[I]);
      {
        std::lock_guard<std::mutex> Lock(S.Mu);
        S.Map.erase(Fs[I]);
      }
      Promises[I].set_exception(std::current_exception());
    }
    throw;
  }

  // Phase 4: collect — every future is fulfilled by now (by us, or by a
  // concurrent owner in another thread).
  std::vector<CheckResult> Out;
  Out.reserve(N);
  for (size_t I = 0; I < N; ++I)
    Out.push_back(Futures[I].get());
  return Out;
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
