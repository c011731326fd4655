//===- bench/micro_smt.cpp - google-benchmark microbenchmarks ------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// Microbenchmarks for the symbolic substrate: MiniSmt satisfiability,
// Cooper quantifier elimination, weakest preconditions, and the end-to-end
// readers-writers verification condition. These quantify where the
// Table-1 analysis time goes.
//
//===----------------------------------------------------------------------===//

#include "analysis/Hoare.h"
#include "core/SignalPlacement.h"
#include "frontend/Parser.h"
#include "qe/Cooper.h"
#include "smt/MiniSmt.h"

#include <benchmark/benchmark.h>

using namespace expresso;
using namespace expresso::logic;

namespace {

const char *RWSource = R"(
monitor RWLock {
  int readers = 0;
  bool writerIn = false;
  void enterReader() { waituntil (!writerIn) { readers++; } }
  void exitReader()  { if (readers > 0) readers--; }
  void enterWriter() { waituntil (readers == 0 && !writerIn) { writerIn = true; } }
  void exitWriter()  { writerIn = false; }
}
)";

void BM_MiniSmtSatBox(benchmark::State &State) {
  for (auto _ : State) {
    TermContext C;
    smt::MiniSmt S(C);
    const Term *X = C.var("x", Sort::Int);
    const Term *Y = C.var("y", Sort::Int);
    const Term *F = C.and_({C.ge(X, C.getZero()), C.le(X, C.intConst(10)),
                            C.eq(C.add(X, Y), C.intConst(7)),
                            C.divides(3, Y)});
    benchmark::DoNotOptimize(S.checkSat(F));
  }
}
BENCHMARK(BM_MiniSmtSatBox);

void BM_MiniSmtUnsatDisequalities(benchmark::State &State) {
  for (auto _ : State) {
    TermContext C;
    smt::MiniSmt S(C);
    const Term *X = C.var("x", Sort::Int);
    std::vector<const Term *> Conj{C.ge(X, C.getZero()),
                                   C.le(X, C.intConst(4))};
    for (int64_t V = 0; V <= 4; ++V)
      Conj.push_back(C.ne(X, C.intConst(V)));
    benchmark::DoNotOptimize(S.checkSat(C.and_(std::move(Conj))));
  }
}
BENCHMARK(BM_MiniSmtUnsatDisequalities);

/// The readers-writers VC that enterReader (readers++) cannot make a false
/// writer predicate (readers == 0 && !writerIn) true.
const Term *readersWritersVC(TermContext &C) {
  const Term *Readers = C.var("readers", Sort::Int);
  const Term *WriterIn = C.var("writerIn", Sort::Bool);
  const Term *Pw = C.and_(C.eq(Readers, C.getZero()), C.not_(WriterIn));
  return C.implies(
      C.and_({C.ge(Readers, C.getZero()), C.not_(WriterIn), C.not_(Pw)}),
      C.not_(C.and_(C.eq(C.add(Readers, C.getOne()), C.getZero()),
                    C.not_(WriterIn))));
}

/// Cold: a new backend per VC, so every check pays Z3's start-up.
void BM_Z3ReadersWritersVC(benchmark::State &State) {
  if (!solver::hasZ3()) {
    State.SkipWithError("Z3 backend not built");
    return;
  }
  for (auto _ : State) {
    TermContext C;
    auto S = solver::createSolver(solver::SolverKind::Z3, C);
    benchmark::DoNotOptimize(S->checkValid(readersWritersVC(C)));
  }
}
BENCHMARK(BM_Z3ReadersWritersVC);

/// Warm: one backend whose session answers the same VC in a push/pop scope,
/// the per-check cost once a placement session is running.
void BM_Z3ReadersWritersVCSession(benchmark::State &State) {
  if (!solver::hasZ3()) {
    State.SkipWithError("Z3 backend not built");
    return;
  }
  TermContext C;
  auto S = solver::createSolver(solver::SolverKind::Z3, C);
  const Term *NotVC = C.not_(readersWritersVC(C));
  for (auto _ : State) {
    S->push();
    benchmark::DoNotOptimize(S->checkSatAssuming({NotVC}));
    S->pop();
  }
}
BENCHMARK(BM_Z3ReadersWritersVCSession);

/// Lifecycle: a fresh TermContext and backend decide the VC in one session
/// check and are destroyed — the per-analysis (and per-request) fixed cost
/// of a session, context acquisition and release included.
void BM_Z3BackendLifecycle(benchmark::State &State) {
  if (!solver::hasZ3()) {
    State.SkipWithError("Z3 backend not built");
    return;
  }
  for (auto _ : State) {
    TermContext C;
    auto S = solver::createSolver(solver::SolverKind::Z3, C);
    benchmark::DoNotOptimize(
        S->checkSatAssuming({C.not_(readersWritersVC(C))}));
  }
}
BENCHMARK(BM_Z3BackendLifecycle);

void BM_CooperEliminate(benchmark::State &State) {
  for (auto _ : State) {
    TermContext C;
    const Term *X = C.var("x", Sort::Int);
    const Term *Y = C.var("y", Sort::Int);
    const Term *Z = C.var("z", Sort::Int);
    const Term *F =
        C.and_({C.le(Y, X), C.le(X, Z), C.divides(2, X),
                C.ne(X, C.add(Y, C.getOne()))});
    benchmark::DoNotOptimize(qe::eliminateExists(C, F, X));
  }
}
BENCHMARK(BM_CooperEliminate);

void BM_WpReadersWriters(benchmark::State &State) {
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(RWSource, Diags);
  for (auto _ : State) {
    TermContext C;
    DiagnosticEngine D2;
    auto Sema = frontend::analyze(*M, C, D2);
    analysis::WpEngine Wp(C, *Sema);
    const Term *Readers = C.var("readers", Sort::Int);
    const Term *Q = C.ge(Readers, C.getZero());
    for (const frontend::CcrInfo &Ccr : Sema->Ccrs)
      benchmark::DoNotOptimize(Wp.wp(Ccr.W->Body, Ccr.Parent, Q));
  }
}
BENCHMARK(BM_WpReadersWriters);

//===----------------------------------------------------------------------===//
// Session-mode discharge of a shared-prefix VC family: the micro version of
// the incremental placement engine's workload. One prefix (a conjunction of
// range and chain constraints over ten integers) is shared by twenty VC
// deltas, half unsat and half sat relative to it — the shape of one CCR's
// (predicate-class × check) family. Two discharge modes per backend:
//   one-shot:  checkSat per VC (fresh Z3 context per query — the paper
//              baseline and the --incremental=off configuration),
//   push/pop:  prefix asserted once in a session, each VC a scoped delta
//              (the --incremental=on configuration).
// The win must be measured, not asserted: these rows are where it shows.
//===----------------------------------------------------------------------===//

struct SessionVcFamily {
  TermContext C;
  const Term *Prefix = nullptr;
  std::vector<const Term *> Deltas;

  SessionVcFamily() {
    std::vector<const Term *> Xs, Pre;
    for (int I = 0; I < 10; ++I) {
      const Term *X = C.var("s" + std::to_string(I), Sort::Int);
      Xs.push_back(X);
      Pre.push_back(C.ge(X, C.getZero()));
      Pre.push_back(C.le(X, C.intConst(64)));
    }
    for (int I = 0; I + 1 < 10; ++I)
      Pre.push_back(C.le(Xs[I], C.add(Xs[I + 1], C.intConst(8))));
    Prefix = C.and_(Pre);
    // Deltas conjoin the prefix, as placement VCs do (a negated Hoare VC
    // contains its precondition), so every mode solves the same formulas.
    for (int I = 0; I + 1 < 10; ++I) {
      Deltas.push_back(
          C.and_(Prefix, C.lt(C.add(Xs[I + 1], C.intConst(8)), Xs[I])));
      Deltas.push_back(C.and_(Prefix, C.eq(Xs[I], C.intConst(I))));
    }
  }
};

enum class DischargeMode { OneShot, PushPop };

void runSessionFamily(benchmark::State &State, solver::SolverKind Kind,
                      DischargeMode Mode) {
  if (Kind == solver::SolverKind::Z3 && !solver::hasZ3()) {
    State.SkipWithError("Z3 backend not built");
    return;
  }
  SessionVcFamily Family;
  auto S = solver::createSolver(Kind, Family.C);
  for (auto _ : State) {
    switch (Mode) {
    case DischargeMode::OneShot:
      for (const Term *D : Family.Deltas)
        benchmark::DoNotOptimize(S->checkSat(D));
      break;
    case DischargeMode::PushPop:
      S->push();
      S->assertTerm(Family.Prefix);
      for (const Term *D : Family.Deltas)
        benchmark::DoNotOptimize(S->checkSatAssuming({D}));
      S->pop();
      break;
    }
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(Family.Deltas.size()));
}

void BM_SessionZ3OneShot(benchmark::State &State) {
  runSessionFamily(State, solver::SolverKind::Z3, DischargeMode::OneShot);
}
BENCHMARK(BM_SessionZ3OneShot)->Unit(benchmark::kMillisecond);

void BM_SessionZ3PushPop(benchmark::State &State) {
  runSessionFamily(State, solver::SolverKind::Z3, DischargeMode::PushPop);
}
BENCHMARK(BM_SessionZ3PushPop)->Unit(benchmark::kMillisecond);

void BM_SessionMiniOneShot(benchmark::State &State) {
  runSessionFamily(State, solver::SolverKind::Mini, DischargeMode::OneShot);
}
BENCHMARK(BM_SessionMiniOneShot)->Unit(benchmark::kMillisecond);

void BM_SessionMiniPushPop(benchmark::State &State) {
  // Snapshot sessions: expected ~1x vs one-shot — the row documents that
  // MiniSmt sessions buy correctness plumbing, not speed.
  runSessionFamily(State, solver::SolverKind::Mini, DischargeMode::PushPop);
}
BENCHMARK(BM_SessionMiniPushPop)->Unit(benchmark::kMillisecond);

void BM_FullPipelineReadersWriters(benchmark::State &State) {
  for (auto _ : State) {
    TermContext C;
    DiagnosticEngine Diags;
    auto M = frontend::parseMonitor(RWSource, Diags);
    auto Sema = frontend::analyze(*M, C, Diags);
    auto Solver = solver::createSolver(solver::SolverKind::Default, C);
    benchmark::DoNotOptimize(core::placeSignals(C, *Sema, *Solver));
  }
}
BENCHMARK(BM_FullPipelineReadersWriters)->Unit(benchmark::kMillisecond);

} // namespace

BENCHMARK_MAIN();
