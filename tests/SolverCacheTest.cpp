//===- tests/SolverCacheTest.cpp - CachingSolver unit tests -------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// Covers the memoizing solver decorator: hit/miss accounting, context-
// mismatch rejection, structural-hash stability, differential parity of
// the cached solver against the undecorated backend on random formulas,
// and the model tier's exactness guards.
//
//===----------------------------------------------------------------------===//

#include "solver/CachingSolver.h"

#include "persist/QueryStore.h"
#include "tests/TestUtil.h"

#include <gtest/gtest.h>

#include <climits>
#include <functional>

using namespace expresso;
using namespace expresso::logic;
using namespace expresso::solver;

namespace {

const Term *notLeBound(TermContext &C, int64_t Bound) {
  const Term *X = C.var("x", Sort::Int);
  return C.and_(C.le(C.intConst(Bound), X), C.lt(X, C.intConst(Bound)));
}

TEST(SolverCacheTest, HitMissAccounting) {
  TermContext C;
  auto Backend = createSolver(SolverKind::Mini, C);
  SmtSolver &Raw = *Backend;
  CachingSolver Cache(Raw);

  const Term *F = notLeBound(C, 3); // x >= 3 && x < 3: unsat
  EXPECT_EQ(Cache.checkSat(F).TheAnswer, Answer::Unsat);
  EXPECT_EQ(Cache.stats().Hits, 0u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Raw.numQueries(), 1u);

  // Asking again answers from the memo table without touching the backend.
  EXPECT_EQ(Cache.checkSat(F).TheAnswer, Answer::Unsat);
  EXPECT_EQ(Cache.stats().Hits, 1u);
  EXPECT_EQ(Cache.stats().Misses, 1u);
  EXPECT_EQ(Raw.numQueries(), 1u);

  // A structurally equal formula built independently interns to the same
  // pointer, so it also hits.
  const Term *G = notLeBound(C, 3);
  EXPECT_EQ(G, F);
  EXPECT_EQ(Cache.checkSat(G).TheAnswer, Answer::Unsat);
  EXPECT_EQ(Cache.stats().Hits, 2u);
  EXPECT_EQ(Raw.numQueries(), 1u);

  // A different formula misses.
  EXPECT_EQ(Cache.checkSat(notLeBound(C, 4)).TheAnswer, Answer::Unsat);
  EXPECT_EQ(Cache.stats().Misses, 2u);
  EXPECT_EQ(Cache.cacheSize(), 2u);
  EXPECT_DOUBLE_EQ(Cache.stats().hitRate(), 0.5);

  Cache.clearCache();
  EXPECT_EQ(Cache.cacheSize(), 0u);
  EXPECT_EQ(Cache.checkSat(F).TheAnswer, Answer::Unsat);
  EXPECT_EQ(Cache.stats().Misses, 3u);
  EXPECT_EQ(Raw.numQueries(), 3u);
}

TEST(SolverCacheTest, ModelsAreCachedToo) {
  TermContext C;
  auto Backend = createSolver(SolverKind::Mini, C);
  CachingSolver Cache(*Backend);

  const Term *X = C.var("x", Sort::Int);
  const Term *F = C.eq(X, C.intConst(7));
  CheckResult First = Cache.checkSat(F);
  ASSERT_EQ(First.TheAnswer, Answer::Sat);
  CheckResult Again = Cache.checkSat(F);
  EXPECT_EQ(Again.TheAnswer, Answer::Sat);
  EXPECT_EQ(Again.Model, First.Model);
  EXPECT_TRUE(evaluateBool(F, Again.Model));
  EXPECT_EQ(Cache.stats().Hits, 1u);
}

TEST(SolverCacheTest, ContextMismatchRejected) {
  TermContext C1, C2;
  // A backend bound to C1 must not be wrapped for C2: the cache keys on C2's
  // term pointers while the backend interprets C1's.
  EXPECT_EQ(CachingSolver::create(C2, createSolver(SolverKind::Mini, C1)),
            nullptr);
  EXPECT_EQ(CachingSolver::create(C1, nullptr), nullptr);

  auto Cache = CachingSolver::create(C1, createSolver(SolverKind::Mini, C1));
  ASSERT_NE(Cache, nullptr);
  EXPECT_EQ(&Cache->context(), &C1);
  EXPECT_EQ(&Cache->backend().context(), &C1);
  EXPECT_EQ(Cache->checkSat(C1.getTrue()).TheAnswer, Answer::Sat);
}

TEST(SolverCacheTest, StructuralHashStableAcrossContexts) {
  TermContext C1, C2;
  const Term *F1 = notLeBound(C1, 5);
  const Term *F2 = notLeBound(C2, 5);
  EXPECT_NE(F1, F2);
  EXPECT_EQ(F1->structuralHash(), F2->structuralHash());
  EXPECT_NE(F1->structuralHash(), notLeBound(C1, 6)->structuralHash());
}

TEST(SolverCacheTest, NameReflectsBackend) {
  TermContext C;
  CachingSolver Cache(createSolver(SolverKind::Mini, C));
  EXPECT_EQ(Cache.name(), "cache(mini)");
}

/// Differential parity: for random formulas (with repeats forcing hits), the
/// cached solver must agree with a fresh undecorated backend on every query.
class SolverCacheParityTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverCacheParityTest, AgreesWithUndecoratedBackend) {
  TermContext C;
  Rng R(0xCAFE + GetParam());
  testutil::FormulaGen Gen(C, R);

  auto Reference = createSolver(SolverKind::Mini, C);
  CachingSolver Cache(createSolver(SolverKind::Mini, C));

  std::vector<const Term *> Formulas;
  for (int I = 0; I < 40; ++I) {
    const Term *F = I % 3 == 2 && !Formulas.empty()
                        ? Formulas[R.below(Formulas.size())] // replay: hits
                        : Gen.randomFormula(3);
    Formulas.push_back(F);
    Answer Cached = Cache.checkSat(F).TheAnswer;
    Answer Ref = Reference->checkSat(F).TheAnswer;
    EXPECT_EQ(Cached, Ref) << "formula: " << F->str();
  }
  EXPECT_GT(Cache.stats().Hits, 0u);
  EXPECT_EQ(Cache.stats().lookups(), 40u);
}

INSTANTIATE_TEST_SUITE_P(RandomFormulas, SolverCacheParityTest,
                         ::testing::Range(0, 4));

/// A backend that records every formula it is asked about and answers
/// through \p Answer (a real backend's checkSat by default).
class RecordingBackend : public SmtSolver {
public:
  using AnswerFn = std::function<CheckResult(const Term *)>;
  RecordingBackend(TermContext &C, AnswerFn Answer)
      : SmtSolver(C), Answer(std::move(Answer)) {}
  CheckResult checkSat(const Term *F) override {
    ++Queries;
    Asked.push_back(F);
    return Answer(F);
  }
  std::string name() const override { return "recording"; }

  std::vector<const Term *> Asked;

private:
  AnswerFn Answer;
};

/// A Sat answer with the complete model \p M.
CheckResult satWith(Assignment M) {
  CheckResult R;
  R.TheAnswer = Answer::Sat;
  R.Model = std::move(M);
  R.ModelComplete = true;
  return R;
}

TEST(ModelTierTest, KeptModelAnswersLaterFormulaWithoutBackend) {
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  const Term *Y = C.var("y", Sort::Int);
  const Term *Z = C.var("z", Sort::Int);
  RecordingBackend Backend(C, [](const Term *) {
    return satWith({{"x", Value::ofInt(7)}, {"y", Value::ofInt(3)}});
  });
  CachingSolver Cache(Backend);

  ASSERT_EQ(Cache.checkSat(C.and_(C.eq(X, C.intConst(7)),
                                  C.le(C.intConst(2), Y)))
                .TheAnswer,
            Answer::Sat);
  EXPECT_EQ(Backend.Asked.size(), 1u);

  // x = 7, y = 3 and the unbound z = 0 satisfy this: no backend call.
  const Term *Later = C.and_({C.lt(C.intConst(5), X), C.lt(Y, C.intConst(4)),
                              C.eq(Z, C.getZero())});
  CheckResult R = Cache.checkSat(Later);
  EXPECT_EQ(R.TheAnswer, Answer::Sat);
  EXPECT_TRUE(R.ModelComplete);
  EXPECT_TRUE(evaluateBool(Later, R.Model));
  EXPECT_EQ(Backend.Asked.size(), 1u);
  EXPECT_EQ(Cache.stats().ModelHits, 1u);
  EXPECT_EQ(Cache.stats().Misses, 2u);
}

TEST(ModelTierTest, NeverAnswersUnsatOrForAFalsifiedFormula) {
  TermContext C;
  auto Mini = createSolver(SolverKind::Mini, C);
  RecordingBackend Backend(C,
                           [&Mini](const Term *F) { return Mini->checkSat(F); });
  CachingSolver Cache(Backend);
  const Term *X = C.var("x", Sort::Int);

  ASSERT_EQ(Cache.checkSat(C.eq(X, C.intConst(7))).TheAnswer, Answer::Sat);
  // The kept model (x = 7) falsifies x < 0: the backend answers it.
  EXPECT_EQ(Cache.checkSat(C.lt(X, C.getZero())).TheAnswer, Answer::Sat);
  EXPECT_EQ(Backend.Asked.size(), 2u);
  // Unsat is only ever the backend's answer.
  EXPECT_EQ(Cache.checkSat(notLeBound(C, 3)).TheAnswer, Answer::Unsat);
  EXPECT_EQ(Backend.Asked.size(), 3u);
  EXPECT_EQ(Cache.stats().ModelHits, 0u);
}

TEST(ModelTierTest, ArrayFormulasBypassTheTier) {
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  const Term *A = C.var("a", Sort::IntArray);
  RecordingBackend Backend(
      C, [](const Term *) { return satWith({{"x", Value::ofInt(7)}}); });
  CachingSolver Cache(Backend);

  ASSERT_EQ(Cache.checkSat(C.eq(X, C.intConst(7))).TheAnswer, Answer::Sat);
  // x = 7 and an all-zero array satisfy this, but the tier never evaluates
  // an array formula.
  Cache.checkSat(C.and_(C.lt(C.intConst(5), X),
                        C.eq(C.select(A, C.getZero()), C.getZero())));
  EXPECT_EQ(Backend.Asked.size(), 2u);
  EXPECT_EQ(Cache.stats().ModelHits, 0u);
}

TEST(ModelTierTest, OverflowingEvaluationIsNotUsed) {
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  RecordingBackend Backend(C, [](const Term *) {
    return satWith({{"x", Value::ofInt(INT64_MAX - 1)}});
  });
  CachingSolver Cache(Backend);

  ASSERT_EQ(Cache.checkSat(C.lt(C.intConst(1000), X)).TheAnswer, Answer::Sat);
  // 3 * (INT64_MAX - 1) overflows: the model says nothing about 3x > 0.
  Cache.checkSat(C.lt(C.getZero(), C.mulConst(3, X)));
  EXPECT_EQ(Backend.Asked.size(), 2u);
  EXPECT_EQ(Cache.stats().ModelHits, 0u);
  // The model itself was kept: it answers a formula it evaluates safely.
  EXPECT_EQ(Cache.checkSat(C.lt(C.intConst(2000), X)).TheAnswer, Answer::Sat);
  EXPECT_EQ(Backend.Asked.size(), 2u);
  EXPECT_EQ(Cache.stats().ModelHits, 1u);
}

TEST(ModelTierTest, WrongCompleteModelIsNeverKept) {
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  // A lying backend: "Sat, complete model x = 0" for x > 10.
  RecordingBackend Backend(
      C, [](const Term *) { return satWith({{"x", Value::ofInt(0)}}); });
  CachingSolver Cache(Backend);

  Cache.checkSat(C.lt(C.intConst(10), X));
  // x = 0 satisfies x < 5, but the model was never kept.
  Cache.checkSat(C.lt(X, C.intConst(5)));
  EXPECT_EQ(Backend.Asked.size(), 2u);
  EXPECT_EQ(Cache.stats().ModelHits, 0u);
}

TEST(ModelTierTest, WarmStoreAnswersWhatTheTierAnswered) {
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  std::vector<const Term *> Formulas = {
      C.eq(X, C.intConst(7)), C.lt(C.intConst(5), X), notLeBound(C, 3),
      C.le(X, C.intConst(9))};
  auto Mini = createSolver(SolverKind::Mini, C);
  auto Store = persist::QueryStore::createInMemory("mini");

  RecordingBackend Cold(C, [&Mini](const Term *F) { return Mini->checkSat(F); });
  CachingSolver ColdCache(Cold);
  ColdCache.attachStore(Store);
  std::vector<Answer> ColdAnswers;
  for (const Term *F : Formulas)
    ColdAnswers.push_back(ColdCache.checkSat(F).TheAnswer);
  ASSERT_GT(ColdCache.stats().ModelHits, 0u);

  RecordingBackend Warm(C, [&Mini](const Term *F) { return Mini->checkSat(F); });
  CachingSolver WarmCache(Warm);
  WarmCache.attachStore(Store);
  for (size_t I = 0; I < Formulas.size(); ++I)
    EXPECT_EQ(WarmCache.checkSat(Formulas[I]).TheAnswer, ColdAnswers[I]);
  EXPECT_TRUE(Warm.Asked.empty());
  EXPECT_EQ(WarmCache.stats().DiskHits, Formulas.size());
  EXPECT_EQ(WarmCache.stats().ModelHits, 0u);
}

} // namespace
