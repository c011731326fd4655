//===- tests/SmtTest.cpp - SAT core, LIA solver, MiniSmt --------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "smt/LiaSolver.h"
#include "smt/MiniSmt.h"
#include "smt/Rational.h"
#include "smt/Sat.h"

#include "TestUtil.h"
#include "logic/Printer.h"
#include "solver/SmtSolver.h"

#include <gtest/gtest.h>

using namespace expresso;
using namespace expresso::logic;
using namespace expresso::smt;

namespace {

//===----------------------------------------------------------------------===//
// Rational
//===----------------------------------------------------------------------===//

TEST(RationalTest, Arithmetic) {
  Rational Half(1, 2), Third(1, 3);
  EXPECT_EQ((Half + Third), Rational(5, 6));
  EXPECT_EQ((Half * Third), Rational(1, 6));
  EXPECT_EQ((Half - Third), Rational(1, 6));
  EXPECT_EQ((Half / Third), Rational(3, 2));
  EXPECT_TRUE(Third < Half);
  EXPECT_EQ(Rational(2, 4), Half);
  EXPECT_EQ(Rational(-3, -6), Half);
  EXPECT_EQ(Rational(3, -6), -Half);
}

TEST(RationalTest, FloorCeil) {
  EXPECT_EQ(Rational(7, 2).floor(), 3);
  EXPECT_EQ(Rational(7, 2).ceil(), 4);
  EXPECT_EQ(Rational(-7, 2).floor(), -4);
  EXPECT_EQ(Rational(-7, 2).ceil(), -3);
  EXPECT_EQ(Rational(6, 2).floor(), 3);
  EXPECT_EQ(Rational(6, 2).ceil(), 3);
}

//===----------------------------------------------------------------------===//
// SAT core
//===----------------------------------------------------------------------===//

TEST(SatTest, TrivialSat) {
  SatSolver S;
  int A = S.newVar(), B = S.newVar();
  S.addClause({Lit(A, false), Lit(B, false)});
  S.addClause({Lit(A, true)});
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  EXPECT_FALSE(S.modelValue(A));
  EXPECT_TRUE(S.modelValue(B));
}

TEST(SatTest, TrivialUnsat) {
  SatSolver S;
  int A = S.newVar();
  S.addClause({Lit(A, false)});
  EXPECT_FALSE(S.addClause({Lit(A, true)}));
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatTest, RequiresPropagationChain) {
  SatSolver S;
  // a, a->b, b->c, c->d, check d forced true.
  int A = S.newVar(), B = S.newVar(), Cc = S.newVar(), D = S.newVar();
  S.addClause({Lit(A, false)});
  S.addClause({Lit(A, true), Lit(B, false)});
  S.addClause({Lit(B, true), Lit(Cc, false)});
  S.addClause({Lit(Cc, true), Lit(D, false)});
  ASSERT_EQ(S.solve(), SatSolver::Result::Sat);
  EXPECT_TRUE(S.modelValue(D));
}

TEST(SatTest, PigeonHole32) {
  // 3 pigeons, 2 holes: unsat. Var P[i][j] = pigeon i in hole j.
  SatSolver S;
  int P[3][2];
  for (auto &Row : P)
    for (int &V : Row)
      V = S.newVar();
  for (auto &Row : P)
    S.addClause({Lit(Row[0], false), Lit(Row[1], false)});
  for (int J = 0; J < 2; ++J)
    for (int I1 = 0; I1 < 3; ++I1)
      for (int I2 = I1 + 1; I2 < 3; ++I2)
        S.addClause({Lit(P[I1][J], true), Lit(P[I2][J], true)});
  EXPECT_EQ(S.solve(), SatSolver::Result::Unsat);
}

TEST(SatTest, IncrementalBlockingClauses) {
  // Enumerate all 4 models of (a | b) by blocking.
  SatSolver S;
  int A = S.newVar(), B = S.newVar();
  S.addClause({Lit(A, false), Lit(B, false)});
  int Models = 0;
  while (S.solve() == SatSolver::Result::Sat && Models < 10) {
    ++Models;
    S.addClause({Lit(A, S.modelValue(A)), Lit(B, S.modelValue(B))});
  }
  EXPECT_EQ(Models, 3);
}

/// Random 3-SAT instances cross-checked against brute force.
class SatRandomTest : public ::testing::TestWithParam<int> {};

TEST_P(SatRandomTest, MatchesBruteForce) {
  Rng R(static_cast<uint64_t>(GetParam()) * 7919 + 13);
  const int NumVars = 6;
  const int NumClauses = 18;
  std::vector<std::vector<int>> Clauses; // signed DIMACS-ish
  for (int I = 0; I < NumClauses; ++I) {
    std::vector<int> Cl;
    for (int K = 0; K < 3; ++K) {
      int V = static_cast<int>(R.below(NumVars)) + 1;
      Cl.push_back(R.chance(1, 2) ? V : -V);
    }
    Clauses.push_back(Cl);
  }
  // Brute force.
  bool BruteSat = false;
  for (int M = 0; M < (1 << NumVars) && !BruteSat; ++M) {
    bool AllSat = true;
    for (const auto &Cl : Clauses) {
      bool ClauseSat = false;
      for (int L : Cl) {
        int V = std::abs(L) - 1;
        bool Val = (M >> V) & 1;
        if ((L > 0) == Val) {
          ClauseSat = true;
          break;
        }
      }
      if (!ClauseSat) {
        AllSat = false;
        break;
      }
    }
    BruteSat = AllSat;
  }
  // CDCL.
  SatSolver S;
  for (int V = 0; V < NumVars; ++V)
    S.newVar();
  for (const auto &Cl : Clauses) {
    std::vector<Lit> Lits;
    for (int L : Cl)
      Lits.push_back(Lit(std::abs(L) - 1, L < 0));
    S.addClause(std::move(Lits));
  }
  SatSolver::Result Got = S.solve();
  EXPECT_EQ(Got == SatSolver::Result::Sat, BruteSat);
  if (Got == SatSolver::Result::Sat) {
    // Verify the model satisfies every clause.
    for (const auto &Cl : Clauses) {
      bool ClauseSat = false;
      for (int L : Cl)
        if ((L > 0) == S.modelValue(std::abs(L) - 1))
          ClauseSat = true;
      EXPECT_TRUE(ClauseSat);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, SatRandomTest, ::testing::Range(0, 40));

//===----------------------------------------------------------------------===//
// LIA solver
//===----------------------------------------------------------------------===//

class LiaTest : public ::testing::Test {
protected:
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  const Term *Y = C.var("y", Sort::Int);

  LinAtom le(const Term *T, int64_t Bound) {
    auto A = normalizeLinAtom(C.le(T, C.intConst(Bound)));
    return *A;
  }
  LinAtom ge(const Term *T, int64_t Bound) {
    auto A = normalizeLinAtom(C.ge(T, C.intConst(Bound)));
    return *A;
  }
  LinAtom eq(const Term *T, int64_t V) {
    auto A = normalizeLinAtom(C.eq(T, C.intConst(V)));
    return *A;
  }
};

TEST_F(LiaTest, SimpleBox) {
  LiaSolver S;
  LiaResult R = S.solve({ge(X, 2), le(X, 5)});
  ASSERT_EQ(R.Status, LiaStatus::Feasible);
  int64_t V = R.Model.at(X);
  EXPECT_GE(V, 2);
  EXPECT_LE(V, 5);
}

TEST_F(LiaTest, EmptyBox) {
  LiaSolver S;
  LiaResult R = S.solve({ge(X, 6), le(X, 5)});
  ASSERT_EQ(R.Status, LiaStatus::Infeasible);
  EXPECT_EQ(R.Core.size(), 2u);
}

TEST_F(LiaTest, CoreIsSubset) {
  // x >= 10 contradicts x <= 5; y-constraint is irrelevant.
  LiaSolver S;
  LiaResult R = S.solve({ge(Y, 0), ge(X, 10), le(X, 5)});
  ASSERT_EQ(R.Status, LiaStatus::Infeasible);
  // Core must not include the y constraint (index 0).
  for (int I : R.Core)
    EXPECT_NE(I, 0);
}

TEST_F(LiaTest, GcdInfeasibleEquality) {
  // 2x - 2y == 1 has no integer solutions.
  auto A = normalizeLinAtom(
      C.eq(C.sub(C.mulConst(2, X), C.mulConst(2, Y)), C.getOne()));
  ASSERT_TRUE(A.has_value());
  LiaSolver S;
  // normalizeLinAtom already catches this via gcd tightening; make sure the
  // solver agrees regardless.
  LiaResult R = S.solve({*A});
  EXPECT_EQ(R.Status, LiaStatus::Infeasible);
}

TEST_F(LiaTest, IntegerGapInfeasible) {
  // 2 <= 2x <= 3 has no integer solution (x between 1 and 1.5).
  auto Lo = normalizeLinAtom(C.ge(C.mulConst(2, X), C.intConst(3)));
  auto Hi = normalizeLinAtom(C.le(C.mulConst(2, X), C.intConst(3)));
  LiaSolver S;
  LiaResult R = S.solve({*Lo, *Hi});
  EXPECT_EQ(R.Status, LiaStatus::Infeasible);
}

TEST_F(LiaTest, BranchAndBoundFindsLatticePoint) {
  // 3x + 3y == 6 and x >= 0 and y >= 0: (0,2),(1,1),(2,0).
  auto E = normalizeLinAtom(
      C.eq(C.add(C.mulConst(3, X), C.mulConst(3, Y)), C.intConst(6)));
  LiaSolver S;
  LiaResult R = S.solve({*E, ge(X, 0), ge(Y, 0)});
  ASSERT_EQ(R.Status, LiaStatus::Feasible);
  EXPECT_EQ(R.Model.at(X) + R.Model.at(Y), 2);
  EXPECT_GE(R.Model.at(X), 0);
}

TEST_F(LiaTest, DivisibilityAtom) {
  // 3 | x and 4 <= x <= 6 forces x == 6.
  auto D = normalizeLinAtom(C.divides(3, X));
  LiaSolver S;
  LiaResult R = S.solve({*D, ge(X, 4), le(X, 6)});
  ASSERT_EQ(R.Status, LiaStatus::Feasible);
  EXPECT_EQ(R.Model.at(X), 6);
}

TEST_F(LiaTest, NegatedDivisibilityAtom) {
  // !(2 | x) and 4 <= x <= 5 forces x == 5.
  auto D = normalizeLinAtom(C.not_(C.divides(2, X)));
  ASSERT_TRUE(D.has_value());
  EXPECT_EQ(D->Kind, LinAtomKind::NDvd);
  LiaSolver S;
  LiaResult R = S.solve({*D, ge(X, 4), le(X, 5)});
  ASSERT_EQ(R.Status, LiaStatus::Feasible);
  EXPECT_EQ(R.Model.at(X), 5);
}

TEST_F(LiaTest, TwoVarCone) {
  // x + y <= -1, x >= 0 => y <= -1 feasible.
  auto A = normalizeLinAtom(C.le(C.add(X, Y), C.intConst(-1)));
  LiaSolver S;
  LiaResult R = S.solve({*A, ge(X, 0)});
  ASSERT_EQ(R.Status, LiaStatus::Feasible);
  EXPECT_GE(R.Model.at(X), 0);
  EXPECT_LE(R.Model.at(X) + R.Model.at(Y), -1);
}

//===----------------------------------------------------------------------===//
// MiniSmt end-to-end
//===----------------------------------------------------------------------===//

class MiniSmtTest : public ::testing::Test {
protected:
  TermContext C;
  MiniSmt S{C};
  const Term *X = C.var("x", Sort::Int);
  const Term *Y = C.var("y", Sort::Int);
  const Term *P = C.var("p", Sort::Bool);
};

TEST_F(MiniSmtTest, PropositionalOnly) {
  EXPECT_EQ(S.checkSat(C.and_(P, C.not_(P))).Answer, SatAnswer::Unsat);
  SmtResult R = S.checkSat(C.or_(P, C.not_(P)));
  EXPECT_EQ(R.Answer, SatAnswer::Sat);
}

TEST_F(MiniSmtTest, MixedBoolArith) {
  // (p -> x > 3) and (!p -> x < -3) and x == 0 : unsat.
  const Term *F = C.and_({C.implies(P, C.gt(X, C.intConst(3))),
                          C.implies(C.not_(P), C.lt(X, C.intConst(-3))),
                          C.eq(X, C.getZero())});
  EXPECT_EQ(S.checkSat(F).Answer, SatAnswer::Unsat);
}

TEST_F(MiniSmtTest, ModelSatisfiesFormula) {
  const Term *F = C.and_({C.gt(X, C.intConst(2)), C.lt(X, C.intConst(7)),
                          C.divides(3, X), C.iff(P, C.eq(Y, X))});
  SmtResult R = S.checkSat(F);
  ASSERT_EQ(R.Answer, SatAnswer::Sat);
  ASSERT_TRUE(R.ModelComplete);
  EXPECT_TRUE(evaluateBool(F, R.Model)) << printTerm(F);
}

TEST_F(MiniSmtTest, DisequalityChainNeedsSplitting) {
  // 0 <= x <= 2, x != 0, x != 1, x != 2 : unsat.
  const Term *F = C.and_({C.ge(X, C.getZero()), C.le(X, C.intConst(2)),
                          C.ne(X, C.getZero()), C.ne(X, C.getOne()),
                          C.ne(X, C.intConst(2))});
  EXPECT_EQ(S.checkSat(F).Answer, SatAnswer::Unsat);
}

TEST_F(MiniSmtTest, IteLifting) {
  // ite(p, 1, 2) == 2 and p : unsat.
  const Term *F =
      C.and_(C.eq(C.ite(P, C.getOne(), C.intConst(2)), C.intConst(2)), P);
  EXPECT_EQ(S.checkSat(F).Answer, SatAnswer::Unsat);
  // ite(p, 1, 2) == 2 and !p : sat.
  const Term *G = C.and_(
      C.eq(C.ite(P, C.getOne(), C.intConst(2)), C.intConst(2)), C.not_(P));
  EXPECT_EQ(S.checkSat(G).Answer, SatAnswer::Sat);
}

TEST_F(MiniSmtTest, ArraysViaAckermann) {
  const Term *A = C.var("a", Sort::IntArray);
  const Term *I = C.var("i", Sort::Int);
  const Term *J = C.var("j", Sort::Int);
  // i == j and a[i] != a[j] : unsat.
  const Term *F =
      C.and_(C.eq(I, J), C.ne(C.select(A, I), C.select(A, J)));
  EXPECT_EQ(S.checkSat(F).Answer, SatAnswer::Unsat);
  // i != j and a[i] != a[j] : sat.
  const Term *G =
      C.and_(C.ne(I, J), C.ne(C.select(A, I), C.select(A, J)));
  SmtResult R = S.checkSat(G);
  ASSERT_EQ(R.Answer, SatAnswer::Sat);
  EXPECT_TRUE(evaluateBool(G, R.Model));
}

// An index that occurs only inside one select is in no theory atom, yet
// rebuilding the array needs its value.
TEST_F(MiniSmtTest, ArrayModelBindsIndexOnlyInASelect) {
  const Term *A = C.var("a", Sort::IntArray);
  const Term *I = C.var("i", Sort::Int);
  const Term *F = C.gt(C.select(A, I), C.getZero());
  SmtResult R = S.checkSat(F);
  ASSERT_EQ(R.Answer, SatAnswer::Sat);
  ASSERT_TRUE(R.ModelComplete);
  EXPECT_TRUE(evaluateBool(F, R.Model)) << printTerm(F);
}

// A nested read: a's element sits at b's rebuilt value, not at a default.
TEST_F(MiniSmtTest, ArrayModelRebuildsNestedSelects) {
  const Term *A = C.var("a", Sort::IntArray);
  const Term *B = C.var("b", Sort::IntArray);
  const Term *I = C.var("i", Sort::Int);
  const Term *F = C.gt(C.select(A, C.select(B, I)), C.getZero());
  SmtResult R = S.checkSat(F);
  ASSERT_EQ(R.Answer, SatAnswer::Sat);
  ASSERT_TRUE(R.ModelComplete);
  EXPECT_TRUE(evaluateBool(F, R.Model)) << printTerm(F);
  // b[i] forced away from 0 must move a's element with it.
  const Term *G = C.and_(F, C.gt(C.select(B, I), C.intConst(5)));
  R = S.checkSat(G);
  ASSERT_EQ(R.Answer, SatAnswer::Sat);
  ASSERT_TRUE(R.ModelComplete);
  EXPECT_TRUE(evaluateBool(G, R.Model)) << printTerm(G);
}

TEST_F(MiniSmtTest, StorePushedThroughSelect) {
  const Term *A = C.var("a", Sort::BoolArray);
  const Term *I = C.var("i", Sort::Int);
  const Term *J = C.var("j", Sort::Int);
  // store(a, i, true)[j] is false and i == j : unsat.
  const Term *F =
      C.and_(C.not_(C.select(C.store(A, I, C.getTrue()), J)), C.eq(I, J));
  EXPECT_EQ(S.checkSat(F).Answer, SatAnswer::Unsat);
}

TEST_F(MiniSmtTest, ReadersWritersVC) {
  // The Section 2 enterReader check:
  //   readers>=0 and !writerIn and !(readers==0 and !writerIn)
  //     => !(readers+1==0 and !writerIn)
  // is valid, so its negation must be unsat.
  const Term *Readers = C.var("readers", Sort::Int);
  const Term *WriterIn = C.var("writerIn", Sort::Bool);
  const Term *Pw = C.and_(C.eq(Readers, C.getZero()), C.not_(WriterIn));
  const Term *PwAfter =
      C.and_(C.eq(C.add(Readers, C.getOne()), C.getZero()), C.not_(WriterIn));
  const Term *Pre =
      C.and_({C.ge(Readers, C.getZero()), C.not_(WriterIn), C.not_(Pw)});
  const Term *VC = C.implies(Pre, C.not_(PwAfter));
  EXPECT_EQ(S.checkSat(C.not_(VC)).Answer, SatAnswer::Unsat);

  // Dropping the invariant readers>=0 makes the triple fail (paper, §2).
  const Term *WeakPre = C.and_(C.not_(WriterIn), C.not_(Pw));
  const Term *BadVC = C.implies(WeakPre, C.not_(PwAfter));
  SmtResult R = S.checkSat(C.not_(BadVC));
  ASSERT_EQ(R.Answer, SatAnswer::Sat);
  EXPECT_EQ(R.Model.at("readers").asInt(), -1); // the counterexample
}

//===----------------------------------------------------------------------===//
// Differential tests: MiniSmt vs brute force and vs Z3
//===----------------------------------------------------------------------===//

class SmtDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(SmtDifferentialTest, AgreesWithBruteForce) {
  TermContext C;
  Rng R(static_cast<uint64_t>(GetParam()) * 104729 + 7);
  testutil::FormulaGen Gen(C, R);
  const Term *F = Gen.randomFormula(3);

  MiniSmt S(C);
  SmtResult Got = S.checkSat(F);
  ASSERT_NE(Got.Answer, SatAnswer::Unknown) << printTerm(F);

  auto Brute =
      testutil::bruteForceModel(F, Gen.intVars(), Gen.boolVars(), 12);
  if (Got.Answer == SatAnswer::Sat) {
    if (Got.ModelComplete)
      EXPECT_TRUE(evaluateBool(F, Got.Model)) << printTerm(F);
  } else {
    EXPECT_FALSE(Brute.has_value())
        << "MiniSmt says unsat but brute force found a model of "
        << printTerm(F);
  }
  if (Brute.has_value())
    EXPECT_EQ(Got.Answer, SatAnswer::Sat) << printTerm(F);
}

INSTANTIATE_TEST_SUITE_P(Random, SmtDifferentialTest, ::testing::Range(0, 120));

class SolverBackendTest : public ::testing::TestWithParam<int> {};

TEST_P(SolverBackendTest, MiniAgreesWithZ3) {
  if (!solver::hasZ3())
    GTEST_SKIP() << "Z3 backend not built";
  TermContext C;
  Rng R(static_cast<uint64_t>(GetParam()) * 31337 + 5);
  testutil::FormulaGen Gen(C, R);
  const Term *F = Gen.randomFormula(4);
  // The cross-check backend aborts on disagreement.
  auto S = solver::createSolver(solver::SolverKind::CrossCheck, C);
  solver::CheckResult Res = S->checkSat(F);
  EXPECT_NE(Res.TheAnswer, solver::Answer::Unknown) << printTerm(F);
}

INSTANTIATE_TEST_SUITE_P(Random, SolverBackendTest, ::testing::Range(0, 150));

} // namespace
