//===- tests/LogicTest.cpp - Term DAG, substitution, evaluation ------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "logic/Linear.h"
#include "logic/Printer.h"
#include "logic/Simplify.h"
#include "logic/Term.h"
#include "logic/TermOps.h"

#include <gtest/gtest.h>

using namespace expresso;
using namespace expresso::logic;

namespace {

class LogicTest : public ::testing::Test {
protected:
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  const Term *Y = C.var("y", Sort::Int);
  const Term *Z = C.var("z", Sort::Int);
  const Term *P = C.var("p", Sort::Bool);
  const Term *Q = C.var("q", Sort::Bool);
};

//===----------------------------------------------------------------------===//
// Hash-consing and smart constructors
//===----------------------------------------------------------------------===//

TEST_F(LogicTest, HashConsingIdentity) {
  EXPECT_EQ(C.add(X, Y), C.add(Y, X)); // commutative sort order
  EXPECT_EQ(C.intConst(5), C.intConst(5));
  EXPECT_EQ(C.and_(P, Q), C.and_(Q, P));
  EXPECT_NE(C.add(X, Y), C.add(X, Z));
}

TEST_F(LogicTest, ConstantFolding) {
  EXPECT_EQ(C.add(C.intConst(2), C.intConst(3)), C.intConst(5));
  EXPECT_EQ(C.mulConst(4, C.intConst(5)), C.intConst(20));
  EXPECT_EQ(C.le(C.intConst(1), C.intConst(2)), C.getTrue());
  EXPECT_EQ(C.lt(C.intConst(2), C.intConst(2)), C.getFalse());
  EXPECT_EQ(C.eq(C.intConst(7), C.intConst(7)), C.getTrue());
}

TEST_F(LogicTest, AddFlattensAndFoldsConstants) {
  const Term *T = C.add({X, C.add(Y, C.intConst(2)), C.intConst(3)});
  ASSERT_EQ(T->kind(), TermKind::Add);
  EXPECT_EQ(T, C.add({X, Y, C.intConst(5)}));
}

TEST_F(LogicTest, MulDistributesAndCollapses) {
  EXPECT_EQ(C.mulConst(2, C.add(X, Y)), C.add(C.mulConst(2, X), C.mulConst(2, Y)));
  EXPECT_EQ(C.mulConst(2, C.mulConst(3, X)), C.mulConst(6, X));
  EXPECT_EQ(C.mulConst(1, X), X);
  EXPECT_EQ(C.mulConst(0, X), C.getZero());
}

TEST_F(LogicTest, BoolIdentities) {
  EXPECT_EQ(C.not_(C.not_(P)), P);
  EXPECT_EQ(C.and_(P, C.getTrue()), P);
  EXPECT_EQ(C.and_(P, C.getFalse()), C.getFalse());
  EXPECT_EQ(C.or_(P, C.getFalse()), P);
  EXPECT_EQ(C.or_(P, C.getTrue()), C.getTrue());
  EXPECT_EQ(C.and_(P, C.not_(P)), C.getFalse());
  EXPECT_EQ(C.or_(P, C.not_(P)), C.getTrue());
  EXPECT_EQ(C.and_(P, P), P);
}

TEST_F(LogicTest, IteSimplifications) {
  EXPECT_EQ(C.ite(C.getTrue(), X, Y), X);
  EXPECT_EQ(C.ite(C.getFalse(), X, Y), Y);
  EXPECT_EQ(C.ite(P, X, X), X);
}

TEST_F(LogicTest, BoolEqualityWithConstant) {
  EXPECT_EQ(C.eq(P, C.getTrue()), P);
  EXPECT_EQ(C.eq(P, C.getFalse()), C.not_(P));
}

TEST_F(LogicTest, SelectOverStore) {
  const Term *A = C.var("a", Sort::IntArray);
  const Term *I = C.var("i", Sort::Int);
  const Term *J = C.var("j", Sort::Int);
  // Same index: read the stored value.
  EXPECT_EQ(C.select(C.store(A, I, X), I), X);
  // Distinct constant indices: skip the store.
  EXPECT_EQ(C.select(C.store(A, C.intConst(1), X), C.intConst(2)),
            C.select(A, C.intConst(2)));
  // Symbolic indices: ite.
  const Term *R = C.select(C.store(A, I, X), J);
  ASSERT_EQ(R->kind(), TermKind::Ite);
}

TEST_F(LogicTest, StoreOverStoreSameIndex) {
  const Term *A = C.var("a", Sort::IntArray);
  const Term *I = C.var("i", Sort::Int);
  EXPECT_EQ(C.store(C.store(A, I, X), I, Y), C.store(A, I, Y));
}

TEST_F(LogicTest, DividesFolding) {
  EXPECT_EQ(C.divides(1, X), C.getTrue());
  EXPECT_EQ(C.divides(3, C.intConst(9)), C.getTrue());
  EXPECT_EQ(C.divides(3, C.intConst(10)), C.getFalse());
}

//===----------------------------------------------------------------------===//
// Free variables and substitution
//===----------------------------------------------------------------------===//

TEST_F(LogicTest, FreeVarsDeterministic) {
  const Term *T = C.and_(C.le(X, Y), C.or_(P, C.eq(Z, C.intConst(0))));
  auto Vars = freeVars(T);
  ASSERT_EQ(Vars.size(), 4u);
  EXPECT_EQ(Vars[0], X);
  EXPECT_EQ(Vars[1], Y);
  EXPECT_EQ(Vars[2], Z);
  EXPECT_EQ(Vars[3], P);
}

TEST_F(LogicTest, SubstituteParallel) {
  // Parallel substitution x:=y, y:=x swaps, it does not chain.
  const Term *T = C.le(X, Y);
  Substitution S{{X, Y}, {Y, X}};
  EXPECT_EQ(substitute(C, T, S), C.le(Y, X));
}

TEST_F(LogicTest, SubstituteIntoArray) {
  const Term *A = C.var("a", Sort::BoolArray);
  const Term *I = C.var("i", Sort::Int);
  const Term *T = C.select(A, I);
  EXPECT_EQ(substitute(C, T, I, C.intConst(3)), C.select(A, C.intConst(3)));
}

TEST_F(LogicTest, OccursCheck) {
  const Term *T = C.add(X, C.mulConst(2, Y));
  EXPECT_TRUE(occurs(T, X));
  EXPECT_TRUE(occurs(T, Y));
  EXPECT_FALSE(occurs(T, Z));
}

//===----------------------------------------------------------------------===//
// Evaluation
//===----------------------------------------------------------------------===//

TEST_F(LogicTest, EvaluateArithmetic) {
  Assignment Asg{{"x", Value::ofInt(3)}, {"y", Value::ofInt(4)}};
  EXPECT_EQ(evaluate(C.add(X, C.mulConst(2, Y)), Asg).asInt(), 11);
  EXPECT_TRUE(evaluateBool(C.lt(X, Y), Asg));
  EXPECT_FALSE(evaluateBool(C.eq(X, Y), Asg));
}

TEST_F(LogicTest, EvaluateDividesOnNegatives) {
  Assignment Asg{{"x", Value::ofInt(-4)}};
  EXPECT_TRUE(evaluateBool(C.divides(2, X), Asg));
  EXPECT_FALSE(evaluateBool(C.divides(3, X), Asg));
}

TEST_F(LogicTest, EvaluateArray) {
  Assignment Asg{
      {"a", Value::ofArray(Sort::IntArray, {{0, 10}, {1, 20}})},
      {"i", Value::ofInt(1)},
  };
  const Term *A = C.var("a", Sort::IntArray);
  const Term *I = C.var("i", Sort::Int);
  EXPECT_EQ(evaluate(C.select(A, I), Asg).asInt(), 20);
  EXPECT_EQ(evaluate(C.select(C.store(A, I, C.intConst(99)), I), Asg).asInt(),
            99);
}

//===----------------------------------------------------------------------===//
// NNF
//===----------------------------------------------------------------------===//

TEST_F(LogicTest, NNFEliminatesArithmeticNegation) {
  // not (x <= y)  =>  y + 1 <= x
  EXPECT_EQ(toNNF(C, C.not_(C.le(X, Y))), C.le(C.add(Y, C.getOne()), X));
  // not (x < y)  =>  y <= x
  EXPECT_EQ(toNNF(C, C.not_(C.lt(X, Y))), C.le(Y, X));
}

TEST_F(LogicTest, NNFSplitsIntDisequality) {
  const Term *N = toNNF(C, C.not_(C.eq(X, Y)));
  ASSERT_EQ(N->kind(), TermKind::Or);
  EXPECT_EQ(N->numOperands(), 2u);
}

TEST_F(LogicTest, NNFDeMorgan) {
  const Term *N = toNNF(C, C.not_(C.and_(P, Q)));
  EXPECT_EQ(N, C.or_(C.not_(P), C.not_(Q)));
}

//===----------------------------------------------------------------------===//
// Linearization
//===----------------------------------------------------------------------===//

TEST_F(LogicTest, LinearizeCollectsCoefficients) {
  auto L = linearize(C.add({X, X, C.mulConst(3, Y), C.intConst(7)}));
  ASSERT_TRUE(L.has_value());
  EXPECT_EQ(L->coeff(X), 2);
  EXPECT_EQ(L->coeff(Y), 3);
  EXPECT_EQ(L->Constant, 7);
}

TEST_F(LogicTest, LinearizeCancellation) {
  auto L = linearize(C.sub(C.add(X, Y), C.add(X, Y)));
  ASSERT_TRUE(L.has_value());
  EXPECT_TRUE(L->isConstant());
  EXPECT_EQ(L->Constant, 0);
}

TEST_F(LogicTest, NormalizeAtomTightens) {
  // 2x <= 5  =>  x <= 2 (integer tightening).
  auto A = normalizeLinAtom(C.le(C.mulConst(2, X), C.intConst(5)));
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Kind, LinAtomKind::Le);
  EXPECT_EQ(A->L.coeff(X), 1);
  EXPECT_EQ(A->L.Constant, -2);
}

TEST_F(LogicTest, NormalizeEqInfeasibleGcd) {
  // 2x == 5 has no integer solutions: canonicalizes to false (1 <= 0).
  auto A = normalizeLinAtom(C.eq(C.mulConst(2, X), C.intConst(5)));
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Kind, LinAtomKind::Le);
  EXPECT_TRUE(A->L.isConstant());
  EXPECT_GT(A->L.Constant, 0);
}

TEST_F(LogicTest, NormalizeDvdDividesOutGcdAndScalesLeadToOne) {
  // 36 | 8x + 28  ≡  9 | 2x + 7  ≡  9 | x + 8 (times 5, the inverse of 2
  // mod 9)  ≡  9 | 8x + 1 (the same atom after scaling by 8).
  const Term *Forms[] = {
      C.divides(36, C.add(C.mulConst(8, X), C.intConst(28))),
      C.divides(9, C.add(X, C.intConst(8))),
      C.divides(9, C.add(C.mulConst(8, X), C.getOne()))};
  for (const Term *F : Forms) {
    SCOPED_TRACE(F->str());
    auto A = normalizeLinAtom(F);
    ASSERT_TRUE(A.has_value());
    EXPECT_EQ(A->Kind, LinAtomKind::Dvd);
    EXPECT_EQ(A->Divisor, 9);
    EXPECT_EQ(A->L.coeff(X), 1);
    EXPECT_EQ(A->L.Coeffs.size(), 1u);
    EXPECT_EQ(A->L.Constant, 8);
    EXPECT_EQ(simplify(C, F), simplify(C, Forms[1]));
  }
  // The disjunction the three spell collapses to one atom.
  EXPECT_EQ(simplify(C, C.or_({Forms[0], Forms[2]})), simplify(C, Forms[1]));
}

TEST_F(LogicTest, NormalizeDvdGcdNotDividingConstant) {
  // 4 | 2x + 1 never holds (2x + 1 is odd), and its negation always does.
  const Term *Odd = C.divides(4, C.add(C.mulConst(2, X), C.getOne()));
  auto A = normalizeLinAtom(Odd);
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Kind, LinAtomKind::Le);
  EXPECT_TRUE(A->L.isConstant());
  EXPECT_GT(A->L.Constant, 0);
  auto N = normalizeLinAtom(C.not_(Odd));
  ASSERT_TRUE(N.has_value());
  EXPECT_EQ(N->Kind, LinAtomKind::Le);
  EXPECT_TRUE(N->L.isConstant());
  EXPECT_LE(N->L.Constant, 0);
  EXPECT_EQ(simplify(C, Odd), C.getFalse());
  EXPECT_EQ(simplify(C, C.not_(Odd)), C.getTrue());
}

TEST_F(LogicTest, NormalizeDvdKeepsANonUnitLead) {
  // gcd(6, 2, 3) = 1 and 2 is no unit mod 6: only the reduction applies.
  auto A = normalizeLinAtom(
      C.divides(6, C.add({C.mulConst(8, X), C.mulConst(3, Y), C.intConst(7)})));
  ASSERT_TRUE(A.has_value());
  EXPECT_EQ(A->Kind, LinAtomKind::Dvd);
  EXPECT_EQ(A->Divisor, 6);
  EXPECT_EQ(A->L.coeff(X), 2);
  EXPECT_EQ(A->L.coeff(Y), 3);
  EXPECT_EQ(A->L.Constant, 1);
}

TEST_F(LogicTest, NormalizeDvdPreservesMeaning) {
  // Exhaustively over small divisors, coefficients, constants and values:
  // the normal form holds exactly where the atom (or its negation) does.
  for (int64_t D = 1; D <= 12; ++D)
    for (int64_t A = -13; A <= 13; ++A)
      for (int64_t K = -13; K <= 13; ++K) {
        const Term *Atom =
            C.divides(D, C.add(C.mulConst(A, X), C.intConst(K)));
        for (const Term *F : {Atom, C.not_(Atom)}) {
          auto N = normalizeLinAtom(F);
          if (!N)
            continue; // folded to a constant by the smart constructor
          const Term *Normal = N->toTerm(C);
          for (int64_t V = -20; V <= 20; ++V) {
            Assignment Asg{{"x", Value::ofInt(V)}};
            ASSERT_EQ(evaluateBool(F, Asg), evaluateBool(Normal, Asg))
                << F->str() << " vs " << Normal->str() << " at x = " << V;
          }
        }
      }
}

//===----------------------------------------------------------------------===//
// Simplifier
//===----------------------------------------------------------------------===//

TEST_F(LogicTest, SimplifyTrivialComparison) {
  // x + 1 <= x + 3 is always true.
  EXPECT_EQ(simplify(C, C.le(C.add(X, C.getOne()), C.add(X, C.intConst(3)))),
            C.getTrue());
  // x + 3 <= x is always false.
  EXPECT_EQ(simplify(C, C.le(C.add(X, C.intConst(3)), X)), C.getFalse());
}

TEST_F(LogicTest, SimplifyConjunctionKeepsTightestBound) {
  // x <= 3 and x <= 5  =>  x <= 3
  const Term *T =
      simplify(C, C.and_(C.le(X, C.intConst(3)), C.le(X, C.intConst(5))));
  EXPECT_EQ(T, simplify(C, C.le(X, C.intConst(3))));
}

TEST_F(LogicTest, SimplifyConjunctionContradiction) {
  // x <= 1 and x >= 3  =>  false
  const Term *T =
      simplify(C, C.and_(C.le(X, C.getOne()), C.ge(X, C.intConst(3))));
  EXPECT_EQ(T, C.getFalse());
}

TEST_F(LogicTest, SimplifyBoundPairToEquality) {
  // x <= 3 and x >= 3  =>  x == 3
  const Term *T =
      simplify(C, C.and_(C.le(X, C.intConst(3)), C.ge(X, C.intConst(3))));
  EXPECT_EQ(T, simplify(C, C.eq(X, C.intConst(3))));
}

TEST_F(LogicTest, SimplifyDisjunctionTautology) {
  // x <= 4 or x >= 2  =>  true
  const Term *T =
      simplify(C, C.or_(C.le(X, C.intConst(4)), C.ge(X, C.intConst(2))));
  EXPECT_EQ(T, C.getTrue());
}

TEST_F(LogicTest, SimplifyDisjunctionKeepsWeakestBound) {
  // x <= 3 or x <= 5  =>  x <= 5
  const Term *T =
      simplify(C, C.or_(C.le(X, C.intConst(3)), C.le(X, C.intConst(5))));
  EXPECT_EQ(T, simplify(C, C.le(X, C.intConst(5))));
}

TEST_F(LogicTest, SimplifyAbsorption) {
  // p and (p or q)  =>  p
  EXPECT_EQ(simplify(C, C.and_(P, C.or_(P, Q))), P);
  // p or (p and q)  =>  p
  EXPECT_EQ(simplify(C, C.or_(P, C.and_(P, Q))), P);
}

TEST_F(LogicTest, SimplifyEqConflict) {
  const Term *T = simplify(
      C, C.and_(C.eq(X, C.intConst(1)), C.eq(X, C.intConst(2))));
  EXPECT_EQ(T, C.getFalse());
}

TEST_F(LogicTest, SimplifyEqLeInteraction) {
  // x == 3 and x <= 1 => false; x == 3 and x <= 5 => x == 3.
  EXPECT_EQ(simplify(C, C.and_(C.eq(X, C.intConst(3)), C.le(X, C.getOne()))),
            C.getFalse());
  EXPECT_EQ(simplify(C, C.and_(C.eq(X, C.intConst(3)), C.le(X, C.intConst(5)))),
            simplify(C, C.eq(X, C.intConst(3))));
}

TEST_F(LogicTest, SimplifyMemoInternsNothing) {
  const Term *T = C.and_({C.le(X, C.intConst(3)), C.ge(X, C.intConst(3)),
                          C.or_(P, C.and_(P, Q)),
                          C.le(C.add(Y, C.getOne()), C.add(Y, C.intConst(2)))});
  const Term *R = simplify(C, T);
  ASSERT_NE(R, T);
  // A repeat returns the same pointer and interns no term, so the id
  // sequence stays where a recomputation would have left it.
  size_t Terms = C.numTerms();
  EXPECT_EQ(simplify(C, T), R);
  EXPECT_EQ(C.numTerms(), Terms);
  // A converged result is its own simplified form.
  EXPECT_EQ(simplify(C, R), R);
  EXPECT_EQ(C.numTerms(), Terms);
}

//===----------------------------------------------------------------------===//
// Printing
//===----------------------------------------------------------------------===//

TEST_F(LogicTest, PrettyPrinting) {
  // Commutative operands order by creation id: P was interned before the
  // x <= y atom.
  EXPECT_EQ(printTerm(C.and_(C.le(X, Y), P)), "p && x <= y");
  EXPECT_EQ(printTerm(C.not_(P)), "!p");
  EXPECT_EQ(printTerm(C.add(X, C.mulConst(2, Y))), "x + 2 * y");
}

TEST_F(LogicTest, SmtLibPrinting) {
  EXPECT_EQ(printSmtLib(C.le(X, C.intConst(-1))), "(<= x (- 1))");
  EXPECT_EQ(printSmtLib(C.and_(P, Q)), "(and p q)");
}

//===----------------------------------------------------------------------===//
// Property sweep: simplify preserves semantics on random assignments
//===----------------------------------------------------------------------===//

class SimplifySemanticsTest : public ::testing::TestWithParam<int> {};

TEST_P(SimplifySemanticsTest, SimplifyPreservesTruth) {
  TermContext C;
  const Term *X = C.var("x", Sort::Int);
  const Term *Y = C.var("y", Sort::Int);
  const Term *P = C.var("p", Sort::Bool);
  int Seed = GetParam();

  // A small pool of formulas exercising all simplifier paths.
  std::vector<const Term *> Pool = {
      C.and_(C.le(X, C.intConst(3)), C.le(C.intConst(0), X)),
      C.or_(C.lt(X, Y), C.eq(X, Y)),
      C.and_({C.ge(X, C.getZero()), C.not_(C.eq(X, C.intConst(5))), P}),
      C.implies(C.divides(2, X), C.divides(2, C.mulConst(3, X))),
      C.iff(P, C.le(C.add(X, Y), C.intConst(10))),
      C.or_(C.and_(P, C.le(X, Y)), C.and_(C.not_(P), C.lt(Y, X))),
  };
  const Term *F = Pool[static_cast<size_t>(Seed) % Pool.size()];
  const Term *S = simplify(C, F);

  for (int64_t XV = -3; XV <= 3; ++XV) {
    for (int64_t YV = -3; YV <= 3; ++YV) {
      for (int PV = 0; PV <= 1; ++PV) {
        Assignment Asg{{"x", Value::ofInt(XV)},
                       {"y", Value::ofInt(YV)},
                       {"p", Value::ofBool(PV != 0)}};
        EXPECT_EQ(evaluateBool(F, Asg), evaluateBool(S, Asg))
            << "formula: " << F->str() << "\nsimplified: " << S->str()
            << "\nx=" << XV << " y=" << YV << " p=" << PV;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllFormulas, SimplifySemanticsTest,
                         ::testing::Range(0, 6));

} // namespace
