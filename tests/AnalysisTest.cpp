//===- tests/AnalysisTest.cpp - WP, Hoare, commutativity, abduction ----------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "analysis/Abduction.h"
#include "analysis/Commute.h"
#include "analysis/Hoare.h"
#include "analysis/Invariants.h"
#include "bench/Workloads.h"

#include "frontend/Interp.h"
#include "frontend/Parser.h"
#include "logic/Printer.h"
#include "logic/Simplify.h"
#include "obs/Trace.h"
#include "qe/Cooper.h"
#include "solver/CachingSolver.h"
#include "specgen/SpecGen.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

using namespace expresso;
using namespace expresso::frontend;
using namespace expresso::analysis;
using logic::Term;

namespace {

/// Shared fixture: parses a monitor and wires sema + solver + checker.
class AnalysisFixture {
public:
  explicit AnalysisFixture(const char *Source) {
    DiagnosticEngine Diags;
    M = parseMonitor(Source, Diags);
    if (!M) {
      ADD_FAILURE() << "parse failed: " << Diags.str();
      return;
    }
    Sema = analyze(*M, C, Diags);
    if (!Sema) {
      ADD_FAILURE() << "sema failed: " << Diags.str();
      return;
    }
    Solver = solver::createSolver(solver::SolverKind::Default, C);
    Checker = std::make_unique<HoareChecker>(C, *Sema, *Solver);
  }

  logic::TermContext C;
  std::unique_ptr<Monitor> M;
  std::unique_ptr<SemaInfo> Sema;
  std::unique_ptr<solver::SmtSolver> Solver;
  std::unique_ptr<HoareChecker> Checker;
};

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

//===----------------------------------------------------------------------===//
// Weakest preconditions
//===----------------------------------------------------------------------===//

TEST(WpTest, AssignmentSubstitutes) {
  AnalysisFixture F(RWSource);
  const Term *Readers = F.C.var("readers", logic::Sort::Int);
  const CcrInfo &EnterReader = F.Sema->Ccrs[0];
  // wp(readers++, readers >= 1) == readers + 1 >= 1 == readers >= 0.
  const Term *Q = F.C.ge(Readers, F.C.getOne());
  const Term *W = F.Checker->wpEngine().wp(EnterReader.W->Body,
                                           EnterReader.Parent, Q);
  EXPECT_EQ(logic::simplify(F.C, W),
            logic::simplify(F.C, F.C.ge(Readers, F.C.getZero())));
}

TEST(WpTest, IfSplitsOnCondition) {
  AnalysisFixture F(RWSource);
  const Term *Readers = F.C.var("readers", logic::Sort::Int);
  const CcrInfo &ExitReader = F.Sema->Ccrs[1];
  // wp(if(readers>0) readers--, readers >= 0) is valid under readers >= 0.
  const Term *Q = F.C.ge(Readers, F.C.getZero());
  const Term *W =
      F.Checker->wpEngine().wp(ExitReader.W->Body, ExitReader.Parent, Q);
  EXPECT_TRUE(F.Solver->isValid(F.C.implies(Q, W)));
  // But not under true: readers could be negative... actually if guard
  // readers>0 fails, readers stays; wp should NOT be valid from true.
  EXPECT_FALSE(F.Solver->isValid(W));
}

TEST(WpTest, StoreThroughArray) {
  AnalysisFixture F(R"(
    monitor T {
      bool[] forks;
      void grab(int i) { waituntil (!forks[i]) { forks[i] = true; } }
    }
  )");
  const CcrInfo &Grab = F.Sema->Ccrs[0];
  // wp(forks[i] = true, forks[i]) == true.
  const Term *ForkI = Grab.Guard; // !forks[i]
  const Term *Q = F.C.not_(ForkI); // forks[i]
  const Term *W = F.Checker->wpEngine().wp(Grab.W->Body, Grab.Parent, Q);
  EXPECT_EQ(logic::simplify(F.C, W), F.C.getTrue());
}

TEST(WpTest, WhileOverApproximates) {
  AnalysisFixture F(R"(
    monitor T {
      int x = 0;
      int y = 0;
      void drain() {
        while (x > 0) { x--; }
        y = 1;
      }
    }
  )");
  const CcrInfo &Drain = F.Sema->Ccrs[0];
  const Term *X = F.C.var("x", logic::Sort::Int);
  // After the loop x <= 0 is guaranteed (havoc+assume captures the exit
  // condition), so {true} drain {x <= 0} must be provable...
  HoareTriple T1;
  T1.Pre = F.C.getTrue();
  T1.Body = Drain.W->Body;
  T1.InMethod = Drain.Parent;
  T1.Post = F.C.le(X, F.C.getZero());
  EXPECT_TRUE(F.Checker->proves(T1));
  // ...but {x == 5} drain {x == 0}, though true concretely, is lost by the
  // over-approximation (havoc forgets the exact count) — the conservative
  // direction the paper's §9 accepts.
  HoareTriple T2 = T1;
  T2.Pre = F.C.eq(X, F.C.intConst(5));
  T2.Post = F.C.eq(X, F.C.getZero());
  EXPECT_FALSE(F.Checker->proves(T2));
}

/// Differential: wp agrees with concrete execution on loop-free bodies.
class WpConcreteTest : public ::testing::TestWithParam<int> {};

TEST_P(WpConcreteTest, WpMatchesExecution) {
  AnalysisFixture F(RWSource);
  Rng R(static_cast<uint64_t>(GetParam()) * 2654435761u + 17);
  // Post-condition pool over shared vars.
  const Term *Readers = F.C.var("readers", logic::Sort::Int);
  const Term *WriterIn = F.C.var("writerIn", logic::Sort::Bool);
  std::vector<const Term *> Posts = {
      F.C.ge(Readers, F.C.getZero()),
      F.C.eq(Readers, F.C.intConst(1)),
      F.C.and_(F.C.not_(WriterIn), F.C.le(Readers, F.C.intConst(2))),
      F.C.or_(WriterIn, F.C.ne(Readers, F.C.getZero())),
  };
  for (const CcrInfo &Ccr : F.Sema->Ccrs) {
    const Term *Q = Posts[R.below(Posts.size())];
    const Term *W = F.Checker->wpEngine().wp(Ccr.W->Body, Ccr.Parent, Q);
    // Concrete check on a grid of states: wp true => post true after exec.
    for (int64_t RV = -2; RV <= 3; ++RV) {
      for (int WV = 0; WV <= 1; ++WV) {
        logic::Assignment Shared{{"readers", logic::Value::ofInt(RV)},
                                 {"writerIn", logic::Value::ofBool(WV != 0)}};
        bool WpHolds = logic::evaluateBool(W, Shared);
        logic::Assignment Locals;
        Env E{&Shared, &Locals};
        execStmt(Ccr.W->Body, E);
        bool PostHolds = logic::evaluateBool(Q, Shared);
        if (WpHolds)
          EXPECT_TRUE(PostHolds)
              << "wp unsound for ccr#" << Ccr.W->Id << " post "
              << logic::printTerm(Q) << " at readers=" << RV << " w=" << WV;
        // For loop-free deterministic bodies wp is exact:
        if (PostHolds)
          EXPECT_TRUE(WpHolds)
              << "wp imprecise for ccr#" << Ccr.W->Id << " post "
              << logic::printTerm(Q) << " at readers=" << RV << " w=" << WV;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, WpConcreteTest, ::testing::Range(0, 20));

//===----------------------------------------------------------------------===//
// Hoare triples from the Section 2 walkthrough
//===----------------------------------------------------------------------===//

TEST(HoareTest, Section2Triples) {
  AnalysisFixture F(RWSource);
  logic::TermContext &C = F.C;
  const Term *Readers = C.var("readers", logic::Sort::Int);
  const Term *WriterIn = C.var("writerIn", logic::Sort::Bool);
  const Term *I = C.ge(Readers, C.getZero());
  const Term *Pw = C.and_(C.eq(Readers, C.getZero()), C.not_(WriterIn));

  const CcrInfo &EnterReader = F.Sema->Ccrs[0];
  const CcrInfo &ExitReader = F.Sema->Ccrs[1];
  const CcrInfo &EnterWriter = F.Sema->Ccrs[2];
  const CcrInfo &ExitWriter = F.Sema->Ccrs[3];

  // {readers>=0 ∧ ¬writerIn ∧ ¬Pw} readers++ {¬Pw} : valid.
  HoareTriple T1{C.and_({I, C.not_(WriterIn), C.not_(Pw)}),
                 EnterReader.W->Body, EnterReader.Parent, C.not_(Pw),
                 nullptr};
  EXPECT_TRUE(F.Checker->proves(T1));

  // Dropping readers>=0 invalidates it (the paper's key observation).
  HoareTriple T1Weak = T1;
  T1Weak.Pre = C.and_(C.not_(WriterIn), C.not_(Pw));
  EXPECT_EQ(F.Checker->check(T1Weak), solver::Validity::Invalid);

  // {readers>=0 ∧ ¬Pw} if(readers>0) readers-- {¬Pw} : NOT valid.
  HoareTriple T2{C.and_(I, C.not_(Pw)), ExitReader.W->Body,
                 ExitReader.Parent, C.not_(Pw), nullptr};
  EXPECT_EQ(F.Checker->check(T2), solver::Validity::Invalid);

  // {readers>=0 ∧ Pw} writerIn = true {¬Pw} : valid (single signal).
  HoareTriple T3{C.and_(I, Pw), EnterWriter.W->Body, EnterWriter.Parent,
                 C.not_(Pw), nullptr};
  EXPECT_TRUE(F.Checker->proves(T3));

  // {readers>=0 ∧ ¬Pw} if(readers>0) readers-- {Pw} : NOT valid
  // (conditional signal).
  HoareTriple T4 = T2;
  T4.Post = Pw;
  EXPECT_EQ(F.Checker->check(T4), solver::Validity::Invalid);

  // {readers>=0 ∧ writerIn} writerIn = false {¬writerIn} : valid
  // (unconditional broadcast to readers in exitWriter).
  HoareTriple T5{C.and_(I, WriterIn), ExitWriter.W->Body, ExitWriter.Parent,
                 C.not_(WriterIn), nullptr};
  EXPECT_TRUE(F.Checker->proves(T5));
}

//===----------------------------------------------------------------------===//
// Commutativity (§4.3)
//===----------------------------------------------------------------------===//

TEST(CommuteTest, IncrementsCommute) {
  AnalysisFixture F(R"(
    monitor T {
      int a = 0;
      void inc1() { a = a + 1; }
      void inc2() { a = a + 2; }
    }
  )");
  EXPECT_TRUE(bodiesCommute(F.C, *F.Sema, *F.Solver, F.Sema->Ccrs[0],
                            F.Sema->Ccrs[1]));
}

TEST(CommuteTest, GuardedDecrementDoesNotCommute) {
  AnalysisFixture F(RWSource);
  // enterReader (readers++) vs exitReader (if(readers>0) readers--):
  // from readers==0 the two orders end at 0 vs 1.
  EXPECT_FALSE(bodiesCommute(F.C, *F.Sema, *F.Solver, F.Sema->Ccrs[0],
                             F.Sema->Ccrs[1]));
}

TEST(CommuteTest, AssignmentsToDistinctVarsCommute) {
  AnalysisFixture F(R"(
    monitor T {
      int a = 0;
      int b = 0;
      void setA() { a = b + 1; }
      void incB() { b = b + 1; }
    }
  )");
  // a = b+1 reads b which incB writes: NOT commuting.
  EXPECT_FALSE(bodiesCommute(F.C, *F.Sema, *F.Solver, F.Sema->Ccrs[0],
                             F.Sema->Ccrs[1]));
  // But setA commutes with itself executed by another thread.
  EXPECT_TRUE(bodiesCommute(F.C, *F.Sema, *F.Solver, F.Sema->Ccrs[0],
                            F.Sema->Ccrs[0]));
}

TEST(CommuteTest, SameMethodDifferentThreadsLocals) {
  // put(n) bodies commute (count += n1 then += n2, either order).
  AnalysisFixture F(R"(
    monitor T {
      int count = 0;
      void put(int n) { count = count + n; }
    }
  )");
  EXPECT_TRUE(bodiesCommute(F.C, *F.Sema, *F.Solver, F.Sema->Ccrs[0],
                            F.Sema->Ccrs[0]));
}

TEST(CommuteTest, ArrayStoresAtSymbolicIndices) {
  AnalysisFixture F(R"(
    monitor T {
      int[] slot;
      void w1(int i) { slot[i] = 1; }
      void w2(int j) { slot[j] = 2; }
    }
  )");
  // Same cell, different values: order matters.
  EXPECT_FALSE(bodiesCommute(F.C, *F.Sema, *F.Solver, F.Sema->Ccrs[0],
                             F.Sema->Ccrs[1]));
}

TEST(CommuteTest, LoopsAreConservative) {
  AnalysisFixture F(R"(
    monitor T {
      int a = 0;
      void spin() { while (a > 0) { a--; } }
      void other() { a = 0; }
    }
  )");
  EXPECT_FALSE(bodiesCommute(F.C, *F.Sema, *F.Solver, F.Sema->Ccrs[0],
                             F.Sema->Ccrs[1]));
}

//===----------------------------------------------------------------------===//
// Abduction
//===----------------------------------------------------------------------===//

TEST(AbductionTest, FindsReadersNonNegative) {
  AnalysisFixture F(RWSource);
  logic::TermContext &C = F.C;
  const Term *Readers = C.var("readers", logic::Sort::Int);
  const Term *WriterIn = C.var("writerIn", logic::Sort::Bool);
  const Term *Pw = C.and_(C.eq(Readers, C.getZero()), C.not_(WriterIn));
  const Term *PwAfter = C.and_(C.eq(C.add(Readers, C.getOne()), C.getZero()),
                               C.not_(WriterIn));
  const Term *P = C.and_(C.not_(WriterIn), C.not_(Pw));
  const Term *Goal = C.not_(PwAfter);

  auto Candidates = abduce(C, *F.Solver, P, Goal, {Readers, WriterIn});
  ASSERT_FALSE(Candidates.empty());
  // Some candidate must be readers >= 0 (after canonicalization, the atom
  // 0 <= readers).
  const Term *Expected = logic::simplify(C, C.ge(Readers, C.getZero()));
  bool Found = false;
  for (const Term *Cand : Candidates)
    Found |= Cand == Expected;
  EXPECT_TRUE(Found) << "candidates missing readers >= 0";
  // Every candidate must satisfy the abduction contract when conjoined
  // sufficiently: at minimum, consistency with P.
  for (const Term *Cand : Candidates)
    EXPECT_TRUE(F.Solver->isSat(C.and_(P, Cand)))
        << logic::printTerm(Cand);
}

TEST(AbductionTest, ReturnsNothingWhenAlreadyValid) {
  AnalysisFixture F(RWSource);
  logic::TermContext &C = F.C;
  const Term *X = C.var("readers", logic::Sort::Int);
  auto Candidates = abduce(C, *F.Solver, C.ge(X, C.getOne()),
                           C.ge(X, C.getZero()), {X});
  EXPECT_TRUE(Candidates.empty());
}

/// Records every formula it is asked about. Answers Unknown for the first
/// \p UnknownFirst of them and forwards the rest to \p Inner.
class RecordingSolver : public solver::SmtSolver {
public:
  RecordingSolver(logic::TermContext &C, solver::SmtSolver &Inner,
                  size_t UnknownFirst = 0)
      : SmtSolver(C), Inner(Inner), UnknownFirst(UnknownFirst) {}

  solver::CheckResult checkSat(const Term *F) override {
    Asked.push_back(F);
    if (Asked.size() <= UnknownFirst)
      return solver::CheckResult();
    return Inner.checkSat(F);
  }
  std::string name() const override { return "recording-" + Inner.name(); }

  std::vector<const Term *> Asked;

private:
  solver::SmtSolver &Inner;
  size_t UnknownFirst;
};

/// The disjunction conjoined into a consistency query P ∧ ψ, or null.
const Term *disjunctionIn(const Term *Query) {
  for (const Term *Op : Query->operands())
    if (Op->kind() == logic::TermKind::Or)
      return Op;
  return nullptr;
}

/// P = x >= 5 ∧ y >= 5 and Goal = x + y <= 3 over the full abducible set
/// {x, y}: the one ψ is x + y <= 3 ∨ ¬(5 <= y ∧ 5 <= x), inconsistent
/// with P.
struct InconsistentDisjunction {
  logic::TermContext C;
  const Term *X = C.var("x", logic::Sort::Int);
  const Term *Y = C.var("y", logic::Sort::Int);
  const Term *P =
      C.and_(C.ge(X, C.intConst(5)), C.ge(Y, C.intConst(5)));
  const Term *Goal = C.le(C.add(X, Y), C.intConst(3));
  std::unique_ptr<solver::SmtSolver> Inner =
      solver::createSolver(solver::SolverKind::Default, C);

  std::vector<const Term *> abduceWith(solver::SmtSolver &Solver) {
    AbductionConfig Cfg;
    Cfg.MaxSubsetSize = 0; // only the full set
    return abduce(C, Solver, P, Goal, {X, Y}, Cfg);
  }
};

TEST(AbductionTest, UnsatDisjunctionSkipsItsDisjuncts) {
  InconsistentDisjunction D;
  RecordingSolver Rec(D.C, *D.Inner);
  EXPECT_TRUE(D.abduceWith(Rec).empty());
  ASSERT_EQ(Rec.Asked.size(), 1u);
  const Term *Psi = disjunctionIn(Rec.Asked[0]);
  ASSERT_NE(Psi, nullptr) << logic::printTerm(Rec.Asked[0]);
  EXPECT_EQ(Psi->numOperands(), 2u) << logic::printTerm(Psi);
}

TEST(AbductionTest, UnknownDisjunctionStillQueriesEachDisjunct) {
  InconsistentDisjunction D;
  RecordingSolver Rec(D.C, *D.Inner, /*UnknownFirst=*/1);
  EXPECT_TRUE(D.abduceWith(Rec).empty());
  ASSERT_FALSE(Rec.Asked.empty());
  const Term *Psi = disjunctionIn(Rec.Asked[0]);
  ASSERT_NE(Psi, nullptr) << logic::printTerm(Rec.Asked[0]);
  ASSERT_EQ(Rec.Asked.size(), 1 + Psi->numOperands());
  for (size_t I = 0; I < Psi->numOperands(); ++I)
    EXPECT_EQ(Rec.Asked[1 + I],
              D.C.and_(D.P, logic::simplify(D.C, Psi->operand(I))));
}

/// The skip is for disjunctions only. P = true and Goal = z < x ∧ w < z ∧
/// x < w over the abducibles {x, z, w}: the one ψ is Goal itself, a
/// conjunction inconsistent with P whose every conjunct is consistent with
/// P, so each conjunct must still be queried and returned.
TEST(AbductionTest, UnsatConjunctionStillQueriesEachConjunct) {
  logic::TermContext C;
  const Term *X = C.var("x", logic::Sort::Int);
  const Term *Z = C.var("z", logic::Sort::Int);
  const Term *W = C.var("w", logic::Sort::Int);
  const Term *P = C.getTrue();
  const Term *Goal = C.and_({C.lt(Z, X), C.lt(W, Z), C.lt(X, W)});
  std::unique_ptr<solver::SmtSolver> Inner =
      solver::createSolver(solver::SolverKind::Default, C);

  // The ψ abduce computes for the full abducible set: nothing eliminated.
  auto PsiOpt =
      qe::eliminateForall(C, logic::simplify(C, C.implies(P, Goal)), {});
  ASSERT_TRUE(PsiOpt.has_value());
  const Term *Psi = logic::simplify(C, *PsiOpt);
  ASSERT_EQ(Psi->kind(), logic::TermKind::And) << logic::printTerm(Psi);
  ASSERT_FALSE(Inner->isSat(C.and_(P, Psi))) << logic::printTerm(Psi);

  RecordingSolver Rec(C, *Inner);
  AbductionConfig Cfg;
  Cfg.MaxSubsetSize = 0; // only the full set
  std::vector<const Term *> Got = abduce(C, Rec, P, Goal, {X, Z, W}, Cfg);
  ASSERT_EQ(Rec.Asked.size(), 1 + Psi->numOperands());
  EXPECT_EQ(Got.size(), Psi->numOperands());
  for (const Term *Conjunct : Psi->operands())
    EXPECT_NE(std::find(Got.begin(), Got.end(),
                        logic::simplify(C, Conjunct)),
              Got.end())
        << "missing " << logic::printTerm(Conjunct);
}

/// abduce's candidate generation (see Abduction.cpp) with one consistency
/// query per candidate and no skipping.
void referenceSubCandidates(logic::TermContext &C, const Term *Psi,
                            std::vector<const Term *> &Out) {
  auto Sides = [&](const Term *L) {
    if (L->kind() != logic::TermKind::Not ||
        L->operand(0)->kind() != logic::TermKind::Eq ||
        L->operand(0)->operand(0)->sort() != logic::Sort::Int)
      return;
    const Term *A = L->operand(0)->operand(0);
    const Term *B = L->operand(0)->operand(1);
    Out.push_back(C.lt(A, B));
    Out.push_back(C.lt(B, A));
  };
  Out.push_back(Psi);
  Sides(Psi);
  if (Psi->kind() == logic::TermKind::And ||
      Psi->kind() == logic::TermKind::Or)
    for (const Term *Op : Psi->operands()) {
      Out.push_back(Op);
      Sides(Op);
    }
}

std::vector<const Term *>
referenceAbduce(logic::TermContext &C, solver::SmtSolver &Solver,
                const Term *P, const Term *Goal,
                const std::vector<const Term *> &Abducibles) {
  const AbductionConfig Cfg;
  const Term *F = logic::simplify(C, C.implies(P, Goal));
  std::vector<const Term *> Result;
  if (F->isTrue())
    return Result;
  std::vector<const Term *> AllVars = logic::freeVars(F);
  std::vector<const Term *> Relevant;
  for (const Term *A : Abducibles)
    if (std::find(AllVars.begin(), AllVars.end(), A) != AllVars.end())
      Relevant.push_back(A);
  // Subsets of size 1 and 2 in abduce's order, then the full set.
  std::vector<std::vector<const Term *>> Subsets;
  for (size_t I = 0; I < Relevant.size(); ++I)
    Subsets.push_back({Relevant[I]});
  for (size_t I = 0; I < Relevant.size(); ++I)
    for (size_t J = I + 1; J < Relevant.size(); ++J)
      Subsets.push_back({Relevant[I], Relevant[J]});
  if (Relevant.size() > Cfg.MaxSubsetSize)
    Subsets.push_back(Relevant);

  std::set<const Term *> Seen;
  for (const auto &Keep : Subsets) {
    std::vector<const Term *> Elim;
    bool HasArray = false;
    for (const Term *V : AllVars) {
      if (std::find(Keep.begin(), Keep.end(), V) != Keep.end())
        continue;
      HasArray |= V->sort() == logic::Sort::IntArray ||
                  V->sort() == logic::Sort::BoolArray;
      Elim.push_back(V);
    }
    if (HasArray)
      continue;
    auto PsiOpt = qe::eliminateForall(C, F, Elim);
    if (!PsiOpt)
      continue;
    const Term *Psi = logic::simplify(C, *PsiOpt);
    if (Psi->isTrue() || Psi->isFalse())
      continue;
    std::vector<const Term *> Candidates;
    referenceSubCandidates(C, Psi, Candidates);
    for (const Term *RawCand : Candidates) {
      if (Result.size() >= Cfg.MaxCandidates)
        return Result;
      const Term *Cand = logic::simplify(C, RawCand);
      if (!Seen.insert(Cand).second || Cand->isBoolConst())
        continue;
      if (Solver.isSat(C.and_(P, Cand)))
        Result.push_back(Cand);
    }
  }
  return Result;
}

/// The two-CCR specs of every guard shape that the repository benchmark's
/// pinned analyze inputs draw from the same seeds, as (config, source).
std::vector<std::pair<std::string, std::string>> pinnedSpecgenMonitors() {
  const specgen::GuardShape Shapes[] = {
      specgen::GuardShape::Comparison, specgen::GuardShape::Arithmetic,
      specgen::GuardShape::Boolean, specgen::GuardShape::Mixed};
  std::vector<std::pair<std::string, std::string>> Out;
  for (unsigned S = 0; S < 4; ++S)
    for (unsigned K = 0; K < 6; ++K) {
      specgen::GenConfig Cfg;
      Cfg.Seed = 1 + S * 16 + K;
      Cfg.Ccrs = 2;
      Cfg.Shape = Shapes[S];
      Cfg.FanIn = 1;
      Cfg.normalize();
      Out.emplace_back(specgen::configToString(Cfg),
                       specgen::generateMonitorSource(Cfg));
    }
  return Out;
}

/// Over the Θ that inference abduces on (up to its query cap), abduce
/// returns exactly the per-candidate reference's candidates.
void expectAbductionMatchesReference(const std::string &Name,
                                     const std::string &Source) {
  SCOPED_TRACE(Name);
  DiagnosticEngine Diags;
  std::unique_ptr<Monitor> M = parseMonitor(Source, Diags);
  ASSERT_NE(M, nullptr) << Diags.str();
  logic::TermContext C;
  std::unique_ptr<SemaInfo> Sema = analyze(*M, C, Diags);
  ASSERT_NE(Sema, nullptr) << Diags.str();
  // One memo under both, so they see the same answers.
  solver::CachingSolver Solver(
      solver::createSolver(solver::SolverKind::Default, C));
  HoareChecker Chk(C, *Sema, Solver);
  const std::vector<const Term *> Vocab = abducibles(*Sema);
  size_t Queries = 0;
  for (const auto &[Pre, Goal] :
       abductionTriples(C, *Sema, Chk.wpEngine())) {
    if (Queries == InvariantConfig().MaxAbductionQueries)
      break;
    if (logic::simplify(C, C.implies(Pre, Goal))->isTrue())
      continue;
    ++Queries;
    EXPECT_EQ(abduce(C, Solver, Pre, Goal, Vocab),
              referenceAbduce(C, Solver, Pre, Goal, Vocab))
        << "pre: " << logic::printTerm(Pre)
        << "\ngoal: " << logic::printTerm(Goal);
  }
}

TEST(AbductionTest, MatchesPerCandidateReferenceOnPaperMonitors) {
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
    expectAbductionMatchesReference(Def.Name, Def.Source);
}

TEST(AbductionTest, MatchesPerCandidateReferenceOnSpecgenMonitors) {
  for (const auto &[Name, Source] : pinnedSpecgenMonitors())
    expectAbductionMatchesReference(Name, Source);
}

//===----------------------------------------------------------------------===//
// Invariant inference (Algorithm 2)
//===----------------------------------------------------------------------===//

TEST(InvariantTest, ReadersWritersInvariant) {
  AnalysisFixture F(RWSource);
  InvariantResult IR = inferMonitorInvariant(F.C, *F.Sema, *F.Solver);
  ASSERT_NE(IR.Invariant, nullptr);
  // The inferred invariant must be a true monitor invariant...
  EXPECT_TRUE(isMonitorInvariant(F.C, *F.Sema, *F.Solver, IR.Invariant));
  // ...and strong enough to imply readers >= 0.
  const Term *Readers = F.C.var("readers", logic::Sort::Int);
  EXPECT_TRUE(F.Solver->isValid(
      F.C.implies(IR.Invariant, F.C.ge(Readers, F.C.getZero()))))
      << "inferred: " << logic::printTerm(IR.Invariant);
}

TEST(InvariantTest, BoundedBufferInvariant) {
  AnalysisFixture F(R"(
    monitor BoundedBuffer {
      const int capacity;
      int count = 0;
      requires capacity > 0;
      void put()  { waituntil (count < capacity) { count++; } }
      void take() { waituntil (count > 0) { count--; } }
    }
  )");
  InvariantResult IR = inferMonitorInvariant(F.C, *F.Sema, *F.Solver);
  EXPECT_TRUE(isMonitorInvariant(F.C, *F.Sema, *F.Solver, IR.Invariant));
  const Term *Count = F.C.var("count", logic::Sort::Int);
  const Term *Capacity = F.C.var("capacity", logic::Sort::Int);
  // Paper's BoundedBuffer invariant (Appendix D): 0 <= count <= capacity.
  EXPECT_TRUE(F.Solver->isValid(F.C.implies(
      IR.Invariant, F.C.and_(F.C.ge(Count, F.C.getZero()),
                             F.C.le(Count, Capacity)))))
      << "inferred: " << logic::printTerm(IR.Invariant);
}

TEST(InvariantTest, TrueIsAlwaysAnInvariant) {
  AnalysisFixture F(RWSource);
  EXPECT_TRUE(isMonitorInvariant(F.C, *F.Sema, *F.Solver, F.C.getTrue()));
  // And a false one is rejected.
  const Term *Readers = F.C.var("readers", logic::Sort::Int);
  EXPECT_FALSE(isMonitorInvariant(F.C, *F.Sema, *F.Solver,
                                  F.C.le(Readers, F.C.intConst(-1))));
  // readers == 0 holds initially but is not preserved.
  EXPECT_FALSE(isMonitorInvariant(F.C, *F.Sema, *F.Solver,
                                  F.C.eq(Readers, F.C.getZero())));
}

/// Forwards every query to a backend and stamps it with a tracer's clock,
/// so a test can count the queries that ran inside a given span.
class StampingSolver : public solver::SmtSolver {
public:
  StampingSolver(logic::TermContext &C, solver::SmtSolver &Inner,
                 const obs::Tracer &Clock)
      : SmtSolver(C), Inner(Inner), Clock(Clock) {}

  solver::CheckResult checkSat(const Term *F) override {
    Stamps.push_back(Clock.nowNs());
    return Inner.checkSat(F);
  }
  std::string name() const override { return "stamping-" + Inner.name(); }

  /// Queries stamped within [StartNs, EndNs].
  size_t queriesIn(uint64_t StartNs, uint64_t EndNs) const {
    return static_cast<size_t>(
        std::count_if(Stamps.begin(), Stamps.end(), [&](uint64_t T) {
          return T >= StartNs && T <= EndNs;
        }));
  }

  std::vector<uint64_t> Stamps;

private:
  solver::SmtSolver &Inner;
  const obs::Tracer &Clock;
};

HoareTriple consecutionTriple(logic::TermContext &C, const Term *I,
                              const CcrInfo &W, const Term *Post) {
  HoareTriple T;
  T.Pre = C.and_(I, W.Guard);
  T.Body = W.W->Body;
  T.InMethod = W.Parent;
  T.Post = Post;
  return T;
}

/// Algorithm 2's Houdini phase as the paper states it: every round checks
/// each candidate against each CCR, one (ψ, CCR) triple at a time, until no
/// candidate drops.
std::vector<const Term *> referenceHoudini(logic::TermContext &C,
                                           const SemaInfo &Sema,
                                           solver::SmtSolver &Solver,
                                           std::vector<const Term *> Phi) {
  HoareChecker Chk(C, Sema, Solver);
  for (;;) {
    const Term *I = C.and_(Phi);
    std::vector<const Term *> Survivors;
    for (const Term *Psi : Phi) {
      bool Preserved = true;
      for (const CcrInfo &W : Sema.Ccrs)
        if (!Chk.proves(consecutionTriple(C, I, W, Psi))) {
          Preserved = false;
          break;
        }
      if (Preserved)
        Survivors.push_back(Psi);
    }
    if (Survivors.size() == Phi.size())
      return Phi;
    Phi = std::move(Survivors);
  }
}

/// inferMonitorInvariant's closing step: greedily drop each predicate the
/// remaining ones imply.
std::vector<const Term *> minimizeGreedy(logic::TermContext &C,
                                         solver::SmtSolver &Solver,
                                         std::vector<const Term *> Phi) {
  for (size_t I = 0; I < Phi.size();) {
    std::vector<const Term *> Others;
    for (size_t K = 0; K < Phi.size(); ++K)
      if (K != I)
        Others.push_back(Phi[K]);
    if (Solver.isValid(C.implies(C.and_(Others), Phi[I])))
      Phi.erase(Phi.begin() + static_cast<long>(I));
    else
      ++I;
  }
  return Phi;
}

/// Checks that inference keeps exactly the predicates of the per-candidate
/// reference fixpoint started from the same initiated candidates.
void expectReferencePredicates(const std::string &Name,
                               const std::string &Source) {
  SCOPED_TRACE(Name);
  DiagnosticEngine Diags;
  std::unique_ptr<Monitor> M = parseMonitor(Source, Diags);
  ASSERT_NE(M, nullptr) << Diags.str();
  logic::TermContext C;
  std::unique_ptr<SemaInfo> Sema = analyze(*M, C, Diags);
  ASSERT_NE(Sema, nullptr) << Diags.str();
  auto Solver = solver::createSolver(solver::SolverKind::Default, C);
  InvariantResult IR = inferMonitorInvariant(C, *Sema, *Solver);
  std::vector<const Term *> Expected = minimizeGreedy(
      C, *Solver, referenceHoudini(C, *Sema, *Solver, IR.Initiated));
  EXPECT_EQ(IR.Predicates, Expected)
      << "inferred: " << logic::printTerm(IR.Invariant);
}

TEST(InvariantTest, StableRoundCostsOneQueryPerCcr) {
  const bench::BenchmarkDef *Def = bench::findBenchmark("BoundedBuffer");
  ASSERT_NE(Def, nullptr);
  AnalysisFixture F(Def->Source.c_str());
  ASSERT_NE(F.Sema, nullptr);
  obs::Tracer Trace;
  StampingSolver Counter(F.C, *F.Solver, Trace);
  InvariantConfig Cfg;
  Cfg.Trace = &Trace;
  InvariantResult IR = inferMonitorInvariant(F.C, *F.Sema, Counter, Cfg);

  const std::vector<obs::SpanRecord> Spans = Trace.snapshot();
  const obs::SpanRecord *Last = nullptr;
  for (const obs::SpanRecord &S : Spans)
    if (std::string(S.Name) == "invariant.houdini.round" &&
        (!Last || S.StartNs > Last->StartNs))
      Last = &S;
  ASSERT_NE(Last, nullptr);
  const size_t NumCcrs = F.Sema->Ccrs.size();
  EXPECT_NE(Last->Args.find("\"ccrs_proved\":" + std::to_string(NumCcrs)),
            std::string::npos)
      << Last->Args;

  // The stable round proves {I and Guard(w)} Body(w) {I} once per CCR and
  // nothing else; a CCR whose VC simplifies to true needs no query at all.
  std::vector<const Term *> Fixpoint =
      referenceHoudini(F.C, *F.Sema, *F.Solver, IR.Initiated);
  ASSERT_GE(Fixpoint.size(), 2u);
  const Term *I = F.C.and_(Fixpoint);
  size_t SolverVcs = 0;
  for (const CcrInfo &W : F.Sema->Ccrs)
    if (!F.Checker->verificationCondition(consecutionTriple(F.C, I, W, I))
             ->isBoolConst())
      ++SolverVcs;
  EXPECT_GT(SolverVcs, 0u);
  EXPECT_EQ(Counter.queriesIn(Last->StartNs, Last->StartNs + Last->DurNs),
            SolverVcs);

  // Checking each (ψ, CCR) pair on its own costs more in that round: from
  // the fixpoint, the reference runs just the stable round.
  size_t Before = Counter.Stamps.size();
  referenceHoudini(F.C, *F.Sema, Counter, Fixpoint);
  EXPECT_GT(Counter.Stamps.size() - Before, SolverVcs);
}

TEST(InvariantTest, PaperMonitorsMatchPerCandidateFixpoint) {
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
    expectReferencePredicates(Def.Name, Def.Source);
}

TEST(InvariantTest, SpecgenMonitorsMatchPerCandidateFixpoint) {
  for (const auto &[Name, Source] : pinnedSpecgenMonitors())
    expectReferencePredicates(Name, Source);
}

} // namespace
