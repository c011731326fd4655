//===- tests/BytecodeTest.cpp - Compiled guards vs tree-walking interpreter ----===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "runtime/Bytecode.h"

#include "bench/Workloads.h"
#include "frontend/Interp.h"
#include "frontend/Parser.h"
#include "frontend/Sema.h"
#include "support/Rng.h"

#include <gtest/gtest.h>

using namespace expresso;
using namespace expresso::frontend;
using namespace expresso::runtime;
using logic::Assignment;
using logic::Value;

namespace {

std::unique_ptr<Monitor> parse(const char *Source) {
  DiagnosticEngine Diags;
  auto M = parseMonitor(Source, Diags);
  EXPECT_NE(M, nullptr) << Diags.str();
  return M;
}

/// Runs \p P with canaries above its recorded stack depth; a run that
/// pushes deeper than Program::MaxStack overwrites one.
int64_t executeChecked(const Program &P, Frame &Fr,
                       std::vector<int64_t> &Locals) {
  constexpr int64_t Canary = 0x5eed5eed5eed5eed;
  std::vector<int64_t> Stack(P.MaxStack + 8, Canary);
  int64_t Result = execute(P, Fr, Locals.data(), Stack.data());
  for (size_t I = P.MaxStack; I < Stack.size(); ++I)
    EXPECT_EQ(Stack[I], Canary)
        << "stack slot " << I << " used past MaxStack " << P.MaxStack << "\n"
        << P.str();
  return Result;
}

TEST(BytecodeTest, ArithmeticAndComparisons) {
  auto M = parse(R"(
    monitor T {
      int a = 0;
      int b = 0;
      bool ok = false;
      void f(int x) {
        ok = a + 2 * b - x >= 3 && (a != b || x % 3 == 1);
      }
    }
  )");
  SlotLayout L(*M);
  const Method *F = M->findMethod("f");
  Program P = compileStmt(L, F->Body[0].Body, F);

  for (int64_t A = -2; A <= 2; ++A) {
    for (int64_t B = -2; B <= 2; ++B) {
      for (int64_t X = -2; X <= 2; ++X) {
        Assignment Shared{{"a", Value::ofInt(A)},
                          {"b", Value::ofInt(B)},
                          {"ok", Value::ofBool(false)}};
        Assignment Locals{{"x", Value::ofInt(X)}};
        // Interpreter.
        Assignment IShared = Shared, ILocals = Locals;
        Env E{&IShared, &ILocals};
        execStmt(F->Body[0].Body, E);
        // VM.
        Frame Fr = L.packShared(Shared);
        std::vector<int64_t> VLocals = L.packLocals(*F, Locals);
        executeChecked(P, Fr, VLocals);
        Assignment VShared = L.unpackShared(Fr);
        EXPECT_EQ(VShared.at("ok").asBool(), IShared.at("ok").asBool())
            << "a=" << A << " b=" << B << " x=" << X << "\n"
            << P.str();
      }
    }
  }
}

TEST(BytecodeTest, ShortCircuitSkipsRhs) {
  // (a != 0 && 10 % a == 0) must not evaluate 10 % a when a == 0; mathMod
  // would assert. Short-circuit makes this safe.
  auto M = parse(R"(
    monitor T {
      int a = 0;
      bool ok = false;
      void f() { ok = a != 0 && 10 % 2 == 0; }
    }
  )");
  SlotLayout L(*M);
  const Method *F = M->findMethod("f");
  Program P = compileStmt(L, F->Body[0].Body, F);
  Frame Fr =
      L.packShared({{"a", Value::ofInt(0)}, {"ok", Value::ofBool(true)}});
  std::vector<int64_t> Locals = L.packLocals(*F, {});
  executeChecked(P, Fr, Locals);
  Assignment Out = L.unpackShared(Fr);
  EXPECT_FALSE(Out.at("ok").asBool());
}

TEST(BytecodeTest, LoopsAndArrays) {
  auto M = parse(R"(
    monitor T {
      bool[] forks;
      int n = 0;
      void setAll(int k) {
        int i = 0;
        while (i < k) { forks[i] = true; i++; }
        n = k;
      }
    }
  )");
  SlotLayout L(*M);
  const Method *F = M->findMethod("setAll");
  Frame Fr = L.packShared(initialState(*M));
  std::vector<int64_t> Locals = L.packLocals(*F, {{"k", Value::ofInt(4)}});
  for (const WaitUntil &W : F->Body)
    executeChecked(compileStmt(L, W.Body, F), Fr, Locals);
  Assignment Out = L.unpackShared(Fr);
  EXPECT_EQ(Out.at("n").asInt(), 4);
  EXPECT_EQ(Out.at("forks").arrayAt(3), 1);
  EXPECT_EQ(Out.at("forks").arrayAt(4), 0);
}

/// Differential sweep: for every benchmark monitor, compiled guards and
/// bodies agree with the tree-walking interpreter on randomized states;
/// every compiled guard, run over the waiter's local slots, agrees with its
/// predicate class's canonical guard at the CCR's class arguments (the
/// engines' conditional-signal check); and no run goes deeper than its
/// program's recorded stack depth.
class BytecodeDifferentialTest : public ::testing::TestWithParam<int> {};

TEST_P(BytecodeDifferentialTest, AgreesWithInterpreterOnBenchmarks) {
  const auto &All = bench::allBenchmarks();
  const bench::BenchmarkDef &Def =
      All[static_cast<size_t>(GetParam()) % All.size()];
  auto M = parse(Def.Source.c_str());
  logic::TermContext C;
  DiagnosticEngine Diags;
  auto Sema = analyze(*M, C, Diags);
  ASSERT_NE(Sema, nullptr) << Diags.str();
  SlotLayout L(*M);
  Rng R(static_cast<uint64_t>(GetParam()) * 40503 + 11);

  for (const Method &Me : M->Methods) {
    for (const WaitUntil &W : Me.Body) {
      Program GuardP = compileExpr(L, W.Guard, &Me);
      Program BodyP = compileStmt(L, W.Body, &Me);
      for (int Trial = 0; Trial < 20; ++Trial) {
        // Random shared state (respecting field types) and locals.
        Assignment Shared = initialState(*M);
        for (auto &[Name, V] : Shared) {
          if (V.S == logic::Sort::Int) {
            V = Value::ofInt(R.range(0, 6));
          } else if (V.S == logic::Sort::Bool) {
            V = Value::ofBool(R.chance(1, 2));
          } else {
            for (int64_t I = 0; I < 4; ++I)
              if (R.chance(1, 2))
                V.A[I] = R.range(0, 1);
          }
        }
        Assignment Locals;
        for (const Param &P2 : Me.Params)
          Locals[P2.Name] = P2.Type == TypeKind::Bool
                                ? Value::ofBool(R.chance(1, 2))
                                : Value::ofInt(R.range(0, 4));
        // Pre-bind locals declared in earlier CCR bodies (e.g. TicketedRW's
        // ticket variable) so guard evaluation sees them; VM slots default
        // to 0, so mirror that.
        std::vector<const Stmt *> Work;
        for (const WaitUntil &W2 : Me.Body)
          Work.push_back(W2.Body);
        while (!Work.empty()) {
          const Stmt *S = Work.back();
          Work.pop_back();
          if (const auto *D = dyn_cast<LocalDeclStmt>(S)) {
            if (!Locals.count(D->name()))
              Locals[D->name()] = D->type() == TypeKind::Bool
                                      ? Value::ofBool(false)
                                      : Value::ofInt(0);
          } else if (const auto *Seq = dyn_cast<SeqStmt>(S)) {
            for (const Stmt *Sub : Seq->stmts())
              Work.push_back(Sub);
          } else if (const auto *If = dyn_cast<IfStmt>(S)) {
            Work.push_back(If->thenStmt());
            Work.push_back(If->elseStmt());
          } else if (const auto *Wh = dyn_cast<WhileStmt>(S)) {
            Work.push_back(Wh->body());
          }
        }

        // Guard comparison.
        Assignment IShared = Shared, ILocals = Locals;
        Env E{&IShared, &ILocals};
        bool IGuard = evalExpr(W.Guard, E).asBool();
        Frame Fr = L.packShared(Shared);
        std::vector<int64_t> VLocals = L.packLocals(Me, Locals);
        bool VGuard = executeChecked(GuardP, Fr, VLocals) != 0;
        ASSERT_EQ(VGuard, IGuard)
            << Def.Name << " " << Me.Name << " guard\n"
            << GuardP.str();

        // Class check: Shared plus each placeholder bound to the value of
        // the CCR's class argument at that position.
        const CcrInfo &CI = Sema->info(&W);
        Assignment ClassAsg = Shared;
        for (size_t K = 0; K < CI.ClassArgs.size(); ++K) {
          const std::string &Qual = CI.ClassArgs[K]->varName();
          ClassAsg[CI.Class->Placeholders[K]->varName()] =
              Locals.at(Qual.substr(Qual.find("::") + 2));
        }
        ASSERT_EQ(VGuard, logic::evaluateBool(CI.Class->Canonical, ClassAsg))
            << Def.Name << " " << Me.Name << " class check\n"
            << GuardP.str();

        // Body comparison (only when the guard holds, as at run time).
        if (!IGuard)
          continue;
        execStmt(W.Body, E);
        executeChecked(BodyP, Fr, VLocals);
        Assignment VShared = L.unpackShared(Fr);
        for (const auto &[Name, V] : IShared) {
          if (V.S == logic::Sort::Int || V.S == logic::Sort::Bool) {
            ASSERT_EQ(VShared.at(Name).I, V.I)
                << Def.Name << " " << Me.Name << " body: field " << Name;
          } else {
            for (const auto &[Idx, Elem] : V.A)
              ASSERT_EQ(VShared.at(Name).arrayAt(Idx), Elem)
                  << Def.Name << " " << Me.Name << " body: array " << Name;
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, BytecodeDifferentialTest,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return bench::allBenchmarks()
                               [static_cast<size_t>(Info.param)]
                                   .Name;
                         });

} // namespace
