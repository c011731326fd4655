//===- tests/CodegenTest.cpp - IR, C++, and Java emitters ---------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "codegen/Codegen.h"

#include "bench/Workloads.h"
#include "frontend/Parser.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

using namespace expresso;
using namespace expresso::frontend;
using namespace expresso::core;

namespace {

struct CodegenFixture {
  explicit CodegenFixture(const std::string &Source,
                          PlacementOptions Opts = PlacementOptions()) {
    DiagnosticEngine Diags;
    M = parseMonitor(Source, Diags);
    EXPECT_NE(M, nullptr) << Diags.str();
    Sema = analyze(*M, C, Diags);
    EXPECT_NE(Sema, nullptr) << Diags.str();
    Solver = solver::createSolver(solver::SolverKind::Default, C);
    Result = placeSignals(C, *Sema, *Solver, Opts);
  }

  logic::TermContext C;
  std::unique_ptr<Monitor> M;
  std::unique_ptr<SemaInfo> Sema;
  std::unique_ptr<solver::SmtSolver> Solver;
  PlacementResult Result;
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

TEST(IrPrinterTest, ReadersWritersIr) {
  CodegenFixture F(RWSource);
  std::string Ir = codegen::printTargetIr(F.Result);
  // enterReader/enterWriter carry no signal sets.
  EXPECT_NE(Ir.find("monitor RWLock"), std::string::npos);
  EXPECT_NE(Ir.find("invariant"), std::string::npos);
  // exitReader signals the writer predicate conditionally.
  EXPECT_NE(Ir.find("signal({(!writerIn && 0 == readers, ?)})"),
            std::string::npos)
      << Ir;
  // exitWriter broadcasts to readers unconditionally.
  EXPECT_NE(Ir.find("broadcast({(!writerIn, \xE2\x9C\x93)})"),
            std::string::npos)
      << Ir;
}

TEST(CppCodegenTest, ReadersWritersShape) {
  PlacementOptions Opts;
  Opts.LazyBroadcast = false; // eager: expect notify_all
  CodegenFixture F(RWSource, Opts);
  std::string Code = codegen::emitCpp(F.Result);
  EXPECT_NE(Code.find("class RWLock"), std::string::npos);
  EXPECT_NE(Code.find("std::mutex m_;"), std::string::npos);
  // Wait loop mirrors Figure 2's while(!p) await().
  EXPECT_NE(Code.find("while (!(!writerIn))"), std::string::npos) << Code;
  // Conditional signal to the writers class (long-suffixed literals).
  EXPECT_NE(Code.find("if ((!writerIn && (0L == readers)))"),
            std::string::npos)
      << Code;
  // Unconditional broadcast to readers (eager mode).
  EXPECT_NE(Code.find(".notify_all();"), std::string::npos) << Code;
}

TEST(CppCodegenTest, LazyBroadcastEmitsChain) {
  CodegenFixture F(RWSource); // lazy by default
  std::string Code = codegen::emitCpp(F.Result);
  EXPECT_NE(Code.find("lazy broadcast chain"), std::string::npos) << Code;
  EXPECT_EQ(Code.find(".notify_all();"), std::string::npos) << Code;
}

TEST(JavaCodegenTest, ReadersWritersShape) {
  PlacementOptions Opts;
  Opts.LazyBroadcast = false;
  CodegenFixture F(RWSource, Opts);
  std::string Code = codegen::emitJava(F.Result);
  EXPECT_NE(Code.find("public class RWLock"), std::string::npos);
  EXPECT_NE(Code.find("new ReentrantLock()"), std::string::npos);
  EXPECT_NE(Code.find("lock.newCondition()"), std::string::npos);
  // Figure 2: conditional signal + unconditional signalAll.
  EXPECT_NE(Code.find("if ((!writerIn && (0 == readers)))"), std::string::npos)
      << Code;
  EXPECT_NE(Code.find(".signalAll();"), std::string::npos) << Code;
  EXPECT_NE(Code.find("lock.unlock();"), std::string::npos);
}

TEST(CppCodegenTest, LocalPredicateWaiterRegistry) {
  CodegenFixture F(R"(
    monitor Sem {
      int count = 0;
      void acquire(int k) { waituntil (count >= k) { count = count - k; } }
      void release(int k) { count = count + k; }
    }
  )");
  std::string Code = codegen::emitCpp(F.Result);
  // §6 instrumentation: waiter struct with a local-value snapshot.
  EXPECT_NE(Code.find("struct WaiterC"), std::string::npos) << Code;
  EXPECT_NE(Code.find("w_.p0 = k;"), std::string::npos) << Code;
  EXPECT_NE(Code.find("->p0"), std::string::npos) << Code;
}

/// The class indices named by \p Marker ("// predicate class c", "// class
/// c") in \p Code, in emission order.
std::vector<unsigned> classOrder(const std::string &Code,
                                 const std::string &Marker) {
  std::vector<unsigned> Order;
  for (size_t At = Code.find(Marker); At != std::string::npos;
       At = Code.find(Marker, At + 1))
    Order.push_back(static_cast<unsigned>(
        std::strtoul(Code.c_str() + At + Marker.size(), nullptr, 10)));
  return Order;
}

TEST(CodegenDeterminismTest, SameSpecTwiceEmitsSameText) {
  const bench::BenchmarkDef *Def = bench::findBenchmark("SleepingBarber");
  ASSERT_NE(Def, nullptr);
  CodegenFixture First(Def->Source);
  // Recycle PredicateClass-sized blocks so the second analysis allocates
  // its classes at addresses out of Index order: heap-address order would
  // then change what the emitters print.
  {
    std::vector<std::unique_ptr<PredicateClass>> Blocks;
    for (int I = 0; I < 256; ++I)
      Blocks.push_back(std::make_unique<PredicateClass>());
  }
  CodegenFixture Second(Def->Source);
  ASSERT_GE(Second.Sema->Classes.size(), 3u);

  std::string Cpp = codegen::emitCpp(First.Result);
  std::string Java = codegen::emitJava(First.Result);
  EXPECT_EQ(Cpp, codegen::emitCpp(Second.Result));
  EXPECT_EQ(Java, codegen::emitJava(Second.Result));
  std::vector<unsigned> CppOrder = classOrder(Cpp, "// predicate class c");
  std::vector<unsigned> JavaOrder = classOrder(Java, "// class c");
  EXPECT_GE(CppOrder.size(), 2u);
  EXPECT_TRUE(std::is_sorted(CppOrder.begin(), CppOrder.end()));
  EXPECT_EQ(CppOrder, JavaOrder);
}

/// The strongest codegen test: every benchmark's generated C++ must be
/// accepted by the host compiler.
class GeneratedCodeCompiles : public ::testing::TestWithParam<int> {};

TEST_P(GeneratedCodeCompiles, CppIsValid) {
  const auto &All = bench::allBenchmarks();
  const bench::BenchmarkDef &Def =
      All[static_cast<size_t>(GetParam()) % All.size()];
  CodegenFixture F(Def.Source);
  std::string Code = codegen::emitCpp(F.Result);

  std::string Path = ::testing::TempDir() + "/expresso_gen_" + Def.Name +
                     ".cpp";
  {
    std::ofstream Out(Path);
    Out << Code << "\nint main() { return 0; }\n";
  }
  std::string Cmd = "g++ -std=c++17 -fsyntax-only -Wall " + Path + " 2>&1";
  FILE *Pipe = popen(Cmd.c_str(), "r");
  ASSERT_NE(Pipe, nullptr);
  std::string Output;
  char Buf[512];
  while (fgets(Buf, sizeof(Buf), Pipe))
    Output += Buf;
  int Status = pclose(Pipe);
  EXPECT_EQ(Status, 0) << "generated code for " << Def.Name
                       << " failed to compile:\n"
                       << Output << "\n---- code ----\n"
                       << Code;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GeneratedCodeCompiles,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return bench::allBenchmarks()
                               [static_cast<size_t>(Info.param)]
                                   .Name;
                         });

} // namespace
