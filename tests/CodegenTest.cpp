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
#include <filesystem>
#include <fstream>
#include <iterator>
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

TEST(CodegenTest, ModTurnGuardUsesFloorMod) {
  // The monitor language's % is floor mod, as in the Divides terms of the
  // signal conditions. At turn == -1 the signal below fires; a truncating
  // guard would read -1 % 3 == -1 and put the woken thread back to sleep.
  CodegenFixture F(R"(
    monitor ModTurn {
      int turn = 0;
      void take() { waituntil (turn % 3 == 2) { turn = turn - 1; } }
      void step() { turn = turn - 1; }
    }
  )");
  std::string Cpp = codegen::emitCpp(F.Result);
  EXPECT_NE(Cpp.find("while (!(mod_(turn, 3) == 2))"), std::string::npos)
      << Cpp;
  EXPECT_NE(Cpp.find("if ((mod_((turn + -2L), 3L) == 0))"), std::string::npos)
      << Cpp;
  std::string Java = codegen::emitJava(F.Result);
  EXPECT_NE(Java.find("while (!(Math.floorMod(turn, 3) == 2))"),
            std::string::npos)
      << Java;
  EXPECT_EQ(Java.find("turn % 3"), std::string::npos) << Java;
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

/// Byte-exact fixtures for every benchmark's emitted IR, C++ and Java at
/// default options, plus ReadersWriters under --no-lazy-broadcast (the only
/// path that reaches notify_all/signalAll). After an intended change to the
/// emitted text, regenerate them from the repository root with
///
///   X=build/expresso G=tests/golden/codegen R=ReadersWriters
///   for b in $($X --list-benchmarks | cut -d' ' -f1); do
///     for e in ir cpp java; do $X --benchmark=$b --emit=$e > $G/$b.$e; done
///   done
///   for e in cpp java; do
///     $X --benchmark=$R --emit=$e --no-lazy-broadcast > $G/$R.eager.$e; done
std::string goldenPath(const std::string &File) {
  std::string Here = __FILE__;
  return Here.substr(0, Here.find_last_of('/') + 1) + "golden/codegen/" +
         File;
}

void expectGolden(const std::string &File, const std::string &Actual) {
  std::ifstream In(goldenPath(File), std::ios::binary);
  ASSERT_TRUE(In) << "missing fixture " << goldenPath(File);
  std::string Expected((std::istreambuf_iterator<char>(In)),
                       std::istreambuf_iterator<char>());
  EXPECT_EQ(Actual, Expected) << "emitted text differs from " << File;
}

class CodegenGoldenTest : public ::testing::TestWithParam<int> {};

TEST_P(CodegenGoldenTest, MatchesFixtures) {
  const bench::BenchmarkDef &Def =
      bench::allBenchmarks()[static_cast<size_t>(GetParam())];
  CodegenFixture F(Def.Source);
  expectGolden(Def.Name + ".ir", codegen::printTargetIr(F.Result));
  expectGolden(Def.Name + ".cpp", codegen::emitCpp(F.Result));
  expectGolden(Def.Name + ".java", codegen::emitJava(F.Result));
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, CodegenGoldenTest,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return bench::allBenchmarks()
                               [static_cast<size_t>(Info.param)]
                                   .Name;
                         });

TEST(CodegenGoldenEagerTest, ReadersWritersMatchesFixtures) {
  PlacementOptions Opts;
  Opts.LazyBroadcast = false;
  CodegenFixture F(bench::findBenchmark("ReadersWriters")->Source, Opts);
  expectGolden("ReadersWriters.eager.cpp", codegen::emitCpp(F.Result));
  expectGolden("ReadersWriters.eager.java", codegen::emitJava(F.Result));
}

/// Runs \p Cmd through the shell; returns its exit status and fills
/// \p Output with what it printed.
int runCommand(const std::string &Cmd, std::string &Output) {
  FILE *Pipe = popen((Cmd + " 2>&1").c_str(), "r");
  if (!Pipe)
    return -1;
  char Buf[512];
  while (fgets(Buf, sizeof(Buf), Pipe))
    Output += Buf;
  return pclose(Pipe);
}

/// The strongest codegen test: every benchmark's generated C++ and Java
/// must be accepted by the host compilers.
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
  std::string Output;
  int Status =
      runCommand("g++ -std=c++17 -fsyntax-only -Wall " + Path, Output);
  EXPECT_EQ(Status, 0) << "generated code for " << Def.Name
                       << " failed to compile:\n"
                       << Output << "\n---- code ----\n"
                       << Code;
}

TEST_P(GeneratedCodeCompiles, JavaIsValid) {
  std::string Version;
  static const bool HaveJavac = runCommand("javac -version", Version) == 0;
  if (!HaveJavac)
    GTEST_SKIP() << "javac not found";
  const bench::BenchmarkDef &Def =
      bench::allBenchmarks()[static_cast<size_t>(GetParam())];
  CodegenFixture F(Def.Source);
  std::string Code = codegen::emitJava(F.Result);

  // javac wants the file named after its public class. The header comment
  // holds a non-ASCII character, so the encoding must not follow the locale.
  std::string Dir = ::testing::TempDir() + "/expresso_java_" + Def.Name;
  std::string Path = Dir + "/" + F.M->Name + ".java";
  std::filesystem::create_directories(Dir);
  {
    std::ofstream Out(Path);
    Out << Code;
  }
  std::string Output;
  int Status =
      runCommand("javac -encoding UTF-8 -d " + Dir + " " + Path, Output);
  EXPECT_EQ(Status, 0) << "generated Java for " << Def.Name
                       << " failed to compile:\n"
                       << Output << "\n---- code ----\n"
                       << Code;
}

// Java's getOrDefault returns a boxed Integer, and `==` between two boxed
// Integers compares references, which differ for equal values outside the
// small-value cache (-128..127). Int reads must unbox so the guard below
// holds once both cells hold 200.
TEST(JavaCodegenTest, IntArrayReadsCompareByValue) {
  std::string Version;
  if (runCommand("javac -version", Version) != 0)
    GTEST_SKIP() << "javac not found";
  CodegenFixture F(R"(
    monitor ArrayEq {
      int[] a;
      int i = 0;
      int j = 1;
      void pass() { waituntil (a[i] == a[j]) { } }
      void set(int k, int v) { a[k] = v; }
    }
  )");
  std::string Code = codegen::emitJava(F.Result);
  EXPECT_NE(Code.find("a.getOrDefault(i, 0).intValue() == "
                      "a.getOrDefault(j, 0).intValue()"),
            std::string::npos)
      << Code;

  std::string Dir = ::testing::TempDir() + "/expresso_java_ArrayEq";
  std::filesystem::create_directories(Dir);
  {
    std::ofstream Out(Dir + "/ArrayEq.java");
    Out << Code;
  }
  {
    // pass() blocks while a[0] != a[1]; a thread stuck past the timeout
    // means the guard never held.
    std::ofstream Out(Dir + "/ArrayEqMain.java");
    Out << R"(public class ArrayEqMain {
  public static void main(String[] args) throws Exception {
    ArrayEq m = new ArrayEq();
    m.set(0, 200);
    m.set(1, 200);
    Thread t = new Thread(m::pass);
    t.setDaemon(true);
    t.start();
    t.join(20000);
    if (t.isAlive()) {
      System.out.println("pass() still blocked with a[0] == a[1] == 200");
      System.exit(1);
    }
  }
}
)";
  }
  std::string Output;
  ASSERT_EQ(runCommand("javac -encoding UTF-8 -d " + Dir + " " + Dir +
                           "/ArrayEq.java " + Dir + "/ArrayEqMain.java",
                       Output),
            0)
      << Output << "\n---- code ----\n"
      << Code;
  if (runCommand("java -version", Version) != 0)
    GTEST_SKIP() << "java not found";
  Output.clear();
  EXPECT_EQ(runCommand("java -cp " + Dir + " ArrayEqMain", Output), 0)
      << Output;
}

// A method named after a final method of java.lang.Object, and a parameter
// named after a keyword of both targets: the emitters mangle such names, so
// the emitted classes still compile.
TEST(JavaCodegenTest, ReservedNamesAreMangled) {
  CodegenFixture F(R"(
    monitor Reserved {
      int n = 0;
      void wait() { waituntil (n > 0) { n--; } }
      void put(int new) { n = n + new; }
    }
  )");
  std::string Dir = ::testing::TempDir() + "/expresso_reserved";
  std::filesystem::create_directories(Dir);
  std::string Cpp = codegen::emitCpp(F.Result);
  {
    std::ofstream Out(Dir + "/Reserved.cpp");
    Out << Cpp << "\nint main() { return 0; }\n";
  }
  std::string Output;
  EXPECT_EQ(runCommand("g++ -std=c++17 -fsyntax-only -Wall " + Dir +
                           "/Reserved.cpp",
                       Output),
            0)
      << Output << "\n---- code ----\n"
      << Cpp;

  std::string Version;
  if (runCommand("javac -version", Version) != 0)
    GTEST_SKIP() << "javac not found";
  std::string Java = codegen::emitJava(F.Result);
  EXPECT_NE(Java.find("public void wait_()"), std::string::npos) << Java;
  {
    std::ofstream Out(Dir + "/Reserved.java");
    Out << Java;
  }
  Output.clear();
  EXPECT_EQ(runCommand("javac -encoding UTF-8 -d " + Dir + " " + Dir +
                           "/Reserved.java",
                       Output),
            0)
      << Output << "\n---- code ----\n"
      << Java;
}

// The emitters declare names of their own (Java's lock, C++'s m_, mod_,
// lock_ and w_, the wake helpers' w and it) and call Math.floorMod. A
// monitor field or parameter of such a name must neither clash with them
// nor hide them: each one-name monitor below must still compile.
TEST(CodegenTest, EmitterNamesAreReserved) {
  const char *Names[] = {"lock", "m_", "mod_", "lock_", "w_", "Math", "w",
                         "it"};
  std::string Dir = ::testing::TempDir() + "/expresso_clash";
  std::filesystem::create_directories(Dir);
  std::string Cpp, JavaPaths;
  for (size_t I = 0; I < std::size(Names); ++I) {
    std::string N = Names[I];
    // The guards' floor mod and thread-local operand give each monitor a
    // mod_ call, a Math.floorMod call and a waiter registry with its wake
    // helper.
    std::string Field = "monitor ClashField" + std::to_string(I) + " { int " +
                        N + " = 0;\n void get(int k) { waituntil (" + N +
                        " % 3 == 0 && " + N + " > k) { " + N + " = " + N +
                        " - 1; } }\n void put() { " + N + " = " + N +
                        " + 1; } }";
    std::string Param = "monitor ClashParam" + std::to_string(I) +
                        " { int n = 0;\n void get(int " + N +
                        ") { waituntil (n % 3 == 0 && n > " + N +
                        ") { n = n - 1; } }\n void put() { n = n + 1; } }";
    for (const std::string &Source : {Field, Param}) {
      CodegenFixture F(Source);
      Cpp += codegen::emitCpp(F.Result);
      std::string Path = Dir + "/" + F.M->Name + ".java";
      std::ofstream(Path) << codegen::emitJava(F.Result);
      JavaPaths += " " + Path;
    }
  }
  std::ofstream(Dir + "/Clash.cpp") << Cpp << "\nint main() { return 0; }\n";
  std::string Output;
  EXPECT_EQ(runCommand("g++ -std=c++17 -fsyntax-only -Wall " + Dir +
                           "/Clash.cpp",
                       Output),
            0)
      << Output << "\n---- code ----\n"
      << Cpp;

  std::string Version;
  if (runCommand("javac -version", Version) != 0)
    GTEST_SKIP() << "javac not found";
  Output.clear();
  EXPECT_EQ(runCommand("javac -encoding UTF-8 -d " + Dir + JavaPaths, Output),
            0)
      << Output;
}

INSTANTIATE_TEST_SUITE_P(AllBenchmarks, GeneratedCodeCompiles,
                         ::testing::Range(0, 14),
                         [](const ::testing::TestParamInfo<int> &Info) {
                           return bench::allBenchmarks()
                               [static_cast<size_t>(Info.param)]
                                   .Name;
                         });

} // namespace
