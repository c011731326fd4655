//===- bench/figures.cpp ------------------------------------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// Regenerates the saturation series of the paper's Figures 8 and 9: ms/op
// for Expresso-generated, AutoSynch-style, and hand-written explicit
// signaling across the paper's thread counts, for one monitor or all.
//
//   figures --monitor=BoundedBuffer --quick --max-threads=2
//   figures --monitor=all
//
//===----------------------------------------------------------------------===//

#include "bench/Harness.h"

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace expresso::bench;

int main(int argc, char **argv) {
  // --monitor is this binary's own flag; the rest are harness options.
  std::string Monitor;
  std::vector<char *> Args;
  for (int I = 0; I < argc; ++I) {
    if (std::strncmp(argv[I], "--monitor=", 10) == 0)
      Monitor = argv[I] + 10;
    else
      Args.push_back(argv[I]);
  }

  std::vector<std::string> Names;
  for (const BenchmarkDef &Def : allBenchmarks())
    if (Monitor == "all" || Monitor == Def.Name)
      Names.push_back(Def.Name);
  if (Names.empty()) {
    std::fprintf(stderr,
                 "usage: %s --monitor=NAME|all [harness options]\nmonitors:",
                 argv[0]);
    for (const BenchmarkDef &Def : allBenchmarks())
      std::fprintf(stderr, " %s", Def.Name.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  int Exit = 0;
  for (const std::string &Name : Names)
    if (int Rc = figureMain(Name, static_cast<int>(Args.size()), Args.data()))
      Exit = Rc;
  return Exit;
}
