//===- perfbench/src/main.cpp - Benchmark entry point ---------------------===//
//
// Part of expresso-cpp's repository benchmark.
//
//   perfbench --workload analyze|serve|saturate --seed N --seconds S
//             --trace 0|1 [--data DIR]
//   perfbench --bless [--data DIR]
//
// Prints a human-readable report and, as the last line of standard output,
// one JSON object: {"correct", "attempted", "failed", "metrics"}. Untraced
// runs report the end-to-end metrics; traced runs the per-layer ones.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

using namespace perfbench;

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload analyze|serve|saturate --seed N "
               "--seconds S --trace 0|1 [--data DIR]\n"
               "       perfbench --bless [--data DIR]\n");
  return 2;
}

/// JSON number with every digit the double carries.
std::string num(double V) {
  if (!std::isfinite(V))
    return "0";
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "%.17g", V);
  return Buf;
}

void printResult(const Args &A, const Report &R) {
  std::printf("\n== %s seed=%llu trace=%d: attempted %llu, failed %llu, "
              "correct %s\n",
              A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
              A.Trace ? 1 : 0, static_cast<unsigned long long>(R.Attempted),
              static_cast<unsigned long long>(R.Failed),
              R.Failed == 0 ? "yes" : "NO");
  std::vector<Metric> Out;
  if (A.Trace) {
    for (const auto &[Name, Unit] : perLayerSchema()) {
      auto It = R.Layer.find(Name);
      Out.push_back({Name, It == R.Layer.end() ? 0.0 : It->second, Unit, 1});
    }
  } else {
    Out = R.Metrics;
  }
  double FailRatio =
      R.Attempted ? static_cast<double>(R.Failed) / R.Attempted : 0;
  for (Metric &M : Out)
    if (M.Name == "fail_ratio")
      M.Value = FailRatio;
  for (const Metric &M : Out)
    std::printf("  %-34s %16.6g %-8s (n=%zu)\n", M.Name.c_str(), M.Value,
                M.Unit.c_str(), M.Samples);
  if (!A.Trace)
    std::printf("  %-34s %16.6g %-8s (n=%llu)\n", "fail_ratio", FailRatio,
                "ratio", static_cast<unsigned long long>(R.Attempted));

  std::string Json = "{\"correct\": ";
  Json += R.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(R.Attempted);
  Json += ", \"failed\": " + std::to_string(R.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.size(); ++I) {
    if (I)
      Json += ", ";
    Json += "\"" + Out[I].Name + "\": {\"value\": " + num(Out[I].Value) +
            ", \"unit\": \"" + Out[I].Unit + "\"}";
  }
  Json += "}}";
  writeFile(A.OutDir, "result.json", Json + "\n");
  std::printf("%s\n", Json.c_str());
  std::fflush(stdout);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  A.DataDir = "perfbench";
  bool Bless = false;
  for (int I = 1; I < Argc; ++I) {
    std::string Flag = Argv[I];
    if (Flag == "--bless") {
      Bless = true;
      continue;
    }
    if (I + 1 >= Argc)
      return usage();
    std::string Value = Argv[++I];
    if (Flag == "--workload")
      A.Workload = Value;
    else if (Flag == "--seed")
      A.Seed = std::strtoull(Value.c_str(), nullptr, 10);
    else if (Flag == "--seconds")
      A.Seconds = std::atof(Value.c_str());
    else if (Flag == "--trace")
      A.Trace = Value == "1";
    else if (Flag == "--data")
      A.DataDir = Value;
    else
      return usage();
  }
  if (Bless)
    return blessAnalyze(A.DataDir);
  if (A.Seconds <= 0)
    return usage();
  A.OutDir = ".bench_runs/" + A.Workload + "-seed" + std::to_string(A.Seed) +
             "-trace" + (A.Trace ? "1" : "0");

  Report R;
  int Rc = 0;
  if (A.Workload == "analyze")
    Rc = runAnalyze(A, R);
  else if (A.Workload == "serve")
    Rc = runServe(A, R);
  else if (A.Workload == "saturate")
    Rc = runSaturate(A, R);
  else
    return usage();
  if (Rc != 0)
    return Rc;
  if (R.Attempted == 0) {
    std::fprintf(stderr, "perfbench: nothing was attempted\n");
    return 1;
  }
  printResult(A, R);
  return 0;
}
