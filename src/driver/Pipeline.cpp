//===- driver/Pipeline.cpp - One monitor compilation, front to back -----------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"

#include "frontend/Parser.h"
#include "obs/Trace.h"
#include "solver/SolverFactory.h"
#include "support/ThreadPool.h"

#include <cstdlib>
#include <cstring>
#include <optional>

using namespace expresso;
using namespace expresso::driver;

bool Compilation::frontend(const std::string &Source) {
  obs::Span ParseSpan(Trace, "parse");
  M = frontend::parseMonitor(Source, Diags);
  ParseSpan.finish();
  if (!M)
    return false;
  obs::Span SemaSpan(Trace, "sema");
  Sema = frontend::analyze(*M, C, Diags);
  return Sema != nullptr;
}

PlaceStatus Compilation::place(solver::SolverKind Kind,
                               core::PlacementOptions Opts,
                               const StoreOpener &OpenStore) {
  std::string Profile = solver::backendProfileName(Kind);
  if (Profile.empty())
    return PlaceStatus::SolverUnavailable;
  Rig = solver::buildSolverRig(C, Kind, Opts.CacheQueries,
                               OpenStore ? OpenStore(Profile) : nullptr);
  if (!Rig)
    return PlaceStatus::SolverUnavailable;
  // Serial runs discharge on the rig's backend; --jobs workers each mint
  // a private one of the same kind.
  Opts.WorkerSolvers = solver::SolverFactory(Kind);
  Opts.Trace = Trace;
  Result = core::placeSignals(C, *Sema, Rig.solver(), Opts);
  return Result.Cancelled ? PlaceStatus::Cancelled : PlaceStatus::Ok;
}

std::string Compilation::emit(codegen::EmitKind Kind) const {
  obs::Span EmitSpan(Trace, "emit");
  return codegen::emit(Result, Kind);
}

unsigned driver::parseJobs(const char *Value) {
  if (std::strcmp(Value, "auto") == 0)
    return support::ThreadPool::defaultWorkers();
  int N = std::atoi(Value);
  return N > 0 ? static_cast<unsigned>(N) : 0;
}

bool driver::parsePlacementFlag(int Argc, char **Argv, int &I,
                                core::PlacementOptions &Opts,
                                std::string &Error) {
  std::string_view Arg = Argv[I];
  // The value of `Flag=V` or of `Flag V`; nullopt when Arg is not Flag.
  auto valueOf = [&](std::string_view Flag) -> std::optional<std::string> {
    if (Arg.starts_with(Flag) && Arg.substr(Flag.size()).starts_with('='))
      return std::string(Arg.substr(Flag.size() + 1));
    if (Arg != Flag)
      return std::nullopt;
    return I + 1 < Argc ? Argv[++I] : "";
  };
  if (Arg == "--no-invariant") {
    Opts.UseInvariant = false;
  } else if (Arg == "--no-commutativity") {
    Opts.UseCommutativity = false;
  } else if (Arg == "--no-lazy-broadcast") {
    Opts.LazyBroadcast = false;
  } else if (Arg == "--no-cache") {
    Opts.CacheQueries = false;
  } else if (std::optional<std::string> V = valueOf("--incremental")) {
    if (*V == "on" || *V == "off")
      Opts.Incremental = *V == "on";
    else
      Error = "--incremental expects on|off (got '" + *V + "')";
  } else if (std::optional<std::string> V = valueOf("--jobs")) {
    if (unsigned Jobs = parseJobs(V->c_str()))
      Opts.Jobs = Jobs;
    else
      Error = "--jobs expects a positive count or \"auto\" (got '" + *V + "')";
  } else {
    return false;
  }
  return true;
}
