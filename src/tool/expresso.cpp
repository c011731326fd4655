//===- tool/expresso.cpp - The expresso command-line compiler -----------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The `expresso` CLI: reads an implicit-signal monitor (a .mon file, a
/// built-in benchmark, or stdin), infers a monitor invariant, runs signal
/// placement, and emits the explicit-signal artifact of choice — locally,
/// or through a resident `expressod` daemon (--connect) whose shared warm
/// caches make repeated compilations orders of magnitude cheaper while
/// keeping every artifact byte-identical.
///
///   expresso examples/monitors/rwlock.mon --emit=cpp
///   expresso --benchmark=BoundedBuffer --emit=java
///   expresso --benchmark=ReadersWriters --emit=ir --solver=mini
///   expresso --connect=/tmp/expressod.sock --benchmark=BoundedBuffer
///   expresso cache fsck qcache
///
//===----------------------------------------------------------------------===//

#include "bench/Workloads.h"
#include "driver/Pipeline.h"
#include "obs/Trace.h"
#include "persist/QueryStore.h"
#include "service/Client.h"
#include "specgen/SpecGen.h"
#include "support/CancelToken.h"
#include "support/Timer.h"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>

using namespace expresso;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: expresso [options] <monitor.mon | ->\n"
      "       expresso cache <fsck|warm|compact> <dir> [args...]\n"
      "       expresso specgen [--seed=N --ccrs=N ...]   (see specgen --help)\n"
      "\n"
      "Transforms an implicit-signal monitor into an explicit-signal one\n"
      "(PLDI'18 \"Symbolic Reasoning for Automatic Signal Placement\").\n"
      "\n"
      "options:\n"
      "  --emit=summary|ir|cpp|java   artifact to print (default: summary)\n"
      "  --solver=default|z3|mini|crosscheck\n"
      "  --benchmark=NAME             use a built-in evaluation monitor\n"
      "  --list-benchmarks            list built-in monitors and exit\n"
      "  --no-invariant               place signals with I = true\n"
      "  --no-commutativity           disable the §4.3 weakening\n"
      "  --no-lazy-broadcast          emit eager signalAll broadcasts\n"
      "  --no-cache                   disable solver query memoization\n"
      "  --incremental=on|off         discharge each VC as a delta against\n"
      "                               pushed invariant/guard prefixes in an\n"
      "                               incremental solver session (default\n"
      "                               on) vs one solver context per query;\n"
      "                               the output is byte-identical either way\n"
      "  --cache-dir=DIR              persist solver answers in DIR and\n"
      "                               reuse answers cached by earlier runs\n"
      "                               (shared safely across processes)\n"
      "  --cache-readonly             consult --cache-dir but never write it\n"
      "  --cache-max-bytes=N          evict least-recently-used records\n"
      "                               beyond N bytes when the store compacts\n"
      "                               (compaction runs at end of this run)\n"
      "  --cache-ttl=SECONDS          evict records unused for SECONDS at\n"
      "                               compaction\n"
      "  --jobs N                     placement worker threads (also\n"
      "                               --jobs=N; \"auto\" = one per core;\n"
      "                               default 1 = serial)\n"
      "  --deadline=SECONDS           give up if placement runs past the\n"
      "                               deadline (exit 1; a run finishing in\n"
      "                               time is byte-identical to one with no\n"
      "                               deadline). With --connect the daemon\n"
      "                               enforces it and answers\n"
      "                               DeadlineExceeded\n"
      "  --trace-out=FILE             write a Chrome trace_event JSON of\n"
      "                               this run (phase spans, Houdini\n"
      "                               rounds, per-CCR placement, solver\n"
      "                               queries with cache tier); load in\n"
      "                               Perfetto/chrome://tracing or summarize\n"
      "                               with scripts/trace_summary.py. With\n"
      "                               --connect the daemon records the\n"
      "                               trace and ships it back. Tracing\n"
      "                               never changes the artifact or any\n"
      "                               counter\n"
      "\n"
      "daemon client mode (the spec is analyzed by a resident expressod\n"
      "with shared warm caches; artifacts stay byte-identical to local\n"
      "runs):\n"
      "  --connect=SOCKET             send this request to the daemon\n"
      "  --priority=normal|high       scheduling priority (daemon queue)\n"
      "  --no-result-cache            bypass the daemon's whole-response\n"
      "                               replay cache (query store still warm)\n"
      "  --daemon-status              print daemon status and exit\n"
      "  --daemon-metrics             print the daemon's metrics registry\n"
      "                               (counters, gauges, latency histogram)\n"
      "                               as stable text and exit\n"
      "  --shutdown[=drain|now]       ask the daemon to exit (default:\n"
      "                               drain queued work first)\n"
      "\n"
      "cache subcommands (see docs/ARCHITECTURE.md, persistence layer):\n"
      "  cache fsck <dir> [--profile=NAME] [--drop-bad]\n"
      "        validate header/checksums/records/keys; --drop-bad rewrites\n"
      "        the log keeping only fully valid records\n"
      "  cache warm <dir> [--solver=NAME] [--jobs=N] <spec|--benchmark=B>...\n"
      "        pre-populate a store by analyzing specs (no artifact output)\n"
      "  cache compact <dir> [--profile=NAME] [--cache-max-bytes=N]\n"
      "                [--cache-ttl=SECONDS]\n"
      "        rewrite the log deduplicated, enforcing the eviction policy\n");
}

/// Writes a Chrome trace JSON blob to \p Path. False with a diagnostic
/// printed.
bool writeTraceFile(const std::string &Path, const std::string &Json) {
  std::ofstream Out(Path, std::ios::trunc);
  if (!Out) {
    std::fprintf(stderr, "cannot write trace file %s\n", Path.c_str());
    return false;
  }
  Out << Json;
  return true;
}

/// Reads a spec from a benchmark name, a path, or "-" (stdin). Returns
/// false with a diagnostic printed.
bool loadSource(const std::string &BenchName, const std::string &InputPath,
                std::string &Source) {
  if (!BenchName.empty()) {
    const bench::BenchmarkDef *Def = bench::findBenchmark(BenchName);
    if (!Def) {
      std::fprintf(stderr, "unknown benchmark '%s' (try --list-benchmarks)\n",
                   BenchName.c_str());
      return false;
    }
    Source = Def->Source;
    return true;
  }
  if (InputPath == "-") {
    std::ostringstream Buf;
    Buf << std::cin.rdbuf();
    Source = Buf.str();
    return true;
  }
  if (!InputPath.empty()) {
    std::ifstream In(InputPath);
    if (!In) {
      std::fprintf(stderr, "cannot open %s\n", InputPath.c_str());
      return false;
    }
    std::ostringstream Buf;
    Buf << In.rdbuf();
    Source = Buf.str();
    return true;
  }
  return false;
}

//===----------------------------------------------------------------------===//
// cache subcommand
//===----------------------------------------------------------------------===//

int cacheFsck(int Argc, char **Argv) {
  std::string Dir, Profile;
  bool DropBad = false;
  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--profile=", 10) == 0)
      Profile = Arg + 10;
    else if (std::strcmp(Arg, "--drop-bad") == 0)
      DropBad = true;
    else if (Arg[0] == '-') {
      std::fprintf(stderr, "cache fsck: unknown option %s\n", Arg);
      return 2;
    } else if (Dir.empty())
      Dir = Arg;
    else {
      std::fprintf(stderr, "cache fsck: extra argument %s\n", Arg);
      return 2;
    }
  }
  if (Dir.empty()) {
    std::fprintf(stderr, "usage: expresso cache fsck <dir> "
                         "[--profile=NAME] [--drop-bad]\n");
    return 2;
  }
  persist::FsckReport Report;
  std::string Error;
  if (!persist::QueryStore::fsck(Dir, Profile, DropBad, Report, &Error)) {
    std::fprintf(stderr, "cache fsck: %s\n", Error.c_str());
    return 2;
  }
  std::printf("store %s:\n", Dir.c_str());
  std::printf("  header:           %s (profile '%s')\n",
              Report.HeaderOk ? "ok" : "INVALID", Report.Profile.c_str());
  std::printf("  records:          %llu valid (%llu duplicate keys)\n",
              static_cast<unsigned long long>(Report.GoodRecords),
              static_cast<unsigned long long>(Report.DuplicateKeys));
  std::printf("  undecodable keys: %llu\n",
              static_cast<unsigned long long>(Report.UndecodableKeys));
  std::printf("  bytes:            %llu total, %llu bad\n",
              static_cast<unsigned long long>(Report.TotalBytes),
              static_cast<unsigned long long>(Report.BadBytes));
  if (!Report.Problem.empty())
    std::printf("  problem:          %s\n", Report.Problem.c_str());
  if (Report.Rewritten)
    std::printf("  repaired:         log rewritten with only valid records\n");
  if (Report.clean() || Report.Rewritten) {
    std::printf("  verdict:          clean\n");
    return 0;
  }
  std::printf("  verdict:          UNCLEAN (rerun with --drop-bad to "
              "repair)\n");
  return 1;
}

int cacheWarm(int Argc, char **Argv) {
  std::string Dir, SolverName = "default";
  unsigned Jobs = 1;
  struct Spec {
    std::string Label;
    std::string Source;
  };
  std::vector<Spec> Specs;
  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--solver=", 9) == 0) {
      SolverName = Arg + 9;
    } else if (std::strncmp(Arg, "--benchmark=", 12) == 0) {
      Spec S;
      S.Label = Arg + 12;
      if (!loadSource(S.Label, "", S.Source))
        return 2;
      Specs.push_back(std::move(S));
    } else if (std::strncmp(Arg, "--jobs=", 7) == 0) {
      Jobs = driver::parseJobs(Arg + 7);
      if (Jobs == 0) {
        std::fprintf(stderr, "cache warm: bad --jobs value\n");
        return 2;
      }
    } else if (Arg[0] == '-') {
      std::fprintf(stderr, "cache warm: unknown option %s\n", Arg);
      return 2;
    } else if (Dir.empty()) {
      Dir = Arg;
    } else {
      Spec S;
      S.Label = Arg;
      if (!loadSource("", Arg, S.Source))
        return 2;
      Specs.push_back(std::move(S));
    }
  }
  if (Dir.empty() || Specs.empty()) {
    std::fprintf(stderr, "usage: expresso cache warm <dir> [--solver=NAME] "
                         "[--jobs=N] <spec.mon|--benchmark=NAME>...\n");
    return 2;
  }

  solver::SolverKind Kind = solver::parseSolverKind(SolverName);
  // Resolve the store profile exactly like an analysis run would.
  std::string Profile = solver::backendProfileName(Kind);
  if (Profile.empty()) {
    std::fprintf(stderr, "cache warm: solver backend '%s' is not "
                         "available in this build\n",
                 SolverName.c_str());
    return 2;
  }
  std::shared_ptr<persist::QueryStore> Store =
      persist::QueryStore::openReportingWarnings(Dir, /*ReadOnly=*/false,
                                                 Profile,
                                                 /*CacheEnabled=*/true);
  if (!Store) {
    std::fprintf(stderr, "cache warm: cannot open %s\n", Dir.c_str());
    return 2;
  }

  for (const Spec &S : Specs) {
    size_t Before = Store->size();
    driver::Compilation Comp;
    if (!Comp.frontend(S.Source)) {
      std::fprintf(stderr, "cache warm: %s failed %s:\n%s", S.Label.c_str(),
                   Comp.parsed() ? "sema" : "to parse",
                   Comp.diagnostics().c_str());
      return 1;
    }
    core::PlacementOptions Opts;
    Opts.Jobs = Jobs;
    WallTimer Timer;
    Comp.place(Kind, Opts, [&](const std::string &) { return Store; });
    std::printf("warmed %-28s %6.2fs  %zu solver queries, store %zu -> %zu "
                "records\n",
                S.Label.c_str(), Timer.elapsedSeconds(),
                Comp.result().Stats.SolverQueries, Before, Store->size());
  }
  return 0;
}

int cacheCompact(int Argc, char **Argv) {
  std::string Dir, Profile;
  persist::EvictionPolicy Policy;
  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--profile=", 10) == 0)
      Profile = Arg + 10;
    else if (std::strncmp(Arg, "--cache-max-bytes=", 18) == 0)
      Policy.MaxBytes = std::strtoull(Arg + 18, nullptr, 10);
    else if (std::strncmp(Arg, "--cache-ttl=", 12) == 0)
      Policy.TtlSeconds = std::atoll(Arg + 12);
    else if (Arg[0] == '-') {
      std::fprintf(stderr, "cache compact: unknown option %s\n", Arg);
      return 2;
    } else if (Dir.empty())
      Dir = Arg;
    else {
      std::fprintf(stderr, "cache compact: extra argument %s\n", Arg);
      return 2;
    }
  }
  if (Dir.empty()) {
    std::fprintf(stderr, "usage: expresso cache compact <dir> "
                         "[--profile=NAME] [--cache-max-bytes=N] "
                         "[--cache-ttl=SECONDS]\n");
    return 2;
  }
  if (Profile.empty()) {
    // Default to whatever the log says, so compaction never rotates a
    // store aside just because this build prefers another backend.
    persist::FsckReport Report;
    std::string Error;
    if (!persist::QueryStore::fsck(Dir, "", /*DropBad=*/false, Report,
                                   &Error)) {
      std::fprintf(stderr, "cache compact: %s\n", Error.c_str());
      return 2;
    }
    if (!Report.HeaderOk) {
      std::fprintf(stderr, "cache compact: %s (run cache fsck)\n",
                   Report.Problem.c_str());
      return 1;
    }
    Profile = Report.Profile;
  }
  persist::QueryStore::Options Opts;
  Opts.Profile = Profile;
  std::string Error;
  std::shared_ptr<persist::QueryStore> Store =
      persist::QueryStore::open(Dir, Opts, &Error);
  if (!Store) {
    std::fprintf(stderr, "cache compact: %s\n", Error.c_str());
    return 2;
  }
  Store->setEvictionPolicy(Policy);
  size_t Before = Store->size();
  if (!Store->compact(&Error)) {
    std::fprintf(stderr, "cache compact: %s\n", Error.c_str());
    return 1;
  }
  persist::StoreStats S = Store->stats();
  std::printf("compacted %s: %zu -> %zu records (%llu evicted: %llu ttl, "
              "%llu size)\n",
              Dir.c_str(), Before, Store->size(),
              static_cast<unsigned long long>(S.evicted()),
              static_cast<unsigned long long>(S.EvictedTtl),
              static_cast<unsigned long long>(S.EvictedSize));
  return 0;
}

int cacheMain(int Argc, char **Argv) {
  if (Argc < 1) {
    std::fprintf(stderr, "usage: expresso cache <fsck|warm|compact> <dir> "
                         "[args...]\n");
    return 2;
  }
  const char *Sub = Argv[0];
  if (std::strcmp(Sub, "fsck") == 0)
    return cacheFsck(Argc - 1, Argv + 1);
  if (std::strcmp(Sub, "warm") == 0)
    return cacheWarm(Argc - 1, Argv + 1);
  if (std::strcmp(Sub, "compact") == 0)
    return cacheCompact(Argc - 1, Argv + 1);
  std::fprintf(stderr, "unknown cache subcommand '%s' (fsck, warm, "
                       "compact)\n",
               Sub);
  return 2;
}

//===----------------------------------------------------------------------===//
// Spec generation subcommand
//===----------------------------------------------------------------------===//

/// `expresso specgen`: print a generated monitor spec to stdout. The same
/// generator powers the expresso-diff fuzz rig and the checked-in corpus;
/// this subcommand regenerates any of their specs from a config string.
int specgenMain(int Argc, char **Argv) {
  specgen::GenConfig Config;
  bool Check = false;
  auto parseU = [](const char *V, unsigned &Out) {
    char *End = nullptr;
    unsigned long N = std::strtoul(V, &End, 10);
    if (End == V || *End != '\0')
      return false;
    Out = static_cast<unsigned>(N);
    return true;
  };
  for (int I = 0; I < Argc; ++I) {
    const char *Arg = Argv[I];
    unsigned U = 0;
    if (std::strncmp(Arg, "--seed=", 7) == 0) {
      Config.Seed = std::strtoull(Arg + 7, nullptr, 10);
    } else if (std::strncmp(Arg, "--ccrs=", 7) == 0 && parseU(Arg + 7, U)) {
      Config.Ccrs = U;
    } else if (std::strncmp(Arg, "--ccrs-per-method=", 18) == 0 &&
               parseU(Arg + 18, U)) {
      Config.MaxCcrsPerMethod = U;
    } else if (std::strncmp(Arg, "--depth=", 8) == 0 && parseU(Arg + 8, U)) {
      Config.PredicateDepth = U;
    } else if (std::strncmp(Arg, "--fan-in=", 9) == 0 && parseU(Arg + 9, U)) {
      Config.FanIn = U;
    } else if (std::strncmp(Arg, "--ints=", 7) == 0 && parseU(Arg + 7, U)) {
      Config.IntFields = U;
    } else if (std::strncmp(Arg, "--bools=", 8) == 0 && parseU(Arg + 8, U)) {
      Config.BoolFields = U;
    } else if (std::strncmp(Arg, "--stmts=", 8) == 0 && parseU(Arg + 8, U)) {
      Config.BodyStmts = U;
    } else if (std::strncmp(Arg, "--shape=", 8) == 0) {
      if (!specgen::parseGuardShape(Arg + 8, Config.Shape)) {
        std::fprintf(stderr, "unknown --shape '%s' (comparison, arithmetic, "
                             "boolean, mixed)\n",
                     Arg + 8);
        return 2;
      }
    } else if (std::strcmp(Arg, "--loops") == 0) {
      Config.AllowLoops = true;
    } else if (std::strcmp(Arg, "--no-params") == 0) {
      Config.AllowParams = false;
    } else if (std::strcmp(Arg, "--no-const") == 0) {
      Config.ConstConfig = false;
    } else if (std::strncmp(Arg, "--name=", 7) == 0) {
      Config.Name = Arg + 7;
    } else if (std::strncmp(Arg, "--config=", 9) == 0) {
      std::string Error;
      if (!specgen::configFromString(Arg + 9, Config, &Error)) {
        std::fprintf(stderr, "bad --config: %s\n", Error.c_str());
        return 2;
      }
    } else if (std::strcmp(Arg, "--check") == 0) {
      Check = true;
    } else if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      std::fprintf(
          stderr,
          "usage: expresso specgen [options]\n"
          "Prints a deterministically generated monitor spec to stdout\n"
          "(same seed + knobs => byte-identical spec).\n"
          "  --seed=N --ccrs=N --ccrs-per-method=N --depth=N --fan-in=N\n"
          "  --ints=N --bools=N --stmts=N --shape=SHAPE --loops\n"
          "  --no-params --no-const --name=STR\n"
          "  --config=STR   full key=value,... config (see header comment\n"
          "                 in generated corpus files); overrides knobs so\n"
          "                 far, later flags still apply\n"
          "  --check        also parse + semantically check the generated\n"
          "                 spec and verify the config round-trips; exits\n"
          "                 nonzero on any failure\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown specgen option '%s' (try --help)\n", Arg);
      return 2;
    }
  }

  Config.normalize();
  std::string Source = specgen::generateMonitorSource(Config);
  std::string ConfigStr = specgen::configToString(Config);
  std::printf("// expresso specgen --config=%s\n%s", ConfigStr.c_str(),
              Source.c_str());

  if (Check) {
    specgen::GenConfig RoundTrip;
    std::string Error;
    if (!specgen::configFromString(ConfigStr, RoundTrip, &Error) ||
        !(RoundTrip == Config)) {
      std::fprintf(stderr, "specgen: config round-trip failed: %s\n",
                   Error.c_str());
      return 1;
    }
    driver::Compilation Comp;
    if (!Comp.frontend(Source)) {
      std::fprintf(stderr, "specgen: generated spec %s\n%s",
                   Comp.parsed() ? "fails sema" : "does not parse",
                   Comp.diagnostics().c_str());
      return 1;
    }
    std::fprintf(stderr, "specgen: ok (parses, passes sema)\n");
  }
  return 0;
}

/// The counter lines both statistics trailers print, local and served.
/// \p TierLabel names the store tier behind the memo and \p TierSuffix
/// annotates its line. Cache counters print in every configuration: a
/// --no-cache run shows uniform zeros instead of dropping the lines,
/// keeping the output schema stable for diffing and scripts.
void printCounterLines(const core::PlacementCounts &K, bool CacheQueries,
                       const char *TierLabel, const std::string &TierSuffix) {
  auto percent = [](uint64_t Hits, uint64_t Misses) {
    uint64_t Lookups = Hits + Misses;
    return Lookups == 0 ? 0.0 : static_cast<double>(Hits) / Lookups * 100;
  };
  std::printf("  hoare checks:         %" PRIu64 "\n", K.HoareChecks);
  std::printf("  solver queries:       %" PRIu64 "\n", K.SolverQueries);
  std::printf("  query cache:          %" PRIu64 " hits / %" PRIu64
              " misses (%.0f%%)%s\n",
              K.CacheHits, K.CacheMisses, percent(K.CacheHits, K.CacheMisses),
              CacheQueries ? "" : " [cache off]");
  std::printf("  %-22s%" PRIu64 " hits / %" PRIu64 " misses (%.0f%%)%s\n",
              TierLabel, K.SharedHits, K.SharedMisses,
              percent(K.SharedHits, K.SharedMisses), TierSuffix.c_str());
  std::printf("  pairs proved silent:  %" PRIu64 " / %" PRIu64 "\n",
              K.NoSignalProved, K.PairsConsidered);
  std::printf("  signals / broadcasts: %" PRIu64 " / %" PRIu64 "\n",
              K.Signals, K.Broadcasts);
  std::printf("  unconditional:        %" PRIu64 "\n", K.Unconditional);
  std::printf("  §4.3 wins:            %" PRIu64 "\n", K.CommutativityWins);
}

//===----------------------------------------------------------------------===//
// Daemon client mode
//===----------------------------------------------------------------------===//

/// Sends the assembled request to an expressod and prints the response the
/// way a local run would print its artifact. The artifact bytes (and for
/// --emit=summary everything up to the statistics trailer) are
/// byte-identical to a local run; the trailer reports daemon-side stats.
int runConnected(const std::string &SocketPath,
                 const service::PlaceRequest &Req, codegen::EmitKind Emit,
                 double DeadlineSeconds, const std::string &TraceOutPath) {
  std::string Error;
  std::unique_ptr<service::ServiceClient> Client =
      service::ServiceClient::connect(SocketPath, &Error);
  if (!Client) {
    std::fprintf(stderr, "cannot reach expressod: %s\n", Error.c_str());
    return 1;
  }
  // A deadline also bounds the wait for the *reply*: if the daemon wedges
  // outright, the client times out instead of hanging forever. The slack
  // covers the daemon's cooperative wind-down (a solver poll interval) and
  // the response's trip back.
  if (DeadlineSeconds > 0)
    Client->setReceiveTimeout(DeadlineSeconds + 5.0);
  service::PlaceResponse R;
  if (!Client->place(Req, R, &Error)) {
    std::fprintf(stderr, "expressod request failed: %s\n", Error.c_str());
    return 1;
  }
  if (R.Status == service::ResponseStatus::DeadlineExceeded) {
    std::fprintf(stderr,
                 "expressod: %s (%llu hoare checks, %llu queries before "
                 "cancellation)\n",
                 R.Error.empty() ? "deadline exceeded" : R.Error.c_str(),
                 static_cast<unsigned long long>(R.HoareChecks),
                 static_cast<unsigned long long>(R.SolverQueries));
    if (!TraceOutPath.empty() && !R.TraceJson.empty())
      writeTraceFile(TraceOutPath, R.TraceJson);
    return 1;
  }
  if (R.Status != service::ResponseStatus::Ok) {
    std::fprintf(stderr, "expressod: %s\n",
                 R.Error.empty() ? "request failed" : R.Error.c_str());
    return 1;
  }
  std::fputs(R.Artifact.c_str(), stdout);
  if (Emit == codegen::EmitKind::Summary) {
    std::printf("\nstatistics (served by expressod):\n");
    std::printf("  solver backend:       %s\n", R.SolverName.c_str());
    printCounterLines(R, Req.CacheQueries, "shared warm cache:",
                      R.StoreSkipped ? " [store skipped: profile mismatch]"
                                     : "");
    std::printf("  analysis time:        %.2fs (invariant %.2fs, queue "
                "%.2fs)\n",
                R.AnalysisSeconds, R.InvariantSeconds, R.QueueSeconds);
    std::printf("  placement jobs:       %u\n", R.JobsUsed);
    std::printf("  replayed:             %s\n", R.Replayed ? "yes" : "no");
  }
  if (!TraceOutPath.empty()) {
    if (R.TraceJson.empty()) {
      std::fprintf(stderr, "expressod returned no trace (pre-v3 daemon?)\n");
    } else {
      if (!writeTraceFile(TraceOutPath, R.TraceJson))
        return 1;
      std::fprintf(stderr, "trace %llu written to %s\n",
                   static_cast<unsigned long long>(R.TraceId),
                   TraceOutPath.c_str());
    }
  }
  return 0;
}

int runDaemonMetrics(const std::string &SocketPath) {
  std::string Error;
  std::unique_ptr<service::ServiceClient> Client =
      service::ServiceClient::connect(SocketPath, &Error);
  if (!Client) {
    std::fprintf(stderr, "cannot reach expressod: %s\n", Error.c_str());
    return 1;
  }
  std::string Text;
  if (!Client->metrics(Text, &Error)) {
    std::fprintf(stderr, "expressod metrics failed: %s\n", Error.c_str());
    return 1;
  }
  std::fputs(Text.c_str(), stdout);
  return 0;
}

int runDaemonStatus(const std::string &SocketPath) {
  std::string Error;
  std::unique_ptr<service::ServiceClient> Client =
      service::ServiceClient::connect(SocketPath, &Error);
  if (!Client) {
    std::fprintf(stderr, "cannot reach expressod: %s\n", Error.c_str());
    return 1;
  }
  service::StatusResponse S;
  if (!Client->status(S, &Error)) {
    std::fprintf(stderr, "expressod status failed: %s\n", Error.c_str());
    return 1;
  }
  std::printf("expressod on %s:\n", SocketPath.c_str());
  std::printf("  uptime:           %.1fs%s\n", S.UptimeSeconds,
              S.Draining ? " (draining)" : "");
  std::printf("  requests:         %llu served, %llu active, %llu queued, "
              "%llu rejected\n",
              static_cast<unsigned long long>(S.RequestsServed),
              static_cast<unsigned long long>(S.RequestsActive),
              static_cast<unsigned long long>(S.RequestsQueued),
              static_cast<unsigned long long>(S.RequestsRejected));
  std::printf("  outcomes:         %llu completed, %llu expired queued, "
              "%llu cancelled running\n",
              static_cast<unsigned long long>(S.RequestsCompleted),
              static_cast<unsigned long long>(S.RequestsExpiredQueued),
              static_cast<unsigned long long>(S.RequestsCancelledRunning));
  std::printf("  admission:        %llu rejected (%llu queue full, %llu "
              "draining)\n",
              static_cast<unsigned long long>(S.RequestsRejected),
              static_cast<unsigned long long>(S.RequestsRejectedFull),
              static_cast<unsigned long long>(S.RequestsRejectedDraining));
  std::printf("  latency:          p50 %.3fs, p99 %.3fs\n",
              S.LatencyP50Seconds, S.LatencyP99Seconds);
  std::printf("  replay cache:     %llu hits\n",
              static_cast<unsigned long long>(S.ResultCacheHits));
  std::printf("  shared store:     %llu records (%llu evicted), profile "
              "'%s', %s\n",
              static_cast<unsigned long long>(S.StoreRecords),
              static_cast<unsigned long long>(S.StoreEvicted),
              S.StoreProfile.c_str(),
              S.StoreDir.empty() ? "in-memory" : S.StoreDir.c_str());
  std::printf("  jobs budget:      %u total, %u available\n", S.JobsBudget,
              S.JobsAvailable);
  return 0;
}

int runDaemonShutdown(const std::string &SocketPath, bool Drain) {
  std::string Error;
  std::unique_ptr<service::ServiceClient> Client =
      service::ServiceClient::connect(SocketPath, &Error);
  if (!Client) {
    std::fprintf(stderr, "cannot reach expressod: %s\n", Error.c_str());
    return 1;
  }
  if (!Client->shutdown(Drain, &Error)) {
    std::fprintf(stderr, "expressod shutdown failed: %s\n", Error.c_str());
    return 1;
  }
  std::printf("expressod acknowledged shutdown (%s)\n",
              Drain ? "drain" : "immediate");
  return 0;
}

} // namespace

int main(int Argc, char **Argv) {
  if (Argc >= 2 && std::strcmp(Argv[1], "cache") == 0)
    return cacheMain(Argc - 2, Argv + 2);
  if (Argc >= 2 && std::strcmp(Argv[1], "specgen") == 0)
    return specgenMain(Argc - 2, Argv + 2);

  std::string EmitName = "summary";
  std::string SolverName = "default";
  std::string BenchName;
  std::string InputPath;
  std::string CacheDir;
  std::string ConnectPath;
  bool CacheReadOnly = false;
  persist::EvictionPolicy Eviction;
  core::PlacementOptions Options;
  bool ListBenchmarks = false;
  service::Priority Prio = service::Priority::Normal;
  bool NoResultCache = false;
  bool WantDaemonStatus = false;
  bool WantDaemonMetrics = false;
  bool WantShutdown = false;
  bool ShutdownDrain = true;
  double DeadlineSeconds = 0;
  std::string TraceOutPath;

  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--emit=", 7) == 0) {
      EmitName = Arg + 7;
    } else if (std::strncmp(Arg, "--solver=", 9) == 0) {
      SolverName = Arg + 9;
    } else if (std::strncmp(Arg, "--benchmark=", 12) == 0) {
      BenchName = Arg + 12;
    } else if (std::strcmp(Arg, "--list-benchmarks") == 0) {
      ListBenchmarks = true;
    } else if (std::string Error;
               driver::parsePlacementFlag(Argc, Argv, I, Options, Error)) {
      if (!Error.empty()) {
        std::fprintf(stderr, "%s\n", Error.c_str());
        return 1;
      }
    } else if (std::strncmp(Arg, "--cache-dir=", 12) == 0) {
      CacheDir = Arg + 12;
    } else if (std::strcmp(Arg, "--cache-readonly") == 0) {
      CacheReadOnly = true;
    } else if (std::strncmp(Arg, "--cache-max-bytes=", 18) == 0) {
      Eviction.MaxBytes = std::strtoull(Arg + 18, nullptr, 10);
    } else if (std::strncmp(Arg, "--cache-ttl=", 12) == 0) {
      Eviction.TtlSeconds = std::atoll(Arg + 12);
    } else if (std::strncmp(Arg, "--connect=", 10) == 0) {
      ConnectPath = Arg + 10;
    } else if (std::strncmp(Arg, "--priority=", 11) == 0) {
      const char *Value = Arg + 11;
      if (std::strcmp(Value, "high") == 0) {
        Prio = service::Priority::High;
      } else if (std::strcmp(Value, "normal") == 0) {
        Prio = service::Priority::Normal;
      } else {
        std::fprintf(stderr, "--priority expects normal|high (got '%s')\n",
                     Value);
        return 1;
      }
    } else if (std::strncmp(Arg, "--deadline=", 11) == 0) {
      char *End = nullptr;
      DeadlineSeconds = std::strtod(Arg + 11, &End);
      if (End == Arg + 11 || *End != '\0' || DeadlineSeconds <= 0) {
        std::fprintf(stderr,
                     "--deadline expects a positive number of seconds "
                     "(got '%s')\n",
                     Arg + 11);
        return 1;
      }
    } else if (std::strcmp(Arg, "--no-result-cache") == 0) {
      NoResultCache = true;
    } else if (std::strncmp(Arg, "--trace-out=", 12) == 0) {
      TraceOutPath = Arg + 12;
      if (TraceOutPath.empty()) {
        std::fprintf(stderr, "--trace-out expects a file path\n");
        return 1;
      }
    } else if (std::strcmp(Arg, "--daemon-status") == 0) {
      WantDaemonStatus = true;
    } else if (std::strcmp(Arg, "--daemon-metrics") == 0) {
      WantDaemonMetrics = true;
    } else if (std::strncmp(Arg, "--shutdown", 10) == 0) {
      WantShutdown = true;
      if (Arg[10] == '=') {
        if (std::strcmp(Arg + 11, "now") == 0)
          ShutdownDrain = false;
        else if (std::strcmp(Arg + 11, "drain") != 0) {
          std::fprintf(stderr, "--shutdown expects drain|now (got '%s')\n",
                       Arg + 11);
          return 1;
        }
      } else if (Arg[10] != '\0') {
        std::fprintf(stderr, "unknown option: %s\n", Arg);
        return 1;
      }
    } else if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      printUsage();
      return 0;
    } else if (Arg[0] == '-' && std::strcmp(Arg, "-") != 0) {
      std::fprintf(stderr, "unknown option: %s\n", Arg);
      printUsage();
      return 1;
    } else {
      InputPath = Arg;
    }
  }

  std::optional<codegen::EmitKind> Emit = codegen::parseEmitKind(EmitName);
  if (!Emit) {
    std::fprintf(stderr, "--emit expects summary|ir|cpp|java (got '%s')\n",
                 EmitName.c_str());
    return 1;
  }

  if (ListBenchmarks) {
    for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
      std::printf("%-28s %s (%s)\n", Def.Name.c_str(), Def.Figure.c_str(),
                  Def.Origin.c_str());
    return 0;
  }

  // Daemon control verbs need only the socket.
  if (WantDaemonStatus || WantDaemonMetrics || WantShutdown) {
    if (ConnectPath.empty()) {
      std::fprintf(stderr, "--daemon-status/--daemon-metrics/--shutdown "
                           "require --connect=SOCKET\n");
      return 1;
    }
    if (WantDaemonStatus)
      return runDaemonStatus(ConnectPath);
    if (WantDaemonMetrics)
      return runDaemonMetrics(ConnectPath);
    return runDaemonShutdown(ConnectPath, ShutdownDrain);
  }

  // Load the monitor source.
  std::string Source;
  if (!loadSource(BenchName, InputPath, Source)) {
    if (BenchName.empty() && InputPath.empty())
      printUsage();
    return 1;
  }

  // Client mode: ship the request to the resident daemon.
  if (!ConnectPath.empty()) {
    service::PlaceRequest Req;
    Req.Source = Source;
    Req.Emit = EmitName;
    Req.Solver = SolverName;
    Req.UseInvariant = Options.UseInvariant;
    Req.UseCommutativity = Options.UseCommutativity;
    Req.LazyBroadcast = Options.LazyBroadcast;
    Req.CacheQueries = Options.CacheQueries;
    Req.Incremental = Options.Incremental;
    Req.Jobs = Options.Jobs;
    Req.Prio = Prio;
    Req.BypassResultCache = NoResultCache;
    Req.DeadlineMs = static_cast<uint64_t>(DeadlineSeconds * 1000.0);
    Req.WantTrace = !TraceOutPath.empty();
    return runConnected(ConnectPath, Req, *Emit, DeadlineSeconds,
                        TraceOutPath);
  }

  // Pipeline: parse -> sema -> invariant -> placement -> emit.
  std::unique_ptr<obs::Tracer> Tracer;
  if (!TraceOutPath.empty())
    Tracer = std::make_unique<obs::Tracer>();
  WallTimer Timer;
  driver::Compilation Comp(Tracer.get());
  if (!Comp.frontend(Source)) {
    std::fprintf(stderr, "%s", Comp.diagnostics().c_str());
    return 1;
  }

  // Deadline: cooperative, polled at Hoare-check granularity through the
  // whole pipeline. A run finishing in time is untouched by the token.
  support::CancelToken Deadline;
  if (DeadlineSeconds > 0) {
    Deadline.setDeadlineAfterSeconds(DeadlineSeconds);
    Options.Cancel = &Deadline;
  }

  std::shared_ptr<persist::QueryStore> Store;
  driver::PlaceStatus Status = Comp.place(
      solver::parseSolverKind(SolverName), Options,
      [&](const std::string &Profile) {
        Store = persist::QueryStore::openReportingWarnings(
            CacheDir, CacheReadOnly, Profile, Options.CacheQueries);
        if (Store)
          Store->setEvictionPolicy(Eviction);
        return Store;
      });
  double Elapsed = Timer.elapsedSeconds();
  if (Status == driver::PlaceStatus::SolverUnavailable) {
    std::fprintf(stderr, "solver backend '%s' is not available in this "
                         "build\n",
                 SolverName.c_str());
    return 1;
  }
  const core::PlacementResult &Result = Comp.result();
  if (Status == driver::PlaceStatus::Cancelled) {
    std::fprintf(stderr,
                 "expresso: deadline of %gs exceeded during %s "
                 "(%zu hoare checks, %zu solver queries before "
                 "cancellation)\n",
                 DeadlineSeconds, Result.cancelledPhase(),
                 Result.Stats.HoareChecks, Result.Stats.SolverQueries);
    // The partial trace shows where the time went.
    if (Tracer)
      writeTraceFile(TraceOutPath, Tracer->exportChromeJson());
    return 1;
  }

  // Store size management: with an eviction policy, this run is also the
  // store's janitor — compact before reporting so the stats line can show
  // what was evicted.
  if (Store && !Store->readOnly() && Eviction.enabled())
    Store->compact();

  std::fputs(Comp.emit(*Emit).c_str(), stdout);
  if (*Emit == codegen::EmitKind::Summary) {
    std::printf("\nstatistics:\n");
    std::printf("  solver backend:       %s\n",
                Comp.rig().solver().name().c_str());
    // The persistent-cache line additionally reports store eviction when an
    // eviction policy ran (suffix only: the prefix stays grep-stable).
    std::string TierSuffix = Store ? (Store->readOnly() ? " [read-only]" : "")
                                   : " [no cache dir]";
    if (Store && Eviction.enabled()) {
      persist::StoreStats SS = Store->stats();
      TierSuffix += " [" + std::to_string(SS.evicted()) + " evicted: " +
                    std::to_string(SS.EvictedTtl) + " ttl, " +
                    std::to_string(SS.EvictedSize) + " size; " +
                    std::to_string(Store->size()) + " records kept]";
    }
    printCounterLines(Result.Stats.counts(), Options.CacheQueries,
                      "persistent cache:", TierSuffix);
    // Local only: the daemon's wire response has no model-tier counter.
    std::printf("  model tier:           %" PRIu64 " hits\n",
                Result.Stats.Cache.ModelHits);
    std::printf("  analysis time:        %.2fs (invariant %.2fs)\n", Elapsed,
                Result.Stats.InvariantSeconds);
    // Deliberately below summary(): Σ and the stats trailer are mode-
    // independent; only this diagnostic line says how VCs were discharged.
    std::printf("  incremental sessions: %s\n",
                Result.Stats.IncrementalSessions
                    ? "on"
                    : (Options.Incremental ? "off (backend is not natively "
                                             "incremental)"
                                           : "off"));
    std::printf("  placement jobs:       %u\n", Result.Stats.JobsUsed);
    for (size_t W = 0; W < Result.Stats.Workers.size(); ++W) {
      const core::WorkerStats &WS = Result.Stats.Workers[W];
      std::printf("    worker %zu: %llu pairs, %llu queries, %.2fs busy\n", W,
                  static_cast<unsigned long long>(WS.Pairs),
                  static_cast<unsigned long long>(WS.SolverQueries),
                  WS.BusySeconds);
    }
  }
  if (Tracer && !writeTraceFile(TraceOutPath, Tracer->exportChromeJson()))
    return 1;
  return 0;
}
