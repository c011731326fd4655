//===- tool/expressod.cpp - The resident placement daemon ---------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// `expressod`: a long-lived placement service. Clients (`expresso
/// --connect=SOCK`) send monitor specs over a Unix-domain socket; the
/// daemon runs the identical analysis pipeline against shared warm caches
/// — a resident canonical-key query store (optionally disk-backed) plus a
/// whole-response replay cache — so the second request for any workload is
/// orders of magnitude cheaper than a cold CLI run, while every Σ stays
/// byte-identical to the standalone `expresso`.
///
///   expressod --socket=/tmp/expressod.sock --workers=4 --cache-dir=qcache
///
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "service/Server.h"

#include <cstdio>
#include <cstdlib>
#include <cstring>

#ifndef _WIN32
#include <csignal>
#include <pthread.h>
#endif

#include <thread>

using namespace expresso;

namespace {

void printUsage() {
  std::fprintf(
      stderr,
      "usage: expressod --socket=PATH [options]\n"
      "\n"
      "Runs the resident signal-placement service. Clients connect with\n"
      "`expresso --connect=PATH ...` and receive byte-identical artifacts\n"
      "to the standalone CLI, served from shared warm caches.\n"
      "\n"
      "options:\n"
      "  --socket=PATH            Unix-domain socket to listen on (required)\n"
      "  --workers=N              concurrent placements (default 2)\n"
      "  --queue=N                admission queue bound (default 64)\n"
      "  --jobs-budget=N|auto     global worker-slot budget requests lease\n"
      "                           their --jobs from (default: one per core)\n"
      "  --solver=NAME            backend the shared store is keyed to\n"
      "                           (default: the build's preferred solver)\n"
      "  --cache-dir=DIR          persist the shared store in DIR (and reuse\n"
      "                           answers other processes/daemons wrote)\n"
      "  --cache-readonly         consult --cache-dir but never write it\n"
      "  --cache-max-bytes=N      evict least-recently-used records beyond\n"
      "                           N bytes when the store compacts\n"
      "  --cache-ttl=SECONDS      evict records unused for SECONDS at\n"
      "                           compaction\n"
      "  --no-result-cache        disable the whole-response replay cache\n"
      "  --default-deadline=SECONDS\n"
      "                           deadline for requests that carry none\n"
      "                           (cooperatively cancelled past it; a\n"
      "                           request's own --deadline always wins;\n"
      "                           default: none)\n"
      "  --request-log=FILE       append one JSON object per served request\n"
      "                           (trace id — echoed to the client —\n"
      "                           outcome, queue/run seconds, deadline\n"
      "                           budget, placement counters, jobs leased)\n"
      "\n"
      "SIGINT/SIGTERM (or a client shutdown request) drains gracefully:\n"
      "admission stops, queued and in-flight requests finish and respond,\n"
      "the store is compacted under the eviction policy, then the daemon\n"
      "exits.\n");
}

} // namespace

#ifndef _WIN32

int main(int Argc, char **Argv) {
  service::ServerOptions Opts;
  for (int I = 1; I < Argc; ++I) {
    const char *Arg = Argv[I];
    if (std::strncmp(Arg, "--socket=", 9) == 0) {
      Opts.SocketPath = Arg + 9;
    } else if (std::strncmp(Arg, "--workers=", 10) == 0) {
      int N = std::atoi(Arg + 10);
      if (N <= 0) {
        std::fprintf(stderr, "--workers expects a positive count\n");
        return 1;
      }
      Opts.Workers = static_cast<unsigned>(N);
    } else if (std::strncmp(Arg, "--queue=", 8) == 0) {
      int N = std::atoi(Arg + 8);
      if (N <= 0) {
        std::fprintf(stderr, "--queue expects a positive count\n");
        return 1;
      }
      Opts.QueueDepth = static_cast<size_t>(N);
    } else if (std::strncmp(Arg, "--jobs-budget=", 14) == 0) {
      Opts.JobsBudget = driver::parseJobs(Arg + 14);
      if (Opts.JobsBudget == 0) {
        std::fprintf(stderr,
                     "--jobs-budget expects a positive count or \"auto\"\n");
        return 1;
      }
    } else if (std::strncmp(Arg, "--solver=", 9) == 0) {
      Opts.SolverName = Arg + 9;
    } else if (std::strncmp(Arg, "--cache-dir=", 12) == 0) {
      Opts.CacheDir = Arg + 12;
    } else if (std::strcmp(Arg, "--cache-readonly") == 0) {
      Opts.CacheReadOnly = true;
    } else if (std::strncmp(Arg, "--cache-max-bytes=", 18) == 0) {
      Opts.Eviction.MaxBytes = std::strtoull(Arg + 18, nullptr, 10);
    } else if (std::strncmp(Arg, "--cache-ttl=", 12) == 0) {
      Opts.Eviction.TtlSeconds = std::atoll(Arg + 12);
    } else if (std::strcmp(Arg, "--no-result-cache") == 0) {
      Opts.ResultCache = false;
    } else if (std::strncmp(Arg, "--default-deadline=", 19) == 0) {
      char *End = nullptr;
      double Seconds = std::strtod(Arg + 19, &End);
      if (End == Arg + 19 || *End != '\0' || Seconds <= 0) {
        std::fprintf(stderr, "--default-deadline expects a positive number "
                             "of seconds\n");
        return 1;
      }
      Opts.DefaultDeadlineMs = static_cast<uint64_t>(Seconds * 1000.0);
    } else if (std::strncmp(Arg, "--request-log=", 14) == 0) {
      Opts.RequestLogPath = Arg + 14;
      if (Opts.RequestLogPath.empty()) {
        std::fprintf(stderr, "--request-log expects a file path\n");
        return 1;
      }
    } else if (std::strcmp(Arg, "--help") == 0 || std::strcmp(Arg, "-h") == 0) {
      printUsage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown option: %s\n", Arg);
      printUsage();
      return 1;
    }
  }
  if (Opts.SocketPath.empty()) {
    printUsage();
    return 1;
  }

  // Block the shutdown signals in every thread (the mask is inherited);
  // one dedicated thread sigwait()s them and triggers a graceful drain.
  sigset_t Sigs;
  sigemptyset(&Sigs);
  sigaddset(&Sigs, SIGINT);
  sigaddset(&Sigs, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &Sigs, nullptr);
  ::signal(SIGPIPE, SIG_IGN); // a vanished client must not kill the daemon

  service::Server Server(Opts);
  std::string Error;
  if (!Server.start(&Error)) {
    std::fprintf(stderr, "expressod: %s\n", Error.c_str());
    return 1;
  }
  std::fprintf(stderr, "expressod: serving on %s (workers %u, budget %u, "
                       "store %s)\n",
               Opts.SocketPath.c_str(), Opts.Workers,
               Server.service().budget().total(),
               Opts.CacheDir.empty() ? "in-memory" : Opts.CacheDir.c_str());

  std::atomic<bool> SignalThreadDone{false};
  std::thread SignalThread([&] {
    for (;;) {
      int Sig = 0;
      if (sigwait(&Sigs, &Sig) != 0)
        return;
      if (SignalThreadDone.load())
        return;
      std::fprintf(stderr, "expressod: signal %d, draining\n", Sig);
      Server.requestShutdown(/*Drain=*/true);
    }
  });

  Server.wait();

  // Unblock the signal thread: it consumes one synthetic SIGTERM and sees
  // the done flag.
  SignalThreadDone.store(true);
  pthread_kill(SignalThread.native_handle(), SIGTERM);
  SignalThread.join();

  service::StatusResponse S = Server.status();
  std::fprintf(stderr,
               "expressod: exiting — %llu requests served, %llu replay "
               "hits, store %llu records (%llu evicted)\n",
               static_cast<unsigned long long>(S.RequestsServed),
               static_cast<unsigned long long>(S.ResultCacheHits),
               static_cast<unsigned long long>(S.StoreRecords),
               static_cast<unsigned long long>(S.StoreEvicted));
  return 0;
}

#else

int main() {
  std::fprintf(stderr, "expressod is not supported on this platform\n");
  return 1;
}

#endif
