//===- tests/ServiceTest.cpp - Placement service tests ------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// Covers the expressod service layer end to end:
//  * protocol codecs: round trips, truncation/trailing-garbage rejection,
//    and refusal of frames from any other protocol version;
//  * CancelToken: deadline/cancel semantics and interrupt hooks;
//  * JobBudget: elastic FIFO slot leasing;
//  * RequestScheduler: priority-over-FIFO ordering, bounded-queue
//    rejection (split by cause), queued-deadline expiry, drain-vs-stop
//    semantics, and surviving throwing tasks;
//  * the daemon itself over real Unix sockets: Σ byte-parity with the
//    local pipeline across all workloads (serial and with N concurrent
//    clients), cross-request shared-cache hits, whole-response replay,
//    malformed/truncated frames failing closed without wedging the server,
//    graceful drain delivering in-flight responses, and a two-daemon fleet
//    sharing one cache directory;
//  * the deadline/cancellation failure-mode matrix: expiry while queued
//    and mid-placement (with the daemon healthy after), a generous
//    deadline being byte-invisible, cancelled runs publishing nothing
//    into the shared tiers, client receive timeouts instead of infinite
//    hangs, and the accept loop retrying through fd exhaustion.
//
// Everything runs on the MiniSmt backend so the suite is identical with
// and without Z3 (and runs under TSan in the sanitizer leg).
//
//===----------------------------------------------------------------------===//

#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "service/Server.h"

#include "bench/Workloads.h"
#include "codegen/Codegen.h"
#include "core/SignalPlacement.h"
#include "frontend/Parser.h"
#include "persist/QueryStore.h"
#include "persist/TermCodec.h"
#include "solver/SolverRig.h"
#include "support/CancelToken.h"
#include "support/ThreadPool.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <filesystem>
#include <mutex>
#include <stdexcept>
#include <thread>

#ifndef _WIN32
#include <fcntl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace expresso;
using namespace expresso::service;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// A private temp directory (for sockets and cache dirs).
struct TempDir {
  std::string Path;
  TempDir() {
    std::string Tmpl =
        (std::filesystem::temp_directory_path() / "expresso-svc-XXXXXX")
            .string();
    char *D = ::mkdtemp(Tmpl.data());
    EXPECT_NE(D, nullptr);
    Path = D ? std::string(D) : std::string();
  }
  ~TempDir() {
    std::error_code Ec;
    std::filesystem::remove_all(Path, Ec);
  }
  std::string sock(const char *Name = "d.sock") const {
    return Path + "/" + Name;
  }
};

/// The local (in-process, CLI-equivalent) pipeline on the mini backend:
/// the byte-parity reference for every daemon response.
struct LocalRun {
  std::string Sigma;
  std::string Summary;
  std::string Ir;
  std::string Cpp;
  std::string Java;
};

LocalRun runLocal(const std::string &BenchName,
                  support::CancelToken *Cancel = nullptr) {
  const bench::BenchmarkDef *Def = bench::findBenchmark(BenchName);
  EXPECT_NE(Def, nullptr);
  logic::TermContext C;
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(Def->Source, Diags);
  EXPECT_NE(M, nullptr) << Diags.str();
  auto Sema = frontend::analyze(*M, C, Diags);
  EXPECT_NE(Sema, nullptr) << Diags.str();
  solver::SolverRig Rig = solver::buildSolverRig(C, solver::SolverKind::Mini,
                                                 /*CacheQueries=*/true,
                                                 nullptr);
  core::PlacementOptions Opts;
  Opts.WorkerSolvers = solver::SolverFactory(solver::SolverKind::Mini);
  Opts.Cancel = Cancel;
  core::PlacementResult P = core::placeSignals(C, *Sema, Rig.solver(), Opts);
  EXPECT_FALSE(P.Cancelled);
  return {P.decisionSummary(), P.summary(), codegen::printTargetIr(P),
          codegen::emitCpp(P), codegen::emitJava(P)};
}

PlaceRequest benchRequest(const std::string &BenchName,
                          const std::string &Emit = "summary") {
  const bench::BenchmarkDef *Def = bench::findBenchmark(BenchName);
  EXPECT_NE(Def, nullptr);
  PlaceRequest Req;
  Req.Source = Def ? Def->Source : "";
  Req.Emit = Emit;
  Req.Solver = "mini";
  return Req;
}

ServerOptions miniServerOptions(const std::string &SocketPath) {
  ServerOptions Opts;
  Opts.SocketPath = SocketPath;
  Opts.Workers = 2;
  Opts.SolverName = "mini";
  return Opts;
}

std::vector<std::string> allWorkloadNames() {
  std::vector<std::string> Names;
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
    Names.push_back(Def.Name);
  return Names;
}

//===----------------------------------------------------------------------===//
// Protocol codecs
//===----------------------------------------------------------------------===//

TEST(ServiceTest, PlaceRequestRoundTripsAndRejectsDamage) {
  PlaceRequest Req;
  Req.Source = "monitor M { var x: int; }";
  Req.Emit = "ir";
  Req.Solver = "mini";
  Req.UseInvariant = false;
  Req.Incremental = false;
  Req.Jobs = 7;
  Req.Prio = Priority::High;
  Req.BypassResultCache = true;
  Req.DeadlineMs = 1500;
  Req.WantTrace = true;

  std::vector<uint8_t> Bytes;
  Req.encode(Bytes);
  PlaceRequest Out;
  ASSERT_TRUE(PlaceRequest::decode(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Source, Req.Source);
  EXPECT_EQ(Out.Emit, Req.Emit);
  EXPECT_EQ(Out.Solver, Req.Solver);
  EXPECT_EQ(Out.UseInvariant, Req.UseInvariant);
  EXPECT_EQ(Out.Incremental, Req.Incremental);
  EXPECT_EQ(Out.Jobs, Req.Jobs);
  EXPECT_EQ(Out.Prio, Req.Prio);
  EXPECT_EQ(Out.BypassResultCache, Req.BypassResultCache);
  EXPECT_EQ(Out.DeadlineMs, Req.DeadlineMs);
  EXPECT_EQ(Out.WantTrace, Req.WantTrace);

  // Every strict prefix is malformed (fail closed, no partial decodes)…
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    PlaceRequest Trunc;
    EXPECT_FALSE(PlaceRequest::decode(Bytes.data(), Len, Trunc))
        << "prefix of " << Len << " bytes decoded";
  }
  // …and so is trailing garbage.
  std::vector<uint8_t> Longer = Bytes;
  Longer.push_back(0);
  PlaceRequest Extra;
  EXPECT_FALSE(PlaceRequest::decode(Longer.data(), Longer.size(), Extra));
}

TEST(ServiceTest, PlaceResponseRoundTripsAndRejectsTruncation) {
  PlaceResponse R;
  R.Status = ResponseStatus::Ok;
  R.Artifact = "artifact bytes\n";
  R.DecisionSummary = "sigma\n";
  R.SolverName = "cache(mini)";
  R.HoareChecks = 42;
  R.CacheHits = 7;
  R.SharedHits = 9;
  R.PairsConsidered = 12;
  R.CommutativityWins = 3;
  R.AnalysisSeconds = 1.25;
  R.QueueSeconds = 0.5;
  R.JobsUsed = 3;
  R.Replayed = true;
  R.TraceId = 77;
  R.TraceJson = "{\"traceEvents\":[]}";

  std::vector<uint8_t> Bytes;
  R.encode(Bytes);
  PlaceResponse Out;
  ASSERT_TRUE(PlaceResponse::decode(Bytes.data(), Bytes.size(), Out));
  EXPECT_EQ(Out.Status, R.Status);
  EXPECT_EQ(Out.Artifact, R.Artifact);
  EXPECT_EQ(Out.DecisionSummary, R.DecisionSummary);
  EXPECT_EQ(Out.SolverName, R.SolverName);
  EXPECT_EQ(static_cast<const core::PlacementCounts &>(Out),
            static_cast<const core::PlacementCounts &>(R));
  EXPECT_DOUBLE_EQ(Out.AnalysisSeconds, R.AnalysisSeconds);
  EXPECT_DOUBLE_EQ(Out.QueueSeconds, R.QueueSeconds);
  EXPECT_EQ(Out.JobsUsed, R.JobsUsed);
  EXPECT_EQ(Out.Replayed, R.Replayed);
  EXPECT_EQ(Out.TraceId, R.TraceId);
  EXPECT_EQ(Out.TraceJson, R.TraceJson);

  // Every strict prefix is malformed.
  for (size_t Len = 0; Len < Bytes.size(); ++Len) {
    PlaceResponse Trunc;
    EXPECT_FALSE(PlaceResponse::decode(Bytes.data(), Len, Trunc))
        << "prefix of " << Len << " bytes decoded";
  }
}

/// Pins the response layout byte for byte: every field carries a distinct
/// non-zero value (counters above 127 so each is a two-byte varint), so a
/// codec that reorders two fields in both encode and decode — which a
/// round trip cannot notice — fails here.
TEST(ServiceTest, PlaceResponseWireBytesAreGolden) {
  PlaceResponse R;
  R.Status = ResponseStatus::DeadlineExceeded;
  R.Error = "err";
  R.Artifact = "art";
  R.DecisionSummary = "sig";
  R.SolverName = "mini";
  R.HoareChecks = 201;
  R.SolverQueries = 202;
  R.CacheHits = 203;
  R.CacheMisses = 204;
  R.SharedHits = 205;
  R.SharedMisses = 206;
  R.PairsConsidered = 207;
  R.NoSignalProved = 208;
  R.Signals = 209;
  R.Broadcasts = 210;
  R.Unconditional = 211;
  R.CommutativityWins = 212;
  R.AnalysisSeconds = 1.5;
  R.InvariantSeconds = 0.25;
  R.QueueSeconds = 0.125;
  R.JobsUsed = 3;
  R.Replayed = true;
  R.StoreSkipped = true;
  R.TraceId = 300;
  R.TraceJson = "{}";

  const std::vector<uint8_t> Golden = {
      0x07,                                     // status
      0x03, 'e',  'r',  'r',                    // error
      0x03, 'a',  'r',  't',                    // artifact
      0x03, 's',  'i',  'g',                    // decision summary
      0x04, 'm',  'i',  'n',  'i',              // solver name
      0xc9, 0x01, 0xca, 0x01, 0xcb, 0x01, 0xcc, 0x01, // hoare .. cache misses
      0xcd, 0x01, 0xce, 0x01, 0xcf, 0x01, 0xd0, 0x01, // shared .. no-signal
      0xd1, 0x01, 0xd2, 0x01, 0xd3, 0x01, 0xd4, 0x01, // signals .. §4.3 wins
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf8, 0x3f, // analysis 1.5 s
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xd0, 0x3f, // invariant 0.25 s
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xc0, 0x3f, // queue 0.125 s
      0x03,                                     // jobs used
      0x01, 0x01,                               // replayed, store skipped
      0xac, 0x02,                               // trace id 300
      0x02, '{',  '}',                          // trace JSON
  };
  std::vector<uint8_t> Bytes;
  R.encode(Bytes);
  EXPECT_EQ(Bytes, Golden);

  PlaceResponse Out;
  ASSERT_TRUE(PlaceResponse::decode(Golden.data(), Golden.size(), Out));
  std::vector<uint8_t> Again;
  Out.encode(Again);
  EXPECT_EQ(Again, Golden);
}

TEST(ServiceTest, StatusAndShutdownRoundTrip) {
  StatusResponse S;
  S.RequestsServed = 5;
  S.StoreRecords = 99;
  S.JobsBudget = 8;
  S.Draining = true;
  S.StoreProfile = "mini";
  S.StoreDir = "/tmp/x";
  S.RequestsRejectedFull = 3;
  S.RequestsRejectedDraining = 2;
  S.RequestsExpiredQueued = 4;
  S.RequestsCancelledRunning = 1;
  S.RequestsCompleted = 6;
  S.LatencyP50Seconds = 0.25;
  S.LatencyP99Seconds = 1.75;
  std::vector<uint8_t> Bytes;
  S.encode(Bytes);
  StatusResponse SOut;
  ASSERT_TRUE(StatusResponse::decode(Bytes.data(), Bytes.size(), SOut));
  EXPECT_EQ(SOut.RequestsServed, 5u);
  EXPECT_EQ(SOut.StoreRecords, 99u);
  EXPECT_EQ(SOut.JobsBudget, 8u);
  EXPECT_TRUE(SOut.Draining);
  EXPECT_EQ(SOut.StoreProfile, "mini");
  EXPECT_EQ(SOut.StoreDir, "/tmp/x");
  EXPECT_EQ(SOut.RequestsRejectedFull, 3u);
  EXPECT_EQ(SOut.RequestsRejectedDraining, 2u);
  EXPECT_EQ(SOut.RequestsExpiredQueued, 4u);
  EXPECT_EQ(SOut.RequestsCancelledRunning, 1u);
  EXPECT_EQ(SOut.RequestsCompleted, 6u);
  EXPECT_DOUBLE_EQ(SOut.LatencyP50Seconds, 0.25);
  EXPECT_DOUBLE_EQ(SOut.LatencyP99Seconds, 1.75);

  ShutdownRequest Sh;
  Sh.Drain = false;
  Bytes.clear();
  Sh.encode(Bytes);
  ShutdownRequest ShOut;
  ASSERT_TRUE(ShutdownRequest::decode(Bytes.data(), Bytes.size(), ShOut));
  EXPECT_FALSE(ShOut.Drain);
}

//===----------------------------------------------------------------------===//
// CancelToken
//===----------------------------------------------------------------------===//

TEST(ServiceTest, CancelTokenExpiresAndFiresInterruptHooksOnce) {
  support::CancelToken T;
  EXPECT_FALSE(T.expired());
  EXPECT_GT(T.remainingSeconds(), 1.0); // no deadline: effectively unbounded

  int Fired = 0;
  uint64_t Handle = T.registerInterrupt([&] { ++Fired; });
  EXPECT_NE(Handle, 0u);
  EXPECT_EQ(Fired, 0);
  T.cancel();
  EXPECT_TRUE(T.expired());
  EXPECT_EQ(Fired, 1);
  T.cancel(); // idempotent: hooks fire exactly once
  EXPECT_EQ(Fired, 1);
  EXPECT_DOUBLE_EQ(T.remainingSeconds(), 0.0);
  T.unregisterInterrupt(Handle);

  // Registration against an already-cancelled token fires immediately — a
  // solve that starts after cancellation must still be interrupted.
  int Late = 0;
  T.registerInterrupt([&] { ++Late; });
  EXPECT_EQ(Late, 1);

  // Deadline path: a non-positive budget is an immediate cancel…
  support::CancelToken Past;
  Past.setDeadlineAfterSeconds(-1.0);
  EXPECT_TRUE(Past.expired());
  // …and a generous one stays live with a finite remaining budget.
  support::CancelToken Future;
  Future.setDeadlineAfterSeconds(3600.0);
  EXPECT_FALSE(Future.expired());
  EXPECT_GT(Future.remainingSeconds(), 3500.0);
  EXPECT_LT(Future.remainingSeconds(), 3601.0);

  // ScopedInterrupt tolerates the no-deadline (null token) path.
  { support::ScopedInterrupt None(nullptr, [] {}); }
}

//===----------------------------------------------------------------------===//
// JobBudget
//===----------------------------------------------------------------------===//

TEST(ServiceTest, JobBudgetGrantsElasticallyAndReleases) {
  support::JobBudget Budget(4);
  EXPECT_EQ(Budget.total(), 4u);
  support::JobBudget::Lease A = Budget.acquire(2);
  EXPECT_EQ(A.slots(), 2u);
  EXPECT_EQ(Budget.available(), 2u);
  // A wide ask degrades to what is free instead of blocking forever.
  support::JobBudget::Lease B = Budget.acquire(8);
  EXPECT_EQ(B.slots(), 2u);
  EXPECT_EQ(Budget.available(), 0u);
  B.reset();
  EXPECT_EQ(Budget.available(), 2u);
  A.reset();
  EXPECT_EQ(Budget.available(), 4u);
  // Reset is idempotent.
  A.reset();
  EXPECT_EQ(Budget.available(), 4u);
}

TEST(ServiceTest, JobBudgetBlocksUntilASlotFreesThenWakesFifo) {
  support::JobBudget Budget(1);
  support::JobBudget::Lease Held = Budget.acquire(1);
  std::atomic<int> Got{0};
  std::thread Waiter([&] {
    support::JobBudget::Lease L = Budget.acquire(3);
    Got.store(static_cast<int>(L.slots()));
  });
  // The waiter must be blocked (no slots).
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(Got.load(), 0);
  Held.reset();
  Waiter.join();
  EXPECT_EQ(Got.load(), 1); // budget is 1, so the wide ask got 1
  EXPECT_EQ(Budget.available(), 1u);
}

//===----------------------------------------------------------------------===//
// RequestScheduler
//===----------------------------------------------------------------------===//

TEST(ServiceTest, SchedulerServesHighPriorityBeforeNormalFifo) {
  RequestScheduler::Options Opts;
  Opts.Workers = 1;
  Opts.MaxQueue = 16;
  RequestScheduler Sched(Opts);

  // Gate the single worker so the queue builds up deterministically.
  std::mutex GateMu;
  std::condition_variable GateCv;
  bool GateOpen = false;
  std::atomic<bool> GateRunning{false};
  ASSERT_TRUE(Sched.submit(Priority::Normal, [&] {
    GateRunning.store(true);
    std::unique_lock<std::mutex> Lock(GateMu);
    GateCv.wait(Lock, [&] { return GateOpen; });
  }));
  while (!GateRunning.load())
    std::this_thread::yield();

  std::mutex OrderMu;
  std::vector<int> Order;
  auto Record = [&](int Id) {
    return [&, Id] {
      std::lock_guard<std::mutex> Lock(OrderMu);
      Order.push_back(Id);
    };
  };
  ASSERT_TRUE(Sched.submit(Priority::Normal, Record(1)));
  ASSERT_TRUE(Sched.submit(Priority::Normal, Record(2)));
  ASSERT_TRUE(Sched.submit(Priority::High, Record(100)));
  ASSERT_TRUE(Sched.submit(Priority::Normal, Record(3)));
  ASSERT_TRUE(Sched.submit(Priority::High, Record(101)));

  {
    std::lock_guard<std::mutex> Lock(GateMu);
    GateOpen = true;
  }
  GateCv.notify_all();
  Sched.drain();

  ASSERT_EQ(Order.size(), 5u);
  // Both high-priority tasks ran first (FIFO within the level), then the
  // normals in arrival order.
  EXPECT_EQ(Order[0], 100);
  EXPECT_EQ(Order[1], 101);
  EXPECT_EQ(Order[2], 1);
  EXPECT_EQ(Order[3], 2);
  EXPECT_EQ(Order[4], 3);
  EXPECT_EQ(Sched.stats().Executed, 6u);
}

TEST(ServiceTest, SchedulerBoundsItsQueueAndRejectsOverflow) {
  RequestScheduler::Options Opts;
  Opts.Workers = 1;
  Opts.MaxQueue = 2;
  RequestScheduler Sched(Opts);

  std::mutex GateMu;
  std::condition_variable GateCv;
  bool GateOpen = false;
  std::atomic<bool> GateRunning{false};
  ASSERT_TRUE(Sched.submit(Priority::Normal, [&] {
    GateRunning.store(true);
    std::unique_lock<std::mutex> Lock(GateMu);
    GateCv.wait(Lock, [&] { return GateOpen; });
  }));
  while (!GateRunning.load())
    std::this_thread::yield();

  EXPECT_TRUE(Sched.submit(Priority::Normal, [] {}));
  EXPECT_TRUE(Sched.submit(Priority::Normal, [] {}));
  // Queue (not counting the in-flight gate) is full now.
  EXPECT_FALSE(Sched.submit(Priority::Normal, [] {}));
  EXPECT_FALSE(Sched.submit(Priority::High, [] {}));
  EXPECT_EQ(Sched.stats().Rejected, 2u);
  // Both refusals were capacity, not shutdown — the split tells a client
  // (and an operator reading status) whether to back off or give up.
  EXPECT_EQ(Sched.stats().RejectedFull, 2u);
  EXPECT_EQ(Sched.stats().RejectedDraining, 0u);

  {
    std::lock_guard<std::mutex> Lock(GateMu);
    GateOpen = true;
  }
  GateCv.notify_all();
  Sched.drain();
  EXPECT_EQ(Sched.stats().Executed, 3u);
  // Post-drain admission is refused — and counted as draining, not full.
  EXPECT_FALSE(Sched.submit(Priority::Normal, [] {}));
  EXPECT_EQ(Sched.stats().RejectedFull, 2u);
  EXPECT_EQ(Sched.stats().RejectedDraining, 1u);
  EXPECT_EQ(Sched.stats().Rejected, 3u);
}

TEST(ServiceTest, SchedulerStopDiscardsQueuedButFinishesInFlight) {
  RequestScheduler::Options Opts;
  Opts.Workers = 1;
  Opts.MaxQueue = 8;
  RequestScheduler Sched(Opts);

  std::mutex GateMu;
  std::condition_variable GateCv;
  bool GateOpen = false;
  std::atomic<bool> GateRunning{false};
  std::atomic<bool> GateFinished{false};
  ASSERT_TRUE(Sched.submit(Priority::Normal, [&] {
    GateRunning.store(true);
    std::unique_lock<std::mutex> Lock(GateMu);
    GateCv.wait(Lock, [&] { return GateOpen; });
    GateFinished.store(true);
  }));
  while (!GateRunning.load())
    std::this_thread::yield();
  std::atomic<int> Ran{0};
  ASSERT_TRUE(Sched.submit(Priority::Normal, [&] { ++Ran; }));
  ASSERT_TRUE(Sched.submit(Priority::Normal, [&] { ++Ran; }));

  std::thread Stopper([&] { Sched.stop(); });
  // stop() must wait for the in-flight gate task.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(GateFinished.load());
  {
    std::lock_guard<std::mutex> Lock(GateMu);
    GateOpen = true;
  }
  GateCv.notify_all();
  Stopper.join();
  EXPECT_TRUE(GateFinished.load());
  EXPECT_EQ(Ran.load(), 0);
  EXPECT_EQ(Sched.stats().Discarded, 2u);
}

TEST(ServiceTest, SchedulerExpiresQueuedDeadlinesWithoutRunningThem) {
  RequestScheduler::Options Opts;
  Opts.Workers = 1;
  Opts.MaxQueue = 8;
  RequestScheduler Sched(Opts);

  // Gate the single worker so the deadline entries sit in the queue.
  std::mutex GateMu;
  std::condition_variable GateCv;
  bool GateOpen = false;
  std::atomic<bool> GateRunning{false};
  ASSERT_TRUE(Sched.submit(Priority::Normal, [&] {
    GateRunning.store(true);
    std::unique_lock<std::mutex> Lock(GateMu);
    GateCv.wait(Lock, [&] { return GateOpen; });
  }));
  while (!GateRunning.load())
    std::this_thread::yield();

  // An entry whose deadline has already fired: its expiry handler must run
  // (so the client is answered), its task never (no worker burnt).
  auto Expired = std::make_shared<support::CancelToken>();
  Expired->cancel();
  std::atomic<bool> DeadTaskRan{false}, DeadAnswered{false};
  ASSERT_TRUE(Sched.submit(
      Priority::Normal, [&] { DeadTaskRan.store(true); }, Expired,
      [&] { DeadAnswered.store(true); }));

  // A live entry with a generous deadline runs exactly like a plain one.
  auto Live = std::make_shared<support::CancelToken>();
  Live->setDeadlineAfterSeconds(3600.0);
  std::atomic<bool> LiveRan{false}, LiveAnswered{false};
  ASSERT_TRUE(Sched.submit(
      Priority::Normal, [&] { LiveRan.store(true); }, Live,
      [&] { LiveAnswered.store(true); }));

  {
    std::lock_guard<std::mutex> Lock(GateMu);
    GateOpen = true;
  }
  GateCv.notify_all();
  Sched.drain();

  EXPECT_FALSE(DeadTaskRan.load());
  EXPECT_TRUE(DeadAnswered.load());
  EXPECT_TRUE(LiveRan.load());
  EXPECT_FALSE(LiveAnswered.load());
  SchedulerStats S = Sched.stats();
  EXPECT_EQ(S.ExpiredQueued, 1u);
  EXPECT_EQ(S.Executed, 2u); // the gate and the live entry; never the dead one
}

TEST(ServiceTest, SchedulerSurvivesThrowingTasks) {
  // Regression: an exception escaping a task used to unwind the worker
  // thread's top frame and std::terminate the whole daemon.
  RequestScheduler::Options Opts;
  Opts.Workers = 1;
  RequestScheduler Sched(Opts);
  ASSERT_TRUE(Sched.submit(Priority::Normal,
                           [] { throw std::runtime_error("task failed"); }));
  std::atomic<bool> Ran{false};
  ASSERT_TRUE(Sched.submit(Priority::Normal, [&] { Ran.store(true); }));
  Sched.drain();
  EXPECT_TRUE(Ran.load());
  EXPECT_EQ(Sched.stats().Executed, 2u); // the throwing task still counts
}

#ifndef _WIN32

//===----------------------------------------------------------------------===//
// The daemon over real sockets
//===----------------------------------------------------------------------===//

TEST(ServiceTest, DaemonMatchesLocalSigmaOnEveryWorkload) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;
  for (const std::string &Name : allWorkloadNames()) {
    PlaceResponse R;
    ASSERT_TRUE(Client->place(benchRequest(Name), R, &Error))
        << Name << ": " << Error;
    ASSERT_EQ(R.Status, ResponseStatus::Ok) << Name << ": " << R.Error;
    EXPECT_EQ(R.DecisionSummary, runLocal(Name).Sigma) << Name;
    EXPECT_GT(R.SolverQueries, 0u) << Name;
  }

  Srv.requestShutdown(/*Drain=*/true);
  Srv.wait();
}

TEST(ServiceTest, DaemonArtifactsAreByteIdenticalToLocal) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;
  for (const std::string &Name :
       {std::string("BoundedBuffer"), std::string("ReadersWriters"),
        std::string("AsyncDispatch")}) {
    LocalRun Local = runLocal(Name);
    for (const auto &[Emit, Expected] :
         {std::pair<std::string, std::string>{"ir", Local.Ir},
          {"cpp", Local.Cpp},
          {"java", Local.Java}}) {
      PlaceResponse R;
      ASSERT_TRUE(Client->place(benchRequest(Name, Emit), R, &Error))
          << Error;
      ASSERT_EQ(R.Status, ResponseStatus::Ok) << R.Error;
      EXPECT_EQ(R.Artifact, Expected) << Name << " --emit=" << Emit;
    }
  }
}

// An emit kind outside summary|ir|cpp|java is refused at decode, so the
// daemon answers Malformed instead of silently printing a summary.
TEST(ServiceTest, UnknownEmitKindIsMalformed) {
  PlaceRequest Req = benchRequest("BoundedBuffer", "c++");
  std::vector<uint8_t> Payload;
  Req.encode(Payload);
  PlaceRequest Out;
  EXPECT_FALSE(PlaceRequest::decode(Payload.data(), Payload.size(), Out));

  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;
  PlaceResponse R;
  ASSERT_TRUE(Client->place(Req, R, &Error)) << Error;
  EXPECT_EQ(R.Status, ResponseStatus::Malformed);
  EXPECT_TRUE(R.Artifact.empty());
  // The connection stays usable for a well-formed request.
  ASSERT_TRUE(Client->place(benchRequest("BoundedBuffer", "cpp"), R, &Error))
      << Error;
  EXPECT_EQ(R.Status, ResponseStatus::Ok) << R.Error;
}

TEST(ServiceTest, ConcurrentClientsAllGetParityAndTheServerSurvives) {
  TempDir Dir;
  ServerOptions Opts = miniServerOptions(Dir.sock());
  Opts.Workers = 3;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  const std::vector<std::string> Names = allWorkloadNames();
  // Reference Σ computed once, locally, up front.
  std::unordered_map<std::string, std::string> Reference;
  for (const std::string &Name : Names)
    Reference[Name] = runLocal(Name).Sigma;

  constexpr unsigned NumClients = 4;
  std::atomic<unsigned> Failures{0};
  std::vector<std::thread> Clients;
  for (unsigned T = 0; T < NumClients; ++T) {
    Clients.emplace_back([&, T] {
      std::string Err;
      auto Client = ServiceClient::connect(Dir.sock(), &Err);
      if (!Client) {
        ++Failures;
        return;
      }
      // Each client walks the workloads at a different starting offset so
      // requests overlap on different specs (and the same spec) at once.
      for (size_t I = 0; I < Names.size(); ++I) {
        const std::string &Name = Names[(I + T * 3) % Names.size()];
        PlaceRequest Req = benchRequest(Name);
        Req.BypassResultCache = (T % 2 == 0); // mix replay and execution
        PlaceResponse R;
        if (!Client->place(Req, R, &Err) ||
            R.Status != ResponseStatus::Ok ||
            R.DecisionSummary != Reference[Name]) {
          ++Failures;
          return;
        }
      }
    });
  }
  for (std::thread &C : Clients)
    C.join();
  EXPECT_EQ(Failures.load(), 0u);
  EXPECT_EQ(Srv.status().RequestsServed, NumClients * Names.size());

  Srv.requestShutdown(/*Drain=*/true);
  Srv.wait();
}

TEST(ServiceTest, SecondRequestHitsTheSharedWarmCache) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;

  PlaceRequest Req = benchRequest("SleepingBarber");
  Req.BypassResultCache = true;
  PlaceResponse Cold, Warm;
  ASSERT_TRUE(Client->place(Req, Cold, &Error)) << Error;
  ASSERT_EQ(Cold.Status, ResponseStatus::Ok) << Cold.Error;
  EXPECT_GT(Cold.SharedMisses, 0u); // first sight: real backend solves

  ASSERT_TRUE(Client->place(Req, Warm, &Error)) << Error;
  ASSERT_EQ(Warm.Status, ResponseStatus::Ok);
  // Cross-request reuse: request 2's VCs were proven for request 1. (The
  // warm hit rate is not asserted to be 100%: MiniSmt's mid-solve
  // interning keeps a tail of re-derived keys — the documented persistence
  // caveat — and summary()'s counter line differs accordingly, which is
  // why parity is on Σ, not on the summary artifact.)
  EXPECT_GT(Warm.SharedHits, Cold.SharedHits);
  EXPECT_LT(Warm.SharedMisses, Cold.SharedMisses);
  EXPECT_EQ(Warm.DecisionSummary, Cold.DecisionSummary);
  EXPECT_FALSE(Warm.Replayed);

  // And an unrelated workload still computes fresh (no false sharing).
  PlaceResponse Other;
  ASSERT_TRUE(Client->place(benchRequest("RoundRobin"), Other, &Error));
  ASSERT_EQ(Other.Status, ResponseStatus::Ok);
  EXPECT_EQ(Other.DecisionSummary, runLocal("RoundRobin").Sigma);
}

TEST(ServiceTest, ResultCacheReplaysWholeResponsesByteIdentically) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;

  PlaceRequest Req = benchRequest("TicketedRW");
  PlaceResponse First, Second;
  ASSERT_TRUE(Client->place(Req, First, &Error)) << Error;
  ASSERT_EQ(First.Status, ResponseStatus::Ok) << First.Error;
  EXPECT_FALSE(First.Replayed);
  ASSERT_TRUE(Client->place(Req, Second, &Error)) << Error;
  ASSERT_EQ(Second.Status, ResponseStatus::Ok);
  EXPECT_TRUE(Second.Replayed);
  EXPECT_EQ(Second.Artifact, First.Artifact);
  EXPECT_EQ(Second.DecisionSummary, First.DecisionSummary);
  // A changed semantic flag is a different key: no replay.
  PlaceRequest NoComm = Req;
  NoComm.UseCommutativity = false;
  PlaceResponse Third;
  ASSERT_TRUE(Client->place(NoComm, Third, &Error)) << Error;
  ASSERT_EQ(Third.Status, ResponseStatus::Ok);
  EXPECT_FALSE(Third.Replayed);
}

TEST(ServiceTest, MalformedAndTruncatedFramesFailClosedWithoutWedging) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  auto ExpectClosed = [&](const std::vector<uint8_t> &Bytes) {
    int Fd = connectUnix(Dir.sock(), &Error);
    ASSERT_GE(Fd, 0) << Error;
    ASSERT_EQ(::write(Fd, Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    // The server must close the connection (EOF) without sending a
    // PlaceResponse-typed frame.
    MsgType Type;
    std::vector<uint8_t> Payload;
    EXPECT_FALSE(recvFrame(Fd, Type, Payload));
    ::close(Fd);
  };

  // Garbage that is not a frame header.
  ExpectClosed({'g', 'a', 'r', 'b', 'a', 'g', 'e', '!', 0, 1, 2, 3, 4, 5, 6,
                7, 8, 9});
  // A valid header with an oversized length.
  {
    std::vector<uint8_t> Bytes;
    persist::ByteWriter B(Bytes);
    B.writeU32(FrameMagic);
    B.writeByte(ProtocolVersion);
    B.writeByte(static_cast<uint8_t>(MsgType::PlaceRequest));
    B.writeU32(static_cast<uint32_t>(MaxFramePayload + 1));
    B.writeU64(0);
    ExpectClosed(Bytes);
  }
  // A correct frame whose checksum is wrong.
  {
    std::vector<uint8_t> Payload = {1, 2, 3, 4};
    std::vector<uint8_t> Bytes;
    persist::ByteWriter B(Bytes);
    B.writeU32(FrameMagic);
    B.writeByte(ProtocolVersion);
    B.writeByte(static_cast<uint8_t>(MsgType::PlaceRequest));
    B.writeU32(static_cast<uint32_t>(Payload.size()));
    B.writeU64(0xdeadbeef); // not fnv1a(Payload)
    Bytes.insert(Bytes.end(), Payload.begin(), Payload.end());
    ExpectClosed(Bytes);
  }
  // A truncated frame: header promising more payload than ever arrives.
  {
    std::vector<uint8_t> Bytes;
    persist::ByteWriter B(Bytes);
    B.writeU32(FrameMagic);
    B.writeByte(ProtocolVersion);
    B.writeByte(static_cast<uint8_t>(MsgType::PlaceRequest));
    B.writeU32(64);
    B.writeU64(0);
    Bytes.push_back(7); // 1 of the promised 64 bytes
    int Fd = connectUnix(Dir.sock(), &Error);
    ASSERT_GE(Fd, 0) << Error;
    ASSERT_EQ(::write(Fd, Bytes.data(), Bytes.size()),
              static_cast<ssize_t>(Bytes.size()));
    ::shutdown(Fd, SHUT_WR); // EOF mid-payload
    MsgType Type;
    std::vector<uint8_t> Payload;
    EXPECT_FALSE(recvFrame(Fd, Type, Payload));
    ::close(Fd);
  }
  // A well-framed PlaceRequest whose *payload* is malformed: the server
  // answers Malformed (framing was intact) and then closes.
  {
    std::vector<uint8_t> Payload = {0xff, 0xff, 0xff};
    int Fd = connectUnix(Dir.sock(), &Error);
    ASSERT_GE(Fd, 0) << Error;
    ASSERT_TRUE(sendFrame(Fd, MsgType::PlaceRequest, Payload));
    MsgType Type;
    std::vector<uint8_t> Reply;
    ASSERT_TRUE(recvFrame(Fd, Type, Reply));
    ASSERT_EQ(Type, MsgType::PlaceResponse);
    PlaceResponse R;
    ASSERT_TRUE(PlaceResponse::decode(Reply.data(), Reply.size(), R));
    EXPECT_EQ(R.Status, ResponseStatus::Malformed);
    ::close(Fd);
  }
  // A response-typed frame from a confused peer: ErrorResponse, then close.
  {
    std::vector<uint8_t> Payload;
    int Fd = connectUnix(Dir.sock(), &Error);
    ASSERT_GE(Fd, 0) << Error;
    ASSERT_TRUE(sendFrame(Fd, MsgType::PlaceResponse, Payload));
    MsgType Type;
    std::vector<uint8_t> Reply;
    ASSERT_TRUE(recvFrame(Fd, Type, Reply));
    EXPECT_EQ(Type, MsgType::ErrorResponse);
    ::close(Fd);
  }

  // After all of that abuse, the server still serves a clean request.
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;
  PlaceResponse R;
  ASSERT_TRUE(Client->place(benchRequest("BoundedBuffer"), R, &Error))
      << Error;
  ASSERT_EQ(R.Status, ResponseStatus::Ok) << R.Error;
  EXPECT_EQ(R.DecisionSummary, runLocal("BoundedBuffer").Sigma);
}

TEST(ServiceTest, GracefulDrainDeliversInFlightResponsesThenExits) {
  TempDir Dir;
  ServerOptions Opts = miniServerOptions(Dir.sock());
  Opts.Workers = 1; // single lane: the drain really races an in-flight run
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  // Client A fires a request and reads its response on its own thread.
  std::atomic<bool> AOk{false};
  std::string ASigma;
  std::thread A([&] {
    std::string Err;
    auto Client = ServiceClient::connect(Dir.sock(), &Err);
    if (!Client)
      return;
    PlaceRequest Req = benchRequest("SimpleDecoder");
    Req.BypassResultCache = true;
    PlaceResponse R;
    if (Client->place(Req, R, &Err) && R.Status == ResponseStatus::Ok) {
      ASigma = R.DecisionSummary;
      AOk.store(true);
    }
  });

  // Client B asks for a drain while A's request is (likely) in flight.
  {
    auto Client = ServiceClient::connect(Dir.sock(), &Error);
    ASSERT_NE(Client, nullptr) << Error;
    ASSERT_TRUE(Client->shutdown(/*Drain=*/true, &Error)) << Error;
  }

  A.join();
  Srv.wait(); // must terminate: drain completes, threads join

  // A's response was delivered intact despite the drain.
  EXPECT_TRUE(AOk.load());
  EXPECT_EQ(ASigma, runLocal("SimpleDecoder").Sigma);
  // The socket is gone: new connections fail fast.
  auto Late = ServiceClient::connect(Dir.sock(), &Error);
  EXPECT_EQ(Late, nullptr);
}

TEST(ServiceTest, TwoDaemonFleetSharesOneCacheDirectory) {
  TempDir Dir;
  ServerOptions OptsA = miniServerOptions(Dir.sock("a.sock"));
  OptsA.CacheDir = Dir.Path + "/store";
  ServerOptions OptsB = miniServerOptions(Dir.sock("b.sock"));
  OptsB.CacheDir = Dir.Path + "/store";

  Server A(OptsA), B(OptsB);
  std::string Error;
  ASSERT_TRUE(A.start(&Error)) << Error;
  ASSERT_TRUE(B.start(&Error)) << Error;

  PlaceRequest Req = benchRequest("H2OBarrier");
  Req.BypassResultCache = true;

  // Daemon A pays the cold analysis and persists every answer.
  auto ClientA = ServiceClient::connect(OptsA.SocketPath, &Error);
  ASSERT_NE(ClientA, nullptr) << Error;
  PlaceResponse Cold;
  ASSERT_TRUE(ClientA->place(Req, Cold, &Error)) << Error;
  ASSERT_EQ(Cold.Status, ResponseStatus::Ok) << Cold.Error;
  EXPECT_GT(Cold.SharedMisses, 0u); // A paid real solves

  // Daemon B — a different process in real fleets, a different resident
  // store handle here — picks up A's appends (per-request refresh) and
  // serves the same workload mostly from A's work. Σ must be identical;
  // the hit rate is >0 but not asserted 100% (mini interning caveat).
  auto ClientB = ServiceClient::connect(OptsB.SocketPath, &Error);
  ASSERT_NE(ClientB, nullptr) << Error;
  PlaceResponse Warm;
  ASSERT_TRUE(ClientB->place(Req, Warm, &Error)) << Error;
  ASSERT_EQ(Warm.Status, ResponseStatus::Ok) << Warm.Error;
  EXPECT_GT(Warm.SharedHits, 0u);
  EXPECT_LT(Warm.SharedMisses, Cold.SharedMisses);
  EXPECT_EQ(Warm.DecisionSummary, Cold.DecisionSummary);

  A.requestShutdown(true);
  A.wait();
  B.requestShutdown(true);
  B.wait();
}

TEST(ServiceTest, StoreProfileGuardsRequestsForOtherBackends) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock())); // store keyed to "mini"
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;

  PlaceRequest Req = benchRequest("BoundedBuffer");
  Req.Solver = "default"; // z3 in Z3 builds (mismatch), mini otherwise
  PlaceResponse R;
  ASSERT_TRUE(Client->place(Req, R, &Error)) << Error;
  ASSERT_EQ(R.Status, ResponseStatus::Ok) << R.Error;
  if (solver::hasZ3()) {
    EXPECT_TRUE(R.StoreSkipped); // ran memo-only, never mixing profiles
    EXPECT_EQ(R.SharedHits + R.SharedMisses, 0u);
  } else {
    EXPECT_FALSE(R.StoreSkipped);
  }
  EXPECT_EQ(R.DecisionSummary, runLocal("BoundedBuffer").Sigma);
}

TEST(ServiceTest, StatusReflectsServiceState) {
  TempDir Dir;
  ServerOptions Opts = miniServerOptions(Dir.sock());
  Opts.JobsBudget = 5;
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;

  PlaceResponse R;
  ASSERT_TRUE(Client->place(benchRequest("BoundedBuffer"), R, &Error));
  ASSERT_TRUE(Client->place(benchRequest("BoundedBuffer"), R, &Error));
  EXPECT_TRUE(R.Replayed);

  StatusResponse S;
  ASSERT_TRUE(Client->status(S, &Error)) << Error;
  EXPECT_EQ(S.RequestsServed, 2u);
  EXPECT_EQ(S.ResultCacheHits, 1u);
  EXPECT_GT(S.StoreRecords, 0u);
  EXPECT_EQ(S.JobsBudget, 5u);
  EXPECT_EQ(S.JobsAvailable, 5u);
  EXPECT_EQ(S.StoreProfile, "mini");
  EXPECT_TRUE(S.StoreDir.empty()); // resident in-memory tier
  EXPECT_FALSE(S.Draining);
  // Outcome breakdown: both requests completed (the replay hit counts — it
  // produced a real answer), nothing expired, was cancelled, or rejected.
  EXPECT_EQ(S.RequestsCompleted, 2u);
  EXPECT_EQ(S.RequestsExpiredQueued, 0u);
  EXPECT_EQ(S.RequestsCancelledRunning, 0u);
  EXPECT_EQ(S.RequestsRejectedFull, 0u);
  EXPECT_EQ(S.RequestsRejectedDraining, 0u);
  EXPECT_GT(S.LatencyP50Seconds, 0.0);
  EXPECT_GE(S.LatencyP99Seconds, S.LatencyP50Seconds);
}

//===----------------------------------------------------------------------===//
// Deadlines, cancellation, and daemon failure modes
//===----------------------------------------------------------------------===//

TEST(ServiceTest, FramesOfOtherProtocolVersionsFailClosed) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  PlaceRequest Req = benchRequest("BoundedBuffer");
  std::vector<uint8_t> Full;
  Req.encode(Full);
  // DeadlineMs = 0 and WantTrace = false are one zero byte each, so a v2
  // client's payload lacks the last byte and a v1 client's the last two.
  ASSERT_EQ(Full.back(), 0u);
  ASSERT_EQ(Full[Full.size() - 2], 0u);
  auto ExpectRefused = [&](uint8_t Version, size_t PayloadLen) {
    std::vector<uint8_t> Frame;
    persist::ByteWriter B(Frame);
    B.writeU32(FrameMagic);
    B.writeByte(Version);
    B.writeByte(static_cast<uint8_t>(MsgType::PlaceRequest));
    B.writeU32(static_cast<uint32_t>(PayloadLen));
    B.writeU64(persist::fnv1a(Full.data(), PayloadLen));
    Frame.insert(Frame.end(), Full.begin(), Full.begin() + PayloadLen);
    int Fd = connectUnix(Dir.sock(), &Error);
    ASSERT_GE(Fd, 0) << Error;
    ASSERT_EQ(::write(Fd, Frame.data(), Frame.size()),
              static_cast<ssize_t>(Frame.size()));
    MsgType Type;
    std::vector<uint8_t> Reply;
    EXPECT_FALSE(recvFrame(Fd, Type, Reply))
        << "a version-" << int(Version) << " frame was answered";
    ::close(Fd);
  };
  ExpectRefused(1, Full.size() - 2);
  ExpectRefused(2, Full.size() - 1);
  // Nor does the daemon guess at a future version's format.
  ExpectRefused(ProtocolVersion + 1, Full.size());

  // A current client is still served.
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;
  PlaceResponse R;
  ASSERT_TRUE(Client->place(Req, R, &Error)) << Error;
  ASSERT_EQ(R.Status, ResponseStatus::Ok) << R.Error;
  EXPECT_EQ(R.DecisionSummary, runLocal("BoundedBuffer").Sigma);
}

TEST(ServiceTest, QueuedDeadlineIsAnsweredWithoutBurningAWorker) {
  TempDir Dir;
  ServerOptions Opts = miniServerOptions(Dir.sock());
  Opts.Workers = 1; // single lane, so queued work really waits
  Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;

  // Two no-deadline requests occupy the lane and build a queue.
  auto Occupy = [&] {
    std::string Err;
    auto C = ServiceClient::connect(Dir.sock(), &Err);
    if (!C)
      return;
    PlaceRequest Req = benchRequest("H2OBarrier");
    Req.BypassResultCache = true;
    PlaceResponse R;
    C->place(Req, R, &Err);
  };
  std::thread A(Occupy), B(Occupy);
  // Only once one occupier is running and the other is queued is the 1 ms
  // deadline below guaranteed to fire while still in the queue (a full
  // placement must complete before any worker reaches it).
  for (;;) {
    StatusResponse S = Srv.status();
    if (S.RequestsActive >= 1 && S.RequestsQueued >= 1)
      break;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;
  PlaceRequest Late = benchRequest("BoundedBuffer");
  Late.BypassResultCache = true;
  Late.DeadlineMs = 1;
  PlaceResponse R;
  ASSERT_TRUE(Client->place(Late, R, &Error)) << Error;
  EXPECT_EQ(R.Status, ResponseStatus::DeadlineExceeded);
  EXPECT_NE(R.Error.find("queued"), std::string::npos) << R.Error;
  EXPECT_TRUE(R.Artifact.empty());
  EXPECT_TRUE(R.DecisionSummary.empty());
  EXPECT_GT(R.QueueSeconds, 0.0);
  A.join();
  B.join();

  StatusResponse S = Srv.status();
  EXPECT_EQ(S.RequestsExpiredQueued, 1u);
  EXPECT_EQ(S.RequestsCancelledRunning, 0u);

  // The daemon is healthy and the same spec still answers byte-identically.
  PlaceResponse Again;
  ASSERT_TRUE(Client->place(benchRequest("BoundedBuffer"), Again, &Error))
      << Error;
  ASSERT_EQ(Again.Status, ResponseStatus::Ok) << Again.Error;
  EXPECT_EQ(Again.DecisionSummary, runLocal("BoundedBuffer").Sigma);

  Srv.requestShutdown(/*Drain=*/true);
  Srv.wait();
}

TEST(ServiceTest, MidPlacementDeadlineCancelsAndTheDaemonStaysHealthy) {
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;

  // A 1 ms deadline on an idle daemon: the request is picked up well
  // inside the millisecond, so the deadline fires mid-placement and the
  // pipeline winds down at its next poll point. The warmed store could in
  // principle let a retry finish inside 1 ms, so allow a few attempts —
  // in practice the first, cold one cancels.
  PlaceRequest Req = benchRequest("H2OBarrier");
  Req.DeadlineMs = 1;
  PlaceResponse R;
  bool Cancelled = false, AnyCompleted = false;
  for (int Attempt = 0; Attempt < 10 && !Cancelled; ++Attempt) {
    ASSERT_TRUE(Client->place(Req, R, &Error)) << Error;
    ASSERT_TRUE(R.Status == ResponseStatus::DeadlineExceeded ||
                R.Status == ResponseStatus::Ok)
        << R.Error;
    Cancelled = R.Status == ResponseStatus::DeadlineExceeded;
    AnyCompleted |= R.Status == ResponseStatus::Ok;
  }
  ASSERT_TRUE(Cancelled);
  // The cancelled answer carries partial stats but no artifact, and says
  // where the deadline struck.
  EXPECT_TRUE(R.Artifact.empty());
  EXPECT_TRUE(R.DecisionSummary.empty());
  EXPECT_TRUE(R.Error == "deadline exceeded during invariant inference" ||
              R.Error == "deadline exceeded during placement" ||
              R.Error == "deadline exceeded waiting for the job budget" ||
              R.Error == "deadline exceeded while queued")
      << R.Error;

  StatusResponse S = Srv.status();
  EXPECT_GE(S.RequestsCancelledRunning + S.RequestsExpiredQueued, 1u);

  // The cancelled run published nothing into the replay cache: the same
  // key (deadline is not part of it) computes fresh rather than replaying
  // a half-done answer, and Σ matches the local pipeline exactly.
  PlaceRequest Clean = benchRequest("H2OBarrier");
  PlaceResponse Full;
  ASSERT_TRUE(Client->place(Clean, Full, &Error)) << Error;
  ASSERT_EQ(Full.Status, ResponseStatus::Ok) << Full.Error;
  if (!AnyCompleted)
    EXPECT_FALSE(Full.Replayed);
  EXPECT_EQ(Full.DecisionSummary, runLocal("H2OBarrier").Sigma);

  // …and the replay tier still works for completed answers.
  PlaceResponse Replay;
  ASSERT_TRUE(Client->place(Clean, Replay, &Error)) << Error;
  ASSERT_EQ(Replay.Status, ResponseStatus::Ok);
  EXPECT_TRUE(Replay.Replayed);
  EXPECT_EQ(Replay.Artifact, Full.Artifact);

  StatusResponse After = Srv.status();
  EXPECT_GE(After.RequestsCompleted, 2u);
  EXPECT_GT(After.LatencyP50Seconds, 0.0);
  EXPECT_GE(After.LatencyP99Seconds, After.LatencyP50Seconds);
}

TEST(ServiceTest, GenerousDeadlineIsByteInvisible) {
  // The determinism contract: a request that completes under its deadline
  // is byte-identical to the same request with no deadline — first at the
  // pipeline level (an armed token threaded through placeSignals)…
  support::CancelToken Generous;
  Generous.setDeadlineAfterSeconds(3600.0);
  LocalRun Plain = runLocal("ReadersWriters");
  LocalRun Timed = runLocal("ReadersWriters", &Generous);
  EXPECT_EQ(Timed.Sigma, Plain.Sigma);
  EXPECT_EQ(Timed.Summary, Plain.Summary);
  EXPECT_EQ(Timed.Ir, Plain.Ir);

  // …then through the daemon, deadline run second so it sees the *warmer*
  // store (Σ and the ir artifact must not care).
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;

  PlaceRequest Control = benchRequest("ReadersWriters", "ir");
  Control.BypassResultCache = true;
  PlaceResponse C0;
  ASSERT_TRUE(Client->place(Control, C0, &Error)) << Error;
  ASSERT_EQ(C0.Status, ResponseStatus::Ok) << C0.Error;

  PlaceRequest TimedReq = Control;
  TimedReq.DeadlineMs = 10u * 60u * 1000u; // never fires
  PlaceResponse C1;
  ASSERT_TRUE(Client->place(TimedReq, C1, &Error)) << Error;
  ASSERT_EQ(C1.Status, ResponseStatus::Ok) << C1.Error;
  EXPECT_EQ(C1.Artifact, C0.Artifact);
  EXPECT_EQ(C1.DecisionSummary, C0.DecisionSummary);
  EXPECT_EQ(C1.Artifact, Plain.Ir);
}

TEST(ServiceTest, CancelledRunPublishesNothingIntoTheSharedTiers) {
  // The hardest no-publication case: a token already expired when the run
  // starts. Nothing may land in the shared store or the replay cache, so a
  // later clean run starts genuinely cold.
  ServerOptions Opts;
  Opts.SolverName = "mini";
  PlacementService Svc(Opts);
  support::CancelToken Tok;
  Tok.cancel();

  PlaceRequest Req = benchRequest("BoundedBuffer");
  PlaceResponse R = Svc.run(Req, /*QueueSeconds=*/0.0, &Tok);
  EXPECT_EQ(R.Status, ResponseStatus::DeadlineExceeded);
  EXPECT_TRUE(R.Artifact.empty());
  EXPECT_TRUE(R.DecisionSummary.empty());
  ASSERT_NE(Svc.store(), nullptr);
  EXPECT_EQ(Svc.store()->size(), 0u);
  EXPECT_EQ(Svc.requestsCancelledRunning(), 1u);
  EXPECT_EQ(Svc.requestsCompleted(), 0u);

  PlaceResponse Clean = Svc.run(Req, 0.0, nullptr);
  ASSERT_EQ(Clean.Status, ResponseStatus::Ok) << Clean.Error;
  EXPECT_FALSE(Clean.Replayed);    // the cancelled response was never cached
  EXPECT_EQ(Clean.SharedHits, 0u); // and it seeded no store records
  EXPECT_GT(Clean.SharedMisses, 0u);
  EXPECT_EQ(Clean.DecisionSummary, runLocal("BoundedBuffer").Sigma);
  EXPECT_EQ(Svc.requestsCompleted(), 1u);
}

/// How a local placement under a deadline token ended.
struct TimedRun {
  bool Cancelled = false;
  bool CancelledInInference = false;
  std::string Phase;
  std::string Summary;
};

/// A local placement of \p BenchName under \p Cancel; with
/// \p SupplyInvariant, I = true is passed in and inference never runs.
TimedRun placeUnder(const std::string &BenchName,
                    support::CancelToken *Cancel, bool SupplyInvariant) {
  const bench::BenchmarkDef *Def = bench::findBenchmark(BenchName);
  EXPECT_NE(Def, nullptr);
  logic::TermContext C;
  DiagnosticEngine Diags;
  auto M = frontend::parseMonitor(Def->Source, Diags);
  auto Sema = frontend::analyze(*M, C, Diags);
  solver::SolverRig Rig = solver::buildSolverRig(C, solver::SolverKind::Mini,
                                                 /*CacheQueries=*/true,
                                                 nullptr);
  core::PlacementOptions Opts;
  Opts.Cancel = Cancel;
  core::PlacementResult P =
      core::placeSignals(C, *Sema, Rig.solver(), Opts,
                         SupplyInvariant ? C.getTrue() : nullptr);
  return {P.Cancelled, P.CancelledInInference, P.cancelledPhase(),
          P.summary()};
}

TEST(ServiceTest, DeadlineNamesThePhaseItExpiredIn) {
  // An already-expired token: inference is the first phase to poll it.
  support::CancelToken Expired;
  Expired.cancel();
  TimedRun InInference =
      placeUnder("SimpleDecoder", &Expired, /*SupplyInvariant=*/false);
  EXPECT_TRUE(InInference.Cancelled);
  EXPECT_TRUE(InInference.CancelledInInference);
  EXPECT_EQ(InInference.Phase, "invariant inference");

  // The same token with the invariant supplied: no inference runs, so the
  // deadline is spent in placement.
  TimedRun InPlacement =
      placeUnder("SimpleDecoder", &Expired, /*SupplyInvariant=*/true);
  EXPECT_TRUE(InPlacement.Cancelled);
  EXPECT_FALSE(InPlacement.CancelledInInference);
  EXPECT_EQ(InPlacement.Phase, "placement");

  // A deadline that never fires flags nothing and changes no byte.
  support::CancelToken Generous;
  Generous.setDeadlineAfterSeconds(3600.0);
  TimedRun Timed =
      placeUnder("SimpleDecoder", &Generous, /*SupplyInvariant=*/false);
  TimedRun Plain =
      placeUnder("SimpleDecoder", nullptr, /*SupplyInvariant=*/false);
  EXPECT_FALSE(Timed.Cancelled);
  EXPECT_FALSE(Timed.CancelledInInference);
  EXPECT_EQ(Timed.Summary, Plain.Summary);
}

TEST(ServiceTest, ClientRecvTimesOutWhenTheDaemonWedges) {
  // Regression: a wedged daemon (accepts, never replies) used to block
  // `expresso --connect` in recv() forever.
  TempDir Dir;
  std::string Error;
  int Listen = listenUnix(Dir.sock(), /*Backlog=*/4, &Error);
  ASSERT_GE(Listen, 0) << Error;
  std::atomic<int> Wedged{-1};
  std::thread Acceptor(
      [&] { Wedged.store(::accept(Listen, nullptr, nullptr)); });

  auto Client = ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;
  ASSERT_TRUE(Client->setReceiveTimeout(0.2));
  auto Start = std::chrono::steady_clock::now();
  PlaceResponse R;
  std::string Err;
  EXPECT_FALSE(Client->place(benchRequest("BoundedBuffer"), R, &Err));
  EXPECT_NE(Err.find("timed out"), std::string::npos) << Err;
  double Waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - Start)
          .count();
  EXPECT_LT(Waited, 30.0); // bounded, not forever

  Acceptor.join();
  if (Wedged.load() >= 0)
    ::close(Wedged.load());
  ::close(Listen);
}

TEST(ServiceTest, AcceptLoopRetriesAfterFdExhaustion) {
  // Regression: EMFILE in accept() used to end the accept loop for good —
  // the daemon kept running but went permanently deaf.
  TempDir Dir;
  Server Srv(miniServerOptions(Dir.sock()));
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  {
    auto C = ServiceClient::connect(Dir.sock(), &Error);
    ASSERT_NE(C, nullptr) << Error;
    PlaceResponse R;
    ASSERT_TRUE(C->place(benchRequest("BoundedBuffer"), R, &Error)) << Error;
    ASSERT_EQ(R.Status, ResponseStatus::Ok) << R.Error;
  }

  // Squeeze the process's fd table until open() fails, leaving exactly one
  // slot for the client's socket: connect() then succeeds (backlog) while
  // the server's accept() has no fd to create and hits EMFILE.
  struct rlimit Old;
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &Old), 0);
  size_t Open = 0;
  for (const auto &E : std::filesystem::directory_iterator("/proc/self/fd")) {
    (void)E;
    ++Open;
  }
  struct rlimit Tight = Old;
  Tight.rlim_cur = Open + 4;
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Tight), 0);
  std::vector<int> Hogs;
  for (;;) {
    int Fd = ::open("/dev/null", O_RDONLY);
    if (Fd < 0)
      break;
    Hogs.push_back(Fd);
  }
  ASSERT_FALSE(Hogs.empty());
  ::close(Hogs.back());
  Hogs.pop_back();

  std::atomic<bool> Served{false};
  std::thread T([&] {
    std::string Err;
    auto C = ServiceClient::connect(Dir.sock(), &Err);
    if (!C)
      return;
    C->setReceiveTimeout(60.0); // fail fast if the acceptor really died
    PlaceResponse R;
    if (C->place(benchRequest("BoundedBuffer"), R, &Err) &&
        R.Status == ResponseStatus::Ok)
      Served.store(true);
  });
  // Let the acceptor spin through a few EMFILE/backoff rounds, then ease
  // the pressure: its next retry must pick the pending connection up.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  for (int Fd : Hogs)
    ::close(Fd);
  Hogs.clear();
  ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &Old), 0);
  T.join();
  EXPECT_TRUE(Served.load());

  Srv.requestShutdown(/*Drain=*/true);
  Srv.wait();
}

#endif // !_WIN32

} // namespace
