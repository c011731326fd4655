//===- perfbench/src/serve.cpp - The `serve` workload ---------------------===//
//
// Part of expresso-cpp's repository benchmark.
//
// Daemon latency. An open loop: arrivals at one fixed rate, sent from this
// process over the Unix socket of an in-process expressod. Daemon workers
// plus client connections stay within the machine's cores. Each latency
// runs from the request's due time, so a stall also delays the requests
// queued behind it, and the generator's own lateness is reported.
//
// The request mix: cold requests for fresh specs (every cache tier misses,
// the store is written), warm re-analyses of specs seen during set-up with
// the replay cache bypassed (the store is read), hot exact repeats answered
// by replay, and MiniSmt requests on the paper monitors (the store is
// skipped), each with an emit kind. The requests are pinned (spec pools,
// class counts, which spec and emit kind each request has); the seed draws
// their order and arrival times. Drawing the specs from the seed let one
// heavy spec's queueing move the median by half.
//
// The schedule is replayed a few times, each replay against a freshly
// started and warmed daemon, and each request is scored at its fastest
// replay: the machine's speed drifts over seconds, and a request's best of
// several replays spread over the run moves far less than a single one.
//
//===----------------------------------------------------------------------===//

#include "common.h"

#include "bench/Workloads.h"
#include "service/Client.h"
#include "service/Server.h"
#include "specgen/SpecGen.h"
#include "support/Rng.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <thread>

#include <unistd.h>

using namespace expresso;
using namespace perfbench;

namespace {

/// Arrivals per second, fixed so that every run offers the same load. On a
/// 4-core machine the two daemon workers are busy about a quarter of the
/// time (printed as the daemon's utilization); at higher load, queueing
/// turned the machine's speed drift into more latency spread.
constexpr double Rate = 25;

/// Replays of the schedule in one run; each lasts a share of --seconds.
constexpr unsigned Replays = 5;

/// Requests per class in every hundred arrivals: cold, warm, hot, MiniSmt.
/// Hot replays take under a millisecond and small warm specs a few, the
/// rest tens; with more hot requests the median fell into that gap and
/// jumped between runs.
constexpr unsigned ClassShare[4] = {40, 35, 15, 10};

/// Specs the daemon sees during set-up (targets of warm and hot requests).
constexpr unsigned NumSeen = 12;

/// specgen seeds left out of the fresh pool: analysis of
/// seed=2074,ccrs=2,shape=arithmetic,fanin=1 does not finish within minutes.
constexpr uint64_t SkippedSeeds[] = {2074};

const char *const EmitKinds[] = {"summary", "ir", "cpp", "java"};

enum class Class { Cold, Warm, Hot, Mini };

const char *className(Class K) {
  switch (K) {
  case Class::Cold:
    return "cold";
  case Class::Warm:
    return "warm";
  case Class::Hot:
    return "hot";
  case Class::Mini:
    return "mini";
  }
  return "?";
}

struct Spec {
  std::string Name;
  std::string Source;
  std::string Emit; ///< the kind its set-up request used (seen specs)
};

struct Request {
  double Due = 0; ///< seconds after the schedule's start
  Class K = Class::Cold;
  const Spec *S = nullptr;
  service::PlaceRequest Req;
};

struct Outcome {
  double Latency = 0;   ///< done − due
  double RoundTrip = 0; ///< done − sent
  double Late = 0;      ///< sent − due
  bool Transport = false;
  std::string Error;
  service::PlaceResponse Resp;
};

/// A pinned small spec: fan-in 1 and two or three CCRs keep each cold
/// analysis within tens of milliseconds.
Spec genSpec(const std::string &Name, uint64_t GenSeed, unsigned Index) {
  const specgen::GuardShape Shapes[] = {
      specgen::GuardShape::Comparison, specgen::GuardShape::Arithmetic,
      specgen::GuardShape::Boolean, specgen::GuardShape::Mixed};
  specgen::GenConfig Cfg;
  Cfg.Seed = GenSeed;
  Cfg.Ccrs = 2 + Index % 2;
  Cfg.Shape = Shapes[(Index / 2) % 4];
  Cfg.FanIn = 1;
  Cfg.normalize();
  return {Name + " (" + specgen::configToString(Cfg) + ")",
          specgen::generateMonitorSource(Cfg), ""};
}

/// The seen set, the fresh set and the schedule for one seed.
struct Plan {
  std::vector<Spec> Seen, Fresh, Paper;
  std::vector<Request> Requests;
};

void buildPlan(uint64_t Seed, double Seconds, Plan &P) {
  Rng R(mix64(Seed));
  size_t N = static_cast<size_t>(Rate * Seconds);
  size_t Count[4];
  for (unsigned K = 0; K < 4; ++K)
    Count[K] = (N * ClassShare[K] + 50) / 100;
  Count[static_cast<unsigned>(Class::Warm)] =
      N - Count[0] - Count[2] - Count[3];

  for (unsigned I = 0; I < NumSeen; ++I) {
    P.Seen.push_back(genSpec("seen" + std::to_string(I), 1000 + I, I));
    P.Seen.back().Emit = EmitKinds[I % 4];
  }
  for (uint64_t GenSeed = 2000; P.Fresh.size() < Count[0]; ++GenSeed)
    if (std::find(std::begin(SkippedSeeds), std::end(SkippedSeeds),
                  GenSeed) == std::end(SkippedSeeds))
      P.Fresh.push_back(genSpec("fresh" + std::to_string(P.Fresh.size()),
                                GenSeed, P.Fresh.size()));
  for (const bench::BenchmarkDef &Def : bench::allBenchmarks())
    P.Paper.push_back({"paper/" + Def.Name, Def.Source, ""});

  // The requests themselves are pinned: exact class counts, each class
  // cycling through its spec pool and the emit kinds. The seed only orders
  // them and draws their arrival times, so that no run's median hinges on
  // how many hot requests or which heavy specs its seed drew.
  for (unsigned K = 0; K < 4; ++K) {
    const std::vector<Spec> &Pool = K == 0 ? P.Fresh : K == 3 ? P.Paper
                                                               : P.Seen;
    for (size_t J = 0; J < Count[K]; ++J) {
      Request Q;
      Q.K = static_cast<Class>(K);
      Q.S = &Pool[J % Pool.size()];
      Q.Req.Source = Q.S->Source;
      Q.Req.Emit = Q.K == Class::Hot
                       ? Q.S->Emit
                       : EmitKinds[(J + J / Pool.size()) % 4];
      if (Q.K == Class::Mini)
        Q.Req.Solver = "mini";
      Q.Req.BypassResultCache = Q.K == Class::Warm || Q.K == Class::Mini;
      P.Requests.push_back(std::move(Q));
    }
  }
  for (size_t I = N; I > 1; --I)
    std::swap(P.Requests[I - 1], P.Requests[R.below(I)]);

  // Arrival times: N uniform draws over the run, sorted — a Poisson
  // process conditioned on its count.
  std::vector<double> Due(N);
  for (double &T : Due)
    T = Seconds * static_cast<double>(R.below(1u << 30)) / (1u << 30);
  std::sort(Due.begin(), Due.end());
  for (size_t I = 0; I < N; ++I)
    P.Requests[I].Due = Due[I];
}

unsigned daemonWorkers() { return std::max(1u, hardwareThreads() / 2); }
unsigned clientConnections() {
  return std::max(1u, hardwareThreads() - daemonWorkers());
}

service::ServerOptions serverOptions(const std::string &Socket) {
  service::ServerOptions O;
  O.SocketPath = Socket;
  O.Workers = daemonWorkers();
  O.JobsBudget = daemonWorkers(); // each request runs with one job
  O.QueueDepth = 1024;
  O.ResultCacheCap = 4096; // the seen set must never be evicted
  return O;
}

/// Starts a daemon and shows it every seen spec once (replay on), so warm
/// requests find the store filled and hot requests find a replay entry.
std::unique_ptr<service::Server> startWarmDaemon(const std::string &Socket,
                                                 const Plan &P,
                                                 std::string &Error) {
  auto Srv = std::make_unique<service::Server>(serverOptions(Socket));
  if (!Srv->start(&Error))
    return nullptr;
  std::unique_ptr<service::ServiceClient> Client =
      service::ServiceClient::connect(Socket, &Error);
  if (!Client)
    return nullptr;
  for (const Spec &S : P.Seen) {
    service::PlaceRequest Req;
    Req.Source = S.Source;
    Req.Emit = S.Emit;
    service::PlaceResponse Resp;
    if (!Client->place(Req, Resp, &Error))
      return nullptr;
    if (Resp.Status != service::ResponseStatus::Ok) {
      Error = S.Name + ": " + Resp.Error;
      return nullptr;
    }
  }
  return Srv;
}

void stopDaemon(std::unique_ptr<service::Server> &Srv) {
  Srv->requestShutdown(/*Drain=*/true);
  Srv->wait();
  Srv.reset();
}

/// Plays the schedule against the daemon at \p Socket: each connection
/// takes the next request in due order, sleeps until it is due and sends
/// it. False when a connection cannot be opened.
bool playSchedule(const std::string &Socket, const Plan &P,
                  std::vector<Outcome> &Out, std::string &Error) {
  std::vector<std::unique_ptr<service::ServiceClient>> Clients;
  for (unsigned I = 0; I < clientConnections(); ++I) {
    Clients.push_back(service::ServiceClient::connect(Socket, &Error));
    if (!Clients.back())
      return false;
    Clients.back()->setReceiveTimeout(120);
  }
  Out.assign(P.Requests.size(), Outcome());
  std::atomic<size_t> Next{0};
  Clock::time_point Start = Clock::now() + std::chrono::milliseconds(20);
  auto At = [&](double Secs) {
    return Start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(Secs));
  };
  std::vector<std::thread> Senders;
  for (auto &Client : Clients)
    Senders.emplace_back([&, C = Client.get()] {
      for (size_t I = Next++; I < P.Requests.size(); I = Next++) {
        std::this_thread::sleep_until(At(P.Requests[I].Due));
        Clock::time_point Sent = Clock::now();
        Outcome &O = Out[I];
        O.Transport = C->place(P.Requests[I].Req, O.Resp, &O.Error);
        Clock::time_point Done = Clock::now();
        O.Late = std::chrono::duration<double>(Sent - At(P.Requests[I].Due))
                     .count();
        O.RoundTrip = std::chrono::duration<double>(Done - Sent).count();
        O.Latency = O.Late + O.RoundTrip;
      }
    });
  for (std::thread &T : Senders)
    T.join();
  return true;
}

} // namespace

int perfbench::runServe(const Args &A, Report &R) {
  std::error_code Ec;
  std::filesystem::create_directories(A.OutDir, Ec);
  std::string Socket = A.OutDir + "/expressod-" + std::to_string(getpid()) +
                       ".sock";
  double ScheduleSeconds = A.Seconds / Replays;

  // Each replay: set-up (draw the specs and the schedule, start a daemon,
  // show it the seen set), then the timed schedule, then shut down.
  Plan P;
  std::vector<double> SetupTimes;
  std::vector<std::vector<Outcome>> Out(Replays);
  service::StatusResponse Total;
  std::string MetricsText;
  uint64_t StoreLookups = 0, StoreHits = 0;
  std::vector<double> PeakRss;
  for (unsigned Rep = 0; Rep < Replays; ++Rep) {
    resetPeakRss();
    Clock::time_point T = Clock::now();
    P = Plan();
    buildPlan(A.Seed, ScheduleSeconds, P);
    std::string Error;
    std::unique_ptr<service::Server> Srv = startWarmDaemon(Socket, P, Error);
    if (!Srv) {
      std::fprintf(stderr, "perfbench: daemon set-up failed: %s\n",
                   Error.c_str());
      return 1;
    }
    SetupTimes.push_back(secondsSince(T));
    persist::StoreStats Before = Srv->service().store()->stats();
    if (!playSchedule(Socket, P, Out[Rep], Error)) {
      std::fprintf(stderr, "perfbench: connect failed: %s\n", Error.c_str());
      stopDaemon(Srv);
      return 1;
    }
    service::StatusResponse Status;
    if (std::unique_ptr<service::ServiceClient> Client =
            service::ServiceClient::connect(Socket, &Error)) {
      Client->status(Status, &Error);
      Client->metrics(MetricsText, &Error);
    }
    Total.RequestsServed += Status.RequestsServed;
    Total.RequestsCompleted += Status.RequestsCompleted;
    Total.RequestsRejected += Status.RequestsRejected;
    persist::StoreStats After = Srv->service().store()->stats();
    StoreLookups += After.Lookups - Before.Lookups;
    StoreHits += After.LookupHits - Before.LookupHits;
    stopDaemon(Srv);
    PeakRss.push_back(peakRssMb());
  }
  writeFile(A.OutDir, "daemon_metrics.txt", MetricsText);
  std::string Manifest = "due_s\tclass\temit\tsolver\tspec\n";
  for (const Request &Q : P.Requests) {
    char Due[32];
    std::snprintf(Due, sizeof(Due), "%.6f", Q.Due);
    Manifest += std::string(Due) + "\t" + className(Q.K) + "\t" + Q.Req.Emit +
                "\t" + Q.Req.Solver + "\t" + Q.S->Name + "\n";
  }
  writeFile(A.OutDir, "schedule.tsv", Manifest);

  auto IsOk = [](const Outcome &O) {
    return O.Transport && O.Resp.Status == service::ResponseStatus::Ok;
  };

  // Correctness, outside the timed region: every Ok response's Σ must
  // equal the local pipeline's Σ for the same spec and solver. Specs with
  // no Ok response are not re-analyzed (their requests already failed).
  std::vector<SpecInput> Distinct;
  std::map<std::pair<const Spec *, std::string>, size_t> Index;
  std::vector<size_t> RefOf(P.Requests.size());
  for (size_t I = 0; I < P.Requests.size(); ++I) {
    const Request &Q = P.Requests[I];
    if (std::none_of(Out.begin(), Out.end(),
                     [&](const std::vector<Outcome> &V) { return IsOk(V[I]); }))
      continue;
    auto Key = std::make_pair(Q.S, Q.Req.Solver);
    auto It = Index.find(Key);
    if (It == Index.end()) {
      It = Index.emplace(Key, Distinct.size()).first;
      Distinct.push_back({Q.S->Name + (Q.K == Class::Mini ? " [mini]" : ""),
                          Q.S->Source, solver::parseSolverKind(Q.Req.Solver),
                          Q.Req.Emit, ""});
    }
    RefOf[I] = It->second;
  }
  std::vector<std::string> Reference(Distinct.size());
  if (A.Trace) {
    Reference = profileInputs(Distinct, R, A.OutDir);
  } else {
    std::atomic<size_t> NextRef{0};
    std::vector<std::thread> Pool;
    for (unsigned W = 0; W < hardwareThreads(); ++W)
      Pool.emplace_back([&] {
        for (size_t I = NextRef++; I < Distinct.size(); I = NextRef++) {
          PipelineRun Run = runPipeline(Distinct[I].Source, Distinct[I].Kind,
                                        Distinct[I].Emit, false);
          Reference[I] = Run.Ok ? Run.Sigma : "";
        }
      });
    for (std::thread &T : Pool)
      T.join();
  }

  // Each request's score is its fastest correct replay: latency, and for
  // executed (not replayed) requests the daemon's analysis time.
  std::string Rows = "replay\tdue_s\tclass\tstatus\treplayed\tlatency_s\t"
                     "late_s\tqueue_s\trun_s\n";
  std::vector<double> Late, BestLatency;
  std::map<Class, std::vector<double>> ByClass;
  double Queue = 0, Run = 0, Overhead = 0, BestRunSum = 0, Checks = 0;
  uint64_t Replayed = 0, SharedHits = 0, SharedLookups = 0, OkCount = 0,
           Executed = 0;
  for (size_t I = 0; I < P.Requests.size(); ++I) {
    const Request &Q = P.Requests[I];
    double Best = -1, BestRun = -1;
    uint64_t RequestChecks = 0;
    for (unsigned Rep = 0; Rep < Replays; ++Rep) {
      const Outcome &O = Out[Rep][I];
      char Row[256];
      std::snprintf(Row, sizeof(Row),
                    "%u\t%.6f\t%s\t%d\t%d\t%.6f\t%.6f\t%.6f\t%.6f\n", Rep,
                    Q.Due, className(Q.K),
                    O.Transport ? static_cast<int>(O.Resp.Status) : -1,
                    O.Resp.Replayed ? 1 : 0, O.Latency, O.Late,
                    O.Resp.QueueSeconds, O.Resp.AnalysisSeconds);
      Rows += Row;
      ++R.Attempted;
      Late.push_back(O.Late);
      if (!O.Transport) {
        R.wrong(Q.S->Name + ": request failed: " + O.Error);
        continue;
      }
      if (O.Resp.Status != service::ResponseStatus::Ok) {
        R.wrong(Q.S->Name + ": daemon answered " + O.Resp.Error);
        continue;
      }
      if (Reference[RefOf[I]].empty() ||
          O.Resp.DecisionSummary != Reference[RefOf[I]]) {
        R.wrong(Q.S->Name + " [" + className(Q.K) +
                "]: Σ differs from the local pipeline");
        continue;
      }
      if (Q.K == Class::Hot && !O.Resp.Replayed) {
        R.wrong(Q.S->Name + ": hot request was not replayed");
        continue;
      }
      ++OkCount;
      if (Best < 0 || O.Latency < Best)
        Best = O.Latency;
      double RunS = O.Resp.Replayed ? 0 : O.Resp.AnalysisSeconds;
      Queue += O.Resp.QueueSeconds;
      Run += RunS;
      Overhead += O.RoundTrip - O.Resp.QueueSeconds - RunS;
      if (O.Resp.Replayed) {
        ++Replayed;
        continue;
      }
      if (BestRun < 0 || RunS < BestRun)
        BestRun = RunS;
      RequestChecks = O.Resp.HoareChecks;
      SharedHits += O.Resp.SharedHits;
      SharedLookups += O.Resp.SharedHits + O.Resp.SharedMisses;
    }
    if (Best >= 0) {
      BestLatency.push_back(Best);
      ByClass[Q.K].push_back(Best);
    }
    if (BestRun >= 0) {
      ++Executed;
      BestRunSum += BestRun;
      Checks += static_cast<double>(RequestChecks);
    }
  }
  writeFile(A.OutDir, A.Trace ? "requests.tsv" : "rows.tsv", Rows);
  std::printf("daemon: %u workers, %u client connections, %.0f req/s "
              "offered, %u replays of %.1f s, workers busy %.0f%% of the "
              "schedule; status: %llu served, %llu completed, %llu rejected\n",
              daemonWorkers(), clientConnections(), Rate, Replays,
              ScheduleSeconds, 100 * Run / (daemonWorkers() * A.Seconds),
              static_cast<unsigned long long>(Total.RequestsServed),
              static_cast<unsigned long long>(Total.RequestsCompleted),
              static_cast<unsigned long long>(Total.RequestsRejected));
  for (const auto &[K, V] : ByClass)
    std::printf("  %-5s %4zu requests, p50 %.6f s, p90 %.6f s\n",
                className(K), V.size(), quantile(V, 0.5), quantile(V, 0.9));

  double Ok = OkCount ? static_cast<double>(OkCount) : 1;
  if (A.Trace) {
    R.Layer["persist.disk_hit_ratio"] =
        StoreLookups ? static_cast<double>(StoreHits) / StoreLookups : 0;
    R.Layer["service.shared_hit_ratio"] =
        SharedLookups ? static_cast<double>(SharedHits) / SharedLookups : 0;
    R.Layer["serve.cold_p50_s"] = quantile(ByClass[Class::Cold], 0.5);
    R.Layer["serve.warm_p50_s"] = quantile(ByClass[Class::Warm], 0.5);
    R.Layer["serve.hot_p50_s"] = quantile(ByClass[Class::Hot], 0.5);
    R.Layer["service.queue_s"] = Queue / Ok;
    R.Layer["service.run_s"] = Run / Ok;
    R.Layer["service.overhead_s"] = Overhead / Ok;
    R.Layer["service.replay_hit_ratio"] = static_cast<double>(Replayed) / Ok;
    R.Layer["bench.gen_late_p90_s"] = quantile(Late, 0.9);
    return 0;
  }
  R.add("latency_p50_s", quantile(BestLatency, 0.5), "s", BestLatency.size());
  R.add("latency_p90_s", quantile(BestLatency, 0.9), "s", BestLatency.size());
  R.add("checks_per_s", BestRunSum > 0 ? Checks / BestRunSum : 0, "1/s",
        Executed);
  R.add("ns_per_op", Executed ? BestRunSum / Executed * 1e9 : 0, "ns",
        Executed);
  R.add("setup_s", median(SetupTimes), "s", SetupTimes.size());
  R.add("peak_rss_mb", median(PeakRss), "MB", PeakRss.size());
  std::printf("generator lateness p90: %.6f s\n", quantile(Late, 0.9));
  return 0;
}
