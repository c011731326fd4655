//===- service/Server.h - The expressod placement daemon -------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The resident placement service. Two layers:
///
///   * PlacementService — the socket-free execution core: runs one
///     PlaceRequest through driver::Compilation, the pipeline the CLI
///     compiles with (parse → sema → two-tier solver rig → placeSignals →
///     emit), against a *fresh TermContext per request*, with all
///     cross-request warmth flowing through two shared
///     tiers that are sound by construction:
///       1. the resident persist::QueryStore (in-memory by default, or the
///          --cache-dir store) — keyed by canonical term blobs, so request
///          N's VCs hit answers proven for request N−1 with exactly the
///          cross-process determinism argument of the persistence layer;
///       2. a whole-response replay cache keyed by (spec, emit, solver,
///          semantic flags) — sound because the analysis is a deterministic
///          function of that key (the parallel/incremental/persistence PRs
///          each proved their slice of that invariance).
///     Per-request parallelism is leased from one global support::JobBudget
///     so concurrent requests share the machine instead of fighting for it.
///
///     Why not share one TermContext (and memo tier) across requests? The
///     memo's keys are hash-consed pointers, valid only within a context —
///     and a context shared across requests would assign Term ids in
///     arrival order, perturbing the id-ordered iteration that PR 2 made
///     the determinism backbone. A fresh context per request keeps every
///     response byte-identical to the standalone CLI; the canonical-key
///     store is exactly the context-free projection of the memo, so it is
///     the tier that may be shared.
///
///   * Server — the Unix-domain-socket front end: an acceptor thread, one
///     lightweight thread per connection (blocked on recv; execution
///     parallelism is the scheduler's, not the connection count's), a
///     bounded RequestScheduler, and a graceful drain path (stop admission,
///     finish queued + in-flight work, deliver every response, compact the
///     store if an eviction policy is set, exit).
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SERVICE_SERVER_H
#define EXPRESSO_SERVICE_SERVER_H

#include "obs/Metrics.h"
#include "persist/QueryStore.h"
#include "service/Protocol.h"
#include "service/Scheduler.h"
#include "support/CancelToken.h"
#include "support/ThreadPool.h"
#include "support/Timer.h"

#include <atomic>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

namespace expresso {
namespace obs {
class Tracer;
}
namespace service {

/// Configuration shared by expressod, perfbench `serve`, and the service
/// tests.
struct ServerOptions {
  std::string SocketPath;
  unsigned Workers = 2;   ///< concurrent placements (scheduler width)
  size_t QueueDepth = 64; ///< admission bound (queued, not yet running)
  /// Global worker-slot budget requests lease --jobs from; 0 = one per
  /// hardware thread.
  unsigned JobsBudget = 0;
  /// Backend the daemon's shared store is keyed to ("default" resolves to
  /// the build's preferred solver). Requests may still ask for another
  /// backend; they then run memo-only (never mixing profiles in one store).
  std::string SolverName = "default";
  std::string CacheDir;      ///< empty = resident in-memory store
  bool CacheReadOnly = false;
  persist::EvictionPolicy Eviction; ///< enforced when the store compacts
  bool ResultCache = true;          ///< whole-response replay cache
  size_t ResultCacheCap = 128;      ///< replay-cache entries (FIFO bound)
  /// Deadline applied to requests that do not carry one (PlaceRequest::
  /// DeadlineMs == 0); 0 = no default. A request's own deadline always
  /// wins.
  uint64_t DefaultDeadlineMs = 0;
  /// Structured request log: append one JSON object per served request
  /// (monotonic trace id — echoed in PlaceResponse::TraceId — outcome,
  /// queue wait, run time, deadline budget, cache hit counts, jobs
  /// leased). Empty disables. The expressod --request-log flag.
  std::string RequestLogPath;
};

/// The socket-free execution core (tests and the bench harness drive it
/// directly; the Server wraps it with framing and scheduling).
class PlacementService {
public:
  explicit PlacementService(const ServerOptions &Opts);

  /// Runs one request to completion (this is the scheduler task body).
  /// \p QueueSeconds is admission-to-execution wait, echoed in the
  /// response. \p Cancel (optional, not owned) is polled cooperatively
  /// through the whole pipeline; an expired token yields a
  /// DeadlineExceeded response with partial stats, and the cancelled run
  /// publishes nothing into the shared store or the replay cache.
  PlaceResponse run(const PlaceRequest &Req, double QueueSeconds,
                    support::CancelToken *Cancel = nullptr);

  /// The resolved backend profile of the shared store ("z3", "mini", …).
  const std::string &profile() const { return Profile; }
  persist::QueryStore *store() { return Store.get(); }
  support::JobBudget &budget() { return Budget; }
  /// The unified metrics registry (outcome counters + the latency
  /// histogram live here; the Server layers scheduler/store/uptime gauges
  /// on top when rendering the MetricsResponse dump).
  obs::Registry &metrics() { return Reg; }
  uint64_t resultCacheHits() const { return ResultHits.value(); }
  uint64_t requestsServed() const { return Served.value(); }
  /// Requests that produced a real answer (Ok, replay hits included).
  uint64_t requestsCompleted() const { return Completed.value(); }
  /// Requests whose deadline fired mid-placement (the pipeline wound down
  /// cooperatively and answered DeadlineExceeded).
  uint64_t requestsCancelledRunning() const {
    return CancelledRunning.value();
  }
  /// Admission-to-answer latency percentiles over a sliding window of
  /// completed requests (both 0 until anything completes).
  void latencyPercentiles(double &P50, double &P99) const;

  /// Store end-of-life management: applies the eviction policy via
  /// compact() when one is configured and the store is writable. Called by
  /// the Server at drain; safe to call any time.
  void compactStore();

private:
  PlaceResponse execute(const PlaceRequest &Req, support::CancelToken *Cancel,
                        obs::Tracer *Trace);
  static std::string resultCacheKey(const PlaceRequest &Req);
  void noteCompleted(double LatencySeconds);

  /// Executed (non-replayed) requests between in-service compactions when
  /// an eviction policy is set.
  static constexpr uint64_t CompactEvery = 64;
  /// Sliding latency window (enough for stable p99 without unbounded
  /// memory in a long-lived daemon).
  static constexpr size_t LatencyWindow = 512;

  ServerOptions Opts;
  std::string Profile;
  std::shared_ptr<persist::QueryStore> Store;
  support::JobBudget Budget;

  /// Unified accounting: the named counters subsume the previous ad-hoc
  /// outcome atomics, and Latency subsumes the hand-rolled sliding window
  /// (same 512-entry window, same percentile math — see obs/Metrics.h —
  /// so StatusResponse's p50/p99 are bit-identical to before).
  obs::Registry Reg;
  obs::Counter &Served;
  obs::Counter &Executed; ///< requests that ran the pipeline
  obs::Counter &ResultHits;
  obs::Counter &Completed;
  obs::Counter &CancelledRunning;
  obs::Histogram &Latency; ///< admission-to-answer, completed requests

  std::mutex ResultMu;
  std::unordered_map<std::string, PlaceResponse> ResultCache;
  std::deque<std::string> ResultOrder; ///< FIFO eviction at ResultCacheCap
};

/// The daemon: socket front end over PlacementService + RequestScheduler.
class Server {
public:
  explicit Server(const ServerOptions &Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Binds the socket and starts the acceptor. False (with \p Error) when
  /// the socket cannot be created.
  bool start(std::string *Error);

  /// Initiates shutdown from any thread (signal handlers use the atomic
  /// flag + a self-wake connect instead of calling this directly).
  /// \p Drain finishes queued work first; otherwise the queue is dropped
  /// (in-flight requests still complete and respond).
  void requestShutdown(bool Drain);

  /// Blocks until a shutdown request arrives, then tears down: stops
  /// admission, drains per the request, closes connections, joins threads,
  /// compacts the store (if a policy is set), and removes the socket file.
  void wait();

  /// start() + wait() + exit code (the expressod main body).
  int serveForever(std::string *Error);

  StatusResponse status() const;
  PlacementService &service() { return Core; }
  const std::string &socketPath() const { return Opts.SocketPath; }

  /// The daemon's full metrics dump (MetricsResponse::Text): the core's
  /// registry plus scheduler/budget/store/uptime gauges refreshed at
  /// render time.
  std::string metricsText();

private:
  void acceptLoop();
  void connectionLoop(int Fd);
  void handlePlace(int Fd, const std::vector<uint8_t> &Payload);
  bool sendPlaceResponse(int Fd, const PlaceResponse &R);
  /// Appends one JSON object to the request log (no-op when disabled).
  /// \p Req is null for requests that failed to decode.
  void logRequest(uint64_t TraceId, const PlaceRequest *Req,
                  const PlaceResponse &R, uint64_t DeadlineMs);

  ServerOptions Opts;
  PlacementService Core;
  std::unique_ptr<RequestScheduler> Sched;
  WallTimer Uptime;

  /// Monotonic per-request id, echoed in PlaceResponse::TraceId and the
  /// request log so one request joins across response, log line, and an
  /// attached trace.
  std::atomic<uint64_t> TraceIds{0};
  std::mutex LogMu;
  std::ofstream RequestLog; ///< --request-log sink; one JSON object per line

  int ListenFd = -1;
  std::thread Acceptor;

  std::mutex ConnMu;
  std::unordered_map<int, std::thread> Connections; ///< fd → handler
  std::vector<std::thread> Finished; ///< handlers that exited, to join
  bool AcceptingConnections = false;

  std::atomic<bool> ShutdownFlagged{false};
  std::atomic<bool> ShutdownDrain{true};
  std::mutex ShutdownMu;
  std::condition_variable ShutdownCv;
  std::atomic<uint64_t> ProtocolErrors{0};
};

} // namespace service
} // namespace expresso

#endif // EXPRESSO_SERVICE_SERVER_H
