//===- service/Server.cpp - The expressod placement daemon --------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "service/Server.h"

#include "driver/Pipeline.h"
#include "obs/Trace.h"
#include "persist/TermCodec.h"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>

#ifndef _WIN32
#include <sys/socket.h>
#include <unistd.h>
#endif

using namespace expresso;
using namespace expresso::service;

namespace {

/// Stable outcome names for the request log (and nothing else — the wire
/// carries the enum).
const char *statusName(ResponseStatus S) {
  switch (S) {
  case ResponseStatus::Ok:
    return "ok";
  case ResponseStatus::ParseError:
    return "parse_error";
  case ResponseStatus::SolverUnavailable:
    return "solver_unavailable";
  case ResponseStatus::Rejected:
    return "rejected";
  case ResponseStatus::Draining:
    return "draining";
  case ResponseStatus::Malformed:
    return "malformed";
  case ResponseStatus::InternalError:
    return "internal_error";
  case ResponseStatus::DeadlineExceeded:
    return "deadline_exceeded";
  }
  return "unknown";
}

} // namespace

//===----------------------------------------------------------------------===//
// PlacementService
//===----------------------------------------------------------------------===//

PlacementService::PlacementService(const ServerOptions &Opts)
    : Opts(Opts),
      Budget(Opts.JobsBudget == 0 ? support::ThreadPool::defaultWorkers()
                                  : Opts.JobsBudget),
      Served(Reg.counter("expressod_requests_served_total",
                         "Requests answered (replay hits included)")),
      Executed(Reg.counter("expressod_requests_executed_total",
                           "Requests that ran the full pipeline")),
      ResultHits(Reg.counter("expressod_result_cache_hits_total",
                             "Whole-response replay cache hits")),
      Completed(Reg.counter("expressod_requests_completed_total",
                            "Requests that produced a real answer (Ok)")),
      CancelledRunning(
          Reg.counter("expressod_requests_cancelled_running_total",
                      "Deadlines that fired mid-placement")),
      Latency(Reg.histogram("expressod_request_latency_seconds",
                            obs::Histogram::defaultLatencyBounds(),
                            LatencyWindow,
                            "Admission-to-answer latency of completed "
                            "requests (window percentiles back "
                            "StatusResponse)")) {
  // Resolve the store profile: profile strings must equal the answering
  // backend's name() exactly (that is the store's never-mix-solvers key).
  // An unbuildable kind (requests for it will fail individually) gets no
  // store at all — opening --cache-dir under a guessed profile could
  // rotate another backend's healthy log aside.
  solver::SolverKind Kind = solver::parseSolverKind(Opts.SolverName);
  Profile = solver::backendProfileName(Kind);
  if (Profile.empty())
    return;
  if (Opts.CacheDir.empty())
    Store = persist::QueryStore::createInMemory(Profile);
  else
    Store = persist::QueryStore::openReportingWarnings(
        Opts.CacheDir, Opts.CacheReadOnly, Profile, /*CacheEnabled=*/true);
  if (Store)
    Store->setEvictionPolicy(Opts.Eviction);
}

std::string PlacementService::resultCacheKey(const PlaceRequest &Req) {
  // Everything the response *bytes* are a function of. Jobs, priority, and
  // the bypass flag are deliberately excluded: the parallel engine's
  // determinism contract makes output invariant under Jobs, and the other
  // two are scheduling concerns. Each string field is length-prefixed —
  // Emit/Solver are unconstrained client bytes, so separator characters
  // alone could not prevent two different (Emit, Solver, Source) triples
  // from aliasing to one key.
  std::vector<uint8_t> Bytes;
  persist::ByteWriter B(Bytes);
  B.writeString(Req.Emit);
  B.writeString(Req.Solver);
  B.writeByte(static_cast<uint8_t>((Req.UseInvariant ? 1 : 0) |
                                   (Req.UseCommutativity ? 2 : 0) |
                                   (Req.LazyBroadcast ? 4 : 0) |
                                   (Req.CacheQueries ? 8 : 0) |
                                   (Req.Incremental ? 16 : 0)));
  B.writeString(Req.Source);
  return std::string(reinterpret_cast<const char *>(Bytes.data()),
                     Bytes.size());
}

PlaceResponse PlacementService::run(const PlaceRequest &Req,
                                    double QueueSeconds,
                                    support::CancelToken *Cancel) {
  WallTimer RunTimer;
  std::string Key;
  // A traced request never reads (or below, writes) the replay cache: the
  // attached trace must describe a real run, and replayed responses carry
  // no trace.
  if (Opts.ResultCache && !Req.BypassResultCache && !Req.WantTrace) {
    Key = resultCacheKey(Req);
    std::lock_guard<std::mutex> Lock(ResultMu);
    auto It = ResultCache.find(Key);
    if (It != ResultCache.end()) {
      PlaceResponse R = It->second;
      R.Replayed = true;
      R.QueueSeconds = QueueSeconds;
      ResultHits.inc();
      Served.inc();
      noteCompleted(QueueSeconds + RunTimer.elapsedSeconds());
      return R;
    }
  }

  // The tracer lives exactly as long as the pipeline run: execute() returns
  // only after placeSignals' pool tasks joined, which is the quiescence the
  // export below requires.
  std::unique_ptr<obs::Tracer> Tracer;
  if (Req.WantTrace)
    Tracer = std::make_unique<obs::Tracer>();

  PlaceResponse R = execute(Req, Cancel, Tracer.get());
  // Total wait = scheduler queue + budget contention inside execute().
  R.QueueSeconds += QueueSeconds;
  if (Tracer)
    R.TraceJson = Tracer->exportChromeJson();

  // Resident-store lifecycle: a long-lived daemon must enforce its size
  // policy while serving, not only at exit — otherwise the warm tier grows
  // without bound for the process lifetime. Compaction is batched (every
  // CompactEvery executed requests) because it takes the store's exclusive
  // lock and rewrites the log.
  if (Executed.inc() % CompactEvery == 0 && Opts.Eviction.enabled())
    compactStore();

  // Only Ok responses enter the replay cache — a DeadlineExceeded answer
  // in particular must never be replayed to a later patient client.
  if (!Key.empty() && R.Status == ResponseStatus::Ok) {
    std::lock_guard<std::mutex> Lock(ResultMu);
    if (ResultCache.emplace(Key, R).second) {
      ResultOrder.push_back(Key);
      while (ResultOrder.size() > Opts.ResultCacheCap) {
        ResultCache.erase(ResultOrder.front());
        ResultOrder.pop_front();
      }
    }
  }
  Served.inc();
  if (R.Status == ResponseStatus::DeadlineExceeded)
    CancelledRunning.inc();
  else if (R.Status == ResponseStatus::Ok)
    noteCompleted(QueueSeconds + RunTimer.elapsedSeconds());
  return R;
}

void PlacementService::noteCompleted(double LatencySeconds) {
  Completed.inc();
  Latency.observe(LatencySeconds);
}

void PlacementService::latencyPercentiles(double &P50, double &P99) const {
  P50 = Latency.percentile(0.5);
  P99 = Latency.percentile(0.99);
}

PlaceResponse PlacementService::execute(const PlaceRequest &Req,
                                        support::CancelToken *Cancel,
                                        obs::Tracer *Trace) {
  PlaceResponse R;
  WallTimer Timer;
  // A request-private compilation: its own TermContext, rig and result.
  driver::Compilation Comp(Trace);
  if (!Comp.frontend(Req.Source)) {
    R.Status = ResponseStatus::ParseError;
    R.Error = Comp.diagnostics();
    return R;
  }

  // Lease parallelism out of the shared budget only once real solver work
  // is imminent (a parse error must not queue behind a wide placement).
  // Time blocked here is budget contention, not analysis: it lands in
  // QueueSeconds (run() adds the scheduler wait on top) and is subtracted
  // from AnalysisSeconds below.
  WallTimer BudgetTimer;
  support::JobBudget::Lease Lease = Budget.acquire(Req.Jobs);
  double BudgetWait = BudgetTimer.elapsedSeconds();
  R.QueueSeconds = BudgetWait;

  // Budget contention may have eaten the whole deadline; bail before any
  // solver work (acquire itself is not interruptible — the lease was worth
  // waiting for only if time remains).
  if (Cancel && Cancel->expired()) {
    R.Status = ResponseStatus::DeadlineExceeded;
    R.Error = "deadline exceeded waiting for the job budget";
    return R;
  }

  core::PlacementOptions POpts;
  POpts.UseInvariant = Req.UseInvariant;
  POpts.UseCommutativity = Req.UseCommutativity;
  POpts.LazyBroadcast = Req.LazyBroadcast;
  POpts.CacheQueries = Req.CacheQueries;
  POpts.Incremental = Req.Incremental;
  POpts.Jobs = Lease.slots();
  POpts.Cancel = Cancel;
  driver::PlaceStatus Status = Comp.place(
      solver::parseSolverKind(Req.Solver), POpts,
      [&](const std::string &) -> std::shared_ptr<persist::QueryStore> {
        // Cross-daemon pickup: a fleet of daemons sharing one --cache-dir
        // sees each other's appends at request granularity.
        if (Store && Req.CacheQueries && !Store->inMemory())
          Store->refresh();
        return Store;
      });
  if (Status == driver::PlaceStatus::SolverUnavailable) {
    R.Status = ResponseStatus::SolverUnavailable;
    R.Error = "solver backend '" + Req.Solver +
              "' is not available in this build";
    return R;
  }
  const core::PlacementResult &Result = Comp.result();
  R.AnalysisSeconds = Timer.elapsedSeconds() - BudgetWait;
  static_cast<core::PlacementCounts &>(R) = Result.Stats.counts();
  R.InvariantSeconds = Result.Stats.InvariantSeconds;
  R.JobsUsed = Result.Stats.JobsUsed;
  R.SolverName = Comp.rig().solver().name();
  R.StoreSkipped = Comp.rig().StoreProfileMismatch;

  if (Status == driver::PlaceStatus::Cancelled) {
    // The pipeline wound down cooperatively. Report the partial stats (they
    // tell the client how far it got) but no artifact — a cancelled run's
    // decisions are incomplete and must not look like an answer. Nothing
    // was published into the shared store (CachingSolver gates appends on
    // the same token) and run() refuses to replay-cache this status.
    R.Status = ResponseStatus::DeadlineExceeded;
    R.Error = std::string("deadline exceeded during ") +
              Result.cancelledPhase();
    return R;
  }

  // PlaceRequest::decode refuses any other emit kind.
  R.Artifact = Comp.emit(codegen::parseEmitKind(Req.Emit).value());
  R.DecisionSummary = Result.decisionSummary();
  R.Status = ResponseStatus::Ok;
  return R;
}

void PlacementService::compactStore() {
  if (Store && !Store->readOnly() && Store->evictionPolicy().enabled())
    Store->compact();
}

//===----------------------------------------------------------------------===//
// Server
//===----------------------------------------------------------------------===//

Server::Server(const ServerOptions &Opts) : Opts(Opts), Core(Opts) {
  RequestScheduler::Options SchedOpts;
  SchedOpts.Workers = Opts.Workers;
  SchedOpts.MaxQueue = Opts.QueueDepth;
  Sched = std::make_unique<RequestScheduler>(SchedOpts);
}

Server::~Server() {
  if (!ShutdownFlagged.load()) {
    requestShutdown(/*Drain=*/false);
  }
  // wait() may already have run; it is idempotent about the teardown steps.
  wait();
}

#ifndef _WIN32

bool Server::start(std::string *Error) {
  if (!Opts.RequestLogPath.empty()) {
    RequestLog.open(Opts.RequestLogPath, std::ios::app);
    if (!RequestLog) {
      if (Error)
        *Error = "cannot open request log " + Opts.RequestLogPath + ": " +
                 std::strerror(errno);
      return false;
    }
  }
  ListenFd = listenUnix(Opts.SocketPath, /*Backlog=*/64, Error);
  if (ListenFd < 0)
    return false;
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    AcceptingConnections = true;
  }
  Acceptor = std::thread([this] { acceptLoop(); });
  return true;
}

void Server::acceptLoop() {
  int BackoffMs = 1;
  for (;;) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (errno == EINTR)
        continue;
      // Transient pressure must not permanently kill the acceptor: fd
      // exhaustion (EMFILE/ENFILE — connections in flight will close and
      // free slots), a peer that reset before we got to it (ECONNABORTED,
      // EPROTO), or momentary kernel memory pressure (ENOBUFS/ENOMEM).
      // Back off briefly and retry; only a genuinely dead listen socket
      // (EBADF/EINVAL after shutdown() teardown, or anything unknown)
      // ends the loop.
      if (errno == ECONNABORTED || errno == EPROTO || errno == EMFILE ||
          errno == ENFILE || errno == ENOBUFS || errno == ENOMEM ||
          errno == EAGAIN || errno == EWOULDBLOCK) {
        if (ShutdownFlagged.load())
          return; // teardown in progress: stop retrying
        std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs));
        BackoffMs = BackoffMs < 64 ? BackoffMs * 2 : 100;
        continue;
      }
      return; // listen socket shut down (or fatal): stop accepting
    }
    BackoffMs = 1;
    // Reap handlers that exited since the last accept (joins happen
    // outside the lock), so a long-lived daemon serving many short
    // connections never accumulates unjoined threads.
    std::vector<std::thread> Reap;
    bool Track = false;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      Reap.swap(Finished);
      if (AcceptingConnections) {
        Connections.emplace(Fd, std::thread([this, Fd] {
                              connectionLoop(Fd);
                            }));
        Track = true;
      }
    }
    for (std::thread &T : Reap)
      T.join();
    if (!Track)
      ::close(Fd); // drain began between accept and tracking
  }
}

bool Server::sendPlaceResponse(int Fd, const PlaceResponse &R) {
  std::vector<uint8_t> Payload;
  R.encode(Payload);
  return sendFrame(Fd, MsgType::PlaceResponse, Payload);
}

void Server::handlePlace(int Fd, const std::vector<uint8_t> &Payload) {
  PlaceRequest Req;
  if (!PlaceRequest::decode(Payload.data(), Payload.size(), Req)) {
    ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
    PlaceResponse R;
    R.Status = ResponseStatus::Malformed;
    R.Error = "malformed PlaceRequest payload";
    R.TraceId = TraceIds.fetch_add(1, std::memory_order_relaxed) + 1;
    logRequest(R.TraceId, nullptr, R, 0);
    sendPlaceResponse(Fd, R);
    return;
  }

  // Deadline starts at admission: the clock covers queueing, budget
  // contention, and the placement itself. The request's own deadline wins
  // over the daemon-wide default.
  std::shared_ptr<support::CancelToken> Tok;
  uint64_t DeadlineMs =
      Req.DeadlineMs != 0 ? Req.DeadlineMs : Opts.DefaultDeadlineMs;
  if (DeadlineMs != 0) {
    Tok = std::make_shared<support::CancelToken>();
    Tok->setDeadlineAfterSeconds(static_cast<double>(DeadlineMs) / 1000.0);
  }

  // Hand the request to the scheduler and block this (cheap, connection-
  // bound) thread on the outcome; execution width is the scheduler's.
  auto Done = std::make_shared<std::promise<PlaceResponse>>();
  std::future<PlaceResponse> Future = Done->get_future();
  WallTimer QueueTimer;
  bool Admitted = Sched->submit(
      Req.Prio,
      [this, Req, Done, QueueTimer, Tok] {
        // An exception out of the pipeline must neither kill the worker
        // (std::terminate) nor leave the client hanging: answer
        // InternalError and keep serving.
        PlaceResponse Resp;
        try {
          Resp = Core.run(Req, QueueTimer.elapsedSeconds(), Tok.get());
        } catch (const std::exception &E) {
          Resp = PlaceResponse();
          Resp.Status = ResponseStatus::InternalError;
          Resp.Error = std::string("internal error: ") + E.what();
        } catch (...) {
          Resp = PlaceResponse();
          Resp.Status = ResponseStatus::InternalError;
          Resp.Error = "internal error";
        }
        Done->set_value(std::move(Resp));
      },
      Tok,
      [Done, QueueTimer] {
        // Deadline fired while still queued: answer without burning a
        // worker on work that is already late.
        PlaceResponse Resp;
        Resp.Status = ResponseStatus::DeadlineExceeded;
        Resp.Error = "deadline exceeded while queued";
        Resp.QueueSeconds = QueueTimer.elapsedSeconds();
        Done->set_value(std::move(Resp));
      });
  PlaceResponse R;
  if (!Admitted) {
    R.Status = Sched->shuttingDown() ? ResponseStatus::Draining
                                     : ResponseStatus::Rejected;
    R.Error = Sched->shuttingDown()
                  ? "daemon is draining"
                  : "request queue is full, retry later";
  } else {
    try {
      R = Future.get();
    } catch (const std::future_error &) {
      // stop() discarded the queued task (drain would have run it).
      R = PlaceResponse();
      R.Status = ResponseStatus::Draining;
      R.Error = "daemon shut down before the request ran";
    }
  }
  // The trace id is assigned at answer time (monotonic, covers rejected
  // and drained requests too) so every response — and every request-log
  // line — carries one.
  R.TraceId = TraceIds.fetch_add(1, std::memory_order_relaxed) + 1;
  logRequest(R.TraceId, &Req, R, DeadlineMs);
  sendPlaceResponse(Fd, R);
}

void Server::logRequest(uint64_t TraceId, const PlaceRequest *Req,
                        const PlaceResponse &R, uint64_t DeadlineMs) {
  if (!RequestLog.is_open())
    return;
  // One self-contained JSON object per line (JSONL): greppable live,
  // parseable after the fact. Fixed "%.6f" for seconds keeps lines stable
  // across platforms.
  char Buf[128];
  std::string Line = "{\"trace_id\":" + std::to_string(TraceId);
  Line += ",\"outcome\":\"";
  Line += statusName(R.Status);
  Line += "\"";
  std::snprintf(Buf, sizeof(Buf),
                ",\"queue_seconds\":%.6f,\"run_seconds\":%.6f",
                R.QueueSeconds, R.AnalysisSeconds);
  Line += Buf;
  Line += ",\"deadline_ms\":" + std::to_string(DeadlineMs);
  Line += ",\"jobs_leased\":" + std::to_string(R.JobsUsed);
  for (const core::PlacementCountField &F : core::PlacementCountFields)
    Line += ",\"" + std::string(F.Key) + "\":" + std::to_string(R.*F.Member);
  Line += R.Replayed ? ",\"replayed\":true" : ",\"replayed\":false";
  Line += R.TraceJson.empty() ? ",\"traced\":false" : ",\"traced\":true";
  if (Req) {
    Line += ",\"emit\":\"" + obs::jsonEscape(Req->Emit) + "\"";
    Line += ",\"solver\":\"" + obs::jsonEscape(Req->Solver) + "\"";
  }
  Line += "}\n";
  std::lock_guard<std::mutex> Lock(LogMu);
  RequestLog << Line;
  RequestLog.flush(); // a crashed daemon must not owe anyone log lines
}

void Server::connectionLoop(int Fd) {
  for (;;) {
    MsgType Type;
    std::vector<uint8_t> Payload;
    if (!recvFrame(Fd, Type, Payload))
      break; // EOF or malformed frame: fail closed, no resync
    if (Type == MsgType::PlaceRequest) {
      handlePlace(Fd, Payload);
    } else if (Type == MsgType::StatusRequest) {
      StatusResponse S = status();
      std::vector<uint8_t> Out;
      S.encode(Out);
      if (!sendFrame(Fd, MsgType::StatusResponse, Out))
        break;
    } else if (Type == MsgType::MetricsRequest) {
      MetricsResponse MR;
      MR.Text = metricsText();
      std::vector<uint8_t> Out;
      MR.encode(Out);
      if (!sendFrame(Fd, MsgType::MetricsResponse, Out))
        break;
    } else if (Type == MsgType::ShutdownRequest) {
      ShutdownRequest SR;
      if (!ShutdownRequest::decode(Payload.data(), Payload.size(), SR))
        break;
      std::vector<uint8_t> Out; // empty ack payload
      sendFrame(Fd, MsgType::ShutdownResponse, Out);
      requestShutdown(SR.Drain);
      // Keep reading: wait() will SHUT_RD this connection when teardown
      // reaches it, and the client usually just closes after the ack.
    } else {
      ProtocolErrors.fetch_add(1, std::memory_order_relaxed);
      std::vector<uint8_t> Out;
      sendFrame(Fd, MsgType::ErrorResponse, Out);
      break; // a peer speaking the wrong direction: close
    }
  }
  // Unregister before closing so wait() never touches a recycled fd.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    auto It = Connections.find(Fd);
    if (It != Connections.end()) {
      Finished.push_back(std::move(It->second));
      Connections.erase(It);
    }
  }
  ::close(Fd);
}

void Server::requestShutdown(bool Drain) {
  // The flag flips under ShutdownMu: wait() checks its predicate under the
  // same mutex, so the notify can never land in the window between a false
  // predicate check and the wait going to sleep (the classic lost wakeup).
  {
    std::lock_guard<std::mutex> Lock(ShutdownMu);
    bool Expected = false;
    if (!ShutdownFlagged.compare_exchange_strong(Expected, true))
      return; // first request wins (a drain cannot be upgraded mid-flight)
    ShutdownDrain.store(Drain);
  }
  ShutdownCv.notify_all();
}

void Server::wait() {
  {
    std::unique_lock<std::mutex> Lock(ShutdownMu);
    ShutdownCv.wait(Lock, [&] { return ShutdownFlagged.load(); });
  }

  // 1. Stop taking connections and wake the acceptor.
  {
    std::lock_guard<std::mutex> Lock(ConnMu);
    AcceptingConnections = false;
  }
  if (ListenFd >= 0) {
    ::shutdown(ListenFd, SHUT_RDWR);
    // Self-connect fallback: some kernels leave a blocked accept() sleeping
    // after shutdown(); a doomed connection guarantees it wakes.
    int Poke = connectUnix(Opts.SocketPath, nullptr);
    if (Poke >= 0)
      ::close(Poke);
  }
  if (Acceptor.joinable())
    Acceptor.join();
  if (ListenFd >= 0) {
    ::close(ListenFd);
    ListenFd = -1;
    ::unlink(Opts.SocketPath.c_str());
  }

  // 2. Settle the queue: drain runs everything admitted; stop discards the
  // queue (handlePlace answers those clients Draining via the broken
  // promise). Either way every in-flight placement completes and its
  // response is written by its connection thread.
  if (ShutdownDrain.load())
    Sched->drain();
  else
    Sched->stop();

  // 3. Wake idle connection threads (SHUT_RD: pending response writes
  // still flush) and join everything.
  for (;;) {
    std::thread T;
    {
      std::lock_guard<std::mutex> Lock(ConnMu);
      if (!Finished.empty()) {
        T = std::move(Finished.back());
        Finished.pop_back();
      } else if (!Connections.empty()) {
        ::shutdown(Connections.begin()->first, SHUT_RD);
      } else {
        break;
      }
    }
    if (T.joinable())
      T.join();
    else
      std::this_thread::yield(); // a poked connection is on its way out
  }

  // 4. Store lifecycle: apply the eviction policy before the process goes
  // away (the daemon is the store's janitor; one-shot CLI runs are not).
  Core.compactStore();
}

#else // _WIN32

bool Server::start(std::string *Error) {
  if (Error)
    *Error = "the placement service is not supported on this platform";
  return false;
}
void Server::acceptLoop() {}
void Server::connectionLoop(int) {}
void Server::handlePlace(int, const std::vector<uint8_t> &) {}
bool Server::sendPlaceResponse(int, const PlaceResponse &) { return false; }
void Server::logRequest(uint64_t, const PlaceRequest *, const PlaceResponse &,
                        uint64_t) {}
void Server::requestShutdown(bool) { ShutdownFlagged.store(true); }
void Server::wait() {}

#endif

int Server::serveForever(std::string *Error) {
  if (!start(Error))
    return 1;
  wait();
  return 0;
}

StatusResponse Server::status() const {
  StatusResponse S;
  S.RequestsServed = Core.requestsServed();
  SchedulerStats Sc = Sched->stats();
  S.RequestsActive = Sc.ActiveNow;
  S.RequestsQueued = Sc.QueuedNow;
  S.RequestsRejected = Sc.Rejected;
  S.RequestsRejectedFull = Sc.RejectedFull;
  S.RequestsRejectedDraining = Sc.RejectedDraining;
  S.RequestsExpiredQueued = Sc.ExpiredQueued;
  S.RequestsCancelledRunning = Core.requestsCancelledRunning();
  S.RequestsCompleted = Core.requestsCompleted();
  Core.latencyPercentiles(S.LatencyP50Seconds, S.LatencyP99Seconds);
  S.ResultCacheHits = Core.resultCacheHits();
  // const_cast-free store access: stats are logically const.
  PlacementService &Svc = const_cast<PlacementService &>(Core);
  if (persist::QueryStore *St = Svc.store()) {
    S.StoreRecords = St->size();
    S.StoreEvicted = St->stats().evicted();
    S.StoreProfile = St->profile();
    S.StoreDir = St->directory();
  }
  S.JobsBudget = Svc.budget().total();
  S.JobsAvailable = Svc.budget().available();
  S.UptimeSeconds = Uptime.elapsedSeconds();
  S.Draining = Sched->shuttingDown();
  return S;
}

std::string Server::metricsText() {
  // The core's counters/histogram are live in the registry; point-in-time
  // values owned elsewhere (scheduler atomics, budget, store, the uptime
  // clock) are surfaced as gauges refreshed at render time — the scheduler
  // keeps its own deterministic accounting and the registry mirrors it
  // rather than owning it.
  obs::Registry &Reg = Core.metrics();
  SchedulerStats Sc = Sched->stats();
  Reg.gauge("expressod_requests_active", "Placements running now")
      .set(static_cast<double>(Sc.ActiveNow));
  Reg.gauge("expressod_requests_queued", "Requests admitted, not yet running")
      .set(static_cast<double>(Sc.QueuedNow));
  Reg.gauge("expressod_requests_submitted", "Requests offered to admission")
      .set(static_cast<double>(Sc.Submitted));
  Reg.gauge("expressod_requests_rejected", "Admission rejections (total)")
      .set(static_cast<double>(Sc.Rejected));
  Reg.gauge("expressod_requests_rejected_full", "Rejected: queue at capacity")
      .set(static_cast<double>(Sc.RejectedFull));
  Reg.gauge("expressod_requests_rejected_draining",
            "Rejected: daemon shutting down")
      .set(static_cast<double>(Sc.RejectedDraining));
  Reg.gauge("expressod_requests_expired_queued",
            "Deadlines that fired while still queued")
      .set(static_cast<double>(Sc.ExpiredQueued));
  Reg.gauge("expressod_jobs_budget", "Global worker-slot budget")
      .set(static_cast<double>(Core.budget().total()));
  Reg.gauge("expressod_jobs_available", "Worker slots currently free")
      .set(static_cast<double>(Core.budget().available()));
  if (persist::QueryStore *St = Core.store()) {
    Reg.gauge("expressod_store_records", "Shared query-store records")
        .set(static_cast<double>(St->size()));
    Reg.gauge("expressod_store_evicted", "Records evicted by compaction")
        .set(static_cast<double>(St->stats().evicted()));
  }
  Reg.gauge("expressod_protocol_errors", "Malformed frames/payloads seen")
      .set(static_cast<double>(ProtocolErrors.load(std::memory_order_relaxed)));
  Reg.gauge("expressod_uptime_seconds", "Seconds since daemon start")
      .set(Uptime.elapsedSeconds());
  return Reg.renderText();
}
