//===- service/Protocol.h - expressod wire protocol -------------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The length-prefixed binary protocol the placement daemon (`expressod`)
/// speaks over its Unix-domain socket. One frame carries one message:
///
///   frame := u32 magic "XSV1", u8 protocolVersion, u8 msgType,
///            u32 payloadLen, u64 fnv1a(payload), payload
///
/// All integers little-endian (the fixed-width ones) or LEB128 varints (in
/// payloads, via persist::ByteWriter — the same primitives as the query
/// store, so the service and the store fail closed the same way). Every
/// decode path is bounds-checked and rejects trailing garbage; a malformed,
/// truncated, oversized, or checksum-failing frame terminates the
/// connection rather than being half-trusted. The checksum guards against
/// torn writes, not adversaries — the socket is a filesystem object with
/// filesystem permissions.
///
/// A connection carries any number of sequential request/response pairs
/// (the client writes a request, reads the response, repeats). Message
/// kinds:
///
///   PlaceRequest/PlaceResponse   — one placement analysis (the payload
///                                  mirrors the CLI surface: spec source,
///                                  emit kind, solver, option flags, jobs,
///                                  priority)
///   StatusRequest/StatusResponse — daemon introspection (queue depth,
///                                  budget, shared-cache size, uptime)
///   ShutdownRequest/…Response    — ask the daemon to drain and exit
///   ErrorResponse                — protocol-level rejection (a
///                                  response-typed frame from a client)
///   MetricsRequest/…Response     — the daemon's full obs::Registry as a
///                                  stable text dump (v3; empty request
///                                  payload, like StatusRequest)
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_SERVICE_PROTOCOL_H
#define EXPRESSO_SERVICE_PROTOCOL_H

#include "core/PlacementCounts.h"

#include <cstdint>
#include <string>
#include <vector>

namespace expresso {
namespace service {

/// Bumped on any wire-format change. A frame of any other version fails
/// closed: the receiver drops the connection instead of guessing at the
/// format. Version 2 added request deadlines (PlaceRequest::DeadlineMs,
/// ResponseStatus::DeadlineExceeded) and the outcome/latency fields of
/// StatusResponse. Version 3 added per-request tracing
/// (PlaceRequest::WantTrace, PlaceResponse::TraceId/TraceJson) and the
/// Metrics message pair.
constexpr uint8_t ProtocolVersion = 3;

/// Oldest frame version accepted: only the current one.
constexpr uint8_t MinProtocolVersion = 3;

/// "XSV1" little-endian.
constexpr uint32_t FrameMagic = 0x31565358u;

/// Upper bound for one frame payload (a monitor spec plus emitted artifact
/// is tiny; 64 MiB is already absurdly generous — anything larger is
/// corruption or abuse and fails closed).
constexpr size_t MaxFramePayload = 1u << 26;

enum class MsgType : uint8_t {
  PlaceRequest = 1,
  PlaceResponse = 2,
  StatusRequest = 3,
  StatusResponse = 4,
  ShutdownRequest = 5,
  ShutdownResponse = 6,
  ErrorResponse = 7,
  MetricsRequest = 8,  ///< v3; empty payload
  MetricsResponse = 9, ///< v3; obs::Registry text dump
};

enum class Priority : uint8_t { Normal = 0, High = 1 };

/// One placement request — the CLI surface, serialized. Defaults match the
/// CLI's defaults so an empty-option request behaves like `expresso spec`.
struct PlaceRequest {
  std::string Source;           ///< monitor source text (client-resolved)
  std::string Emit = "summary"; ///< summary | ir | cpp | java, no other
  std::string Solver = "default";
  bool UseInvariant = true;
  bool UseCommutativity = true;
  bool LazyBroadcast = true;
  bool CacheQueries = true;
  bool Incremental = true;
  uint32_t Jobs = 1; ///< ask; the daemon grants min(ask, budget free)
  Priority Prio = Priority::Normal;
  /// Skip the daemon's whole-response replay cache for this request (used
  /// by benchmarks and tests that measure the query-tier warmth beneath).
  bool BypassResultCache = false;
  /// Soft deadline for the whole request, milliseconds from admission;
  /// 0 = none. A request still queued
  /// past its deadline is answered DeadlineExceeded without burning a
  /// worker; one already placing is cooperatively cancelled at the next
  /// Hoare-check/solver-poll boundary. A request that completes in time is
  /// byte-identical to the same request with no deadline.
  uint64_t DeadlineMs = 0;
  /// Record a per-request span trace daemon-side and ship it back in
  /// PlaceResponse::TraceJson (Chrome trace_event JSON). Tracing is
  /// byte-invisible to the placement answer — Σ, stats, and cache counters
  /// are identical with this on or off — and a traced response is never
  /// served from (or published into) the whole-response replay cache, so
  /// the trace always describes a real run. v3; absent = false.
  bool WantTrace = false;

  void encode(std::vector<uint8_t> &Out) const;
  static bool decode(const uint8_t *Data, size_t Size, PlaceRequest &Out);
};

enum class ResponseStatus : uint8_t {
  Ok = 0,
  ParseError = 1,        ///< spec failed to parse or analyze (Error has why)
  SolverUnavailable = 2, ///< requested backend not in this build
  Rejected = 3,          ///< admission control: queue full
  Draining = 4,          ///< daemon is shutting down, not accepting work
  Malformed = 5,         ///< request payload did not decode
  InternalError = 6,
  /// The request's deadline fired before placement finished. Partial stats
  /// (every placement counter, queue wait) are still populated; Artifact and
  /// DecisionSummary are empty — a cancelled run publishes nothing, not
  /// even into the daemon's shared caches.
  DeadlineExceeded = 7,
};

/// One placement answer. Artifact is byte-identical to what the standalone
/// CLI prints for the same spec and --emit kind; DecisionSummary is Σ (the
/// invariant plus decisions), the cross-surface determinism contract —
/// cache counters differ between a warm daemon and a cold CLI, Σ never
/// does. The placement counters are the PlacementCounts base, encoded in
/// its field order.
struct PlaceResponse : core::PlacementCounts {
  ResponseStatus Status = ResponseStatus::InternalError;
  std::string Error;           ///< diagnostics when Status != Ok
  std::string Artifact;        ///< the --emit output (summary/ir/cpp/java)
  std::string DecisionSummary; ///< Σ, for byte-parity checks
  std::string SolverName;      ///< answering backend ("z3", "mini", …)
  double AnalysisSeconds = 0;  ///< daemon-side pipeline wall time
  double InvariantSeconds = 0; ///< share spent inferring the invariant
  double QueueSeconds = 0;     ///< admission-to-execution wait
  uint32_t JobsUsed = 1;       ///< slots the budget actually granted
  bool Replayed = false;       ///< served from the whole-response cache
  bool StoreSkipped = false;   ///< store profile != backend, ran memo-only

  /// Daemon-assigned monotonic request id, echoed here and in the daemon's
  /// structured request log (--request-log) so one request can be joined
  /// across the response, the log line, and an attached trace.
  uint64_t TraceId = 0;
  /// Chrome trace_event JSON for this request's run (Perfetto-loadable);
  /// empty unless PlaceRequest::WantTrace was set and the run executed.
  std::string TraceJson;

  void encode(std::vector<uint8_t> &Out) const;
  static bool decode(const uint8_t *Data, size_t Size, PlaceResponse &Out);
};

/// Daemon introspection snapshot.
struct StatusResponse {
  uint64_t RequestsServed = 0;
  uint64_t RequestsActive = 0;
  uint64_t RequestsQueued = 0;
  uint64_t RequestsRejected = 0; ///< total (= RejectedFull + RejectedDraining)
  uint64_t ResultCacheHits = 0;
  uint64_t StoreRecords = 0;
  uint64_t StoreEvicted = 0;
  uint32_t JobsBudget = 0;
  uint32_t JobsAvailable = 0;
  double UptimeSeconds = 0;
  bool Draining = false;
  std::string StoreProfile;
  std::string StoreDir; ///< empty = resident in-memory store

  uint64_t RequestsRejectedFull = 0;     ///< admission: queue at capacity
  uint64_t RequestsRejectedDraining = 0; ///< admission: daemon shutting down
  uint64_t RequestsExpiredQueued = 0;    ///< deadline fired while still queued
  uint64_t RequestsCancelledRunning = 0; ///< deadline fired mid-placement
  uint64_t RequestsCompleted = 0;        ///< placements that ran to completion
  double LatencyP50Seconds = 0; ///< admission-to-answer, completed requests
  double LatencyP99Seconds = 0; ///< (sliding window; 0 until any complete)

  void encode(std::vector<uint8_t> &Out) const;
  static bool decode(const uint8_t *Data, size_t Size, StatusResponse &Out);
};

/// The daemon's unified metrics registry rendered as stable text (sorted
/// metric names; counters, gauges, and histograms with cumulative buckets
/// plus the window p50/p99 that back StatusResponse). v3; the request
/// (MsgType::MetricsRequest) carries an empty payload like StatusRequest.
struct MetricsResponse {
  std::string Text;

  void encode(std::vector<uint8_t> &Out) const;
  static bool decode(const uint8_t *Data, size_t Size, MetricsResponse &Out);
};

struct ShutdownRequest {
  /// Drain (finish queued + in-flight work) before exiting; false aborts
  /// the queue (in-flight requests still finish — workers are never
  /// killed mid-solve).
  bool Drain = true;

  void encode(std::vector<uint8_t> &Out) const;
  static bool decode(const uint8_t *Data, size_t Size, ShutdownRequest &Out);
};

//===----------------------------------------------------------------------===//
// Framing over file descriptors
//===----------------------------------------------------------------------===//

/// Writes one frame. Returns false on any I/O error (EPIPE included — the
/// caller treats the connection as dead).
bool sendFrame(int Fd, MsgType Type, const std::vector<uint8_t> &Payload);

/// Reads one frame, validating magic, version, length bound, and checksum.
/// Returns false on EOF or anything malformed — the connection must then be
/// closed (fail closed: no resync attempts inside a byte stream).
bool recvFrame(int Fd, MsgType &Type, std::vector<uint8_t> &Payload);

//===----------------------------------------------------------------------===//
// Unix-domain socket helpers
//===----------------------------------------------------------------------===//

/// Binds and listens on \p Path (unlinking a stale socket first). Returns
/// the listening fd, or -1 with \p Error set.
int listenUnix(const std::string &Path, int Backlog, std::string *Error);

/// Connects to \p Path. Returns the fd, or -1 with \p Error set.
int connectUnix(const std::string &Path, std::string *Error);

} // namespace service
} // namespace expresso

#endif // EXPRESSO_SERVICE_PROTOCOL_H
