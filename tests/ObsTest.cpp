//===- tests/ObsTest.cpp - Observability layer tests --------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
// Covers the obs layer and its plumbing through the stack:
//  * the span tracer: nesting and thread attribution under an 8-thread
//    fan-out, move/finish semantics, disabled spans as pure no-ops;
//  * Chrome trace_event export: syntactically valid JSON (checked by a
//    strict little parser) with thread_name metadata and argument objects;
//  * the metrics registry: histogram bucket math, window trimming,
//    percentile parity with the daemon's historical p50/p99 computation,
//    idempotent registration, deterministic text rendering;
//  * the byte-invisibility differential: placeSignals with a tracer
//    attached produces the identical Σ, summary, IR, stats, and cache
//    counters as without, serial and with a 4-way fan-out;
//  * a live daemon: WantTrace round trip (nonzero trace id echoed, valid
//    trace payload), the structured request log (one JSON line per request
//    with the echoed id), and the MetricsRequest dump agreeing with
//    StatusResponse's latency percentiles bit for bit.
//
// Runs entirely on the MiniSmt backend (identical with and without Z3) and
// rides the TSan leg via the "obs" ctest label.
//
//===----------------------------------------------------------------------===//

#include "obs/Metrics.h"
#include "obs/Trace.h"

#include "bench/Workloads.h"
#include "codegen/Codegen.h"
#include "core/SignalPlacement.h"
#include "frontend/Parser.h"
#include "service/Client.h"
#include "service/Protocol.h"
#include "service/Server.h"
#include "solver/SolverRig.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>
#include <vector>

using namespace expresso;

namespace {

//===----------------------------------------------------------------------===//
// Helpers
//===----------------------------------------------------------------------===//

/// A strict, minimal JSON syntax checker — enough to guarantee the trace
/// export and request-log lines load in any real parser (Perfetto, python
/// json). Accepts exactly one value and requires it to consume the whole
/// input.
class JsonChecker {
public:
  explicit JsonChecker(const std::string &S) : P(S.data()), End(P + S.size()) {}

  bool valid() {
    skipWs();
    if (!value())
      return false;
    skipWs();
    return P == End;
  }

private:
  const char *P;
  const char *End;

  void skipWs() {
    while (P != End && (*P == ' ' || *P == '\t' || *P == '\n' || *P == '\r'))
      ++P;
  }
  bool literal(const char *L) {
    size_t N = std::strlen(L);
    if (static_cast<size_t>(End - P) < N || std::strncmp(P, L, N) != 0)
      return false;
    P += N;
    return true;
  }
  bool string() {
    if (P == End || *P != '"')
      return false;
    ++P;
    while (P != End && *P != '"') {
      if (static_cast<unsigned char>(*P) < 0x20)
        return false; // control chars must be escaped
      if (*P == '\\') {
        ++P;
        if (P == End)
          return false;
        if (*P == 'u') {
          for (int I = 0; I < 4; ++I) {
            ++P;
            if (P == End || !std::isxdigit(static_cast<unsigned char>(*P)))
              return false;
          }
        } else if (!std::strchr("\"\\/bfnrt", *P)) {
          return false;
        }
      }
      ++P;
    }
    if (P == End)
      return false;
    ++P; // closing quote
    return true;
  }
  bool number() {
    const char *Start = P;
    if (P != End && *P == '-')
      ++P;
    while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
      ++P;
    if (P == Start || (*Start == '-' && P == Start + 1))
      return false;
    if (P != End && *P == '.') {
      ++P;
      if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
        return false;
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    }
    if (P != End && (*P == 'e' || *P == 'E')) {
      ++P;
      if (P != End && (*P == '+' || *P == '-'))
        ++P;
      if (P == End || !std::isdigit(static_cast<unsigned char>(*P)))
        return false;
      while (P != End && std::isdigit(static_cast<unsigned char>(*P)))
        ++P;
    }
    return true;
  }
  bool value() {
    skipWs();
    if (P == End)
      return false;
    switch (*P) {
    case '{':
      return object();
    case '[':
      return array();
    case '"':
      return string();
    case 't':
      return literal("true");
    case 'f':
      return literal("false");
    case 'n':
      return literal("null");
    default:
      return number();
    }
  }
  bool object() {
    ++P; // '{'
    skipWs();
    if (P != End && *P == '}') {
      ++P;
      return true;
    }
    for (;;) {
      skipWs();
      if (!string())
        return false;
      skipWs();
      if (P == End || *P != ':')
        return false;
      ++P;
      if (!value())
        return false;
      skipWs();
      if (P == End)
        return false;
      if (*P == '}') {
        ++P;
        return true;
      }
      if (*P != ',')
        return false;
      ++P;
    }
  }
  bool array() {
    ++P; // '['
    skipWs();
    if (P != End && *P == ']') {
      ++P;
      return true;
    }
    for (;;) {
      if (!value())
        return false;
      skipWs();
      if (P == End)
        return false;
      if (*P == ']') {
        ++P;
        return true;
      }
      if (*P != ',')
        return false;
      ++P;
    }
  }
};

bool isValidJson(const std::string &S) { return JsonChecker(S).valid(); }

/// A private temp directory (for sockets and log files).
struct TempDir {
  std::string Path;
  TempDir() {
    std::string Tmpl =
        (std::filesystem::temp_directory_path() / "expresso-obs-XXXXXX")
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

/// One full pipeline run on the mini backend with an optional tracer
/// attached — every observable byte of the result, for the differential.
struct PipelineRun {
  std::string Sigma;
  std::string Summary;
  std::string Ir;
  core::PlacementCounts Counts;
};

PipelineRun runPipeline(const std::string &BenchName, unsigned Jobs,
                        obs::Tracer *Trace) {
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
  Opts.Jobs = Jobs;
  Opts.Trace = Trace;
  core::PlacementResult P = core::placeSignals(C, *Sema, Rig.solver(), Opts);
  EXPECT_FALSE(P.Cancelled);
  PipelineRun R;
  R.Sigma = P.decisionSummary();
  R.Summary = P.summary();
  R.Ir = codegen::printTargetIr(P);
  R.Counts = P.Stats.counts();
  return R;
}

//===----------------------------------------------------------------------===//
// Span tracer
//===----------------------------------------------------------------------===//

TEST(ObsTest, SpanNestingAndThreadAttributionUnderFanOut) {
  obs::Tracer T;
  constexpr unsigned Workers = 8;
  constexpr int PerWorker = 25;
  {
    obs::Span Outer(&T, "outer");
    Outer.arg("phase", "fanout");
    std::vector<std::thread> Threads;
    for (unsigned I = 0; I < Workers; ++I)
      Threads.emplace_back([&T, I] {
        for (int J = 0; J < PerWorker; ++J) {
          obs::Span S(&T, "work");
          S.arg("worker", static_cast<uint64_t>(I));
        }
      });
    for (std::thread &Th : Threads)
      Th.join();
  }
  ASSERT_EQ(T.spanCount(), 1u + Workers * PerWorker);

  std::vector<obs::SpanRecord> Spans = T.snapshot();
  ASSERT_EQ(Spans.size(), 1u + Workers * PerWorker);

  // snapshot() orders by (thread index, start time).
  for (size_t I = 1; I < Spans.size(); ++I) {
    if (Spans[I - 1].Tid == Spans[I].Tid)
      EXPECT_LE(Spans[I - 1].StartNs, Spans[I].StartNs);
    else
      EXPECT_LT(Spans[I - 1].Tid, Spans[I].Tid);
  }

  // Every worker thread got its own lane; the outer span sits on a ninth.
  std::set<uint32_t> WorkTids;
  const obs::SpanRecord *Outer = nullptr;
  for (const obs::SpanRecord &S : Spans) {
    if (std::strcmp(S.Name, "work") == 0)
      WorkTids.insert(S.Tid);
    else if (std::strcmp(S.Name, "outer") == 0)
      Outer = &S;
  }
  EXPECT_EQ(WorkTids.size(), Workers);
  ASSERT_NE(Outer, nullptr);
  EXPECT_EQ(WorkTids.count(Outer->Tid), 0u);
  EXPECT_EQ(Outer->Args, "\"phase\":\"fanout\"");

  // Nesting: the outer span (finished after the join) encloses every inner
  // span on the shared steady clock.
  for (const obs::SpanRecord &S : Spans) {
    if (S.Name == std::string("work")) {
      EXPECT_GE(S.StartNs, Outer->StartNs);
      EXPECT_LE(S.StartNs + S.DurNs, Outer->StartNs + Outer->DurNs);
    }
  }
}

TEST(ObsTest, DisabledAndMovedSpansRecordExactlyOnce) {
  // A disabled span is a pure no-op through every member.
  obs::Span Off;
  EXPECT_FALSE(Off.enabled());
  Off.arg("k", "v");
  Off.finish();
  obs::Span Null(nullptr, "x");
  EXPECT_FALSE(Null.enabled());

  obs::Tracer T;
  {
    obs::Span A(&T, "moved");
    obs::Span B = std::move(A);
    EXPECT_FALSE(A.enabled());
    EXPECT_TRUE(B.enabled());
    A.finish(); // no-op: ownership moved
  }
  EXPECT_EQ(T.spanCount(), 1u);

  {
    obs::Span C(&T, "finished");
    C.finish();
    C.finish(); // idempotent
    EXPECT_FALSE(C.enabled());
  } // destructor must not record again
  EXPECT_EQ(T.spanCount(), 2u);
}

TEST(ObsTest, ChromeExportIsValidTraceEventJson) {
  obs::Tracer T;
  {
    obs::Span S(&T, "parse");
    S.arg("file", "a \"quoted\"\nname\twith\\escapes");
    S.arg("bytes", static_cast<uint64_t>(123));
  }
  std::thread W([&T] {
    obs::Span S(&T, "solver.query");
    S.arg("tier", std::string("memo"));
  });
  W.join();

  std::string J = T.exportChromeJson();
  EXPECT_TRUE(isValidJson(J)) << J;
  EXPECT_NE(J.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(J.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(J.find("thread_name"), std::string::npos);
  EXPECT_NE(J.find("\"main-0\""), std::string::npos);
  EXPECT_NE(J.find("\"worker-1\""), std::string::npos);
  EXPECT_NE(J.find("\"solver.query\""), std::string::npos);
  EXPECT_NE(J.find("\"tier\":\"memo\""), std::string::npos);
  EXPECT_NE(J.find("\"bytes\":123"), std::string::npos);

  // An empty tracer still exports a loadable document.
  obs::Tracer Empty;
  EXPECT_TRUE(isValidJson(Empty.exportChromeJson()));
  EXPECT_EQ(Empty.exportChromeJson(), "{\"traceEvents\":[]}");
}

//===----------------------------------------------------------------------===//
// Metrics registry
//===----------------------------------------------------------------------===//

TEST(ObsTest, HistogramBucketMathAndWindowTrim) {
  obs::Histogram H({0.1, 1.0, 10.0}, /*WindowSize=*/4);
  EXPECT_EQ(H.percentile(0.5), 0.0); // empty window reads as zero

  for (double X : {0.05, 0.5, 5.0, 50.0, 0.5, 0.7})
    H.observe(X);
  EXPECT_EQ(H.count(), 6u);
  EXPECT_DOUBLE_EQ(H.sum(), 56.75);

  std::vector<uint64_t> B = H.bucketCounts();
  ASSERT_EQ(B.size(), 4u); // three bounds + overflow
  EXPECT_EQ(B[0], 1u);     // 0.05
  EXPECT_EQ(B[1], 3u);     // 0.5, 0.5, 0.7 (bounds are inclusive upper)
  EXPECT_EQ(B[2], 1u);     // 5.0
  EXPECT_EQ(B[3], 1u);     // 50.0 overflows

  // The percentile window holds only the last four observations, and the
  // computation is the daemon's historical one, bit for bit: copy the
  // window, nth_element at size_t(Q * (n - 1)).
  auto Historical = [](std::vector<double> Sample, double Q) {
    size_t I =
        static_cast<size_t>(Q * static_cast<double>(Sample.size() - 1));
    std::nth_element(Sample.begin(), Sample.begin() + I, Sample.end());
    return Sample[I];
  };
  std::vector<double> Window{5.0, 50.0, 0.5, 0.7};
  EXPECT_EQ(H.percentile(0.5), Historical(Window, 0.5));
  EXPECT_EQ(H.percentile(0.99), Historical(Window, 0.99));
  EXPECT_EQ(H.percentile(0.99), 5.0); // index floor(0.99 * 3) = 2
  EXPECT_EQ(H.percentile(0.0), 0.5);  // the trimmed 0.05 must be gone
  EXPECT_EQ(H.percentile(1.0), 50.0);
}

TEST(ObsTest, RegistryIdempotentRegistrationAndStableRender) {
  obs::Registry R;
  obs::Counter &C1 = R.counter("b_total", "events observed");
  obs::Counter &C2 = R.counter("b_total");
  EXPECT_EQ(&C1, &C2); // first registration wins, later lookups alias it
  EXPECT_EQ(C1.inc(), 1u);
  EXPECT_EQ(C1.inc(2), 3u); // inc returns the new value (cadence checks)
  EXPECT_EQ(C2.value(), 3u);

  R.gauge("a_gauge").set(2.5);
  obs::Histogram &H = R.histogram("lat", {0.5, 1.0}, /*WindowSize=*/8);
  H.observe(0.25);
  H.observe(0.75);

  std::string Text = R.renderText();
  EXPECT_EQ(Text, R.renderText()); // deterministic

  // Metrics render sorted by name.
  EXPECT_LT(Text.find("a_gauge"), Text.find("b_total"));
  EXPECT_LT(Text.find("b_total"), Text.find("# TYPE lat histogram"));

  EXPECT_NE(Text.find("# HELP b_total events observed"), std::string::npos);
  EXPECT_NE(Text.find("b_total 3\n"), std::string::npos);
  EXPECT_NE(Text.find("a_gauge 2.5\n"), std::string::npos);
  // Cumulative buckets, count/sum, and the window-backed percentiles.
  EXPECT_NE(Text.find("lat_bucket{le=\"0.5\"} 1\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_bucket{le=\"1\"} 2\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_count 2\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_sum 1\n"), std::string::npos);
  // Two samples: both percentile indices floor to 0, the window minimum.
  EXPECT_NE(Text.find("lat_p50 0.25\n"), std::string::npos);
  EXPECT_NE(Text.find("lat_p99 0.25\n"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Byte-invisibility differential
//===----------------------------------------------------------------------===//

TEST(ObsTest, TracingIsByteInvisibleToPlacement) {
  // The observability contract (mirroring GenerousDeadlineIsByteInvisible):
  // attaching a tracer changes no observable byte of a placement run — Σ,
  // the summary with its stats trailer, the emitted IR, and every cache
  // counter — serial and with a 4-way fan-out.
  for (unsigned Jobs : {1u, 4u}) {
    PipelineRun Plain = runPipeline("ReadersWriters", Jobs, nullptr);
    obs::Tracer T;
    PipelineRun Traced = runPipeline("ReadersWriters", Jobs, &T);

    EXPECT_EQ(Traced.Sigma, Plain.Sigma) << "Jobs=" << Jobs;
    EXPECT_EQ(Traced.Summary, Plain.Summary) << "Jobs=" << Jobs;
    EXPECT_EQ(Traced.Ir, Plain.Ir) << "Jobs=" << Jobs;
    EXPECT_EQ(Traced.Counts, Plain.Counts) << "Jobs=" << Jobs;

    // …and the tracer did actually observe the run.
    EXPECT_GT(T.spanCount(), 0u);
    std::string J = T.exportChromeJson();
    EXPECT_TRUE(isValidJson(J));
    EXPECT_NE(J.find("\"place\""), std::string::npos);
    EXPECT_NE(J.find("\"solver.query\""), std::string::npos);
    EXPECT_NE(J.find("\"invariants\""), std::string::npos);
  }
}

//===----------------------------------------------------------------------===//
// Live daemon: trace echo, request log, metrics
//===----------------------------------------------------------------------===//

#ifndef _WIN32

TEST(ObsTest, DaemonEchoesTraceIdWritesRequestLogAndServesMetrics) {
  TempDir Dir;
  service::ServerOptions Opts;
  Opts.SocketPath = Dir.sock();
  Opts.Workers = 2;
  Opts.SolverName = "mini";
  Opts.RequestLogPath = Dir.Path + "/requests.jsonl";
  service::Server Srv(Opts);
  std::string Error;
  ASSERT_TRUE(Srv.start(&Error)) << Error;
  auto Client = service::ServiceClient::connect(Dir.sock(), &Error);
  ASSERT_NE(Client, nullptr) << Error;

  const bench::BenchmarkDef *Def = bench::findBenchmark("ReadersWriters");
  ASSERT_NE(Def, nullptr);
  service::PlaceRequest Req;
  Req.Source = Def->Source;
  Req.Emit = "summary";
  Req.Solver = "mini";
  Req.WantTrace = true;

  service::PlaceResponse R1;
  ASSERT_TRUE(Client->place(Req, R1, &Error)) << Error;
  ASSERT_EQ(R1.Status, service::ResponseStatus::Ok) << R1.Error;
  EXPECT_NE(R1.TraceId, 0u);
  ASSERT_FALSE(R1.TraceJson.empty());
  EXPECT_TRUE(isValidJson(R1.TraceJson)) << R1.TraceJson;
  EXPECT_NE(R1.TraceJson.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(R1.TraceJson.find("\"place\""), std::string::npos);
  EXPECT_FALSE(R1.Replayed); // traced requests bypass the replay cache

  // An untraced request still gets a fresh id but carries no payload.
  service::PlaceRequest Plain = Req;
  Plain.WantTrace = false;
  service::PlaceResponse R2;
  ASSERT_TRUE(Client->place(Plain, R2, &Error)) << Error;
  ASSERT_EQ(R2.Status, service::ResponseStatus::Ok) << R2.Error;
  EXPECT_NE(R2.TraceId, 0u);
  EXPECT_NE(R2.TraceId, R1.TraceId);
  EXPECT_TRUE(R2.TraceJson.empty());
  // Same Σ with tracing on or off. (The summary artifact's stats trailer
  // legitimately differs — the second run sees the warmer shared store.)
  EXPECT_EQ(R2.DecisionSummary, R1.DecisionSummary);

  // The metrics dump: the latency histogram must agree with the status
  // percentiles bit for bit (renderText prints %.9g, so compare through
  // the same format).
  std::string Metrics;
  ASSERT_TRUE(Client->metrics(Metrics, &Error)) << Error;
  service::StatusResponse S;
  ASSERT_TRUE(Client->status(S, &Error)) << Error;
  EXPECT_EQ(S.RequestsServed, 2u);
  EXPECT_NE(Metrics.find("expressod_requests_served_total 2\n"),
            std::string::npos)
      << Metrics;
  EXPECT_NE(Metrics.find("expressod_requests_completed_total 2\n"),
            std::string::npos);
  EXPECT_NE(Metrics.find("# TYPE expressod_request_latency_seconds histogram"),
            std::string::npos);
  char Buf[64];
  std::snprintf(Buf, sizeof(Buf), "expressod_request_latency_seconds_p50 %.9g",
                S.LatencyP50Seconds);
  EXPECT_NE(Metrics.find(Buf), std::string::npos) << Metrics;
  std::snprintf(Buf, sizeof(Buf), "expressod_request_latency_seconds_p99 %.9g",
                S.LatencyP99Seconds);
  EXPECT_NE(Metrics.find(Buf), std::string::npos) << Metrics;

  // The request log: one self-contained JSON line per request, carrying
  // the id the client saw. Lines are flushed before the response is sent,
  // so both are on disk by now.
  std::ifstream Log(Opts.RequestLogPath);
  ASSERT_TRUE(Log.is_open());
  std::vector<std::string> Lines;
  for (std::string Line; std::getline(Log, Line);)
    Lines.push_back(Line);
  ASSERT_EQ(Lines.size(), 2u);
  for (const std::string &Line : Lines)
    EXPECT_TRUE(isValidJson(Line)) << Line;
  EXPECT_NE(Lines[0].find("\"trace_id\":" + std::to_string(R1.TraceId)),
            std::string::npos)
      << Lines[0];
  EXPECT_NE(Lines[0].find("\"outcome\":\"ok\""), std::string::npos);
  EXPECT_NE(Lines[0].find("\"traced\":true"), std::string::npos);
  EXPECT_NE(Lines[0].find("\"emit\":\"summary\""), std::string::npos);
  EXPECT_NE(Lines[0].find("\"solver\":\"mini\""), std::string::npos);
  EXPECT_NE(Lines[1].find("\"trace_id\":" + std::to_string(R2.TraceId)),
            std::string::npos)
      << Lines[1];
  EXPECT_NE(Lines[1].find("\"traced\":false"), std::string::npos);

  // Every placement counter is logged under its snake_case key with the
  // value the client received. The keys are a published schema
  // (docs/OBSERVABILITY.md), so they are pinned here by name.
  const char *Keys[] = {"hoare_checks",     "solver_queries",
                        "cache_hits",       "cache_misses",
                        "shared_hits",      "shared_misses",
                        "pairs_considered", "no_signal_proved",
                        "signals",          "broadcasts",
                        "unconditional",    "commutativity_wins"};
  ASSERT_EQ(std::size(Keys), std::size(core::PlacementCountFields));
  const service::PlaceResponse *Responses[] = {&R1, &R2};
  for (size_t I = 0; I < std::size(Keys); ++I) {
    const core::PlacementCountField &F = core::PlacementCountFields[I];
    EXPECT_STREQ(F.Key, Keys[I]);
    for (size_t L = 0; L < 2; ++L) {
      std::string Entry = "\"" + std::string(Keys[I]) +
                          "\":" + std::to_string(Responses[L]->*F.Member) + ",";
      EXPECT_NE(Lines[L].find(Entry), std::string::npos)
          << Entry << " missing from " << Lines[L];
    }
  }
}

#endif // !_WIN32

} // namespace
