//===- specgen/Diff.cpp - Whole-placement differential harness ------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "specgen/Diff.h"

#include "driver/Pipeline.h"
#include "frontend/Parser.h"
#include "persist/QueryStore.h"
#include "service/Client.h"
#include "service/Server.h"
#include "specgen/SpecGen.h"
#include "support/Timer.h"

#include <cctype>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <poll.h>
#include <sstream>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

using namespace expresso;
using namespace expresso::specgen;

namespace fs = std::filesystem;

//===----------------------------------------------------------------------===//
// Cell labels
//===----------------------------------------------------------------------===//

namespace {

const char *kindName(solver::SolverKind K) {
  return K == solver::SolverKind::Z3 ? "z3" : "mini";
}

const char *cacheModeName(CacheMode M) {
  switch (M) {
  case CacheMode::Off:
    return "cache-off";
  case CacheMode::Cold:
    return "cache-cold";
  case CacheMode::Warm:
    return "cache-warm";
  }
  return "cache-off";
}

} // namespace

std::string RunSpec::label() const {
  std::ostringstream OS;
  OS << kindName(Backend) << "/" << (Daemon ? "daemon" : "local") << "/jobs"
     << Jobs << "/" << (Incremental ? "inc-on" : "inc-off") << "/"
     << cacheModeName(Cache);
  return OS.str();
}

//===----------------------------------------------------------------------===//
// In-process cell execution (runs inside the forked child)
//===----------------------------------------------------------------------===//

namespace {

RunResult runLocalCell(const std::string &Source, const RunSpec &Cell) {
  RunResult Out;
  driver::Compilation Comp;
  if (!Comp.frontend(Source)) {
    Out.Message = (Comp.parsed() ? "sema error:\n" : "parse error:\n") +
                  Comp.diagnostics();
    return Out;
  }
  core::PlacementOptions Opts;
  Opts.CacheQueries = Cell.Cache != CacheMode::Off;
  Opts.Incremental = Cell.Incremental;
  Opts.Jobs = Cell.Jobs;
  bool WantStore = Opts.CacheQueries && !Cell.CacheDir.empty();
  std::shared_ptr<persist::QueryStore> Store;
  driver::PlaceStatus Status =
      Comp.place(Cell.Backend, Opts, [&](const std::string &Profile) {
        if (WantStore)
          Store = persist::QueryStore::openReportingWarnings(
              Cell.CacheDir, /*ReadOnly=*/false, Profile,
              /*CacheEnabled=*/true);
        return Store;
      });
  if (Status == driver::PlaceStatus::SolverUnavailable) {
    Out.Message = std::string("backend '") + kindName(Cell.Backend) +
                  "' unavailable in this build";
    return Out;
  }
  if (WantStore && !Store) {
    Out.Message = "cannot open cache dir " + Cell.CacheDir;
    return Out;
  }
  Out.St = RunResult::Status::Ok;
  Out.Sigma = Comp.result().decisionSummary();
  Out.Counts = Comp.result().Stats.counts();
  return Out;
}

RunResult fromResponse(const service::PlaceResponse &R) {
  RunResult Out;
  if (R.Status != service::ResponseStatus::Ok) {
    Out.Message =
        "daemon: " + (R.Error.empty() ? std::string("request failed") : R.Error);
    return Out;
  }
  Out.St = RunResult::Status::Ok;
  Out.Sigma = R.DecisionSummary;
  Out.Counts = R; // the daemon's shared store is a local run's store tier
  return Out;
}

/// Daemon leg: boot an in-process expressod on a private socket, send the
/// same request twice with the replay cache bypassed. Request 1 sees the
/// daemon's store cold (joins the Cold parity group), request 2 sees it
/// warmed by request 1 (joins the Warm group).
std::vector<RunResult> runDaemonPair(const std::string &Source,
                                     const RunSpec &Cell,
                                     const std::string &SocketPath) {
  auto bothFailed = [](const std::string &Msg) {
    RunResult R;
    R.Message = Msg;
    return std::vector<RunResult>{R, R};
  };
  service::ServerOptions SOpts;
  SOpts.SocketPath = SocketPath;
  SOpts.Workers = 2;
  SOpts.JobsBudget = std::max(1u, Cell.Jobs);
  SOpts.SolverName = kindName(Cell.Backend);
  service::Server Srv(SOpts);
  std::string Error;
  if (!Srv.start(&Error))
    return bothFailed("daemon start failed: " + Error);

  std::vector<RunResult> Results;
  {
    std::unique_ptr<service::ServiceClient> Client =
        service::ServiceClient::connect(SocketPath, &Error);
    if (!Client) {
      Srv.requestShutdown(/*Drain=*/false);
      Srv.wait();
      return bothFailed("daemon connect failed: " + Error);
    }
    service::PlaceRequest Req;
    Req.Source = Source;
    Req.Emit = "summary";
    Req.Solver = kindName(Cell.Backend);
    Req.Incremental = Cell.Incremental;
    Req.Jobs = Cell.Jobs;
    Req.BypassResultCache = true;
    for (int I = 0; I < 2; ++I) {
      service::PlaceResponse Resp;
      if (!Client->place(Req, Resp, &Error)) {
        RunResult R;
        R.Message = "daemon request failed: " + Error;
        Results.push_back(R);
      } else {
        Results.push_back(fromResponse(Resp));
      }
    }
  }
  Srv.requestShutdown(/*Drain=*/true);
  Srv.wait();
  return Results;
}

//===----------------------------------------------------------------------===//
// Child <-> parent result transport
//===----------------------------------------------------------------------===//

void writeAll(int Fd, const char *Data, size_t Size) {
  size_t Off = 0;
  while (Off < Size) {
    ssize_t N = ::write(Fd, Data + Off, Size - Off);
    if (N <= 0) {
      if (errno == EINTR)
        continue;
      return; // parent went away; nothing sensible left to do
    }
    Off += static_cast<size_t>(N);
  }
}

void writeBlob(std::ostream &OS, const char *Tag, const std::string &S) {
  OS << Tag << " " << S.size() << "\n" << S << "\n";
}

void serializeResult(std::ostream &OS, const RunResult &R) {
  OS << "status " << static_cast<int>(R.St) << "\n";
  writeBlob(OS, "msg", R.Message);
  writeBlob(OS, "sigma", R.Sigma);
  OS << "counts";
  for (const core::PlacementCountField &F : core::PlacementCountFields)
    OS << " " << R.Counts.*F.Member;
  OS << "\nend\n";
}

/// Parses the child's output stream back into results. Returns false when
/// the stream is truncated or malformed (treated as a crash by the caller).
bool parseResults(const std::string &Data, size_t Expected,
                  std::vector<RunResult> &Out) {
  size_t Pos = 0;
  auto line = [&](std::string &L) {
    size_t Nl = Data.find('\n', Pos);
    if (Nl == std::string::npos)
      return false;
    L = Data.substr(Pos, Nl - Pos);
    Pos = Nl + 1;
    return true;
  };
  auto blob = [&](const char *Tag, std::string &S) {
    std::string L;
    if (!line(L))
      return false;
    std::istringstream IS(L);
    std::string Got;
    size_t Len = 0;
    if (!(IS >> Got >> Len) || Got != Tag)
      return false;
    if (Pos + Len + 1 > Data.size())
      return false;
    S = Data.substr(Pos, Len);
    Pos += Len + 1; // skip the trailing newline
    return true;
  };
  for (size_t I = 0; I < Expected; ++I) {
    RunResult R;
    std::string L;
    if (!line(L))
      return false;
    {
      std::istringstream IS(L);
      std::string Tag;
      int St = 0;
      if (!(IS >> Tag >> St) || Tag != "status")
        return false;
      R.St = static_cast<RunResult::Status>(St);
    }
    if (!blob("msg", R.Message) || !blob("sigma", R.Sigma))
      return false;
    if (!line(L))
      return false;
    {
      std::istringstream IS(L);
      std::string Tag;
      IS >> Tag;
      for (const core::PlacementCountField &F : core::PlacementCountFields)
        IS >> R.Counts.*F.Member;
      if (!IS || Tag != "counts")
        return false;
    }
    if (!line(L) || L != "end")
      return false;
    Out.push_back(std::move(R));
  }
  return true;
}

/// One forked cell in flight: the child executes the cell (one local run,
/// or a daemon request pair) and streams results back over a pipe; the
/// parent enforces the per-cell deadline. Independent cells run
/// concurrently — every cold store directory and daemon socket is private
/// to its cell, so the only ordering constraint is cold-before-warm.
struct PendingCell {
  RunSpec Cell;
  std::string SocketPath;
  int DeadlineSeconds = 300;
  size_t Expected = 1;

  pid_t Pid = -1;
  int Fd = -1;
  std::string Data;
  WallTimer Start;
  std::vector<RunResult> Results; ///< filled when finished

  bool finished() const { return !Results.empty(); }

  void finishAll(RunResult::Status St, const std::string &Msg) {
    RunResult R;
    R.St = St;
    R.Message = Msg;
    Results.assign(Expected, R);
  }
};

/// Forks the child for \p P. On failure the cell finishes immediately with
/// an Error result.
void launchCell(const std::string &Source, PendingCell &P) {
  P.Expected = P.Cell.Daemon ? 2 : 1;
  int Pipe[2];
  if (::pipe(Pipe) != 0) {
    P.finishAll(RunResult::Status::Error, "pipe() failed");
    return;
  }
  pid_t Pid = ::fork();
  if (Pid < 0) {
    ::close(Pipe[0]);
    ::close(Pipe[1]);
    P.finishAll(RunResult::Status::Error, "fork() failed");
    return;
  }
  if (Pid == 0) {
    // Child: run the cell, ship the results, exit without running atexit
    // handlers (the parent's state must stay untouched).
    ::close(Pipe[0]);
    std::ostringstream OS;
    std::vector<RunResult> Results;
    try {
      if (P.Cell.Daemon)
        Results = runDaemonPair(Source, P.Cell, P.SocketPath);
      else
        Results.push_back(runLocalCell(Source, P.Cell));
    } catch (const std::exception &E) {
      RunResult R;
      R.Message = std::string("exception: ") + E.what();
      Results.assign(P.Expected, R);
    } catch (...) {
      RunResult R;
      R.Message = "unknown exception";
      Results.assign(P.Expected, R);
    }
    if (Results.size() != P.Expected)
      Results.resize(P.Expected);
    for (const RunResult &R : Results)
      serializeResult(OS, R);
    std::string Payload = OS.str();
    writeAll(Pipe[1], Payload.data(), Payload.size());
    ::close(Pipe[1]);
    ::_exit(0);
  }
  ::close(Pipe[1]);
  P.Pid = Pid;
  P.Fd = Pipe[0];
  P.Start.restart();
}

/// Reaps one launched cell that has reached EOF or its deadline.
void finalizeCell(PendingCell &P, bool TimedOut) {
  if (P.Fd >= 0) {
    ::close(P.Fd);
    P.Fd = -1;
  }
  if (TimedOut) {
    ::kill(P.Pid, SIGKILL);
    int Status = 0;
    ::waitpid(P.Pid, &Status, 0);
    P.finishAll(RunResult::Status::Timeout,
                "exceeded " + std::to_string(P.DeadlineSeconds) +
                    "s deadline");
    return;
  }
  int Status = 0;
  ::waitpid(P.Pid, &Status, 0);
  if (WIFSIGNALED(Status)) {
    P.finishAll(RunResult::Status::Crash, std::string("killed by signal ") +
                                              strsignal(WTERMSIG(Status)));
    return;
  }
  if (WIFEXITED(Status) && WEXITSTATUS(Status) != 0) {
    P.finishAll(RunResult::Status::Crash,
                "exited with code " + std::to_string(WEXITSTATUS(Status)));
    return;
  }
  std::vector<RunResult> Results;
  if (!parseResults(P.Data, P.Expected, Results)) {
    P.finishAll(RunResult::Status::Crash, "truncated result stream");
    return;
  }
  P.Results = std::move(Results);
}

/// Drives a batch of launched cells to completion: polls every open pipe,
/// drains output as it arrives, and kills any child past its own deadline.
void collectCells(std::vector<PendingCell *> &Batch) {
  char Buf[4096];
  for (;;) {
    std::vector<struct pollfd> Pfds;
    std::vector<size_t> Index;
    for (size_t I = 0; I < Batch.size(); ++I) {
      PendingCell &P = *Batch[I];
      if (P.finished() || P.Fd < 0)
        continue;
      if (P.Start.elapsedSeconds() >= P.DeadlineSeconds) {
        finalizeCell(P, /*TimedOut=*/true);
        continue;
      }
      Pfds.push_back({P.Fd, POLLIN, 0});
      Index.push_back(I);
    }
    if (Pfds.empty())
      return;
    int Rc = ::poll(Pfds.data(), Pfds.size(), 200);
    if (Rc < 0 && errno != EINTR)
      Rc = 0;
    for (size_t K = 0; K < Pfds.size(); ++K) {
      if (!(Pfds[K].revents & (POLLIN | POLLHUP | POLLERR)))
        continue;
      PendingCell &P = *Batch[Index[K]];
      ssize_t N = ::read(P.Fd, Buf, sizeof(Buf));
      if (N > 0) {
        P.Data.append(Buf, static_cast<size_t>(N));
      } else if (N == 0 || (N < 0 && errno != EINTR)) {
        finalizeCell(P, /*TimedOut=*/false); // EOF: child is done
      }
    }
  }
}

//===----------------------------------------------------------------------===//
// The matrix
//===----------------------------------------------------------------------===//

/// One executed cell with the metadata the parity checks key on.
struct CellOutcome {
  solver::SolverKind Backend = solver::SolverKind::Mini;
  std::string Label;
  CacheMode Mode = CacheMode::Off;
  bool ExactWarm = false; ///< warm disk counters must be all-hits
  RunResult R;
};

struct MatrixReport {
  SpecVerdict::Kind K = SpecVerdict::Kind::Parity;
  std::string Detail;
  unsigned Cells = 0;
};

/// One planned matrix cell: the forked child plus the parity metadata its
/// results carry. A daemon cell yields two outcomes (request 1 joins the
/// cold parity group, request 2 the warm group).
struct PlannedCell {
  solver::SolverKind Backend = solver::SolverKind::Mini;
  PendingCell Pending;
  std::string Label;
  CacheMode Mode = CacheMode::Off;
  bool ExactWarm = false;
};

void appendOutcomes(const PlannedCell &C, std::vector<CellOutcome> &Out) {
  for (size_t I = 0; I < C.Pending.Results.size(); ++I) {
    CellOutcome O;
    O.Backend = C.Backend;
    O.Label = C.Label;
    O.Mode = C.Mode;
    O.ExactWarm = C.ExactWarm;
    if (C.Pending.Cell.Daemon) {
      O.Label += I == 0 ? "/req-cold" : "/req-warm";
      O.Mode = I == 0 ? CacheMode::Cold : CacheMode::Warm;
    }
    O.R = C.Pending.Results[I];
    Out.push_back(std::move(O));
  }
}

/// Plans one backend group's cells. Cache-off, cold, and daemon cells have
/// no ordering constraints between them and go to \p Stage1; warm cells
/// must follow the cold run that fills their store and go to \p Stage2.
void planGroup(solver::SolverKind Backend, const DiffOptions &Opts,
               const std::string &Scratch, std::vector<PlannedCell> &Stage1,
               std::vector<PlannedCell> &Stage2) {
  std::vector<unsigned> JobsLegs = {1};
  if (Opts.JobsMax > 1)
    JobsLegs.push_back(Opts.JobsMax);

  auto localCell = [&](unsigned Jobs, bool Inc, CacheMode Mode,
                       const std::string &Dir) {
    PlannedCell C;
    C.Backend = Backend;
    C.Pending.Cell.Backend = Backend;
    C.Pending.Cell.Jobs = Jobs;
    C.Pending.Cell.Incremental = Inc;
    C.Pending.Cell.Cache = Mode;
    C.Pending.Cell.CacheDir = Dir;
    C.Pending.DeadlineSeconds = Opts.TimeoutSeconds;
    C.Label = C.Pending.Cell.label();
    C.Mode = Mode;
    C.ExactWarm = Jobs == 1;
    return C;
  };

  for (unsigned Jobs : JobsLegs) {
    for (bool Inc : {true, false}) {
      Stage1.push_back(localCell(Jobs, Inc, CacheMode::Off, ""));
      std::string Dir = Scratch + "/store-" + kindName(Backend) + "-j" +
                        std::to_string(Jobs) + (Inc ? "-inc" : "-one");
      Stage1.push_back(localCell(Jobs, Inc, CacheMode::Cold, Dir));
      Stage2.push_back(localCell(Jobs, Inc, CacheMode::Warm, Dir));
    }
  }

  // Daemon legs on the matrix diagonal.
  if (Opts.UseDaemon) {
    struct DaemonLeg {
      unsigned Jobs;
      bool Inc;
    };
    std::vector<DaemonLeg> Legs = {{1, true}};
    if (Opts.JobsMax > 1)
      Legs.push_back({Opts.JobsMax, false});
    unsigned LegIdx = 0;
    for (const DaemonLeg &Leg : Legs) {
      PlannedCell C;
      C.Backend = Backend;
      C.Pending.Cell.Backend = Backend;
      C.Pending.Cell.Jobs = Leg.Jobs;
      C.Pending.Cell.Incremental = Leg.Inc;
      C.Pending.Cell.Daemon = true;
      C.Pending.SocketPath = Scratch + "/expressod-" + kindName(Backend) +
                             "-" + std::to_string(LegIdx++) + ".sock";
      C.Pending.DeadlineSeconds = 2 * Opts.TimeoutSeconds;
      C.Label = C.Pending.Cell.label();
      C.ExactWarm = Leg.Jobs == 1;
      Stage1.push_back(std::move(C));
    }
  }
}

/// Concurrency cap for one stage's forked children. Cells are short and
/// mostly independent pipelines, so mild oversubscription beats idle cores.
unsigned parallelCap(const DiffOptions &Opts) {
  if (Opts.Parallel > 0)
    return Opts.Parallel;
  unsigned Hw = std::thread::hardware_concurrency();
  if (Hw == 0)
    Hw = 8;
  return std::min(16u, std::max(4u, Hw));
}

/// Launches one stage's cells in chunks of the concurrency cap, collecting
/// each chunk before the next. Returns false once the spec budget expires;
/// unlaunched cells stay unexecuted (the caller reports Skipped).
bool runStage(const std::string &Source, std::vector<PlannedCell> &Stage,
              const DiffOptions &Opts, const WallTimer &SpecClock,
              std::vector<CellOutcome> &Outcomes) {
  unsigned Cap = parallelCap(Opts);
  size_t Next = 0;
  while (Next < Stage.size()) {
    int Remaining = 0;
    if (Opts.SpecBudgetSeconds > 0) {
      Remaining = Opts.SpecBudgetSeconds -
                  static_cast<int>(SpecClock.elapsedSeconds());
      if (SpecClock.elapsedSeconds() > Opts.SpecBudgetSeconds)
        return false;
    }
    size_t End = std::min(Stage.size(), Next + Cap);
    std::vector<PendingCell *> Batch;
    for (size_t I = Next; I < End; ++I) {
      PlannedCell &C = Stage[I];
      // Under a spec budget, cap each child's deadline at what is left of
      // the budget so a slow chunk degrades to Timeout rows instead of
      // blowing through the bound.
      if (Opts.SpecBudgetSeconds > 0)
        C.Pending.DeadlineSeconds =
            std::min(C.Pending.DeadlineSeconds, std::max(1, Remaining + 1));
      if (Opts.Verbose)
        std::fprintf(stderr, "  [cell] %s\n", C.Label.c_str());
      launchCell(Source, C.Pending);
      if (!C.Pending.finished())
        Batch.push_back(&C.Pending);
    }
    collectCells(Batch);
    for (size_t I = Next; I < End; ++I)
      appendOutcomes(Stage[I], Outcomes);
    Next = End;
  }
  return true;
}

/// Checks every parity rule over one backend group's executed cells.
MatrixReport checkGroup(solver::SolverKind Backend,
                        const std::vector<CellOutcome> &All) {
  MatrixReport Report;
  std::vector<CellOutcome> Cells;
  for (const CellOutcome &O : All)
    if (O.Backend == Backend)
      Cells.push_back(O);
  Report.Cells = static_cast<unsigned>(Cells.size());

  auto fail = [&](const std::string &Detail) {
    Report.K = SpecVerdict::Kind::Divergence;
    Report.Detail = Detail;
    return Report;
  };

  // Hard failures and timeouts first.
  bool SawTimeout = false;
  std::string TimeoutDetail;
  for (const CellOutcome &O : Cells) {
    switch (O.R.St) {
    case RunResult::Status::Ok:
      break;
    case RunResult::Status::Timeout:
      SawTimeout = true;
      if (TimeoutDetail.empty())
        TimeoutDetail = O.Label + ": " + O.R.Message;
      break;
    case RunResult::Status::Crash:
    case RunResult::Status::Error:
      return fail(O.Label + ": " + O.R.Message);
    }
  }

  // Σ and core-stat byte parity across every completed cell.
  const CellOutcome *Ref = nullptr;
  for (const CellOutcome &O : Cells) {
    if (O.R.St != RunResult::Status::Ok)
      continue;
    if (!Ref) {
      Ref = &O;
      continue;
    }
    if (O.R.Sigma != Ref->R.Sigma)
      return fail("sigma mismatch: " + Ref->Label + " vs " + O.Label +
                  "\n--- " + Ref->Label + "\n" + Ref->R.Sigma + "--- " +
                  O.Label + "\n" + O.R.Sigma);
    if (O.R.Counts.modeInvariant() != Ref->R.Counts.modeInvariant()) {
      std::ostringstream OS;
      OS << "stats mismatch: " << Ref->Label << " [" << Ref->R.Counts
         << "] vs " << O.Label << " [" << O.R.Counts << "]";
      return fail(OS.str());
    }
  }

  // Memo tier: zero with the cache off, identical across cache-enabled
  // cells (misses == distinct formulas, an interleaving-independent count).
  const CellOutcome *MemoRef = nullptr;
  for (const CellOutcome &O : Cells) {
    if (O.R.St != RunResult::Status::Ok)
      continue;
    if (O.Mode == CacheMode::Off) {
      if (O.R.Counts != O.R.Counts.modeInvariant())
        return fail(O.Label + ": nonzero cache counters with cache off");
      continue;
    }
    if (!MemoRef) {
      MemoRef = &O;
      continue;
    }
    const core::PlacementCounts &K = O.R.Counts;
    const core::PlacementCounts &RefK = MemoRef->R.Counts;
    if (K.CacheHits != RefK.CacheHits || K.CacheMisses != RefK.CacheMisses)
      return fail("memo counter mismatch: " + MemoRef->Label + " (" +
                  std::to_string(RefK.CacheHits) + "/" +
                  std::to_string(RefK.CacheMisses) + ") vs " + O.Label + " (" +
                  std::to_string(K.CacheHits) + "/" +
                  std::to_string(K.CacheMisses) + ")");
  }

  // Persistent tier, per cell. Cold stores answer nothing and record every
  // memo miss; warm stores answer everything at jobs==1 (both backends —
  // solver-side interning is isolated in a scratch context, so a warm
  // replay re-derives identical keys) and under --jobs conserve lookups
  // (worker-interleaved interning can still reorder worker-built subterms).
  for (const CellOutcome &O : Cells) {
    if (O.R.St != RunResult::Status::Ok || O.Mode == CacheMode::Off)
      continue;
    const core::PlacementCounts &K = O.R.Counts;
    uint64_t Lookups = K.SharedHits + K.SharedMisses;
    if (Lookups != K.CacheMisses)
      return fail(O.Label + ": disk lookups (" + std::to_string(Lookups) +
                  ") != memo misses (" + std::to_string(K.CacheMisses) + ")");
    if (O.Mode == CacheMode::Cold && K.SharedHits != 0)
      return fail(O.Label + ": cold store answered " +
                  std::to_string(K.SharedHits) + " lookups");
    if (O.Mode == CacheMode::Warm) {
      if (O.ExactWarm && K.SharedMisses != 0)
        return fail(O.Label + ": warm store missed " +
                    std::to_string(K.SharedMisses) + " of " +
                    std::to_string(Lookups) + " lookups (expected all hits)");
      // Loose warm contract (--jobs cells): demand *some* reuse once
      // there is enough traffic that scheduling jitter cannot plausibly
      // miss every key.
      if (!O.ExactWarm && Lookups >= 4 && K.SharedHits == 0)
        return fail(O.Label + ": warm store answered 0 of " +
                    std::to_string(Lookups) + " lookups");
    }
  }

  if (SawTimeout) {
    Report.K = SpecVerdict::Kind::Skipped;
    Report.Detail = TimeoutDetail;
  }
  return Report;
}

/// Plans every backend group, runs stage 1 (off + cold + daemon) and then
/// stage 2 (warm) with intra-stage concurrency, and checks parity per
/// group. The spec budget spans the whole matrix.
MatrixReport runMatrix(const std::string &Source, const DiffOptions &Opts,
                       const std::string &Scratch,
                       std::vector<CellOutcome> &Outcomes) {
  std::vector<solver::SolverKind> Backends = Opts.Backends;
  if (Backends.empty()) {
    Backends.push_back(solver::SolverKind::Mini);
    if (solver::hasZ3())
      Backends.push_back(solver::SolverKind::Z3);
  }
  WallTimer SpecClock;
  std::vector<PlannedCell> Stage1, Stage2;
  for (solver::SolverKind Backend : Backends)
    planGroup(Backend, Opts, Scratch, Stage1, Stage2);
  bool Complete = runStage(Source, Stage1, Opts, SpecClock, Outcomes);
  if (Complete)
    Complete = runStage(Source, Stage2, Opts, SpecClock, Outcomes);

  MatrixReport Combined;
  Combined.Cells = static_cast<unsigned>(Outcomes.size());
  for (solver::SolverKind Backend : Backends) {
    MatrixReport R = checkGroup(Backend, Outcomes);
    if (R.K == SpecVerdict::Kind::Divergence) {
      Combined.K = R.K;
      Combined.Detail = R.Detail;
      return Combined; // first divergence wins
    }
    if (R.K == SpecVerdict::Kind::Skipped &&
        Combined.K == SpecVerdict::Kind::Parity) {
      Combined.K = R.K;
      Combined.Detail = R.Detail;
    }
  }
  if (!Complete && Combined.K == SpecVerdict::Kind::Parity) {
    Combined.K = SpecVerdict::Kind::Skipped;
    Combined.Detail = "spec budget (" +
                      std::to_string(Opts.SpecBudgetSeconds) +
                      "s) exhausted after " +
                      std::to_string(Outcomes.size()) + " cells";
  }
  return Combined;
}

//===----------------------------------------------------------------------===//
// Scratch management
//===----------------------------------------------------------------------===//

/// Unique scratch directory for one matrix run (cache stores + daemon
/// sockets). Socket paths must stay under sun_path limits, so prefer short
/// roots.
class ScratchDir {
public:
  explicit ScratchDir(const std::string &Root) {
    static unsigned Counter = 0;
    const char *Base = Root.empty() ? nullptr : Root.c_str();
    if (!Base) {
      Base = ::getenv("TMPDIR");
      if (!Base || !*Base)
        Base = "/tmp";
    }
    Path = std::string(Base) + "/xdiff-" + std::to_string(::getpid()) + "-" +
           std::to_string(Counter++);
    std::error_code Ec;
    fs::create_directories(Path, Ec);
  }
  ~ScratchDir() {
    std::error_code Ec;
    fs::remove_all(Path, Ec);
  }
  const std::string &path() const { return Path; }

private:
  std::string Path;
};

//===----------------------------------------------------------------------===//
// Shrinking
//===----------------------------------------------------------------------===//

/// True when the candidate source still parses, passes sema, and still
/// diverges under a (cheaper) matrix run.
bool stillFails(const std::string &Candidate, const DiffOptions &Opts,
                const std::string &Scratch) {
  if (!driver::Compilation().frontend(Candidate))
    return false;
  DiffOptions Cheap = Opts;
  Cheap.Shrink = false;
  Cheap.UseDaemon = false; // daemon-only divergences simply stop shrinking
  Cheap.TimeoutSeconds = std::min(Opts.TimeoutSeconds, 60);
  std::vector<CellOutcome> Outcomes;
  return runMatrix(Candidate, Cheap, Scratch, Outcomes).K ==
         SpecVerdict::Kind::Divergence;
}

/// Greedy ddmin-style reduction: repeatedly try structural edits (largest
/// cuts first) and keep any reduced spec that still fails, until a full
/// pass accepts nothing or the wall budget runs out.
std::string shrinkSpec(const std::string &Source, const DiffOptions &Opts,
                       const std::string &Scratch) {
  WallTimer Budget;
  std::string Current = Source;

  auto parse = [](const std::string &Src) -> std::unique_ptr<frontend::Monitor> {
    DiagnosticEngine Diags;
    return frontend::parseMonitor(Src, Diags);
  };

  bool Improved = true;
  while (Improved && Budget.elapsedSeconds() < Opts.ShrinkSeconds) {
    Improved = false;
    auto M = parse(Current);
    if (!M)
      break;

    std::vector<ShrinkEdit> Candidates;
    // Largest cuts first: whole methods, then single CCRs, then guards and
    // statements, then dead fields and requires clauses.
    if (M->Methods.size() > 1)
      for (size_t MI = 0; MI < M->Methods.size(); ++MI) {
        ShrinkEdit E;
        E.DropMethod = static_cast<int>(MI);
        Candidates.push_back(E);
      }
    for (size_t MI = 0; MI < M->Methods.size(); ++MI)
      if (M->Methods[MI].Body.size() > 1)
        for (size_t WI = 0; WI < M->Methods[MI].Body.size(); ++WI) {
          ShrinkEdit E;
          E.DropCcrMethod = static_cast<int>(MI);
          E.DropCcrIndex = static_cast<int>(WI);
          Candidates.push_back(E);
        }
    for (size_t MI = 0; MI < M->Methods.size(); ++MI)
      for (size_t WI = 0; WI < M->Methods[MI].Body.size(); ++WI) {
        ShrinkEdit E;
        E.TrueGuardMethod = static_cast<int>(MI);
        E.TrueGuardIndex = static_cast<int>(WI);
        Candidates.push_back(E);
      }
    for (size_t MI = 0; MI < M->Methods.size(); ++MI)
      for (size_t WI = 0; WI < M->Methods[MI].Body.size(); ++WI) {
        const frontend::Stmt *Body = M->Methods[MI].Body[WI].Body;
        size_t N = 1;
        if (const auto *Seq = dyn_cast<frontend::SeqStmt>(Body))
          N = Seq->stmts().size();
        for (size_t SI = 0; SI < N; ++SI) {
          ShrinkEdit E;
          E.DropStmtMethod = static_cast<int>(MI);
          E.DropStmtCcr = static_cast<int>(WI);
          E.DropStmtIndex = static_cast<int>(SI);
          Candidates.push_back(E);
        }
      }
    for (size_t FI = 0; FI < M->Fields.size(); ++FI)
      if (!fieldReferenced(*M, FI)) {
        ShrinkEdit E;
        E.DropField = static_cast<int>(FI);
        Candidates.push_back(E);
      }
    for (size_t RI = 0; RI < M->Requires.size(); ++RI) {
      ShrinkEdit E;
      E.DropRequires = static_cast<int>(RI);
      Candidates.push_back(E);
    }

    for (const ShrinkEdit &E : Candidates) {
      if (Budget.elapsedSeconds() >= Opts.ShrinkSeconds)
        return Current;
      std::string Reduced = printMonitor(*M, E);
      if (Reduced == Current)
        continue;
      if (stillFails(Reduced, Opts, Scratch)) {
        Current = Reduced;
        Improved = true;
        break; // re-enumerate candidates against the smaller spec
      }
    }
  }
  return Current;
}

std::string extractSeedTag(const std::string &ConfigStr) {
  size_t Pos = ConfigStr.find("seed=");
  if (Pos == std::string::npos)
    return "spec";
  size_t End = Pos + 5;
  while (End < ConfigStr.size() && std::isdigit(ConfigStr[End]))
    ++End;
  return "seed" + ConfigStr.substr(Pos + 5, End - (Pos + 5));
}

} // namespace

//===----------------------------------------------------------------------===//
// Repro files
//===----------------------------------------------------------------------===//

std::string specgen::writeRepro(const std::string &Path,
                                const std::string &Source,
                                const std::string &ConfigStr,
                                const std::string &Detail) {
  std::ofstream Out(Path);
  if (!Out)
    return "";
  Out << "# expresso-diff reproducer\n";
  if (!ConfigStr.empty())
    Out << "# config: " << ConfigStr << "\n";
  if (!Detail.empty())
    Out << "# divergence: " << Detail << "\n";
  Out << "# replay: expresso-diff --replay=" << Path << "\n";
  Out << Source;
  if (!Source.empty() && Source.back() != '\n')
    Out << "\n";
  return Out.good() ? Path : "";
}

bool specgen::readRepro(const std::string &Path, std::string &Source,
                        std::string *Error) {
  std::ifstream In(Path);
  if (!In) {
    if (Error)
      *Error = "cannot open " + Path;
    return false;
  }
  std::ostringstream OS;
  std::string Line;
  while (std::getline(In, Line)) {
    if (!Line.empty() && Line[0] == '#')
      continue;
    OS << Line << "\n";
  }
  Source = OS.str();
  return true;
}

//===----------------------------------------------------------------------===//
// The public entry point
//===----------------------------------------------------------------------===//

SpecVerdict specgen::checkSpec(const std::string &Source,
                               const std::string &ConfigStr,
                               const DiffOptions &Opts) {
  SpecVerdict Verdict;

  // Reject unparseable input up front: no cell would get past the
  // frontend, so there is no parity question to ask.
  if (driver::Compilation Comp; !Comp.frontend(Source)) {
    Verdict.K = SpecVerdict::Kind::Invalid;
    Verdict.Detail = Comp.diagnostics();
    return Verdict;
  }

  ScratchDir Scratch(Opts.ScratchDir);
  std::vector<CellOutcome> Outcomes;
  MatrixReport Report = runMatrix(Source, Opts, Scratch.path(), Outcomes);
  Verdict.Cells = Report.Cells;
  Verdict.Detail = Report.Detail;
  Verdict.K = Report.K;
  if (Report.K != SpecVerdict::Kind::Divergence)
    return Verdict;

  // A real divergence: persist it, then shrink it.
  std::error_code Ec;
  fs::create_directories(Opts.ReproDir, Ec);
  std::string Stem = Opts.ReproDir + "/diff-" + extractSeedTag(ConfigStr);
  Verdict.ReproPath =
      writeRepro(Stem + ".repro", Source, ConfigStr, Report.Detail);

  if (Opts.Shrink) {
    std::string Reduced = shrinkSpec(Source, Opts, Scratch.path());
    if (Reduced != Source)
      Verdict.MinReproPath = writeRepro(Stem + "-min.repro", Reduced,
                                        ConfigStr, Report.Detail);
  }
  return Verdict;
}
