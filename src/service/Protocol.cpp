//===- service/Protocol.cpp - expressod wire protocol -------------------------===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//

#include "service/Protocol.h"

#include "codegen/Codegen.h"
#include "persist/TermCodec.h"

#include <cerrno>
#include <cstring>

#ifndef _WIN32
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#endif

using namespace expresso;
using namespace expresso::service;
using persist::ByteReader;
using persist::ByteWriter;

//===----------------------------------------------------------------------===//
// Message codecs
//===----------------------------------------------------------------------===//

namespace {

/// Shared tail check: a payload with trailing bytes is as malformed as a
/// truncated one (it is evidence the two sides disagree on the format).
bool finish(ByteReader &B) { return !B.failed() && B.atEnd(); }

void writeBool(ByteWriter &B, bool V) { B.writeByte(V ? 1 : 0); }

bool readBool(ByteReader &B, bool &V) {
  uint8_t Byte = B.readByte();
  if (B.failed() || Byte > 1)
    return false;
  V = Byte != 0;
  return true;
}

/// Doubles travel as fixed u64 bit patterns (latencies and uptimes are
/// diagnostics; bit-exactness is still nice for the tests).
void writeDouble(ByteWriter &B, double V) {
  uint64_t Bits;
  std::memcpy(&Bits, &V, sizeof(Bits));
  B.writeU64(Bits);
}

double readDouble(ByteReader &B) {
  uint64_t Bits = B.readU64();
  double V;
  std::memcpy(&V, &Bits, sizeof(V));
  return V;
}

} // namespace

void PlaceRequest::encode(std::vector<uint8_t> &Out) const {
  ByteWriter B(Out);
  B.writeString(Source);
  B.writeString(Emit);
  B.writeString(Solver);
  writeBool(B, UseInvariant);
  writeBool(B, UseCommutativity);
  writeBool(B, LazyBroadcast);
  writeBool(B, CacheQueries);
  writeBool(B, Incremental);
  B.writeVarint(Jobs);
  B.writeByte(static_cast<uint8_t>(Prio));
  writeBool(B, BypassResultCache);
  B.writeVarint(DeadlineMs);
  writeBool(B, WantTrace);
}

bool PlaceRequest::decode(const uint8_t *Data, size_t Size, PlaceRequest &Out) {
  ByteReader B(Data, Size);
  if (!B.readString(Out.Source, MaxFramePayload) ||
      !B.readString(Out.Emit, 64) || !B.readString(Out.Solver, 64) ||
      !codegen::parseEmitKind(Out.Emit))
    return false;
  if (!readBool(B, Out.UseInvariant) || !readBool(B, Out.UseCommutativity) ||
      !readBool(B, Out.LazyBroadcast) || !readBool(B, Out.CacheQueries) ||
      !readBool(B, Out.Incremental))
    return false;
  uint64_t Jobs = B.readVarint();
  if (B.failed() || Jobs == 0 || Jobs > (1u << 16))
    return false;
  Out.Jobs = static_cast<uint32_t>(Jobs);
  uint8_t Prio = B.readByte();
  if (B.failed() || Prio > static_cast<uint8_t>(Priority::High))
    return false;
  Out.Prio = static_cast<Priority>(Prio);
  if (!readBool(B, Out.BypassResultCache))
    return false;
  Out.DeadlineMs = B.readVarint();
  if (!readBool(B, Out.WantTrace))
    return false;
  return finish(B);
}

void PlaceResponse::encode(std::vector<uint8_t> &Out) const {
  ByteWriter B(Out);
  B.writeByte(static_cast<uint8_t>(Status));
  B.writeString(Error);
  B.writeString(Artifact);
  B.writeString(DecisionSummary);
  B.writeString(SolverName);
  for (const core::PlacementCountField &F : core::PlacementCountFields)
    B.writeVarint(this->*F.Member);
  writeDouble(B, AnalysisSeconds);
  writeDouble(B, InvariantSeconds);
  writeDouble(B, QueueSeconds);
  B.writeVarint(JobsUsed);
  writeBool(B, Replayed);
  writeBool(B, StoreSkipped);
  B.writeVarint(TraceId);
  B.writeString(TraceJson);
}

bool PlaceResponse::decode(const uint8_t *Data, size_t Size,
                           PlaceResponse &Out) {
  ByteReader B(Data, Size);
  uint8_t Status = B.readByte();
  if (B.failed() ||
      Status > static_cast<uint8_t>(ResponseStatus::DeadlineExceeded))
    return false;
  Out.Status = static_cast<ResponseStatus>(Status);
  if (!B.readString(Out.Error, MaxFramePayload) ||
      !B.readString(Out.Artifact, MaxFramePayload) ||
      !B.readString(Out.DecisionSummary, MaxFramePayload) ||
      !B.readString(Out.SolverName, 64))
    return false;
  for (const core::PlacementCountField &F : core::PlacementCountFields)
    Out.*F.Member = B.readVarint();
  Out.AnalysisSeconds = readDouble(B);
  Out.InvariantSeconds = readDouble(B);
  Out.QueueSeconds = readDouble(B);
  uint64_t Jobs = B.readVarint();
  if (B.failed() || Jobs > (1u << 16))
    return false;
  Out.JobsUsed = static_cast<uint32_t>(Jobs);
  if (!readBool(B, Out.Replayed) || !readBool(B, Out.StoreSkipped))
    return false;
  Out.TraceId = B.readVarint();
  if (B.failed() || !B.readString(Out.TraceJson, MaxFramePayload))
    return false;
  return finish(B);
}

void StatusResponse::encode(std::vector<uint8_t> &Out) const {
  ByteWriter B(Out);
  B.writeVarint(RequestsServed);
  B.writeVarint(RequestsActive);
  B.writeVarint(RequestsQueued);
  B.writeVarint(RequestsRejected);
  B.writeVarint(ResultCacheHits);
  B.writeVarint(StoreRecords);
  B.writeVarint(StoreEvicted);
  B.writeVarint(JobsBudget);
  B.writeVarint(JobsAvailable);
  writeDouble(B, UptimeSeconds);
  writeBool(B, Draining);
  B.writeString(StoreProfile);
  B.writeString(StoreDir);
  B.writeVarint(RequestsRejectedFull);
  B.writeVarint(RequestsRejectedDraining);
  B.writeVarint(RequestsExpiredQueued);
  B.writeVarint(RequestsCancelledRunning);
  B.writeVarint(RequestsCompleted);
  writeDouble(B, LatencyP50Seconds);
  writeDouble(B, LatencyP99Seconds);
}

bool StatusResponse::decode(const uint8_t *Data, size_t Size,
                            StatusResponse &Out) {
  ByteReader B(Data, Size);
  Out.RequestsServed = B.readVarint();
  Out.RequestsActive = B.readVarint();
  Out.RequestsQueued = B.readVarint();
  Out.RequestsRejected = B.readVarint();
  Out.ResultCacheHits = B.readVarint();
  Out.StoreRecords = B.readVarint();
  Out.StoreEvicted = B.readVarint();
  Out.JobsBudget = static_cast<uint32_t>(B.readVarint());
  Out.JobsAvailable = static_cast<uint32_t>(B.readVarint());
  Out.UptimeSeconds = readDouble(B);
  if (!readBool(B, Out.Draining))
    return false;
  if (!B.readString(Out.StoreProfile, 64) ||
      !B.readString(Out.StoreDir, 1 << 16))
    return false;
  Out.RequestsRejectedFull = B.readVarint();
  Out.RequestsRejectedDraining = B.readVarint();
  Out.RequestsExpiredQueued = B.readVarint();
  Out.RequestsCancelledRunning = B.readVarint();
  Out.RequestsCompleted = B.readVarint();
  Out.LatencyP50Seconds = readDouble(B);
  Out.LatencyP99Seconds = readDouble(B);
  return finish(B);
}

void MetricsResponse::encode(std::vector<uint8_t> &Out) const {
  ByteWriter B(Out);
  B.writeString(Text);
}

bool MetricsResponse::decode(const uint8_t *Data, size_t Size,
                             MetricsResponse &Out) {
  ByteReader B(Data, Size);
  if (!B.readString(Out.Text, MaxFramePayload))
    return false;
  return finish(B);
}

void ShutdownRequest::encode(std::vector<uint8_t> &Out) const {
  ByteWriter B(Out);
  writeBool(B, Drain);
}

bool ShutdownRequest::decode(const uint8_t *Data, size_t Size,
                             ShutdownRequest &Out) {
  ByteReader B(Data, Size);
  if (!readBool(B, Out.Drain))
    return false;
  return finish(B);
}

//===----------------------------------------------------------------------===//
// Framing
//===----------------------------------------------------------------------===//

#ifndef _WIN32

namespace {

bool writeAllFd(int Fd, const uint8_t *Data, size_t Len) {
  while (Len > 0) {
    // MSG_NOSIGNAL: a vanished peer must surface as a false return (the
    // caller treats the connection as dead), never as SIGPIPE killing the
    // client CLI / bench harness / test binary embedding this protocol.
    ssize_t N = ::send(Fd, Data, Len, MSG_NOSIGNAL);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

bool readAllFd(int Fd, uint8_t *Data, size_t Len) {
  while (Len > 0) {
    ssize_t N = ::read(Fd, Data, Len);
    if (N < 0) {
      if (errno == EINTR)
        continue;
      return false;
    }
    if (N == 0)
      return false; // EOF mid-frame = truncated
    Data += N;
    Len -= static_cast<size_t>(N);
  }
  return true;
}

constexpr size_t FrameHeaderSize = 4 + 1 + 1 + 4 + 8;

} // namespace

bool service::sendFrame(int Fd, MsgType Type,
                        const std::vector<uint8_t> &Payload) {
  if (Payload.size() > MaxFramePayload)
    return false;
  std::vector<uint8_t> Header;
  Header.reserve(FrameHeaderSize);
  ByteWriter B(Header);
  B.writeU32(FrameMagic);
  B.writeByte(ProtocolVersion);
  B.writeByte(static_cast<uint8_t>(Type));
  B.writeU32(static_cast<uint32_t>(Payload.size()));
  B.writeU64(persist::fnv1a(Payload.data(), Payload.size()));
  return writeAllFd(Fd, Header.data(), Header.size()) &&
         (Payload.empty() || writeAllFd(Fd, Payload.data(), Payload.size()));
}

bool service::recvFrame(int Fd, MsgType &Type, std::vector<uint8_t> &Payload) {
  uint8_t Header[FrameHeaderSize];
  if (!readAllFd(Fd, Header, sizeof(Header)))
    return false;
  ByteReader B(Header, sizeof(Header));
  uint32_t Magic = B.readU32();
  uint8_t Version = B.readByte();
  uint8_t TypeByte = B.readByte();
  uint32_t Len = B.readU32();
  uint64_t Sum = B.readU64();
  if (Magic != FrameMagic || Version < MinProtocolVersion ||
      Version > ProtocolVersion)
    return false;
  if (TypeByte < static_cast<uint8_t>(MsgType::PlaceRequest) ||
      TypeByte > static_cast<uint8_t>(MsgType::MetricsResponse))
    return false;
  if (Len > MaxFramePayload)
    return false;
  Payload.resize(Len);
  if (Len > 0 && !readAllFd(Fd, Payload.data(), Len))
    return false;
  if (persist::fnv1a(Payload.data(), Payload.size()) != Sum)
    return false;
  Type = static_cast<MsgType>(TypeByte);
  return true;
}

//===----------------------------------------------------------------------===//
// Sockets
//===----------------------------------------------------------------------===//

namespace {

bool fillSockAddr(const std::string &Path, sockaddr_un &Addr,
                  std::string *Error) {
  if (Path.empty() || Path.size() >= sizeof(Addr.sun_path)) {
    if (Error)
      *Error = "socket path too long (max " +
               std::to_string(sizeof(Addr.sun_path) - 1) + " bytes): " + Path;
    return false;
  }
  std::memset(&Addr, 0, sizeof(Addr));
  Addr.sun_family = AF_UNIX;
  std::memcpy(Addr.sun_path, Path.c_str(), Path.size() + 1);
  return true;
}

} // namespace

int service::listenUnix(const std::string &Path, int Backlog,
                        std::string *Error) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr, Error))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  ::unlink(Path.c_str()); // stale socket from a dead daemon
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Error)
      *Error = "bind " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  if (::listen(Fd, Backlog) != 0) {
    if (Error)
      *Error = "listen " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

int service::connectUnix(const std::string &Path, std::string *Error) {
  sockaddr_un Addr;
  if (!fillSockAddr(Path, Addr, Error))
    return -1;
  int Fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (Fd < 0) {
    if (Error)
      *Error = std::string("socket: ") + std::strerror(errno);
    return -1;
  }
  if (::connect(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0) {
    if (Error)
      *Error = "connect " + Path + ": " + std::strerror(errno);
    ::close(Fd);
    return -1;
  }
  return Fd;
}

#else // _WIN32: the service is POSIX-only (Unix-domain sockets).

bool service::sendFrame(int, MsgType, const std::vector<uint8_t> &) {
  return false;
}
bool service::recvFrame(int, MsgType &, std::vector<uint8_t> &) {
  return false;
}
int service::listenUnix(const std::string &, int, std::string *Error) {
  if (Error)
    *Error = "the placement service is not supported on this platform";
  return -1;
}
int service::connectUnix(const std::string &, std::string *Error) {
  if (Error)
    *Error = "the placement service is not supported on this platform";
  return -1;
}

#endif
