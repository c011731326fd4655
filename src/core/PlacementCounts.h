//===- core/PlacementCounts.h - The placement counters ----------*- C++ -*-===//
//
// Part of expresso-cpp, a reproduction of "Symbolic Reasoning for Automatic
// Signal Placement" (PLDI 2018).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The twelve counters one placement run reports, declared once. The daemon
/// response derives from PlacementCounts, the fuzz rig's record holds one,
/// and PlacementStats::counts() is the only mapping from the pipeline's own
/// accounting. Every rendering — the wire codec, the request log, the rig's
/// child-to-parent record and its failure messages — walks
/// PlacementCountFields, so a counter added here reaches all of them. It
/// also changes the PlaceResponse wire layout (pinned by
/// ServiceTest.PlaceResponseWireBytesAreGolden), which needs a protocol
/// version bump.
///
//===----------------------------------------------------------------------===//

#ifndef EXPRESSO_CORE_PLACEMENTCOUNTS_H
#define EXPRESSO_CORE_PLACEMENTCOUNTS_H

#include <cstdint>
#include <iterator>
#include <ostream>

namespace expresso {
namespace core {

/// Algorithm 1's accounting, in wire order.
struct PlacementCounts {
  uint64_t HoareChecks = 0;
  uint64_t SolverQueries = 0;     ///< checkSat calls issued by the pipeline
  uint64_t CacheHits = 0;         ///< request-local memo tier
  uint64_t CacheMisses = 0;
  uint64_t SharedHits = 0;        ///< persistent / daemon-shared store tier
  uint64_t SharedMisses = 0;
  uint64_t PairsConsidered = 0;
  uint64_t NoSignalProved = 0;
  uint64_t Signals = 0;           ///< notify-one decisions
  uint64_t Broadcasts = 0;        ///< notify-all decisions
  uint64_t Unconditional = 0;
  uint64_t CommutativityWins = 0; ///< broadcasts avoided via §4.3

  bool operator==(const PlacementCounts &) const = default;

  /// A copy with the four cache-tier counters zeroed: what every execution
  /// mode of one backend agrees on, whatever the cache mode and warmth.
  PlacementCounts modeInvariant() const;
};

/// One counter: its snake_case key and where it lives.
struct PlacementCountField {
  const char *Key;
  uint64_t PlacementCounts::*Member;
  bool CacheTier; ///< varies with cache mode and warmth, not with Σ
};

/// Every counter, in PlacementCounts' (and so the wire's) order.
inline constexpr PlacementCountField PlacementCountFields[] = {
    {"hoare_checks", &PlacementCounts::HoareChecks, false},
    {"solver_queries", &PlacementCounts::SolverQueries, false},
    {"cache_hits", &PlacementCounts::CacheHits, true},
    {"cache_misses", &PlacementCounts::CacheMisses, true},
    {"shared_hits", &PlacementCounts::SharedHits, true},
    {"shared_misses", &PlacementCounts::SharedMisses, true},
    {"pairs_considered", &PlacementCounts::PairsConsidered, false},
    {"no_signal_proved", &PlacementCounts::NoSignalProved, false},
    {"signals", &PlacementCounts::Signals, false},
    {"broadcasts", &PlacementCounts::Broadcasts, false},
    {"unconditional", &PlacementCounts::Unconditional, false},
    {"commutativity_wins", &PlacementCounts::CommutativityWins, false},
};
static_assert(std::size(PlacementCountFields) * sizeof(uint64_t) ==
                  sizeof(PlacementCounts),
              "PlacementCountFields must list every counter");

inline PlacementCounts PlacementCounts::modeInvariant() const {
  PlacementCounts Out = *this;
  for (const PlacementCountField &F : PlacementCountFields)
    if (F.CacheTier)
      Out.*F.Member = 0;
  return Out;
}

/// `key=value` pairs separated by spaces (failure messages, rig reports).
inline std::ostream &operator<<(std::ostream &OS, const PlacementCounts &K) {
  const char *Sep = "";
  for (const PlacementCountField &F : PlacementCountFields) {
    OS << Sep << F.Key << "=" << K.*F.Member;
    Sep = " ";
  }
  return OS;
}

} // namespace core
} // namespace expresso

#endif // EXPRESSO_CORE_PLACEMENTCOUNTS_H
