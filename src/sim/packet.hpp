// Packet bookkeeping for the wormhole engine.
#pragma once

#include <cstdint>

#include "topology/network.hpp"

namespace wormsim::sim {

using PacketId = std::uint32_t;
inline constexpr PacketId kNoPacket = topology::kInvalidId;
inline constexpr std::uint64_t kNoCycle = ~std::uint64_t{0};

/// Lifetime record of one message.  The paper treats packets and messages
/// interchangeably (no packetization), and so do we.  The engine's
/// per-flit path never reads this record: it keeps the flit count in a
/// dense side array and touches the record only for a worm's first and
/// tail flit, so the fields are ordered to pack into one cache line.
struct PacketState {
  std::uint64_t src = 0;
  std::uint64_t dst = 0;
  std::uint64_t create_cycle = kNoCycle;   ///< entered the source queue
  std::uint64_t inject_cycle = kNoCycle;   ///< header flit entered network
  std::uint64_t deliver_cycle = kNoCycle;  ///< tail flit consumed
  /// Cycle the worm was killed by fault injection (DESIGN.md §14);
  /// kNoCycle for every packet in a fault-free run.
  std::uint64_t terminate_cycle = kNoCycle;
  std::uint32_t length = 0;  ///< flits
  /// Flits the source had sent when the kill landed (= length once the
  /// tail left the source).  Terminated packets only.
  std::uint32_t flits_sent_at_kill = 0;
  /// In-network flits discarded by the kill; flits_sent_at_kill minus
  /// flits already ejected.  Terminated packets only.
  std::uint32_t flits_truncated = 0;
  /// BMIN: FirstDifference(src, dst), where the worm turns around.
  std::uint8_t turn_stage = 0;
  bool measured = false;  ///< created inside the measurement window

  bool delivered() const { return deliver_cycle != kNoCycle; }
  bool terminated() const { return terminate_cycle != kNoCycle; }
};

static_assert(sizeof(PacketState) == 64,
              "PacketState should fill exactly one cache line");

}  // namespace wormsim::sim
