// Per-lane buffer and backpressure state for the flow-control subsystem.
//
// The engine's legacy per-lane head arrays (buf_packet_ / buf_flit_ /
// arrived_epoch_) stay the *head slot* of every lane FIFO: slot 0 lives
// at a fixed index, so every consumer that reasons about "the buffered
// flit of lane L" — the validator, the test peers, buffered_packet() —
// keeps its exact semantics, and a depth-1 run never touches the
// extension storage at all.  FlowControlState owns everything beyond
// that head slot:
//
//   * extension slots: positions 1..depth-1 of each lane FIFO (oldest
//     first), each carrying the epoch it arrived in so a flit pushed and
//     promoted to head in the same cycle still waits a cycle;
//   * the sender-side gates: credit counters (kCredit /
//     kVirtualCutThrough) or stop bits (kOnOff);
//   * the in-flight backpressure events — credit returns or on/off
//     signals travelling upstream for `delay` cycles.  Events are pushed
//     with nondecreasing due cycles, so a plain deque is the calendar;
//   * per-lane credit-starvation interval clocks (engine.cpp opens and
//     closes them; telemetry/worm_trace.hpp consumes the attribution).
//
// All mutation happens in the engine's hot loop; this struct only
// provides the storage and the small pure helpers, keeping the
// scheme-specific arithmetic in one place.
//
// Like the rest of the engine's hot state, everything here is lane-major
// structure-of-arrays (DESIGN.md §12): parallel flat vectors indexed by
// LaneId, with the extension slots flattened lane-major behind them.
#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "sim/flow_control/scheme.hpp"
#include "sim/packet.hpp"
#include "topology/network.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

/// One backpressure event in flight toward a sender.  For credit schemes
/// it returns one credit for `lane`; for on/off it delivers the latest
/// stop/go decision (`go` = resume sending).
struct FlowControlEvent {
  std::uint64_t due = 0;  ///< first cycle the sender can act on it
  topology::LaneId lane = topology::kInvalidId;
  bool go = false;  ///< on/off only; ignored by credit returns
};

struct FlowControlState {
  FlowControlScheme scheme = FlowControlScheme::kCredit;
  std::uint32_t depth = 1;  ///< input-buffer slots per lane, in flits
  std::uint32_t delay = 0;  ///< cycles a credit / on-off signal travels
  /// kOnOff: STOP is emitted when occupancy *rises to* off_threshold
  /// (depth - delay, so the flits already in flight still fit) and GO
  /// when it *drains to* on_threshold (half the stop level, the
  /// hysteresis band that keeps the signal wire quiet).
  std::uint32_t off_threshold = 1;
  std::uint32_t on_threshold = 0;

  /// Flits buffered per lane across head + extension slots.  A lane's
  /// head slot is occupied iff count[lane] > 0.
  std::vector<std::uint32_t> count;
  /// Sender-visible free slots per lane (kCredit / kVirtualCutThrough).
  std::vector<std::uint32_t> credits;
  /// Last delivered on/off signal per lane (kOnOff); 1 = STOP.
  std::vector<std::uint8_t> stopped;

  // Extension slots, lane-major: slot s of lane L (holding the (s+1)-th
  // oldest flit) lives at index L * (depth - 1) + s.  Unoccupied slots
  // hold kNoPacket (and Flit{}) so the validator can re-derive occupancy
  // exactly.
  std::vector<PacketId> ext_packet;
  std::vector<Flit> ext_flit;
  std::vector<std::uint64_t> ext_epoch;

  /// Backpressure calendar; front() is always the earliest due event.
  std::deque<FlowControlEvent> events;

  /// Cycle each lane's open credit-starvation interval began, kNoCycle
  /// when closed.  Starvation = a sender gated by flow control while the
  /// downstream FIFO has space (credits still in flight, or an on/off
  /// GO pending / hysteresis pause) — distinct from a full buffer, which
  /// is ordinary wormhole backpressure.  Always zero for the legacy
  /// depth-1 / delay-0 credit configuration.
  std::vector<std::uint64_t> starve_since;

  void configure(std::size_t lane_count, FlowControlScheme s,
                 std::uint32_t buffer_depth, std::uint32_t credit_delay);

  /// Sender gate for pushing one flit into `lane`'s input FIFO.  Only
  /// meaningful for switch-destined lanes (ejection consumes instantly).
  bool can_accept(topology::LaneId lane) const {
    return scheme == FlowControlScheme::kOnOff ? stopped[lane] == 0
                                               : credits[lane] > 0;
  }

  /// kVirtualCutThrough grant gate: room for the whole packet.
  bool can_accept_packet(topology::LaneId lane, std::uint32_t length) const {
    return credits[lane] >= length;
  }

  std::size_t ext_base(topology::LaneId lane) const {
    return static_cast<std::size_t>(lane) * (depth - 1);
  }

  /// Credit returns still travelling toward `lane`'s sender (O(events)).
  std::uint32_t pending_returns(topology::LaneId lane) const {
    std::uint32_t pending = 0;
    for (const FlowControlEvent& ev : events) pending += ev.lane == lane;
    return pending;
  }
};

}  // namespace wormsim::sim
