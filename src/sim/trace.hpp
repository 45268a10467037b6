// Flit-level event recording.
//
// RecordingTraceSink is the engine observer (telemetry/observer.hpp) that
// keeps a flat TraceEvent log: message creation, header routing grants,
// per-channel flit transmissions, delivery, and fault terminations.  Used
// by tests to validate micro-behavior (e.g. that a worm's route is one of
// the enumerated static paths), by the trace_route example to print a
// packet's journey, and by the lane-occupancy Chrome export.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/packet.hpp"
#include "telemetry/observer.hpp"
#include "topology/network.hpp"

namespace wormsim::sim {

/// The flit-level log entry: the engine event itself (kinds kCreated
/// through kTerminated).
using TraceEvent = telemetry::EngineEvent;

/// Stores the flit-level log; fine for tests and short runs.
class RecordingTraceSink final : public telemetry::EngineObserver {
 public:
  RecordingTraceSink()
      : EngineObserver((TraceEvent::bit(TraceEvent::Kind::kTerminated) << 1) -
                       1) {}
  void on_event(const TraceEvent& event) override { events_.push_back(event); }

  const std::vector<TraceEvent>& events() const { return events_; }

  /// Channel ids a packet's flits traversed, in first-traversal order.
  std::vector<topology::ChannelId> route_of(
      PacketId packet, const topology::Network& network) const;

  /// Events of one packet only.
  std::vector<TraceEvent> packet_events(PacketId packet) const;

 private:
  std::vector<TraceEvent> events_;
};

}  // namespace wormsim::sim
