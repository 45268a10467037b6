// One event stream for the engines' probes (DESIGN.md §10).
//
// Every probe — the flit-level recording sink, the per-worm tracer, the
// measurement-window counters, the interval sampler and the heartbeat
// monitor — is an EngineObserver.  The engine holds one observer pointer:
// null when every probe is off, so each probe site costs one predictable
// branch, the sink itself when one probe is on, and an ObserverFanout
// when several are.  Each observer names the event kinds it consumes and
// the engine reports only those, so a sink that reads snapshots alone
// (sampler, heartbeats) costs no per-flit work.  Sinks derive what they
// can (the counters map lanes to switches and gate on the measurement
// window themselves), so the engine reports each fact once.
//
// Observers are zero-feedback: they draw no randomness and never write
// engine state, so golden digests are bitwise identical with any set of
// them attached.  Events of one cycle arrive in the reference fixpoint's
// order whichever advance schedule ran (the consumer-first pass stages
// its events and replays them sorted).
#pragma once

#include <cstdint>
#include <vector>

#include "topology/network.hpp"

namespace wormsim::telemetry {

/// Engine packet id (sim::PacketId without the layering inversion —
/// telemetry must not include sim headers).
using WormId = std::uint32_t;
inline constexpr WormId kNoWorm = topology::kInvalidId;

/// One engine event.  `packet`, `flit_seq` and `lane` mean what the kind
/// says; the other fields are set only by the kinds that name them.
struct EngineEvent {
  enum class Kind : std::uint8_t {
    // The flit-level log RecordingTraceSink keeps:
    kCreated,     ///< entered the source queue (src, dst, count = length,
                  ///< flag = measured)
    kRouted,      ///< header at `from` granted output `lane`
    kFlitMoved,   ///< flit `flit_seq` crossed `lane`'s channel
    kDelivered,   ///< tail `flit_seq` consumed at the destination
    kTerminated,  ///< fault kill after `flit_seq` flits were sent
    // The rest:
    kInjected,       ///< header left its source onto injection `lane`
    kHeaderArrival,  ///< header reached the head of `lane`'s FIFO
    kBlocked,        ///< header at `from` denied; `lane` is the culprit
                     ///< (flag = credit-starved)
    kLaneReleased,   ///< the allocation of output `lane` ended
    kDiscarded,      ///< a fault kill dropped `count` flits from `lane`
    kCreditStarved,  ///< `lane` was gated `count` cycles with space free,
                     ///< blaming `packet` (kNoWorm: none)
    kFault,          ///< plan transition of `count` channels (flag =
                     ///< repair, else kill)
  };
  Kind kind{};
  std::uint64_t cycle = 0;
  WormId packet = kNoWorm;
  std::uint32_t flit_seq = 0;
  topology::LaneId lane = topology::kInvalidId;
  topology::LaneId from = topology::kInvalidId;
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t count = 0;
  bool flag = false;

  bool operator==(const EngineEvent&) const = default;
  /// The bit of `kind` in an observer's kinds() mask.
  static constexpr std::uint32_t bit(Kind kind) {
    return 1u << static_cast<unsigned>(kind);
  }
};

/// Deterministic engine state after `cycle` completed cycles.  The
/// wormhole engine publishes one after every step; the event-driven
/// store-and-forward engine at each heartbeat boundary it crosses.
struct Snapshot {
  std::uint64_t cycle = 0;
  std::uint64_t messages_created = 0;
  std::uint64_t messages_delivered = 0;
  std::uint64_t messages_terminated = 0;
  std::uint64_t flits_delivered = 0;
  std::uint64_t flits_terminated = 0;
  std::int64_t flits_in_flight = 0;
  std::int64_t worms_in_flight = 0;
  std::uint64_t queued_messages = 0;
  std::uint64_t dropped_messages = 0;
  std::uint64_t faulty_channels = 0;
  /// Buffered flits (wormhole) or packets (store-and-forward) per lane,
  /// indexed by lane id; valid only during the call.
  const std::uint32_t* lane_occupancy = nullptr;
};

class EngineObserver {
 public:
  /// `kinds`: the event kinds this observer consumes (EngineEvent::bit of
  /// each); it is sent no others.
  explicit EngineObserver(std::uint32_t kinds) : kinds_(kinds) {}
  virtual ~EngineObserver() = default;
  std::uint32_t kinds() const { return kinds_; }
  virtual void on_event(const EngineEvent& /*event*/) {}
  /// Periodic state snapshot; each sink applies its own cadence.
  virtual void on_snapshot(const Snapshot& /*snap*/) {}
  /// The run finished: the final snapshot and the drain outcome.
  virtual void on_run_end(const Snapshot& /*snap*/, bool /*drained*/,
                          double /*time_to_drain_us*/) {}

 protected:
  std::uint32_t kinds_;
};

/// Forwards everything to each attached observer in attach order, events
/// only to the observers consuming their kind.
class ObserverFanout final : public EngineObserver {
 public:
  ObserverFanout() : EngineObserver(0) {}
  void clear() {
    sinks_.clear();
    kinds_ = 0;
  }
  void add(EngineObserver* sink) {
    if (sink == nullptr) return;
    sinks_.push_back(sink);
    kinds_ |= sink->kinds();
  }
  /// What an engine's observer pointer should be: null without sinks,
  /// the sink itself with one, this fan-out otherwise.
  EngineObserver* target() {
    if (sinks_.empty()) return nullptr;
    return sinks_.size() == 1 ? sinks_[0] : this;
  }

  void on_event(const EngineEvent& event) override {
    for (EngineObserver* sink : sinks_) {
      if (sink->kinds() & EngineEvent::bit(event.kind)) sink->on_event(event);
    }
  }
  void on_snapshot(const Snapshot& snap) override {
    for (EngineObserver* sink : sinks_) sink->on_snapshot(snap);
  }
  void on_run_end(const Snapshot& snap, bool drained,
                  double time_to_drain_us) override {
    for (EngineObserver* sink : sinks_) {
      sink->on_run_end(snap, drained, time_to_drain_us);
    }
  }

 private:
  std::vector<EngineObserver*> sinks_;
};

}  // namespace wormsim::telemetry
