// Interval sampling: a ring buffer of per-window simulation snapshots.
//
// End-of-run means hide *when* a network saturates; a handful of periodic
// snapshots (delivered flits, in-flight worms, mean source-queue depth)
// make the onset visible over time.  The buffer holds the last `capacity`
// samples — a run longer than capacity * interval keeps the most recent
// window and reports how many older samples were overwritten.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "telemetry/observer.hpp"

namespace wormsim::telemetry {

struct Sample {
  std::uint64_t cycle = 0;
  /// Cumulative flits delivered since the start of the run.
  std::uint64_t delivered_flits = 0;
  /// Flits buffered in the network at the sample instant.
  std::int64_t flits_in_flight = 0;
  /// Worms injected but not yet fully delivered.
  std::int64_t worms_in_flight = 0;
  /// Mean source-queue length over all nodes.
  double mean_queue_depth = 0.0;

  bool operator==(const Sample&) const = default;
};

/// Samples the engine's snapshot stream: the snapshot taken after step c,
/// for every c with c % interval == 0 (c = 0 included), is recorded as
/// cycle c.
class SampleSink final : public EngineObserver {
 public:
  explicit SampleSink(std::size_t capacity = 0, std::uint64_t interval = 1,
                      std::uint64_t node_count = 1)
      : EngineObserver(0),  // snapshots only
        capacity_(capacity),
        interval_(interval),
        node_count_(node_count) {}

  void on_snapshot(const Snapshot& snap) override {
    const std::uint64_t step = snap.cycle - 1;
    if (step % interval_ != 0) return;
    Sample sample;
    sample.cycle = step;
    sample.delivered_flits = snap.flits_delivered;
    sample.flits_in_flight = snap.flits_in_flight;
    sample.worms_in_flight = snap.worms_in_flight;
    sample.mean_queue_depth = static_cast<double>(snap.queued_messages) /
                              static_cast<double>(node_count_);
    record(sample);
  }

  void record(const Sample& sample) {
    if (capacity_ == 0) return;
    if (ring_.size() < capacity_) {
      ring_.push_back(sample);
    } else {
      ring_[next_] = sample;
      next_ = (next_ + 1) % capacity_;
      ++dropped_;
    }
    ++recorded_;
  }

  /// Samples in chronological order (oldest retained first).
  std::vector<Sample> ordered() const {
    std::vector<Sample> out;
    out.reserve(ring_.size());
    for (std::size_t i = 0; i < ring_.size(); ++i) {
      out.push_back(ring_[(next_ + i) % ring_.size()]);
    }
    return out;
  }

  std::size_t capacity() const { return capacity_; }
  std::size_t size() const { return ring_.size(); }
  /// Total record() calls, including overwritten samples.
  std::uint64_t recorded() const { return recorded_; }
  /// Samples lost to ring wraparound.
  std::uint64_t dropped() const { return dropped_; }

 private:
  std::size_t capacity_;
  std::uint64_t interval_;
  std::uint64_t node_count_;
  std::size_t next_ = 0;
  std::uint64_t recorded_ = 0;
  std::uint64_t dropped_ = 0;
  std::vector<Sample> ring_;
};

}  // namespace wormsim::telemetry
