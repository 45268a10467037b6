// Chrome-trace (chrome://tracing / Perfetto) export.
//
// ChromeTraceWriter is the one Trace Event JSON writer: complete "X"
// slices, process/thread name metadata, and the document.  Two views use
// it.  write_chrome_trace converts the engine's flit-level event log
// (sim::RecordingTraceSink) into lane occupancy: one *process* track per
// switch (plus one per node for injection/ejection links), one *thread*
// per lane, and one slice per worm occupancy of a lane — from the worm's
// first flit crossing the lane's channel until its tail crosses.
// Blocking chains show up visually as stacked long slices upstream of a
// contended lane.  write_worm_trace_chrome (telemetry/worm_trace.hpp)
// draws one thread per worm with its lifecycle and culprit slices.
//
// Timestamps are microseconds (cycle / flits_per_microsecond), matching
// the paper's 20 flits/us channel clock.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "telemetry/json.hpp"
#include "telemetry/observer.hpp"
#include "topology/network.hpp"

namespace wormsim::telemetry {

class ChromeTraceWriter {
 public:
  explicit ChromeTraceWriter(double flits_per_microsecond)
      : scale_(1.0 / flits_per_microsecond) {}

  /// Appends a complete slice covering `cycles` cycles from `first`;
  /// returns it so the caller can attach "args".
  JsonValue& slice(const std::string& name, const char* cat,
                   std::int64_t pid, std::int64_t tid, std::uint64_t first,
                   std::uint64_t cycles);
  /// Viewer label of a process track (tid < 0) or a thread track.
  void name(std::int64_t pid, std::int64_t tid, const std::string& label);

  std::size_t slices() const { return slices_; }
  /// Writes the document (events in append order) as one line.
  void write(std::ostream& os);

 private:
  double scale_;
  std::size_t slices_ = 0;
  JsonValue events_ = JsonValue::array();
};

struct ChromeTraceOptions {
  double flits_per_microsecond = 20.0;
  /// Also emit process/thread name metadata events (nice in the viewer,
  /// noise in tests).
  bool metadata = true;
};

/// Writes the lane-occupancy document; returns the number of occupancy
/// slices emitted (0 for an event stream with no flit movement).
std::size_t write_chrome_trace(const std::vector<EngineEvent>& events,
                               const topology::Network& network,
                               std::ostream& os,
                               const ChromeTraceOptions& options = {});

}  // namespace wormsim::telemetry
