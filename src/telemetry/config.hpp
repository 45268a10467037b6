// Telemetry collection knobs.
//
// With everything here off the engine attaches no observer and each
// telemetry hook is one predictable test, so the default-constructed
// config is safe to leave in every SimConfig (overhead budget: <= 2% on
// bench_engine_micro).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace wormsim::telemetry {

struct TelemetryConfig {
  /// Accumulate per-lane flit crossings, per-lane blocked-header cycles,
  /// and per-switch arbitration grant/denial counters over the
  /// measurement window (post-processed into a ChannelHeatmap).
  bool counters = false;

  /// Record an interval snapshot (delivered flits, in-flight worms, mean
  /// source-queue depth) every `sample_interval_cycles` into a ring buffer
  /// holding the last `sample_capacity` snapshots.
  bool sampling = false;
  std::uint64_t sample_interval_cycles = 1'024;
  std::size_t sample_capacity = 512;

  /// Record a full per-worm lifecycle trace (telemetry/worm_trace.hpp):
  /// queue/routing/blocked/streaming decomposition with blocked intervals
  /// attributed to the culprit lane + worm.  Also enabled by
  /// WORMSIM_TRACE=1.  Memory scales with messages injected; intended for
  /// single figure points, not full sweeps.
  bool worm_trace = false;

  /// Streaming run heartbeats (telemetry/run_monitor.hpp, DESIGN.md §15):
  /// every `heartbeat_cycles` cycles the engine appends one NDJSON
  /// snapshot line (cycle, wall time, cycles/sec, flit counters, worms in
  /// flight, per-stage occupancy, drain progress) to
  /// `<heartbeat_dir>/<heartbeat_tag>.ndjson` and atomically rewrites
  /// `<heartbeat_dir>/<heartbeat_tag>.status.json` for cheap polling.
  /// 0 disables; also enabled by WORMSIM_HEARTBEAT=<cycles> (+
  /// WORMSIM_HEARTBEAT_DIR).  Zero-feedback: golden digests are bitwise
  /// unchanged with heartbeats on.
  std::uint64_t heartbeat_cycles = 0;
  std::string heartbeat_dir;
  /// Stream file basename; sweeps derive one per point from the series
  /// label + offered load when empty ("run" for standalone engines).
  std::string heartbeat_tag;

  /// Engine phase self-profiler (telemetry/profiler.hpp): attributes the
  /// run's wall time to the step() phases (arrivals, routing, advance
  /// decide/apply, flow control, fault transitions, telemetry, validate)
  /// and surfaces them in the RunManifest and `telemetry_report
  /// --profile`.  Also enabled by WORMSIM_PROFILE=1.  Zero-feedback like
  /// the heartbeats; costs a few steady_clock reads per cycle when on.
  bool profile = false;
};

}  // namespace wormsim::telemetry
