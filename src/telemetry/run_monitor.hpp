// Streaming run observability (DESIGN.md §15).
//
// A RunMonitor makes a long simulation inspectable while it executes:
// both engines tick it on a configurable cycle cadence
// (TelemetryConfig::heartbeat_cycles / WORMSIM_HEARTBEAT), and every
// tick appends one NDJSON snapshot line to
// `<heartbeat_dir>/<heartbeat_tag>.ndjson` and atomically rewrites
// `<heartbeat_dir>/<heartbeat_tag>.status.json` (write-to-temp +
// rename, so a poller — `telemetry_report --watch` — never reads a
// torn file).
//
// Stream schema (one JSON object per line):
//   {"type":"start", ...run identity, cadence, cycle budget...}
//   {"type":"heartbeat","cycle":...,"phase":"warmup|measure|drain",
//    counters..., "stage_occupancy":[...], wall-clock fields...}
//   {"type":"fault","cycle":...,"transition":"kill|repair",...}
//   {"type":"final","cycle":...,"drained":...,onset fields...}
// Every field except `wall_seconds`, `cycles_per_second`, and
// `window_cycles_per_second` is a pure function of the simulation
// state, so two runs of the same config produce byte-identical streams
// modulo those three keys (pinned by tests/heartbeat_test.cpp).
//
// The monitor also runs the onset detector: the first heartbeat window
// where acceptance stops tracking injection while source queues grow
// (saturation onset) and the first window where fault terminations
// appear (fault onset), recorded in the final line, status.json, and —
// via SimResult — the sweep results JSON.
//
// The monitor is one sink of the engines' observer stream
// (telemetry/observer.hpp): it turns every snapshot on its cadence into
// a heartbeat line, summing the snapshot's per-lane occupancy into
// per-stage totals itself.  Zero-feedback like every observer, so golden
// digests are bitwise unchanged with heartbeats on.
#pragma once

#include <chrono>
#include <cstdint>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "telemetry/config.hpp"
#include "telemetry/json.hpp"
#include "telemetry/observer.hpp"
#include "topology/net_view.hpp"

namespace wormsim::telemetry {

/// Sentinel for "onset never detected" (mirrors sim::kNoCycle, which
/// telemetry cannot include).
inline constexpr std::uint64_t kNoOnset = ~std::uint64_t{0};

/// Effective heartbeat cadence / directory: WORMSIM_HEARTBEAT overrides
/// the configured cadence; for the directory a non-empty config value
/// wins over WORMSIM_HEARTBEAT_DIR (run_figure derives per-figure
/// subdirectories from the env value and stores them in the config).
std::uint64_t heartbeat_cycles_from_env(const TelemetryConfig& config);
std::string heartbeat_dir_from_env(const TelemetryConfig& config);

class RunMonitor final : public EngineObserver {
 public:
  struct RunInfo {
    std::string dir;
    std::string tag = "run";
    std::uint64_t heartbeat_cycles = 0;
    std::uint64_t warmup_cycles = 0;
    std::uint64_t measure_cycles = 0;
    std::uint64_t drain_cycles = 0;
    std::uint64_t node_count = 0;
    /// "wormhole" or "store_forward".
    std::string engine = "wormhole";
  };

  /// Creates `info.dir` if needed, truncates the stream file, and writes
  /// the "start" line plus the initial status.json.  `network` fixes the
  /// per-stage lane ranges the occupancy summary sums.
  RunMonitor(RunInfo info, const topology::NetView& network);

  std::uint64_t interval() const { return info_.heartbeat_cycles; }

  /// A snapshot on the cadence (cycle % interval == 0) appends one
  /// heartbeat line and updates the onset detector.  The expensive parts
  /// — the stream flush (a write syscall) and the status.json rewrite
  /// (open + dump + rename) — are throttled to at most one per
  /// kSyncIntervalSeconds of wall time: the stream still records every
  /// window (buffered), watchers poll at ~1 Hz anyway, and the throttle
  /// is what keeps chatty cadences inside the 1.05x overhead budget
  /// (heartbeat_on_slowdown_x in results/BENCH_engine.json).  A crashed
  /// run can lose at most the last interval's buffered lines; fault
  /// lines and the final line always sync.
  void on_snapshot(const Snapshot& snap) override;

  static constexpr double kSyncIntervalSeconds = 0.25;

  /// Consumes kFault only: appends a "fault" line ("kill" or "repair").
  void on_event(const EngineEvent& event) override;

  /// Emits the final partial window (when the run length is not a
  /// multiple of the cadence), then the "final" line and the terminal
  /// status.json rewrite.
  void on_run_end(const Snapshot& snap, bool drained,
                  double time_to_drain_us) override;

  /// kNoOnset when never detected.
  std::uint64_t saturation_onset_cycle() const { return saturation_onset_; }
  std::uint64_t fault_onset_cycle() const { return fault_onset_; }

  const std::string& stream_path() const { return stream_path_; }
  const std::string& status_path() const { return status_path_; }

 private:
  const char* phase_of(std::uint64_t cycle) const;
  double wall_seconds() const;
  /// Appends one heartbeat line and advances the onset detector and the
  /// window baseline; `throttled_sync` allows the throttled flush.
  void heartbeat(const Snapshot& snap, bool throttled_sync);
  void update_onsets(const Snapshot& snap);
  JsonValue heartbeat_json(const Snapshot& snap);
  void append_line(const JsonValue& line);
  void write_status(const Snapshot& snap, bool finished);

  RunInfo info_;
  std::string stream_path_;
  std::string status_path_;
  std::ofstream stream_;
  std::chrono::steady_clock::time_point start_;
  double last_wall_ = 0.0;
  double last_sync_wall_ = 0.0;
  // Per-stage [lane_begin, lane_end) ranges: slot s < stages holds the
  // lanes buffering into stage-s switches, the last slot the ejection
  // lanes; stage-major allocation makes each ~one interval.
  std::vector<std::vector<std::pair<topology::LaneId, topology::LaneId>>>
      stage_lanes_;
  Snapshot last_{};
  std::uint64_t saturation_onset_ = kNoOnset;
  std::uint64_t fault_onset_ = kNoOnset;
  bool finalized_ = false;
};

/// Atomic JSON rewrite: dump to `<path>.tmp.<pid>` then rename over
/// `path`, so concurrent readers see either the old or the new document,
/// never a torn one.  Shared by the monitor and any caller with the same
/// polling contract.
void write_json_atomic(const std::string& path, const JsonValue& doc);

/// The monitor `config` (WORMSIM_HEARTBEAT / WORMSIM_HEARTBEAT_DIR
/// applied) asks for: null when heartbeats are off.
std::unique_ptr<RunMonitor> make_run_monitor(
    const TelemetryConfig& config, const topology::NetView& network,
    std::uint64_t warmup_cycles, std::uint64_t measure_cycles,
    std::uint64_t drain_cycles, const char* engine);

}  // namespace wormsim::telemetry
