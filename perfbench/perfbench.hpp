// wormsim repo benchmark: shared types for the two workloads.
//
// Every workload runs in-process through the library's public functions
// (experiment/, sim/, topology/, routing/, traffic/).  End-to-end metrics
// are host time or host memory, measured with tracing off; simulated
// statistics are correctness checks, never metrics.  A traced run records
// spans around each call into a layer and reports per-layer numbers.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "experiment/cache.hpp"
#include "experiment/figures.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/metrics.hpp"
#include "telemetry/result_writer.hpp"
#include "topology/implicit.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// The benchmark's default seed; the committed results/*.txt tables were
/// produced at it.
inline constexpr std::uint64_t kDefaultSeed = 20250707;

struct Args {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;    ///< tiny sizes: the benchmark's own self-test
  std::string repo;      ///< repository root (results/*.txt live there)
  std::string out_dir;   ///< scratch: caches, result files, the span file
};

/// One reported metric, in the order it was added.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  /// Records one correctness check; failures are printed immediately.
  void check(bool ok, const std::string& what);
  /// Free-form "key value" provenance lines (host, widths, digests).
  void note(const std::string& key, const std::string& value) {
    notes_.push_back({key, value});
  }

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }

  /// Human-readable lines, then the one-line JSON result as the last line
  /// of stdout.  Also writes the same result (plus notes) to `path`.
  void print(const std::string& path) const;

 private:
  struct Note {
    std::string key, value;
  };
  std::vector<Metric> metrics_;
  std::vector<Note> notes_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

/// In-memory span recorder written out as Trace Event JSON (loads in
/// Perfetto and chrome://tracing).  A span's category is the part of its
/// name before the first '.', e.g. "cache" for "cache.load".
class Tracer {
 public:
  Tracer();
  /// Opens a span on the calling thread.  Its parent is `parent` when
  /// non-zero (a worker's series under the main thread's figure), else the
  /// innermost span open on this thread.  One Tracer at a time: the open
  /// span stacks are per thread, not per Tracer.
  std::uint64_t begin(const std::string& name, std::uint64_t parent = 0);
  void end(std::uint64_t id);

  /// Summed duration of every span with exactly this name, in seconds.
  double total_seconds(const std::string& name) const;
  /// Durations (seconds) of every span with this name.
  std::vector<double> durations(const std::string& name) const;
  /// Summed self time (duration minus direct children) of a category.
  double self_seconds(const std::string& category) const;
  std::size_t span_count() const;

  /// Writes the spans as a Trace Event JSON document.
  void write(const std::string& path) const;

 private:
  struct Record {
    std::string name;
    std::uint64_t parent = 0;  ///< 0 = root
    std::uint32_t thread = 0;
    std::int64_t start_ns = 0;
    std::int64_t dur_ns = -1;  ///< -1 while open
  };
  std::uint32_t thread_index();

  Clock::time_point origin_;
  mutable std::mutex mutex_;  // guards records_ and threads_
  std::vector<Record> records_;
  std::vector<std::thread::id> threads_;  ///< one track per thread
};

/// RAII span; a null tracer makes it a no-op, so traced and untraced
/// passes share one code path.
class Span {
 public:
  Span(Tracer* tracer, const std::string& name, std::uint64_t parent = 0)
      : tracer_(tracer), id_(tracer ? tracer->begin(name, parent) : 0) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

// ---- per-layer metrics (traced run) -----------------------------------------

/// Engine telemetry summed over every simulation of a traced run.
struct Probes {
  std::mutex mutex;  // guards everything below
  wormsim::telemetry::PhaseProfile profile;
  std::uint64_t grants = 0, denials = 0, crossings = 0, blocked = 0,
                starved = 0;

  void add(const wormsim::sim::SimResult& result);
};

/// Per-layer numbers that do not come from span names.  A layer the
/// workload does not use stays 0.
struct LayerExtras {
  double step_ms_p50 = 0.0, step_ms_p99 = 0.0;
  double phase_coverage = 0.0;
  double team4_speedup = 0.0;
  double scheduler_busy_s = 0.0, scheduler_capacity_s = 0.0;
  std::uint64_t scheduler_computed = 0, scheduler_speculated = 0;
  wormsim::experiment::ResultCache::Stats cache;
  std::uint64_t cache_bytes = 0, emit_bytes = 0;
  double overhead_x = 0.0;
};

/// Writes the span file to `<out_dir>/trace.json` and reports every
/// per-layer metric, in one fixed order for all workloads.
void report_layers(const Tracer& tracer, const Probes& probes,
                   const LayerExtras& extras, const std::string& out_dir,
                   Report& report);

// ---- shared layer calls -----------------------------------------------------

/// Everything one wormhole point builds before its first simulated cycle,
/// as run_point builds it.  Members are destroyed in reverse order,
/// engine first.
struct PointSetup {
  std::unique_ptr<const wormsim::topology::Network> materialized;
  wormsim::topology::ImplicitTopologyPtr implicit;
  std::unique_ptr<wormsim::topology::NetView> view;
  std::unique_ptr<wormsim::routing::Router> router;
  std::unique_ptr<wormsim::traffic::StandardTraffic> traffic;
  std::unique_ptr<wormsim::sim::Engine> engine;
  double seconds = 0.0;  ///< wall time of the whole set-up
};

/// Builds topology (implicit when `config` asks and the network allows),
/// router, traffic source and engine, each under its own span.  `config`
/// already has the series' tweak_sim applied.
std::unique_ptr<PointSetup> make_point_setup(
    const wormsim::experiment::SeriesSpec& spec, double load,
    const wormsim::sim::SimConfig& config, Tracer* tracer);

/// run_point's summary of a finished wormhole run.
wormsim::experiment::SweepPoint to_sweep_point(
    const wormsim::sim::SimResult& result, double load,
    std::uint64_t sustainable_limit);

/// Table (print_figure) and JSON (figure_to_json, serialized) emission of
/// one figure, each under its own span, both into memory: small-file
/// write latency on a shared virtual disk varied several-fold between
/// runs and would swamp the emission layer.  Appends the table text to
/// `table` and returns the bytes emitted.
std::uint64_t emit_figure(const wormsim::experiment::FigureResult& figure,
                          const wormsim::telemetry::RunManifest& manifest,
                          Tracer* tracer, std::string* table);

/// Pins the calling thread to each CPU it may run on, in turn, and
/// restores its original CPU set when destroyed.  Single-threaded timing
/// phases call next() between samples so their medians average over
/// every core: on a shared VM one vCPU ran single-threaded code up to
/// 1.5x slower than another, and which one changed from second to
/// second, so a phase that stayed on one core drew one speed for the run.
/// Threads inherit the pinning, so release() before spawning a pool.
class CoreRotation {
 public:
  CoreRotation();
  ~CoreRotation() { release(); }
  CoreRotation(const CoreRotation&) = delete;
  CoreRotation& operator=(const CoreRotation&) = delete;

  void next();
  void release();

 private:
  std::vector<int> cpus_;
  std::size_t next_ = 0;
  bool pinned_ = false;
};

// ---- small helpers ----------------------------------------------------------

double median(std::vector<double> values);
/// Nearest-rank percentile, q in (0, 1].
double percentile(std::vector<double> values, double q);
/// FNV-1a over a byte string, as 16 hex digits.
std::string fnv_hex(const std::string& bytes);
std::string read_file(const std::string& path);
std::uint64_t directory_bytes(const std::string& path);
/// Peak resident set of this process in MiB (getrusage).
double peak_rss_mib();
/// Host provenance: nproc, CPU model, cache sizes, build type, revision.
void note_host(Report& report);

/// Pool width for the sweep workloads: 2, or 1 on a one-CPU host.  A
/// pool as wide as a shared 4-vCPU host timed the host: fig18a at width
/// 4 varied 7.1-8.9 s between back-to-back runs, at width 2 13.0-13.7 s.
unsigned pool_width();

// ---- workloads --------------------------------------------------------------

void run_quick_sweep_cache(const Args& args, Report& report);
void run_large_n_saturation(const Args& args, Report& report);

}  // namespace perfbench
