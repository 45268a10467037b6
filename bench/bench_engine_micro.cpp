// Micro-benchmarks of the simulator itself: network construction, static
// analyses, and engine cycle throughput.  These guard the tool's own
// performance rather than reproduce a paper figure.
//
// BM_EngineCycles runs with telemetry off (arg2 = 0) and fully on
// (arg2 = 1) so the telemetry-off hook overhead stays visible and
// bounded (budget: <= 2%).  BM_EngineCyclesTraced does the same for the
// per-worm tracing layer (WORMSIM_TRACE).  With WORMSIM_JSON_DIR set (or
// --json[=dir]), main() also measures baseline cycles/sec per network
// kind — telemetry off/on, validation on, and worm tracing on — and
// writes them as a schema-versioned BENCH_engine.json via
// telemetry::ResultWriter.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/analytical.hpp"
#include "analysis/deadlock.hpp"
#include "analysis/path_enum.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "telemetry/result_writer.hpp"
#include "topology/implicit.hpp"
#include "topology/net_view.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/resource.hpp"

namespace {

using namespace wormsim;

topology::NetworkConfig config_for(topology::NetworkKind kind,
                                   unsigned vcs = 2) {
  topology::NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = 4;
  config.stages = 3;
  config.dilation = 2;
  config.vcs = vcs;
  return config;
}

void BM_BuildNetwork(benchmark::State& state) {
  const auto kind = static_cast<topology::NetworkKind>(state.range(0));
  for (auto _ : state) {
    const topology::Network net = topology::build_network(config_for(kind));
    benchmark::DoNotOptimize(net.lane_count());
  }
}
BENCHMARK(BM_BuildNetwork)->DenseRange(0, 3)->Unit(benchmark::kMicrosecond);

sim::SimConfig engine_config(bool telemetry_on, unsigned buffer_depth = 1,
                             unsigned credit_delay = 0) {
  sim::SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  config.buffer_depth = buffer_depth;
  config.credit_delay = credit_delay;
  if (telemetry_on) {
    config.telemetry.counters = true;
    config.telemetry.sampling = true;
  }
  return config;
}

void run_engine_cycles(benchmark::State& state, topology::NetworkKind kind,
                       bool telemetry_on, double load, unsigned vcs,
                       unsigned buffer_depth = 1, unsigned credit_delay = 0) {
  const topology::Network net =
      topology::build_network(config_for(kind, vcs));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = load;
  traffic::StandardTraffic traffic(net, workload);
  sim::Engine engine(net, *router, &traffic,
                     engine_config(telemetry_on, buffer_depth, credit_delay));
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}

void BM_EngineCycles(benchmark::State& state) {
  run_engine_cycles(state, static_cast<topology::NetworkKind>(state.range(0)),
                    state.range(1) != 0, 0.5, 2);
}
BENCHMARK(BM_EngineCycles)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 3, 1), {0, 1}})
    ->ArgNames({"kind", "telemetry"});

// Saturated load: source queues stay full and worms block constantly, so
// the active sets are at their largest — the worst case for worklist
// bookkeeping relative to the old full scans.
void BM_EngineCyclesSaturated(benchmark::State& state) {
  run_engine_cycles(state, static_cast<topology::NetworkKind>(state.range(0)),
                    false, 0.9, 2);
}
BENCHMARK(BM_EngineCyclesSaturated)
    ->DenseRange(0, 3)
    ->ArgNames({"kind"});

// Four virtual channels per physical channel doubles the lane state the
// round-robin multiplexer walks per try.
void BM_EngineCyclesVmin4vc(benchmark::State& state) {
  run_engine_cycles(state, topology::NetworkKind::kVMIN, false, 0.5, 4);
}
BENCHMARK(BM_EngineCyclesVmin4vc);

// Finite-buffer flow control: multi-flit fifos shift work into the
// ext-slot shift register and delayed credit returns feed the per-cycle
// event calendar — the two paths the depth-1/delay-0 fast path skips
// entirely.  Depth 4 and 8 under a 2-cycle credit delay bound their cost.
void BM_EngineCyclesDeepBuffers(benchmark::State& state) {
  run_engine_cycles(state, topology::NetworkKind::kTMIN, false, 0.5, 2,
                    static_cast<unsigned>(state.range(0)), 2);
}
BENCHMARK(BM_EngineCyclesDeepBuffers)
    ->Arg(4)
    ->Arg(8)
    ->ArgNames({"depth"});

// Runtime invariant checking on: a full O(lanes + channels) re-derivation
// of the incremental state per cycle (src/sim/validate.hpp).  Budget:
// <= 2x slowdown against the plain engine.
void BM_EngineCyclesValidated(benchmark::State& state) {
  const auto kind = static_cast<topology::NetworkKind>(state.range(0));
  const topology::Network net = topology::build_network(config_for(kind, 2));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.5;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config = engine_config(false);
  config.validate = true;
  sim::Engine engine(net, *router, &traffic, config);
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineCyclesValidated)->DenseRange(0, 3)->ArgNames({"kind"});

// Per-worm lifecycle tracing on (WORMSIM_TRACE): every arbitration
// outcome is recorded and blocked intervals are culprit-attributed.
// Unlike the counters this allocates per-message records, so the cost is
// workload-dependent; the JSON trajectory tracks it as
// trace_on_slowdown_x against the plain engine.
void BM_EngineCyclesTraced(benchmark::State& state) {
  const auto kind = static_cast<topology::NetworkKind>(state.range(0));
  const topology::Network net = topology::build_network(config_for(kind, 2));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.5;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config = engine_config(false);
  config.telemetry.worm_trace = true;
  sim::Engine engine(net, *router, &traffic, config);
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineCyclesTraced)->DenseRange(0, 3)->ArgNames({"kind"});

// Degraded-mode operation: a live fault plan (5% of interior channels
// dead since early warm-in) keeps the fault paths hot — faulty-lane
// screens in routing/advance, termination drains, adaptive detours.  The
// JSON trajectory tracks it as fault_check_overhead_x against the plain
// engine; the zero-fault path needs no variant because the golden
// digests already pin it bit for bit.
void BM_EngineCyclesFaulted(benchmark::State& state) {
  const auto kind = static_cast<topology::NetworkKind>(state.range(0));
  const topology::Network net = topology::build_network(config_for(kind, 2));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.5;
  traffic::StandardTraffic traffic(net, workload);
  sim::SimConfig config = engine_config(false);
  config.fault_fraction = 0.05;
  config.fault_seed = 1;
  config.fault_at_cycle = 64;
  sim::Engine engine(net, *router, &traffic, config);
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineCyclesFaulted)->DenseRange(0, 3)->ArgNames({"kind"});

// Large-N configuration: a 4096-node TMIN (k=8, n=4, ~20k channels),
// big enough that the per-cycle route/advance work, not per-cycle
// bookkeeping, dominates.
topology::NetworkConfig large_n_config() {
  topology::NetworkConfig config;
  config.kind = topology::NetworkKind::kTMIN;
  config.topology = "cube";
  config.radix = 8;
  config.stages = 4;
  config.dilation = 1;
  config.vcs = 2;
  return config;
}

void BM_EngineCyclesLargeN(benchmark::State& state) {
  const topology::Network net = topology::build_network(large_n_config());
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.5;
  traffic::StandardTraffic traffic(net, workload);
  sim::Engine engine(net, *router, &traffic, engine_config(false));
  for (auto _ : state) {
    engine.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["cycles/s"] = benchmark::Counter(
      static_cast<double>(state.iterations()), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_EngineCyclesLargeN)->Unit(benchmark::kMillisecond);

void BM_PathEnumerationBmin(benchmark::State& state) {
  topology::NetworkConfig config;
  config.kind = topology::NetworkKind::kBMIN;
  config.radix = 4;
  config.stages = 3;
  config.vcs = 1;
  const topology::Network net = topology::build_network(config);
  const auto router = routing::make_router(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analysis::count_paths(net, *router, 0, 63));
  }
}
BENCHMARK(BM_PathEnumerationBmin)->Unit(benchmark::kMicrosecond);

void BM_DeadlockCdg(benchmark::State& state) {
  topology::NetworkConfig config;
  config.kind = topology::NetworkKind::kBMIN;
  config.radix = 2;
  config.stages = 3;
  config.vcs = 1;
  const topology::Network net = topology::build_network(config);
  const auto router = routing::make_router(net);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        analysis::verify_deadlock_free(net, *router));
  }
}
BENCHMARK(BM_DeadlockCdg)->Unit(benchmark::kMillisecond);

/// Times `cycles` engine steps and returns cycles/sec.
double time_steps(sim::Engine& engine, std::uint64_t cycles) {
  const auto start = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < cycles; ++i) {
    engine.step();
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return seconds > 0.0 ? static_cast<double>(cycles) / seconds : 0.0;
}

/// Measures telemetry-off and telemetry-on cycles/sec for one network kind
/// and workload.  The two engines run identical simulations (same seed and
/// traffic); repetitions are interleaved off/on and the best rate per
/// variant kept, so transient machine noise hits both variants alike
/// instead of masquerading as telemetry overhead.  The overhead estimate
/// itself is the median of the per-rep paired ratios: adjacent slices see
/// near-identical machine conditions, and the median rejects the one-sided
/// slowdown bursts that make any single off/on comparison swing by several
/// percent.
double median_of(std::vector<double>& values) {
  if (values.empty()) return 1.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

void measure_pair(topology::NetworkKind kind, std::uint64_t cycles,
                  double load, unsigned vcs, unsigned buffer_depth,
                  unsigned credit_delay, double* off_cps,
                  double* on_cps, double* overhead_pct,
                  double* validate_cps, double* validate_slowdown_x,
                  double* trace_cps, double* trace_slowdown_x,
                  double* fault_cps, double* fault_overhead_x,
                  double* heartbeat_cps, double* heartbeat_slowdown_x) {
  const topology::Network net =
      topology::build_network(config_for(kind, vcs));
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = load;
  traffic::StandardTraffic traffic(net, workload);
  sim::Engine off_engine(net, *router, &traffic,
                         engine_config(false, buffer_depth, credit_delay));
  sim::Engine on_engine(net, *router, &traffic,
                        engine_config(true, buffer_depth, credit_delay));
  sim::SimConfig validate_config =
      engine_config(false, buffer_depth, credit_delay);
  validate_config.validate = true;
  sim::Engine validate_engine(net, *router, &traffic, validate_config);
  sim::SimConfig trace_config =
      engine_config(false, buffer_depth, credit_delay);
  trace_config.telemetry.worm_trace = true;
  sim::Engine trace_engine(net, *router, &traffic, trace_config);
  // Degraded mode: 5% of interior channels die during warm-in, so the
  // measured slices run the fault paths (faulty-lane screens, kill
  // drains, terminations) at their steady-state cost.
  sim::SimConfig fault_config =
      engine_config(false, buffer_depth, credit_delay);
  fault_config.fault_fraction = 0.05;
  fault_config.fault_seed = 1;
  fault_config.fault_at_cycle = 64;
  sim::Engine fault_engine(net, *router, &traffic, fault_config);
  // Streaming heartbeats on at the documented default cadence (DESIGN.md
  // §15): NDJSON snapshot + atomic status rewrite every 1000 cycles into
  // a scratch directory.  The acceptance budget is <= 1.05x slowdown.
  sim::SimConfig heartbeat_config =
      engine_config(false, buffer_depth, credit_delay);
  heartbeat_config.telemetry.heartbeat_cycles = 1'000;
  heartbeat_config.telemetry.heartbeat_dir =
      (std::filesystem::temp_directory_path() / "wormsim_bench_heartbeat")
          .string();
  heartbeat_config.telemetry.heartbeat_tag =
      std::string("bench_") + topology::to_string(kind);
  sim::Engine heartbeat_engine(net, *router, &traffic, heartbeat_config);
  for (std::uint64_t i = 0; i < cycles / 10; ++i) {
    off_engine.step();
    on_engine.step();
    validate_engine.step();
    trace_engine.step();
    fault_engine.step();
    heartbeat_engine.step();
  }
  // Many short alternating slices: CPU-noise bursts outlast one slice,
  // so the best-slice rate per variant reflects the same quiet-machine
  // conditions for both.
  const std::uint64_t slice = std::max<std::uint64_t>(cycles / 10, 1);
  *off_cps = 0.0;
  *on_cps = 0.0;
  *validate_cps = 0.0;
  *trace_cps = 0.0;
  *fault_cps = 0.0;
  *heartbeat_cps = 0.0;
  std::vector<double> tel_ratios;
  std::vector<double> val_ratios;
  std::vector<double> trace_ratios;
  std::vector<double> fault_ratios;
  std::vector<double> hb_ratios;
  for (int rep = 0; rep < 30; ++rep) {
    const double off = time_steps(off_engine, slice);
    const double on = time_steps(on_engine, slice);
    const double val = time_steps(validate_engine, slice);
    const double trace = time_steps(trace_engine, slice);
    const double fault = time_steps(fault_engine, slice);
    const double hb = time_steps(heartbeat_engine, slice);
    *off_cps = std::max(*off_cps, off);
    *on_cps = std::max(*on_cps, on);
    *validate_cps = std::max(*validate_cps, val);
    *trace_cps = std::max(*trace_cps, trace);
    *fault_cps = std::max(*fault_cps, fault);
    *heartbeat_cps = std::max(*heartbeat_cps, hb);
    if (off > 0.0 && on > 0.0) tel_ratios.push_back(on / off);
    if (off > 0.0 && val > 0.0) val_ratios.push_back(val / off);
    if (off > 0.0 && trace > 0.0) trace_ratios.push_back(trace / off);
    if (off > 0.0 && fault > 0.0) fault_ratios.push_back(fault / off);
    if (off > 0.0 && hb > 0.0) hb_ratios.push_back(hb / off);
  }
  *overhead_pct = (1.0 - median_of(tel_ratios)) * 100.0;
  // Slowdown factor of WORMSIM_VALIDATE=1, same paired-median estimate;
  // the acceptance budget is <= 2x on the base configs.
  const double val_ratio = median_of(val_ratios);
  *validate_slowdown_x = val_ratio > 0.0 ? 1.0 / val_ratio : 0.0;
  // Slowdown factor of WORMSIM_TRACE=1 (per-worm lifecycle records with
  // blocked-time attribution), same paired-median estimate.
  const double trace_ratio = median_of(trace_ratios);
  *trace_slowdown_x = trace_ratio > 0.0 ? 1.0 / trace_ratio : 0.0;
  // Slowdown factor of degraded-mode operation (5% interior channels
  // dead), same paired-median estimate.  Note this compares different
  // simulations — dead channels change the traffic pattern — so it
  // bounds the fault machinery plus the workload shift, not the
  // zero-fault hot path (which the golden digests pin instead).
  const double fault_ratio = median_of(fault_ratios);
  *fault_overhead_x = fault_ratio > 0.0 ? 1.0 / fault_ratio : 0.0;
  // Slowdown factor of streaming heartbeats (WORMSIM_HEARTBEAT=1000),
  // same paired-median estimate; the acceptance budget is <= 1.05x.
  const double hb_ratio = median_of(hb_ratios);
  *heartbeat_slowdown_x = hb_ratio > 0.0 ? 1.0 / hb_ratio : 0.0;
}

/// One workload configuration the JSON entry records.
struct JsonConfig {
  topology::NetworkKind kind;
  double load;
  unsigned vcs;
  bool in_geomean;  ///< the four load-0.5 base configs define the geomean
  unsigned buffer_depth = 1;  ///< per-lane input fifo depth in flits
  unsigned credit_delay = 0;  ///< credit-return pipeline delay in cycles
};

constexpr JsonConfig kJsonConfigs[] = {
    {topology::NetworkKind::kTMIN, 0.5, 2, true},
    {topology::NetworkKind::kDMIN, 0.5, 2, true},
    {topology::NetworkKind::kVMIN, 0.5, 2, true},
    {topology::NetworkKind::kBMIN, 0.5, 2, true},
    {topology::NetworkKind::kTMIN, 0.9, 2, false},
    {topology::NetworkKind::kDMIN, 0.9, 2, false},
    {topology::NetworkKind::kVMIN, 0.9, 2, false},
    {topology::NetworkKind::kBMIN, 0.9, 2, false},
    {topology::NetworkKind::kVMIN, 0.5, 4, false},
    // Finite-buffer flow control (off the depth-1/delay-0 fast path):
    // the ext-slot shift register plus the credit event calendar.
    {topology::NetworkKind::kTMIN, 0.5, 2, false, 4, 2},
    {topology::NetworkKind::kTMIN, 0.5, 2, false, 8, 2},
};

/// Best-of-3 cycles/sec on the 4096-node large-N config.
double measure_large_n_cycles(std::uint64_t cycles) {
  const topology::Network net = topology::build_network(large_n_config());
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.5;
  traffic::StandardTraffic traffic(net, workload);
  sim::Engine engine(net, *router, &traffic, engine_config(false));
  for (std::uint64_t i = 0; i < cycles / 4; ++i) engine.step();
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    best = std::max(best, time_steps(engine, cycles));
  }
  return best;
}

/// The large-N record attached to this run's trajectory entry.
/// Deliberately OUTSIDE the geomean: the base configs measure per-cycle
/// bookkeeping on paper-sized nets, while this measures the advance at
/// scale, and mixing the two would let a large-N win mask a small-net
/// regression (or vice versa) in the one number CI compares.
telemetry::JsonValue measure_large_n(std::uint64_t cycles) {
  telemetry::JsonValue large_n = telemetry::JsonValue::object();
  large_n.set("kind", topology::to_string(topology::NetworkKind::kTMIN));
  large_n.set("radix", static_cast<std::uint64_t>(8));
  large_n.set("stages", static_cast<std::uint64_t>(4));
  large_n.set("nodes", static_cast<std::uint64_t>(4096));
  large_n.set("vcs", static_cast<std::uint64_t>(2));
  large_n.set("offered_load", 0.5);
  large_n.set("measured_cycles", cycles);
  large_n.set("hardware_threads",
              static_cast<std::uint64_t>(
                  std::max(1u, std::thread::hardware_concurrency())));
  // Same config measured on the pre-SoA (array-of-structs lane/channel
  // state) engine immediately before this refactor landed, on the same
  // class of hardware as the committed entry; the SoA ratio in the PR's
  // acceptance criteria is thread_scaling[threads=1] over this.
  large_n.set("legacy_layout_cycles_per_sec", 923.0);
  // One point, width 1: the engine is sequential.  The record keeps the
  // shape older trajectory entries used (one point per width measured).
  telemetry::JsonValue point = telemetry::JsonValue::object();
  point.set("engine_threads", std::uint64_t{1});
  point.set("cycles_per_second", measure_large_n_cycles(cycles));
  telemetry::JsonValue scaling = telemetry::JsonValue::array();
  scaling.push_back(std::move(point));
  large_n.set("thread_scaling", std::move(scaling));
  // Phase-profiler sanity on the same config: run a profiled simulation
  // end to end and record how much of the engine's wall time the phase
  // buckets account for.  The acceptance floor is 0.95.
  {
    const topology::Network net = topology::build_network(large_n_config());
    const auto router = routing::make_router(net);
    traffic::WorkloadSpec workload;
    workload.offered = 0.5;
    traffic::StandardTraffic traffic(net, workload);
    sim::SimConfig config;
    config.warmup_cycles = 0;
    config.measure_cycles = std::max<std::uint64_t>(cycles, 200);
    config.drain_cycles = 0;
    config.telemetry.profile = true;
    sim::Engine engine(net, *router, &traffic, config);
    const sim::SimResult result = engine.run();
    large_n.set("profile_coverage", result.phase_profile.coverage());
  }
  return large_n;
}

/// The million-node record: k=8, n=7 (2,097,152 nodes, ~16.8M channels)
/// driven at saturation through the implicit topology backend — a
/// configuration whose materialized graph does not fit the machine at
/// all.  Records memory (process peak RSS), engine speed, and the
/// accepted-throughput ratio against the paper's closed-form unbuffered
/// delta-network acceptance (analysis/analytical.hpp); wormhole
/// switching saturates below that bound, so a healthy ratio sits in
/// roughly [0.6, 1.0].  Quick mode (CI perf smoke) skips the measurement
/// — the dedicated large-n CI job runs examples/large_n_smoke instead —
/// and records only the configuration.
telemetry::JsonValue measure_large_n_implicit(bool quick) {
  topology::NetworkConfig config;
  config.kind = topology::NetworkKind::kTMIN;
  config.topology = "cube";
  config.radix = 8;
  config.stages = 7;
  config.dilation = 1;
  config.vcs = 1;

  telemetry::JsonValue entry = telemetry::JsonValue::object();
  entry.set("kind", topology::to_string(config.kind));
  entry.set("radix", static_cast<std::uint64_t>(config.radix));
  entry.set("stages", static_cast<std::uint64_t>(config.stages));
  entry.set("backend", std::string("implicit"));
  entry.set("offered_load", 1.0);
  entry.set("analytical_acceptance",
            analysis::unbuffered_delta_acceptance(config.radix,
                                                  config.stages, 1.0));
  if (quick) {
    entry.set("skipped_in_quick", true);
    return entry;
  }

  const auto implicit =
      std::make_shared<const topology::ImplicitTopology>(config);
  const topology::NetView network(implicit);
  entry.set("nodes", static_cast<std::uint64_t>(network.node_count()));
  entry.set("channels", static_cast<std::uint64_t>(network.channel_count()));
  entry.set("lanes", static_cast<std::uint64_t>(network.lane_count()));

  const auto router = routing::make_router(network);
  traffic::WorkloadSpec workload;
  workload.offered = 1.0;
  workload.length = traffic::LengthSpec::fixed(32);
  traffic::StandardTraffic traffic(network, workload);
  sim::SimConfig sim_config;
  sim_config.seed = 1;
  sim_config.warmup_cycles = 40;
  sim_config.measure_cycles = 120;
  sim_config.drain_cycles = 20;
  sim_config.implicit_topology = true;
  sim_config.sustainable_queue_limit =
      std::numeric_limits<std::uint64_t>::max();
  sim::Engine engine(network, *router, &traffic, sim_config);
  const auto start = std::chrono::steady_clock::now();
  const sim::SimResult result = engine.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  entry.set("measured_cycles", sim_config.measure_cycles);
  entry.set("cycles_per_second",
            seconds > 0.0
                ? static_cast<double>(sim_config.total_cycles()) / seconds
                : 0.0);
  entry.set("accepted_fraction", result.throughput_fraction());
  // Process high-water mark: the small-net benchmarks before this point
  // stay two orders of magnitude below the 2M-node engine, so the peak
  // is this run's footprint.
  entry.set("peak_rss_mb", util::peak_rss_mib());
  return entry;
}

/// Writes BENCH_engine.json: engine cycles/sec per network kind and
/// workload, telemetry off and on, with full run provenance.  The
/// document holds a `trajectory` array so successive optimization PRs can
/// append an entry next to the committed baseline; this run contributes
/// one entry.  The geomean over the four load-0.5 base kinds is the
/// figure CI and the acceptance criteria compare across entries.
void write_engine_baseline(const std::string& dir, std::uint64_t cycles,
                           bool quick) {
  telemetry::RunManifest manifest;
  manifest.id = "BENCH_engine";
  manifest.title = "engine cycle throughput trajectory (cycles/sec)";
  manifest.seed = 1;  // SimConfig default; the workload is what matters
  manifest.quick = quick;
  // Six engine variants (off / telemetry / validate / trace / faulted /
  // heartbeat) step in lockstep through warmup plus 30 measured slices.
  manifest.simulated_cycles = cycles * std::size(kJsonConfigs) * 6;

  const auto wall_start = std::chrono::steady_clock::now();
  telemetry::JsonValue kinds = telemetry::JsonValue::array();
  double geomean_log_sum = 0.0;
  int geomean_count = 0;
  for (const JsonConfig& jc : kJsonConfigs) {
    double off = 0.0;
    double on = 0.0;
    double overhead = 0.0;
    double validate = 0.0;
    double validate_slowdown = 0.0;
    double trace = 0.0;
    double trace_slowdown = 0.0;
    double fault = 0.0;
    double fault_overhead = 0.0;
    double heartbeat = 0.0;
    double heartbeat_slowdown = 0.0;
    measure_pair(jc.kind, cycles, jc.load, jc.vcs, jc.buffer_depth,
                 jc.credit_delay, &off, &on, &overhead, &validate,
                 &validate_slowdown, &trace, &trace_slowdown, &fault,
                 &fault_overhead, &heartbeat, &heartbeat_slowdown);
    if (jc.in_geomean && off > 0.0) {
      geomean_log_sum += std::log(off);
      ++geomean_count;
    }
    telemetry::JsonValue entry = telemetry::JsonValue::object();
    entry.set("kind", topology::to_string(jc.kind));
    entry.set("offered_load", jc.load);
    entry.set("vcs", static_cast<std::uint64_t>(jc.vcs));
    entry.set("buffer_depth", static_cast<std::uint64_t>(jc.buffer_depth));
    entry.set("credit_delay", static_cast<std::uint64_t>(jc.credit_delay));
    entry.set("in_geomean", jc.in_geomean);
    entry.set("cycles_per_second_telemetry_off", off);
    entry.set("cycles_per_second_telemetry_on", on);
    // Median of paired interleaved-slice ratios (see measure_pair), not
    // the quotient of the two best slices.
    entry.set("telemetry_on_overhead_pct", overhead);
    entry.set("cycles_per_second_validate_on", validate);
    entry.set("validate_on_slowdown_x", validate_slowdown);
    entry.set("cycles_per_second_trace_on", trace);
    entry.set("trace_on_slowdown_x", trace_slowdown);
    entry.set("cycles_per_second_fault_on", fault);
    entry.set("fault_check_overhead_x", fault_overhead);
    entry.set("cycles_per_second_heartbeat_on", heartbeat);
    entry.set("heartbeat_on_slowdown_x", heartbeat_slowdown);
    kinds.push_back(std::move(entry));
  }
  manifest.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wall_start)
          .count();

  telemetry::JsonValue trajectory_entry = telemetry::JsonValue::object();
  trajectory_entry.set("label", "sequential advance (team removed)");
  // Per entry, so a trajectory merged from several runs keeps each one's
  // provenance (stamped at build time, never stale).
  trajectory_entry.set("git_revision", std::string(telemetry::git_revision()));
  trajectory_entry.set(
      "geomean_cycles_per_second_telemetry_off",
      geomean_count > 0 ? std::exp(geomean_log_sum / geomean_count) : 0.0);
  trajectory_entry.set("kinds", std::move(kinds));
  trajectory_entry.set("large_n",
                       measure_large_n(quick ? cycles / 40 : cycles / 80));
  trajectory_entry.set("large_n_implicit", measure_large_n_implicit(quick));

  telemetry::JsonValue trajectory = telemetry::JsonValue::array();
  trajectory.push_back(std::move(trajectory_entry));

  telemetry::JsonValue document = telemetry::manifest_to_json(manifest);
  document.set("measured_cycles_per_kind", cycles);
  document.set("trajectory", std::move(trajectory));
  const telemetry::ResultWriter writer(dir);
  const std::string path = writer.write("BENCH_engine", document);
  std::printf("# json result: %s\n", path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_dir;
  if (auto env = telemetry::json_dir_from_env()) json_dir = *env;
  int out = 1;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_dir = "results/json";
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_dir = argv[i] + 7;
    } else {
      argv[out++] = argv[i];
    }
  }
  argc = out;

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  if (!json_dir.empty()) {
    const char* quick = std::getenv("WORMSIM_QUICK");
    const bool is_quick = quick != nullptr && quick[0] != '\0' &&
                          quick[0] != '0';
    write_engine_baseline(json_dir, is_quick ? 50'000 : 400'000, is_quick);
  }
  return 0;
}
