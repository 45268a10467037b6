// large_n_saturation: one sim::Engine run on the 32,768-node radix-8
// 5-stage TMIN with the implicit topology backend, uniform traffic at
// load 1.0 with 32-flit messages and a 400/1200/200-cycle window (the
// large_n_smoke configuration at 8^5 nodes).  Engine width 1.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <memory>
#include <optional>

#include "analysis/analytical.hpp"
#include "experiment/figures.hpp"
#include "experiment/results_json.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace wormsim;
using experiment::ResultCache;
using experiment::SeriesSpec;
using experiment::SweepPoint;

/// Saturation runs hold every source queue at its cap by design.
constexpr std::uint64_t kNoQueueLimit =
    std::numeric_limits<std::uint64_t>::max();
/// Offered load: every node injects at its full one-port capacity.
constexpr double kLoad = 1.0;

struct Shape {
  unsigned radix = 8, stages = 5;
  std::uint64_t warmup = 400, measure = 1'200, drain = 200;
  std::uint32_t length = 32;
};

/// The run as a sweep series, so the result cache can fingerprint it.
SeriesSpec large_series(const Shape& shape) {
  SeriesSpec spec;
  spec.label = "TMIN(cube,k=" + std::to_string(shape.radix) +
               ",n=" + std::to_string(shape.stages) + ") implicit";
  spec.net = experiment::tmin_config("cube", shape.radix, shape.stages);
  spec.workload = [length = shape.length](const topology::NetView&,
                                          double load) {
    traffic::WorkloadSpec workload;
    workload.pattern = traffic::WorkloadSpec::Pattern::kUniform;
    workload.offered = load;
    workload.length = traffic::LengthSpec::fixed(length);
    return workload;
  };
  spec.tweak_sim = [shape](sim::SimConfig& config) {
    config.warmup_cycles = shape.warmup;
    config.measure_cycles = shape.measure;
    config.drain_cycles = shape.drain;
    config.implicit_topology = true;
    config.sustainable_queue_limit = kNoQueueLimit;
  };
  return spec;
}

/// Every simulated output that must not change when only the host side
/// does, as exact text (doubles in hex).
std::string result_text(const sim::SimResult& r) {
  char buffer[512];
  std::snprintf(
      buffer, sizeof(buffer),
      "delivered=%" PRIu64 " flits=%" PRIu64 " gen=%" PRIu64 "/%" PRIu64
      " dropped=%" PRIu64 " maxq=%" PRIu64 " unfinished=%" PRIu64
      " lat=%a/%" PRIu64 " net=%a queue=%a drain=%" PRIu64 "%s",
      r.delivered_messages_total, r.delivered_flits_in_window,
      r.generated_messages_in_window, r.generated_flits_in_window,
      r.dropped_messages, r.max_source_queue, r.measured_messages_unfinished,
      r.latency_cycles.mean(), r.latency_cycles.count(),
      r.network_latency_cycles.mean(), r.queueing_cycles.mean(),
      r.time_to_drain_cycles, r.drained ? " drained" : "");
  return buffer;
}

/// Table + JSON emission of the one-point result; returns bytes emitted.
std::uint64_t emit(const SeriesSpec& spec, const SweepPoint& point,
                   std::uint64_t seed, Tracer* tracer) {
  experiment::FigureResult figure;
  figure.id = "large_n_saturation";
  figure.title = "large_n_saturation: " + spec.label + ", uniform, load 1.0";
  figure.series.push_back({spec.label, {point}});
  telemetry::RunManifest manifest;
  manifest.id = figure.id;
  manifest.title = figure.title;
  manifest.seed = seed;
  std::string table;
  return emit_figure(figure, manifest, tracer, &table);
}

/// Fingerprint + load + emission of the stored point.  Returns the
/// replayed point (nullopt on a miss) and its wall time in `seconds`.
std::optional<SweepPoint> replay(const SeriesSpec& spec,
                                 const sim::SimConfig& base,
                                 const ResultCache& cache, Tracer* tracer,
                                 double* seconds, std::uint64_t* emit_bytes) {
  const auto start = Clock::now();
  std::string key;
  {
    Span span(tracer, "cache.fingerprint");
    key = ResultCache::fingerprint(spec, kLoad, base);
  }
  std::optional<SweepPoint> point;
  {
    Span span(tracer, "cache.load");
    point = cache.load(key);
  }
  if (point) *emit_bytes += emit(spec, *point, base.seed, tracer);
  *seconds = seconds_since(start);
  return point;
}

bool same_point(const std::optional<SweepPoint>& a, const SweepPoint& b) {
  return a && experiment::sweep_point_to_json(*a).dump_string(-1) ==
                  experiment::sweep_point_to_json(b).dump_string(-1);
}

void store(const SeriesSpec& spec, const sim::SimConfig& base,
           const ResultCache& cache, const SweepPoint& point, Tracer* tracer) {
  std::string key;
  {
    Span span(tracer, "cache.fingerprint");
    key = ResultCache::fingerprint(spec, kLoad, base);
  }
  Span span(tracer, "cache.store");
  cache.store(key, point);
}

void check_result(const Shape& shape, const Args& args,
                  const sim::SimResult& result, Report& report) {
  const double accepted = result.throughput_fraction();
  const double analytical = analysis::unbuffered_delta_acceptance(
      shape.radix, shape.stages, kLoad);
  const double ratio = analytical > 0.0 ? accepted / analytical : 0.0;
  char accepted_text[32];
  std::snprintf(accepted_text, sizeof(accepted_text), "%.4f", accepted);
  char ratio_text[32];
  std::snprintf(ratio_text, sizeof(ratio_text), "%.3f", ratio);
  report.note("large_n.accepted", accepted_text);
  report.note("large_n.delivered",
              std::to_string(result.delivered_messages_total));
  report.note("large_n.analytical_ratio", ratio_text);
  report.note("digest.result", fnv_hex(result_text(result)));
  // The band large_n_smoke asserts: wormhole switching with single-flit
  // buffers saturates below the unbuffered delta-network acceptance.
  report.check(ratio >= 0.3 && ratio <= 1.1,
               "accepted/analytical ratio outside [0.3, 1.1]");
  report.check(result.delivered_messages_total > 0, "nothing delivered");
  if (!args.smoke && args.seed == kDefaultSeed) {
    report.check(result.delivered_messages_total == 440504,
                 "delivered messages differ from the reference 440504");
    report.check(std::string(accepted_text) == "0.2413",
                 "accepted throughput differs from the reference 0.2413");
  }
}

}  // namespace

void run_large_n_saturation(const Args& args, Report& report) {
  Shape shape;
  if (args.smoke) {
    shape.radix = 4;
    shape.stages = 3;
    shape.warmup = 100;
    shape.measure = 300;
    shape.drain = 50;
  }
  const SeriesSpec spec = large_series(shape);
  sim::SimConfig base;
  // The default seed reproduces large_n_smoke's run (engine seed 1).
  base.seed = args.seed == kDefaultSeed ? 1 : args.seed;
  sim::SimConfig config = base;
  spec.tweak_sim(config);
  const std::string cache_dir = args.out_dir + "/cache";
  std::filesystem::remove_all(cache_dir);
  const ResultCache cache(cache_dir);
  report.note("pool.threads", "0");
  report.note("large_n.nodes",
              std::to_string(static_cast<std::uint64_t>(
                  std::pow(shape.radix, shape.stages))));
  std::uint64_t emit_bytes = 0;

  if (!args.trace) {
    const auto run_start = Clock::now();
    std::vector<double> setups, walls, runs;
    sim::SimResult result;
    SweepPoint point;
    std::uint32_t engine_threads = 0;
    double job_rss_mib = 0.0;
    CoreRotation cores;
    std::vector<double> replays;
    std::uint64_t bad_replays = 0;
    const auto fits = [&](double seconds) {
      return seconds_since(run_start) + seconds <= args.seconds;
    };
    // Whole jobs (set-up, run, emission) while the next one fits, each
    // followed by set-ups and replays of the stored point (at least
    // three rounds); after the last job they fill the rest of the run,
    // so their medians sample all of it.  The run is stepped so the
    // thread can move to the next core every 100 cycles; run() then only
    // finalizes (the traced run checks that this matches an unstepped
    // run() exactly).
    while (walls.empty() || fits(walls.back())) {
      const auto job_start = Clock::now();
      cores.next();
      std::unique_ptr<PointSetup> setup =
          make_point_setup(spec, kLoad, config, nullptr);
      setups.push_back(setup->seconds);
      const auto sim_start = Clock::now();
      while (setup->engine->cycle() < config.total_cycles()) {
        if (setup->engine->cycle() % 100 == 0) cores.next();
        setup->engine->step();
      }
      const sim::SimResult job_result = setup->engine->run();
      runs.push_back(seconds_since(sim_start));
      const SweepPoint job_point =
          to_sweep_point(job_result, kLoad, kNoQueueLimit);
      emit_bytes += emit(spec, job_point, base.seed, nullptr);
      walls.push_back(seconds_since(job_start));
      engine_threads = setup->engine->engine_threads();
      setup.reset();
      if (walls.size() == 1) {
        // Peak memory of one job; a second job's set-up on top of the
        // allocator's retained heap would add ~35 MiB that no user sees.
        job_rss_mib = peak_rss_mib();
        result = job_result;
        point = job_point;
        store(spec, base, cache, point, nullptr);
      } else {
        report.check(result_text(job_result) == result_text(result),
                     "job " + std::to_string(walls.size()) +
                         " differs from the first job");
      }
      for (int round = 0; round < 3 || (!fits(walls.back()) && fits(0.0));
           ++round) {
        cores.next();
        setups.push_back(
            make_point_setup(spec, kLoad, config, nullptr)->seconds);
        for (int i = 0; i < 20; ++i) {
          double seconds = 0.0;
          if (!same_point(replay(spec, base, cache, nullptr, &seconds,
                                 &emit_bytes),
                          point)) {
            ++bad_replays;
          }
          replays.push_back(seconds);
        }
      }
    }
    cores.release();
    report.note("engine.threads", std::to_string(engine_threads));
    check_result(shape, args, result, report);
    report.check(bad_replays == 0,
                 std::to_string(bad_replays) +
                     " warm replays did not return the stored point");
    report.note("job.replays", std::to_string(replays.size()));
    report.note("job.runs", std::to_string(walls.size()));
    // Best of the run's few whole jobs (host interference only slows
    // them); medians of the many set-ups and replays.
    const double wall = *std::min_element(walls.begin(), walls.end());
    const double run = *std::min_element(runs.begin(), runs.end());
    report.metric("setup_s", median(setups), "s");
    report.metric("wall_s", wall, "s");
    report.metric("points_per_s", 1.0 / wall, "1/s");
    report.metric("sim_cycles_per_s",
                  static_cast<double>(config.total_cycles()) / run, "1/s");
    report.metric("delivered_msgs_per_s",
                  static_cast<double>(result.delivered_messages_total) / wall,
                  "1/s");
    report.metric("warm_replay_s", median(replays), "s");
    report.metric("peak_rss_mib", job_rss_mib, "MiB");
    return;
  }

  // Traced run.  1) Untraced reference.
  double untraced_s = 0.0, untraced_run_s = 0.0;
  sim::SimResult reference;
  {
    const auto start = Clock::now();
    std::unique_ptr<PointSetup> setup =
        make_point_setup(spec, kLoad, config, nullptr);
    const auto sim_start = Clock::now();
    reference = setup->engine->run();
    untraced_run_s = seconds_since(sim_start);
    untraced_s = seconds_since(start);
  }
  check_result(shape, args, reference, report);

  // 2) Spans, phase profiler and counters on; step() timed one by one.
  Tracer tracer;
  Probes probes;
  LayerExtras extras;
  double traced_s = 0.0;
  {
    sim::SimConfig traced = config;
    traced.telemetry.counters = true;
    traced.telemetry.profile = true;
    const auto start = Clock::now();
    Span figure(&tracer, "figure.large_n_saturation");
    Span series(&tracer, "series." + spec.label);
    Span point_span(&tracer, "point");
    std::unique_ptr<PointSetup> setup =
        make_point_setup(spec, kLoad, traced, &tracer);
    std::vector<double> step_ms;
    step_ms.reserve(traced.total_cycles());
    sim::SimResult result;
    double loop_s = 0.0;
    {
      Span run(&tracer, "sim.run");
      const auto loop_start = Clock::now();
      while (setup->engine->cycle() < traced.total_cycles()) {
        const auto step_start = Clock::now();
        setup->engine->step();
        step_ms.push_back(seconds_since(step_start) * 1e3);
      }
      loop_s = seconds_since(loop_start);
      result = setup->engine->run();  // no cycles left: finalizes only
    }
    traced_s = seconds_since(start);
    probes.add(result);
    extras.step_ms_p50 = percentile(step_ms, 0.5);
    extras.step_ms_p99 = percentile(step_ms, 0.99);
    // run() saw no cycles, so its own total is ~0; the step loop is the
    // engine's wall time here.
    extras.phase_coverage = probes.profile.attributed_seconds() / loop_s;
    report.note("sim.steps", std::to_string(step_ms.size()));
    report.check(result_text(result) == result_text(reference),
                 "telemetry on changed the simulated result");
  }

  // 3) The advance team at width 4 against width 1.
  {
    sim::SimConfig wide = config;
    wide.engine_threads = 4;
    std::unique_ptr<PointSetup> setup =
        make_point_setup(spec, kLoad, wide, nullptr);
    const auto sim_start = Clock::now();
    const sim::SimResult result = setup->engine->run();
    const double wide_s = seconds_since(sim_start);
    extras.team4_speedup = untraced_run_s / wide_s;
    report.note("engine.team_threads",
                std::to_string(setup->engine->engine_threads()));
    report.check(result_text(result) == result_text(reference),
                 "engine width 4 changed the simulated result");
  }

  // 4) Store and replay the point through the result cache.
  {
    const SweepPoint point = to_sweep_point(reference, kLoad, kNoQueueLimit);
    Span figure(&tracer, "figure.large_n_saturation.warm");
    store(spec, base, cache, point, &tracer);
    double seconds = 0.0;
    report.check(same_point(replay(spec, base, cache, &tracer, &seconds,
                                   &emit_bytes),
                            point),
                 "warm replay did not return the stored point");
  }
  extras.cache = cache.stats();
  extras.cache_bytes = directory_bytes(cache_dir);
  extras.emit_bytes = emit_bytes;
  extras.overhead_x = traced_s / untraced_s;
  report_layers(tracer, probes, extras, args.out_dir, report);
}

}  // namespace perfbench
