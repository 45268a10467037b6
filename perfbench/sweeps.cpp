// The sweep workload quick_sweep_cache: all registered figures in quick
// mode against a fresh result cache, then warm replays.  Its traced run
// also regenerates fig18a in full mode and checks it against the
// committed table.
//
// The measured job goes through experiment::run_figure exactly as a user's
// figure regeneration does.  The traced run adds a layer-by-layer runner
// that calls the layers one by one (topology, routing, traffic, engine,
// cache, emission) so each call gets a span; its tables must match the
// library's byte for byte.
#include <algorithm>
#include <atomic>
#include <filesystem>
#include <optional>
#include <thread>

#include "experiment/cache.hpp"
#include "experiment/figures.hpp"
#include "experiment/results_json.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

using namespace wormsim;
using experiment::FigureResult;
using experiment::FigureSpec;
using experiment::ResultCache;
using experiment::RunOptions;
using experiment::Series;
using experiment::SeriesSpec;
using experiment::SweepOptions;
using experiment::SweepPoint;

struct SweepJob {
  std::vector<std::string> figures;
  RunOptions options;  ///< quick, seed, pool width
  /// Compare these figures' tables with the committed results/<id>.txt
  /// (full mode at the default seed only).
  bool reference_tables = false;
};

/// Warm replays run one wide.  A wider warm pass spent its time starting
/// pool threads for 30 figures, which a shared host delayed by varying
/// amounts, not in the cache and emission it measures.
constexpr unsigned kWarmThreads = 1;

/// One pass over the job's figures: results, emitted text, and sums of
/// the library's pool and cache statistics.
struct Pass {
  std::vector<FigureResult> figures;
  std::vector<std::string> tables;  ///< print_figure text per figure
  double wall_s = 0.0;
  std::uint64_t emit_bytes = 0;
  ResultCache::Stats cache;
  double busy_s = 0.0;
  double capacity_s = 0.0;  ///< sum over figures of pool wall x workers
  std::uint64_t computed = 0;
  std::uint64_t speculated = 0;
  unsigned pool_threads = 0;
  unsigned engine_threads = 1;

  std::string all_tables() const {
    std::string out;
    for (const std::string& t : tables) out += t;
    return out;
  }
  std::uint64_t lookups() const {
    return cache.hits + cache.misses + cache.rejected;
  }
};

void add_cache_stats(ResultCache::Stats& sum, const ResultCache::Stats& s) {
  sum.hits += s.hits;
  sum.misses += s.misses;
  sum.rejected += s.rejected;
  sum.stores += s.stores;
}

telemetry::RunManifest manifest_for(const FigureResult& result,
                                    const RunOptions& options) {
  telemetry::RunManifest manifest;
  manifest.id = result.id;
  manifest.title = result.title;
  manifest.seed = options.seed;
  manifest.quick = options.quick;
  manifest.wall_seconds = result.wall_seconds;
  manifest.simulated_cycles =
      result.pool_stats.computed * options.sim_config().total_cycles();
  manifest.pool_threads = result.pool_stats.threads;
  manifest.pool_busy_seconds = result.pool_stats.busy_seconds;
  manifest.points_computed = result.pool_stats.computed;
  manifest.points_cached = result.pool_stats.cache_hits;
  manifest.points_speculated = result.pool_stats.speculated;
  manifest.cache_used = result.cache_used;
  manifest.cache_hits = result.cache_stats.hits;
  manifest.cache_misses = result.cache_stats.misses;
  manifest.cache_rejected = result.cache_stats.rejected;
  manifest.cache_stores = result.cache_stats.stores;
  return manifest;
}

/// Emits one figure and appends its table to `pass`.
void emit(const FigureResult& result, const RunOptions& options,
          Tracer* tracer, Pass& pass) {
  std::string table;
  pass.emit_bytes +=
      emit_figure(result, manifest_for(result, options), tracer, &table);
  pass.tables.push_back(std::move(table));
}

/// The job as a user runs it: run_figure per figure, then emission.
Pass library_pass(const SweepJob& job, const std::string& cache_dir,
                  unsigned threads) {
  RunOptions options = job.options;
  options.threads = threads;
  options.cache_dir = cache_dir;
  Pass pass;
  const auto start = Clock::now();
  for (const std::string& id : job.figures) {
    FigureResult result = experiment::run_figure(id, options);
    emit(result, options, nullptr, pass);
    const experiment::PoolStats& pool = result.pool_stats;
    pass.busy_s += pool.busy_seconds;
    pass.capacity_s += pool.wall_seconds * pool.threads;
    pass.computed += pool.computed;
    pass.speculated += pool.speculated;
    pass.pool_threads = std::max(pass.pool_threads, pool.threads);
    pass.engine_threads = std::max(pass.engine_threads, pool.engine_threads);
    add_cache_stats(pass.cache, result.cache_stats);
    pass.figures.push_back(std::move(result));
  }
  pass.wall_s = seconds_since(start);
  return pass;
}

// ---- set-up -----------------------------------------------------------------

/// Builds every wormhole series' network, router, traffic source and
/// engine at its first load: the per-point set-up run_point repeats
/// before its first simulated cycle.  Store-and-forward series use a
/// different engine and are left out.
double setup_once(const std::vector<FigureSpec>& specs,
                  const SweepOptions& sweep) {
  double seconds = 0.0;
  for (const FigureSpec& figure : specs) {
    for (const SeriesSpec& spec : figure.series) {
      if (spec.switching != SeriesSpec::Switching::kWormhole) continue;
      sim::SimConfig config = sweep.sim;
      if (spec.tweak_sim) spec.tweak_sim(config);
      seconds += make_point_setup(spec, sweep.loads[0], config, nullptr)
                     ->seconds;
    }
  }
  return seconds;
}

// ---- layer-by-layer runner (traced run) -------------------------------------

/// One point as run_point computes it, but calling each layer separately
/// so each gets a span; the traced run checks the outputs against
/// run_figure's.  The store-and-forward reference engine goes through
/// run_point whole.
SweepPoint layered_point(const SeriesSpec& spec, double load,
                         const sim::SimConfig& base, Tracer* tracer,
                         Probes* probes) {
  Span span(tracer, "point.compute");
  sim::SimResult result;
  if (spec.switching != SeriesSpec::Switching::kWormhole) {
    SweepPoint point;
    {
      Span run(tracer, "sim.run");
      point = experiment::run_point(spec, load, base, &result);
    }
    if (probes != nullptr) probes->add(result);
    return point;
  }
  sim::SimConfig config = base;
  if (spec.tweak_sim) spec.tweak_sim(config);
  const std::unique_ptr<PointSetup> setup =
      make_point_setup(spec, load, config, tracer);
  {
    Span s(tracer, "sim.run");
    result = setup->engine->run();
  }
  if (probes != nullptr) probes->add(result);
  return to_sweep_point(result, load, config.sustainable_queue_limit);
}

/// Runs one figure's series over `threads` workers, one whole series per
/// task with the sequential early-stop rule (no speculation).  Every
/// point is looked up in the cache first and stored after computing.
std::vector<Series> layered_figure(const FigureSpec& figure,
                                   const SweepOptions& sweep,
                                   unsigned threads, const ResultCache& cache,
                                   Tracer* tracer, std::uint64_t figure_span,
                                   Probes* probes) {
  std::vector<Series> out(figure.series.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t s = next++; s < figure.series.size(); s = next++) {
      const SeriesSpec& spec = figure.series[s];
      Span series_span(tracer, "series." + spec.label, figure_span);
      out[s].label = spec.label;
      unsigned streak = 0;
      for (const double load : sweep.loads) {
        Span point_span(tracer, "point");
        std::string key;
        {
          Span span(tracer, "cache.fingerprint");
          key = ResultCache::fingerprint(spec, load, sweep.sim);
        }
        std::optional<SweepPoint> point;
        {
          Span span(tracer, "cache.load");
          point = cache.load(key);
        }
        if (!point) {
          point = layered_point(spec, load, sweep.sim, tracer, probes);
          Span span(tracer, "cache.store");
          cache.store(key, *point);
        }
        out[s].points.push_back(*point);
        streak = point->sustainable ? 0 : streak + 1;
        if (sweep.stop_after_unsustainable != 0 &&
            streak >= sweep.stop_after_unsustainable) {
          break;
        }
      }
    }
  };
  std::vector<std::thread> workers;
  for (unsigned t = 1; t < threads; ++t) workers.emplace_back(worker);
  worker();
  for (std::thread& w : workers) w.join();
  return out;
}

/// The instrumented equivalent of the job: cold pass, then one warm
/// replay.
struct LayeredPass {
  Pass cold, warm;
  double wall_s = 0.0;
  ResultCache::Stats cache;
};

LayeredPass layered_pass(const SweepJob& job, const Pass& library,
                         const std::string& cache_dir, Tracer* tracer,
                         Probes* probes) {
  SweepOptions sweep = job.options.sweep_options();
  if (probes != nullptr) {
    sweep.sim.telemetry.counters = true;
    sweep.sim.telemetry.profile = true;
  }
  std::filesystem::remove_all(cache_dir);
  const ResultCache cache(cache_dir);
  LayeredPass out;
  const auto start = Clock::now();
  auto run = [&](bool warm, Pass& pass) {
    for (std::size_t f = 0; f < job.figures.size(); ++f) {
      const FigureSpec spec = experiment::figure_spec(job.figures[f]);
      const std::string suffix = warm ? ".warm" : "";
      Span figure_span(tracer, "figure." + spec.id + suffix);
      FigureResult result;
      result.id = spec.id;
      result.title = spec.title;
      result.series = layered_figure(
          spec, sweep, warm ? kWarmThreads : job.options.threads, cache,
          tracer, figure_span.id(), probes);
      // The static fault coverage is a property of the fault plan, not of
      // the traffic; take it from the library's run of the same figure.
      for (std::size_t s = 0; s < result.series.size(); ++s) {
        result.series[s].static_coverage =
            library.figures[f].series[s].static_coverage;
      }
      emit(result, job.options, tracer, pass);
      pass.figures.push_back(std::move(result));
    }
  };
  run(false, out.cold);
  run(true, out.warm);
  out.wall_s = seconds_since(start);
  out.cache = cache.stats();
  return out;
}

// ---- checks -----------------------------------------------------------------

/// Structural invariants every emitted figure must satisfy at any seed.
bool figure_invariants(const FigureResult& figure, const SweepOptions& sweep,
                       std::string* why) {
  for (const Series& series : figure.series) {
    if (series.points.empty()) return *why = series.label + ": empty", false;
    unsigned streak = 0;
    for (std::size_t i = 0; i < series.points.size(); ++i) {
      const SweepPoint& p = series.points[i];
      const std::string where =
          series.label + " @ " + std::to_string(p.offered_requested);
      if (streak >= sweep.stop_after_unsustainable) {
        return *why = where + ": point past the early stop", false;
      }
      if (i >= sweep.loads.size() || p.offered_requested != sweep.loads[i]) {
        return *why = where + ": load out of order", false;
      }
      if (p.delivered_messages == 0 || !(p.throughput > 0.0) ||
          p.throughput > 1.0) {
        return *why = where + ": throughput outside (0, 1]", false;
      }
      if (!(p.latency_us > 0.0) ||
          p.network_latency_us > p.latency_us * (1 + 1e-12)) {
        return *why = where + ": latency below network latency", false;
      }
      if (series.static_coverage < 0.0 &&
          (p.terminated_messages != 0 || p.delivery_fraction != 1.0)) {
        return *why = where + ": fault-free series lost messages", false;
      }
      streak = p.sustainable ? 0 : streak + 1;
    }
  }
  return true;
}

std::string points_digest(const std::vector<FigureResult>& figures) {
  std::string bytes;
  for (const FigureResult& figure : figures) {
    bytes += figure.id + "\n";
    for (const Series& series : figure.series) {
      bytes += series.label + "\n";
      for (const SweepPoint& point : series.points) {
        bytes += experiment::sweep_point_to_json(point).dump_string(-1);
      }
    }
  }
  return fnv_hex(bytes);
}

/// Checks a cold pass's figures; `label` prefixes the digest notes.
void check_outputs(const SweepJob& job, const Args& args, const Pass& cold,
                   Report& report, const std::string& label = "") {
  const SweepOptions sweep = job.options.sweep_options();
  for (const FigureResult& figure : cold.figures) {
    std::string why;
    report.check(figure_invariants(figure, sweep, &why),
                 figure.id + " invariants: " + why);
  }
  if (job.reference_tables) {
    for (std::size_t f = 0; f < job.figures.size(); ++f) {
      const std::string path =
          args.repo + "/results/" + job.figures[f] + ".txt";
      report.check(read_file(path) == cold.tables[f],
                   job.figures[f] + " table differs from " + path);
    }
  }
  report.note(label + "digest.points", points_digest(cold.figures));
  report.note(label + "digest.tables", fnv_hex(cold.all_tables()));
}

void check_warm(const Pass& cold, const Pass& warm, Report& report,
                const std::string& what) {
  report.check(warm.all_tables() == cold.all_tables(),
               what + ": warm tables differ from the cold tables");
  report.check(warm.cache.misses == 0 && warm.cache.rejected == 0 &&
                   warm.cache.hits == warm.lookups() && warm.computed == 0,
               what + ": warm replay missed the cache (" +
                   std::to_string(warm.cache.misses) + " misses, " +
                   std::to_string(warm.cache.rejected) + " rejected, " +
                   std::to_string(warm.computed) + " computed)");
}

std::uint64_t point_count(const std::vector<FigureResult>& figures,
                          std::uint64_t* delivered) {
  std::uint64_t points = 0;
  *delivered = 0;
  for (const FigureResult& figure : figures) {
    for (const Series& series : figure.series) {
      points += series.points.size();
      for (const SweepPoint& p : series.points) {
        *delivered += p.delivered_messages;
      }
    }
  }
  return points;
}

// ---- the two run modes ------------------------------------------------------

void measure(const SweepJob& job, const Args& args, Report& report) {
  const auto run_start = Clock::now();
  const std::string cache_dir = args.out_dir + "/cache";

  std::vector<FigureSpec> specs;
  for (const std::string& id : job.figures) {
    specs.push_back(experiment::figure_spec(id));
  }
  const SweepOptions sweep = job.options.sweep_options();

  // Cold jobs, each followed by set-ups and warm replays, until the
  // run's time is used.  A cold job starts only while one more fits; the
  // time left after the last goes to more set-ups and replays (at least
  // three of each), so every median samples the whole run.  The first
  // cold job is checked, later ones against it.
  std::optional<Pass> first;
  double cold_rss_mib = 0.0;
  std::vector<double> colds, cold_rates, setups, warm_s;
  const auto fits = [&](double seconds) {
    return seconds_since(run_start) + seconds <= args.seconds;
  };
  CoreRotation cores;
  while (!first || (!args.smoke && fits(colds.back()))) {
    std::filesystem::remove_all(cache_dir);  // cold: a fresh cache
    cores.release();  // let the pool spread out
    Pass cold = library_pass(job, cache_dir, job.options.threads);
    colds.push_back(cold.wall_s);
    cold_rates.push_back(static_cast<double>(cold.computed) *
                         static_cast<double>(sweep.sim.total_cycles()) /
                         cold.busy_s);
    if (!first) {
      // Peak memory of the job itself; later jobs would only add
      // allocator retention.
      cold_rss_mib = peak_rss_mib();
      check_outputs(job, args, cold, report);
      first = std::move(cold);
    } else {
      report.check(cold.all_tables() == first->all_tables(),
                   "cold job " + std::to_string(colds.size()) +
                       ": tables differ from the first cold job");
    }
    for (int i = 0; i < 3 || (!fits(colds.back()) && fits(0.0)); ++i) {
      cores.next();
      setups.push_back(setup_once(specs, sweep));
      const Pass warm = library_pass(job, cache_dir, kWarmThreads);
      check_warm(*first, warm, report,
                 "warm pass " + std::to_string(warm_s.size()));
      warm_s.push_back(warm.wall_s);
    }
  }
  cores.release();
  std::string cold_walls;
  for (const double seconds : colds) {
    cold_walls += (cold_walls.empty() ? "" : " ") + std::to_string(seconds);
  }

  const Pass& cold = *first;
  std::uint64_t delivered = 0;
  const std::uint64_t points = point_count(cold.figures, &delivered);
  report.note("pool.threads", std::to_string(cold.pool_threads));
  report.note("pool.warm_threads", std::to_string(kWarmThreads));
  report.note("engine.threads", std::to_string(cold.engine_threads));
  report.note("job.points", std::to_string(points));
  report.note("job.points_computed", std::to_string(cold.computed));
  report.note("job.cold_walls_s", cold_walls);
  report.note("job.warm_passes", std::to_string(warm_s.size()));

  // Cold jobs are few per run and host interference only slows them, so
  // they report the run's best; the many short samples report medians.
  const double wall = *std::min_element(colds.begin(), colds.end());
  report.metric("setup_s", median(setups), "s");
  report.metric("wall_s", wall, "s");
  report.metric("points_per_s", static_cast<double>(points) / wall, "1/s");
  report.metric("sim_cycles_per_s",
                *std::max_element(cold_rates.begin(), cold_rates.end()),
                "1/s");
  report.metric("delivered_msgs_per_s",
                static_cast<double>(delivered) / wall, "1/s");
  report.metric("warm_replay_s", median(warm_s), "s");
  report.metric("peak_rss_mib", cold_rss_mib, "MiB");
}

void trace(const SweepJob& job, const Args& args, Report& report) {
  const std::string cache_dir = args.out_dir + "/cache";
  std::filesystem::remove_all(cache_dir);

  // The library job, untraced: scheduler statistics and reference tables.
  const Pass library = library_pass(job, cache_dir, job.options.threads);
  check_outputs(job, args, library, report);
  report.note("pool.threads", std::to_string(library.pool_threads));
  report.note("engine.threads", std::to_string(library.engine_threads));

  // The layer-by-layer runner twice: probes off, then spans + engine
  // telemetry on.  Both must reproduce the library's tables exactly.
  const LayeredPass off =
      layered_pass(job, library, cache_dir + "-off", nullptr, nullptr);
  Tracer tracer;
  Probes probes;
  const LayeredPass on =
      layered_pass(job, library, cache_dir + "-on", &tracer, &probes);
  for (const LayeredPass* pass : {&off, &on}) {
    const std::string what = pass == &off ? "runner" : "traced runner";
    report.check(pass->cold.all_tables() == library.all_tables(),
                 what + ": tables differ from run_figure's");
    report.check(points_digest(pass->cold.figures) ==
                     points_digest(library.figures),
                 what + ": points differ from run_figure's");
    report.check(pass->warm.all_tables() == pass->cold.all_tables(),
                 what + ": warm tables differ from the cold tables");
  }
  LayerExtras extras;
  extras.phase_coverage = probes.profile.coverage();
  extras.scheduler_busy_s = library.busy_s;
  extras.scheduler_capacity_s = library.capacity_s;
  extras.scheduler_computed = library.computed;
  extras.scheduler_speculated = library.speculated;
  extras.cache = on.cache;
  extras.cache_bytes = directory_bytes(cache_dir + "-on");
  extras.emit_bytes = on.cold.emit_bytes + on.warm.emit_bytes;
  extras.overhead_x = on.wall_s / off.wall_s;
  report_layers(tracer, probes, extras, args.out_dir, report);
}

/// Regenerates fig18a in full mode (four networks x ten loads of 280k
/// cycles, uniform traffic) through run_figure, untimed, and checks it:
/// against results/fig18a.txt byte for byte at the default seed, by the
/// sweep invariants and a printed digest at any seed.  Quick mode alone
/// would leave the committed full-mode tables unchecked.
void check_full_fig18a(const Args& args, Report& report) {
  SweepJob job;
  job.figures = {"fig18a"};
  job.options.seed = args.seed;
  job.options.threads = pool_width();
  job.reference_tables = args.seed == kDefaultSeed;
  check_outputs(job, args, library_pass(job, "", job.options.threads),
                report, "fig18a_full.");
}

void run_sweep_job(const SweepJob& job, const Args& args, Report& report) {
  if (args.trace) {
    trace(job, args, report);
  } else {
    measure(job, args, report);
  }
}

}  // namespace

void run_quick_sweep_cache(const Args& args, Report& report) {
  SweepJob job;
  job.figures = experiment::figure_ids();
  if (args.smoke) job.figures.resize(3);
  job.options.seed = args.seed;
  job.options.quick = true;
  job.options.threads = pool_width();
  run_sweep_job(job, args, report);
  if (args.trace && !args.smoke) check_full_fig18a(args, report);
}

}  // namespace perfbench
