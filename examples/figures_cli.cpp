// Figure runner: reproduces any registered evaluation figure or ablation
// and prints it as a latency/throughput table — the exact rows/series the
// paper's plots report.  This is the tool used to produce EXPERIMENTS.md
// and the CI-enforced tables under results/.
//
// Usage: figures_cli --figure=fig18a [--quick] [--seed=N] [--threads=N]
//        figures_cli --all [--shard=i/n] [--cache-dir=D] [--out-dir=D]
//        figures_cli --list
//
// --shard=i/n runs the i-th of n deterministic, figure-aligned partitions
// of the full suite's figure x point work list (CI fans the suite out over
// a matrix; the union of all shards is exactly --all).  --cache-dir (or
// WORMSIM_CACHE_DIR) replays content-addressed point results from disk —
// outputs stay byte-identical to an uncached sequential run.  --out-dir
// writes each figure's table to <dir>/<id>.txt (or .csv with --csv)
// instead of stdout, the exact bytes committed under results/.

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>

#include "experiment/figures.hpp"
#include "util/cli.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  std::string figure = "fig18a";
  bool list = false;
  bool all = false;
  bool quick = false;
  bool csv = false;
  std::int64_t seed = 20250707;
  std::int64_t threads = 0;
  bool implicit_topology = false;
  std::string shard;
  std::string cache_dir;
  std::string out_dir;
  std::string json_dir;
  std::int64_t buffer_depth = 0;
  std::string flow_control;
  std::int64_t credit_delay = -1;
  double fault_fraction = -1.0;
  std::int64_t fault_seed = -1;
  std::int64_t fault_at_cycle = -1;
  std::int64_t heartbeat_cycles = 0;
  std::string heartbeat_dir;
  bool profile = false;
  util::CliParser cli("figures_cli: run a paper figure reproduction");
  cli.add_flag("figure", &figure, "figure id (see --list)");
  cli.add_flag("list", &list, "list registered figure ids");
  cli.add_flag("all", &all, "run every registered figure");
  cli.add_flag("quick", &quick, "smoke-test mode (tiny simulations)");
  cli.add_flag("csv", &csv, "emit machine-readable CSV instead of tables");
  cli.add_flag("seed", &seed, "random seed");
  cli.add_flag("threads", &threads,
               "worker threads for the point-granular sweep pool (0 = "
               "WORMSIM_THREADS env or sequential); results match the "
               "sequential run bitwise");
  cli.add_flag("implicit-topology", &implicit_topology,
               "compute topology records on the fly instead of "
               "materializing the graph (bitwise neutral; the million-node "
               "memory lever — see DESIGN.md §13)");
  cli.add_flag("shard", &shard,
               "with --all: run shard i of n (\"i/n\", 0-based) of the "
               "deterministic figure partition");
  cli.add_flag("cache-dir", &cache_dir,
               "content-addressed sweep-point cache directory (default "
               "WORMSIM_CACHE_DIR env; empty = no cache)");
  cli.add_flag("out-dir", &out_dir,
               "write each figure to <dir>/<id>.txt (or .csv) instead of "
               "stdout");
  cli.add_flag("json-dir", &json_dir,
               "also write <dir>/<id>.json results (default "
               "WORMSIM_JSON_DIR env)");
  cli.add_flag("buffer-depth", &buffer_depth,
               "per-lane input fifo depth in flits (0 = "
               "WORMSIM_BUFFER_DEPTH env or 1)");
  cli.add_flag("flow-control", &flow_control,
               "backpressure scheme: credit, onoff, or vct (default "
               "WORMSIM_FLOW_CONTROL env or credit)");
  cli.add_flag("credit-delay", &credit_delay,
               "credit/signal return delay in cycles (-1 = "
               "WORMSIM_CREDIT_DELAY env or 0)");
  cli.add_flag("fault-fraction", &fault_fraction,
               "kill this fraction of interior channels mid-run "
               "(DESIGN.md §14; -1 = WORMSIM_FAULT_FRACTION env or 0); "
               "dedicated fault figures override it per series");
  cli.add_flag("fault-seed", &fault_seed,
               "fault-plan RNG seed, independent of --seed (-1 = "
               "WORMSIM_FAULT_SEED env or 1)");
  cli.add_flag("fault-at-cycle", &fault_at_cycle,
               "cycle the fault plan lands (-1 = WORMSIM_FAULT_AT_CYCLE "
               "env or 0)");
  cli.add_flag("heartbeat-cycles", &heartbeat_cycles,
               "append an NDJSON heartbeat snapshot every N simulated "
               "cycles (DESIGN.md §15; 0 = WORMSIM_HEARTBEAT env or off); "
               "results stay bitwise identical either way");
  cli.add_flag("heartbeat-dir", &heartbeat_dir,
               "heartbeat stream root; each figure writes "
               "<dir>/<id>/<point>.ndjson + .status.json (default "
               "WORMSIM_HEARTBEAT_DIR env or .); watch live with "
               "telemetry_report --watch <dir>");
  cli.add_flag("profile", &profile,
               "attribute engine wall time to advance/routing/... phase "
               "buckets in the JSON manifest (default WORMSIM_PROFILE "
               "env; diagnostics only)");
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }

  if (list) {
    for (const std::string& id : experiment::figure_ids()) {
      std::cout << id << "\n";
    }
    return 0;
  }

  experiment::RunOptions options = experiment::RunOptions::from_env();
  options.quick = options.quick || quick;
  options.seed = static_cast<std::uint64_t>(seed);
  if (threads > 0) options.threads = static_cast<unsigned>(threads);
  options.implicit_topology = options.implicit_topology || implicit_topology;
  if (!cache_dir.empty()) options.cache_dir = cache_dir;
  if (!json_dir.empty()) options.json_dir = json_dir;
  if (buffer_depth > 0) {
    options.buffer_depth = static_cast<std::uint32_t>(buffer_depth);
  }
  if (!flow_control.empty()) {
    const auto scheme = sim::parse_flow_control(flow_control);
    if (!scheme) {
      std::cerr << "bad --flow-control '" << flow_control
                << "'; expected credit, onoff, or vct\n";
      return 1;
    }
    options.flow_control = *scheme;
  }
  if (credit_delay >= 0) {
    options.credit_delay = static_cast<std::uint32_t>(credit_delay);
  }
  if (fault_fraction >= 0.0) options.fault_fraction = fault_fraction;
  if (fault_seed >= 0) {
    options.fault_seed = static_cast<std::uint64_t>(fault_seed);
  }
  if (fault_at_cycle >= 0) {
    options.fault_at_cycle = static_cast<std::uint64_t>(fault_at_cycle);
  }
  if (heartbeat_cycles > 0) {
    options.heartbeat_cycles = static_cast<std::uint64_t>(heartbeat_cycles);
  }
  if (!heartbeat_dir.empty()) options.heartbeat_dir = heartbeat_dir;
  options.profile = options.profile || profile;

  unsigned shard_index = 0;
  unsigned shard_count = 1;
  if (!shard.empty()) {
    if (!util::parse_shard(shard, &shard_index, &shard_count)) {
      std::cerr << "bad --shard '" << shard << "'; expected i/n with i < n\n";
      return 1;
    }
    if (!all) {
      std::cerr << "--shard only makes sense with --all\n";
      return 1;
    }
  }

  std::vector<std::string> to_run;
  if (all) {
    to_run = shard_count > 1
                 ? experiment::shard_figure_ids(shard_index, shard_count,
                                                options)
                 : experiment::figure_ids();
  } else {
    if (!experiment::figure_exists(figure)) {
      std::cerr << "unknown figure '" << figure << "'; try --list\n";
      return 1;
    }
    to_run.push_back(figure);
  }
  if (!out_dir.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(out_dir, ec);
    if (ec) {
      std::cerr << "cannot create --out-dir '" << out_dir << "'\n";
      return 1;
    }
  }
  // Aggregated run instrumentation, reported on stderr at the end (stdout
  // carries the byte-pinned tables that CI diffs against results/).
  experiment::PoolStats totals;
  experiment::ResultCache::Stats cache_totals;
  bool any_cache = false;
  double wall_total = 0.0;
  for (const std::string& id : to_run) {
    const experiment::FigureResult result =
        experiment::run_figure(id, options);
    totals.computed += result.pool_stats.computed;
    totals.cache_hits += result.pool_stats.cache_hits;
    totals.speculated += result.pool_stats.speculated;
    totals.threads = std::max(totals.threads, result.pool_stats.threads);
    totals.busy_seconds += result.pool_stats.busy_seconds;
    totals.wall_seconds += result.pool_stats.wall_seconds;
    wall_total += result.wall_seconds;
    if (result.cache_used) {
      any_cache = true;
      cache_totals.hits += result.cache_stats.hits;
      cache_totals.misses += result.cache_stats.misses;
      cache_totals.rejected += result.cache_stats.rejected;
      cache_totals.stores += result.cache_stats.stores;
    }
    std::ofstream file;
    if (!out_dir.empty()) {
      const std::string path =
          out_dir + "/" + id + (csv ? ".csv" : ".txt");
      file.open(path, std::ios::trunc);
      if (!file.good()) {
        std::cerr << "cannot write " << path << "\n";
        return 1;
      }
    }
    std::ostream& os = out_dir.empty() ? std::cout : file;
    if (csv) {
      experiment::print_figure_csv(result, os);
    } else {
      experiment::print_figure(result, os);
    }
    if (!out_dir.empty() && !file.good()) {
      std::cerr << "write failed for figure " << id << "\n";
      return 1;
    }
  }
  std::cerr << "run summary: " << to_run.size() << " figure(s) in "
            << std::fixed << std::setprecision(2) << wall_total << "s; "
            << totals.computed << " point(s) simulated, "
            << totals.cache_hits << " from cache, " << totals.speculated
            << " speculated; " << totals.threads << " worker(s), "
            << std::setprecision(0) << totals.utilization() * 100.0
            << "% utilized\n";
  if (any_cache) {
    std::cerr << "cache: " << cache_totals.hits << " hit(s), "
              << cache_totals.misses << " miss(es), "
              << cache_totals.rejected << " rejected, "
              << cache_totals.stores << " store(s)\n";
  }
  return 0;
}
