// Quickstart: build each of the paper's four 64-node networks, drive them
// with global uniform traffic at one offered load, and print the headline
// metrics.  This is the five-minute tour of the public API:
//
//   NetworkConfig -> build_network -> make_router -> StandardTraffic
//                 -> Engine::run -> SimResult
//
// Usage:  quickstart [--load=0.4] [--seed=1] [--cycles=100000]
//                    [--buffer-depth=4] [--flow-control=credit]
//                    [--credit-delay=2] [--implicit-topology]

#include <iostream>
#include <memory>

#include "experiment/figures.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/implicit.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

int main(int argc, char** argv) {
  using namespace wormsim;

  double load = 0.4;
  std::int64_t seed = 1;
  std::int64_t cycles = 100'000;
  std::int64_t buffer_depth = 1;
  std::string flow_control = "credit";
  std::int64_t credit_delay = 0;
  bool implicit_topology = false;
  util::CliParser cli(
      "quickstart: simulate the paper's four wormhole MINs at one load");
  cli.add_flag("load", &load, "offered load as a fraction of capacity");
  cli.add_flag("seed", &seed, "random seed");
  cli.add_flag("cycles", &cycles, "measurement window in cycles");
  cli.add_flag("buffer-depth", &buffer_depth,
               "per-lane input fifo depth in flits");
  cli.add_flag("flow-control", &flow_control,
               "backpressure scheme: credit, onoff, or vct");
  cli.add_flag("credit-delay", &credit_delay,
               "credit/signal return delay in cycles");
  cli.add_flag("implicit-topology", &implicit_topology,
               "compute topology records on the fly instead of "
               "materializing the graph; results are identical");
  switch (cli.parse(argc, argv)) {
    case util::CliParser::Status::kHelp: return 0;
    case util::CliParser::Status::kError: return 1;
    case util::CliParser::Status::kOk: break;
  }
  const auto scheme = sim::parse_flow_control(flow_control);
  if (!scheme || buffer_depth < 1 || credit_delay < 0) {
    std::cerr << "bad flow-control knobs; expected --flow-control=credit|"
                 "onoff|vct, --buffer-depth>=1, --credit-delay>=0\n";
    return 1;
  }

  const std::vector<topology::NetworkConfig> configs = {
      experiment::tmin_config(),
      experiment::dmin_config(),
      experiment::vmin_config(),
      experiment::bmin_config(),
  };

  std::cout << "64-node MINs of 4x4 switches, global uniform traffic, "
            << "offered load " << load * 100 << "%\n"
            << "message lengths uniform in [8, 1024] flits; "
            << "channel bandwidth 20 flits/us\n\n";

  util::Table table({"network", "accepted%", "latency_us", "net_lat_us",
                     "sustainable", "max_queue"});
  for (const topology::NetworkConfig& config : configs) {
    const bool implicit =
        implicit_topology && topology::ImplicitTopology::supports(config);
    std::unique_ptr<const topology::Network> materialized;
    topology::ImplicitTopologyPtr implicit_topo;
    if (implicit) {
      implicit_topo =
          std::make_shared<const topology::ImplicitTopology>(config);
    } else {
      materialized = std::make_unique<const topology::Network>(
          topology::build_network(config));
    }
    const topology::NetView network =
        implicit ? topology::NetView(implicit_topo)
                 : topology::NetView(*materialized);
    const auto router = routing::make_router(network);

    traffic::WorkloadSpec workload;
    workload.pattern = traffic::WorkloadSpec::Pattern::kUniform;
    workload.offered = load;
    traffic::StandardTraffic traffic(network, workload);

    sim::SimConfig sim_config;
    sim_config.seed = static_cast<std::uint64_t>(seed);
    sim_config.warmup_cycles = static_cast<std::uint64_t>(cycles) / 4;
    sim_config.measure_cycles = static_cast<std::uint64_t>(cycles);
    sim_config.drain_cycles = static_cast<std::uint64_t>(cycles) / 4;
    sim_config.buffer_depth = static_cast<std::uint32_t>(buffer_depth);
    sim_config.flow_control = *scheme;
    sim_config.credit_delay = static_cast<std::uint32_t>(credit_delay);
    sim_config.implicit_topology = implicit_topology;

    sim::Engine engine(network, *router, &traffic, sim_config);
    const sim::SimResult result = engine.run();

    table.row()
        .cell(config.describe())
        .cell(result.throughput_fraction() * 100.0, 1)
        .cell(result.mean_latency_us(), 1)
        .cell(result.mean_network_latency_us(), 1)
        .cell(std::string(result.sustainable() ? "yes" : "no"))
        .cell(result.max_source_queue);
  }
  table.print(std::cout);
  return 0;
}
