#include "sim/multicast_replay.hpp"

#include <algorithm>

#include "sim/engine.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

std::uint64_t simulate_makespan(const topology::Network& network,
                                const routing::Router& router,
                                const routing::MulticastSchedule& schedule,
                                std::uint32_t message_flits,
                                std::uint64_t seed) {
  std::uint64_t total = 0;
  for (const auto& round : schedule.rounds) {
    if (round.empty()) continue;
    SimConfig config;
    config.seed = seed;
    config.warmup_cycles = 0;
    config.measure_cycles = 1u << 30;
    config.drain_cycles = 0;
    Engine engine(network, router, nullptr, config);
    std::vector<PacketId> ids;
    ids.reserve(round.size());
    for (const routing::Unicast& uc : round) {
      ids.push_back(engine.inject_message(uc.src, uc.dst, message_flits));
    }
    WORMSIM_CHECK_MSG(engine.run_until_idle(10'000'000),
                      "multicast round did not drain");
    std::uint64_t round_makespan = 0;
    for (PacketId id : ids) {
      round_makespan =
          std::max(round_makespan, engine.packet(id).deliver_cycle() + 1);
    }
    total += round_makespan;
  }
  return total;
}

}  // namespace wormsim::sim
