#include "telemetry/counters.hpp"

#include <numeric>

namespace wormsim::telemetry {

namespace {
std::uint64_t sum(const std::vector<std::uint64_t>& v) {
  return std::accumulate(v.begin(), v.end(), std::uint64_t{0});
}
}  // namespace

std::uint64_t Counters::total_flit_crossings() const { return sum(lane_flits); }
std::uint64_t Counters::total_blocked_cycles() const { return sum(lane_blocked); }
std::uint64_t Counters::total_grants() const { return sum(switch_grants); }
std::uint64_t Counters::total_denials() const { return sum(switch_denials); }
std::uint64_t Counters::total_credit_starved_cycles() const {
  return sum(lane_credit_starved);
}
std::uint64_t Counters::total_fault_terminated_flits() const {
  return sum(lane_fault_terminated);
}

std::uint64_t Counters::channel_flits(const topology::Network& network,
                                      topology::ChannelId channel) const {
  const topology::PhysChannel& ch = network.channel(channel);
  std::uint64_t flits = 0;
  for (unsigned v = 0; v < ch.num_lanes; ++v) {
    flits += lane_flits.at(ch.first_lane + v);
  }
  return flits;
}

CounterSink::CounterSink(Counters& out, const topology::NetView& network,
                         std::uint64_t window_begin,
                         std::uint64_t window_cycles)
    : EngineObserver(EngineEvent::bit(EngineEvent::Kind::kFlitMoved) |
                     EngineEvent::bit(EngineEvent::Kind::kRouted) |
                     EngineEvent::bit(EngineEvent::Kind::kBlocked) |
                     EngineEvent::bit(EngineEvent::Kind::kCreditStarved) |
                     EngineEvent::bit(EngineEvent::Kind::kDiscarded)),
      out_(out),
      window_begin_(window_begin),
      window_cycles_(window_cycles) {
  out_.resize_for(network.lane_count(), network.switch_count());
  lane_switch_.assign(network.lane_count(), 0);
  network.for_each_channel([&](const topology::PhysChannel& ch) {
    if (!ch.dst.is_switch()) return;
    for (unsigned v = 0; v < ch.num_lanes; ++v) {
      lane_switch_[ch.first_lane + v] = static_cast<std::uint32_t>(ch.dst.id);
    }
  });
}

void CounterSink::on_event(const EngineEvent& e) {
  if (e.cycle - window_begin_ >= window_cycles_) return;  // wraps below
  using Kind = EngineEvent::Kind;
  switch (e.kind) {
    case Kind::kFlitMoved:
      ++out_.lane_flits[e.lane];
      break;
    case Kind::kRouted:
      ++out_.switch_grants[lane_switch_[e.from]];
      break;
    case Kind::kBlocked:
      ++out_.lane_blocked[e.from];
      ++out_.switch_denials[lane_switch_[e.from]];
      if (e.flag) ++out_.lane_credit_starved[e.lane];
      break;
    case Kind::kCreditStarved:
      out_.lane_credit_starved[e.lane] += e.count;
      break;
    case Kind::kDiscarded:
      out_.lane_fault_terminated[e.lane] += e.count;
      break;
    default:
      break;
  }
}

}  // namespace wormsim::telemetry
