// Tests for the flit-level trace subsystem, including the cross-check
// that dynamic routes always match a statically enumerated path.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/path_enum.hpp"
#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "topology/network.hpp"
#include "util/rng.hpp"

namespace wormsim::sim {
namespace {

using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig make_config(NetworkKind kind) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = "cube";
  config.radix = 2;
  config.stages = 3;
  config.dilation = kind == NetworkKind::kDMIN ? 2 : 1;
  config.vcs = kind == NetworkKind::kVMIN ? 2 : 1;
  return config;
}

SimConfig manual_config() {
  SimConfig config;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 30;
  config.drain_cycles = 0;
  return config;
}

TEST(Trace, EventsCoverTheFullLifecycle) {
  const Network net = topology::build_network(make_config(NetworkKind::kTMIN));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  RecordingTraceSink sink;
  engine.set_observer(&sink);
  const PacketId id = engine.inject_message(0, 7, 5);
  ASSERT_TRUE(engine.run_until_idle(1'000));

  const auto events = sink.packet_events(id);
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().kind, TraceEvent::Kind::kCreated);
  EXPECT_EQ(events.back().kind, TraceEvent::Kind::kDelivered);
  // 5 flits x 4 channels = 20 flit moves; 3 routing grants (one per
  // switch hop; injection is not routed).
  unsigned moves = 0, routes = 0;
  for (const TraceEvent& event : events) {
    if (event.kind == TraceEvent::Kind::kFlitMoved) ++moves;
    if (event.kind == TraceEvent::Kind::kRouted) ++routes;
  }
  EXPECT_EQ(moves, 20u);
  EXPECT_EQ(routes, 3u);
  // Cycles never decrease.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].cycle, events[i - 1].cycle);
  }
}

TEST(Trace, RouteMatchesAStaticPath) {
  for (NetworkKind kind : {NetworkKind::kTMIN, NetworkKind::kDMIN,
                           NetworkKind::kBMIN}) {
    const Network net = topology::build_network(make_config(kind));
    const auto router = routing::make_router(net);
    util::Rng rng(42);
    for (int trial = 0; trial < 10; ++trial) {
      const auto src = static_cast<topology::NodeId>(rng.below(8));
      std::uint64_t dst = rng.below(8);
      while (dst == src) dst = rng.below(8);

      Engine engine(net, *router, nullptr, manual_config());
      RecordingTraceSink sink;
      engine.set_observer(&sink);
      const PacketId id = engine.inject_message(src, dst, 8);
      ASSERT_TRUE(engine.run_until_idle(1'000));

      const auto route = sink.route_of(id, net);
      const auto paths = analysis::enumerate_paths(net, *router, src, dst);
      const bool matches = std::any_of(
          paths.begin(), paths.end(),
          [&route](const analysis::Path& p) { return p.channels == route; });
      EXPECT_TRUE(matches) << topology::to_string(kind) << " " << src
                           << "->" << dst;
    }
  }
}

TEST(Trace, BodyFlitsFollowTheHeaderRoute) {
  const Network net = topology::build_network(make_config(NetworkKind::kDMIN));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  RecordingTraceSink sink;
  engine.set_observer(&sink);
  const PacketId id = engine.inject_message(1, 6, 12);
  ASSERT_TRUE(engine.run_until_idle(1'000));
  // Every flit's lane sequence equals the header's lane sequence.
  std::vector<std::vector<topology::LaneId>> per_flit(12);
  for (const TraceEvent& event : sink.packet_events(id)) {
    if (event.kind == TraceEvent::Kind::kFlitMoved) {
      per_flit[event.flit_seq].push_back(event.lane);
    }
  }
  for (std::uint32_t seq = 1; seq < 12; ++seq) {
    EXPECT_EQ(per_flit[seq], per_flit[0]) << "flit " << seq;
  }
}

TEST(Trace, DetachingStopsEvents) {
  const Network net = topology::build_network(make_config(NetworkKind::kTMIN));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, manual_config());
  RecordingTraceSink sink;
  engine.set_observer(&sink);
  engine.inject_message(0, 3, 2);
  engine.set_observer(nullptr);
  ASSERT_TRUE(engine.run_until_idle(1'000));
  // Only the creation event was observed.
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_EQ(sink.events()[0].kind, TraceEvent::Kind::kCreated);
}

}  // namespace
}  // namespace wormsim::sim
