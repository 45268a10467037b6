// Fault-injection tests for the runtime invariant checkers
// (src/sim/validate.hpp).  Each test builds a healthy simulation, steps it
// until the interesting state exists, corrupts ONE piece of the engine's
// incrementally maintained bookkeeping through the test-peer backdoor, and
// expects the matching checker to abort naming exactly that invariant.
// The corruption happens inside the death-test child process, so the
// parent engine stays intact.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "sim/validate.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {

// Friend of Engine: hands tests references to the private incremental
// state so they can corrupt it, plus the validator to run a sweep on
// demand.
struct EngineTestPeer {
  static std::vector<PacketId>& buf_packet(Engine& e) { return e.buf_packet_; }
  static std::vector<Flit>& buf_flit(Engine& e) { return e.buf_flit_; }
  static std::vector<std::uint64_t>& arrived_epoch(Engine& e) {
    return e.arrived_epoch_;
  }
  static std::vector<topology::LaneId>& route_out(Engine& e) {
    return e.route_out_;
  }
  static std::vector<topology::LaneId>& alloc_owner(Engine& e) {
    return e.alloc_owner_;
  }
  static util::DenseBitset& header_bits(Engine& e) { return e.header_bits_; }
  static std::size_t header_count(const Engine& e) { return e.header_count_; }
  static std::vector<std::uint32_t>& channel_sources(Engine& e) {
    return e.channel_sources_;
  }
  static util::DenseBitset& seed_bits(Engine& e) { return e.seed_bits_; }
  static std::vector<PacketState>& packets(Engine& e) { return e.packets_; }
  static std::vector<std::uint16_t>& node_tx_len(Engine& e) {
    return e.node_tx_len_;
  }
  static std::vector<PacketFifo>& node_queue(Engine& e) {
    return e.node_queue_;
  }
  static std::uint64_t& queued_messages(Engine& e) {
    return e.queued_messages_;
  }
  static std::int64_t& occupied(Engine& e) { return e.occupied_; }
  static std::int64_t& worms_in_flight(Engine& e) {
    return e.worms_in_flight_;
  }
  static std::uint64_t epoch(const Engine& e) { return e.epoch_; }
  static std::uint64_t cycle(const Engine& e) { return e.cycle_; }
  static FlowControlState& fc(Engine& e) { return e.fc_; }
  static util::DenseBitset& channel_faulty(Engine& e) {
    return e.channel_faulty_;
  }
  static bool& fault_any(Engine& e) { return e.fault_state_.applied; }
  static std::vector<topology::LaneId>& switch_input_lanes(Engine& e) {
    return e.switch_input_lanes_;
  }
  static EngineValidator& validator(Engine& e) { return *e.validator_; }
};

// Friend of StoreForwardEngine: same deal for the reference engine.
struct StoreForwardTestPeer {
  static std::int64_t& in_flight(StoreForwardEngine& e) {
    return e.in_flight_;
  }
  static std::int64_t& queued_packets(StoreForwardEngine& e) {
    return e.queued_packets_;
  }
  static std::vector<std::uint64_t>& channel_free_at(StoreForwardEngine& e) {
    return e.channel_free_at_;
  }
  static bool& lane_transmitting(StoreForwardEngine& e, topology::LaneId l) {
    return e.lanes_[l].transmitting;
  }
  static StoreForwardValidator& validator(StoreForwardEngine& e) {
    return *e.validator_;
  }
};

namespace {

using topology::kInvalidId;
using topology::LaneId;
using topology::Network;
using topology::NetworkConfig;
using topology::NetworkKind;

NetworkConfig net_config(NetworkKind kind, const std::string& topo,
                         unsigned k, unsigned n) {
  NetworkConfig config;
  config.kind = kind;
  config.topology = topo;
  config.radix = k;
  config.stages = n;
  config.dilation = 1;
  config.vcs = 1;
  return config;
}

SimConfig validating_config() {
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 0;
  config.measure_cycles = 1'000'000;
  config.drain_cycles = 0;
  config.validate = true;
  return config;
}

/// A TMIN with one 8-flit worm stepped until it holds buffers and at
/// least one route, the state most corruptions need.
class EngineCorruption : public ::testing::Test {
 protected:
  EngineCorruption()
      : net_(topology::build_network(
            net_config(NetworkKind::kTMIN, "cube", 2, 3))),
        router_(routing::make_router(net_)),
        engine_(net_, *router_, nullptr, validating_config()) {
    pid_ = engine_.inject_message(0, 7, 8);
  }

  /// Steps until `pred()` holds (at most `limit` cycles); the worm is
  /// still in flight afterwards because it is much shorter than the path
  /// budget used by the predicates below.
  template <typename Pred>
  void step_until(Pred pred, int limit = 50) {
    for (int i = 0; i < limit && !pred(); ++i) engine_.step();
    ASSERT_TRUE(pred()) << "engine never reached the wanted state";
  }

  /// First switch-input lane buffering a flit (kInvalidId when none).
  LaneId buffered_lane() {
    const auto& buf = EngineTestPeer::buf_packet(engine_);
    for (LaneId lane = 0; lane < buf.size(); ++lane) {
      if (buf[lane] != kNoPacket) return lane;
    }
    return kInvalidId;
  }

  /// First input lane holding a granted route (kInvalidId when none).
  LaneId routed_lane() {
    const auto& route = EngineTestPeer::route_out(engine_);
    for (LaneId lane = 0; lane < route.size(); ++lane) {
      if (route[lane] != kInvalidId) return lane;
    }
    return kInvalidId;
  }

  static constexpr std::size_t kNoPos = static_cast<std::size_t>(-1);

  /// Position in switch_input_lanes_ of the first unrouted header
  /// (kNoPos when none).
  std::size_t header_pos() {
    const auto& bits = EngineTestPeer::header_bits(engine_);
    const auto& lanes = EngineTestPeer::switch_input_lanes(engine_);
    for (std::size_t pos = 0; pos < lanes.size(); ++pos) {
      if (bits.test(pos)) return pos;
    }
    return kNoPos;
  }

  Network net_;
  std::unique_ptr<routing::Router> router_;
  Engine engine_;
  PacketId pid_ = kNoPacket;
};

TEST_F(EngineCorruption, LeakedFlitTripsFlitConservation) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        ++EngineTestPeer::occupied(engine_);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'flit-conservation'.*occupancy counter");
}

TEST_F(EngineCorruption, WormCounterTripsWormConservation) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        --EngineTestPeer::worms_in_flight(engine_);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'worm-conservation'.*counter says");
}

TEST_F(EngineCorruption, SeqBeyondLengthTripsWormContiguity) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        const LaneId lane = buffered_lane();
        Flit& flit = EngineTestPeer::buf_flit(engine_)[lane];
        flit = Flit(1'000, flit.is_tail());
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'worm-contiguity'.*beyond packet");
}

TEST_F(EngineCorruption, FlippedTailFlagTripsFlitTail) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        Flit& flit = EngineTestPeer::buf_flit(engine_)[buffered_lane()];
        flit = Flit(flit.seq(), !flit.is_tail());
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'flit-tail'.*the tail flag, but the packet has");
}

TEST_F(EngineCorruption, NodeLengthDriftTripsFlitTail) {
  step_until([&] { return engine_.flits_in_flight() > 0; });
  EXPECT_DEATH(
      {
        // Node 0 is still streaming its message.
        ++EngineTestPeer::node_tx_len(engine_)[0];
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'flit-tail'.*node 0 records");
}

TEST_F(EngineCorruption, LinkCycleTripsSourceQueue) {
  // Three more messages behind the transmitting one wait in node 0's
  // source FIFO.
  for (int i = 0; i < 3; ++i) engine_.inject_message(0, 5, 4);
  step_until([&] { return engine_.source_queue_length(0) == 3; });
  EXPECT_DEATH(
      {
        // Link the tail back to the head: the walk never meets a null
        // link after `count` packets.
        PacketFifo& queue = EngineTestPeer::node_queue(engine_)[0];
        EngineTestPeer::packets(engine_)[queue.tail].queue_next = queue.head;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'source-queue'.*links on to");
}

TEST_F(EngineCorruption, ForeignPacketTripsSourceQueue) {
  for (int i = 0; i < 2; ++i) engine_.inject_message(0, 5, 4);
  engine_.inject_message(3, 6, 4);
  step_until([&] { return engine_.source_queue_length(0) == 2; });
  EXPECT_DEATH(
      {
        // Splice node 3's packet into node 0's list (count kept in step).
        auto& queues = EngineTestPeer::node_queue(engine_);
        auto& packets = EngineTestPeer::packets(engine_);
        const PacketId foreign = static_cast<PacketId>(packets.size() - 1);
        packets[queues[0].tail].queue_next = foreign;
        packets[foreign].queue_next = kNoPacket;
        queues[0].tail = foreign;
        ++queues[0].count;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'source-queue'.*another node's");
}

TEST_F(EngineCorruption, QueuedCounterTripsSourceQueue) {
  engine_.inject_message(0, 5, 4);
  step_until([&] { return engine_.source_queue_length(0) == 1; });
  EXPECT_DEATH(
      {
        ++EngineTestPeer::queued_messages(engine_);
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'source-queue'.*counter says");
}

TEST_F(EngineCorruption, StaleEpochStampCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        const LaneId lane = buffered_lane();
        EngineTestPeer::arrived_epoch(engine_)[lane] =
            EngineTestPeer::epoch(engine_) + 7;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'stale-epoch-stamp'.*ahead of the engine epoch");
}

TEST_F(EngineCorruption, DoubleGrantedOutputCaught) {
  step_until([&] { return routed_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Point a second, idle input unit at an output some other input
        // already owns — the bug class route_and_allocate must never
        // produce.
        auto& route = EngineTestPeer::route_out(engine_);
        const LaneId in = routed_lane();
        for (LaneId other = 0; other < route.size(); ++other) {
          if (other != in && route[other] == kInvalidId) {
            route[other] = route[in];
            break;
          }
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'lane-exclusivity'.*double-granted output");
}

TEST_F(EngineCorruption, WrongOutputPortTripsRoutingLegality) {
  // Wait for a route whose output is a forward channel (not the final
  // ejection hop) so the sibling right-side port exists and is simply the
  // wrong destination-tag digit.
  const auto forward_routed = [&]() -> LaneId {
    const auto& route = EngineTestPeer::route_out(engine_);
    const auto& buf = EngineTestPeer::buf_packet(engine_);
    for (LaneId in = 0; in < route.size(); ++in) {
      if (route[in] == kInvalidId || buf[in] == kNoPacket) continue;
      if (net_.lane_channel(route[in]).role ==
          topology::ChannelRole::kForward) {
        return in;
      }
    }
    return kInvalidId;
  };
  step_until([&] { return forward_routed() != kInvalidId; });
  EXPECT_DEATH(
      {
        auto& route = EngineTestPeer::route_out(engine_);
        auto& owner = EngineTestPeer::alloc_owner(engine_);
        const LaneId in = forward_routed();
        const LaneId good = route[in];
        const auto& good_ch = net_.lane_channel(good);
        // Rewire the grant (consistently, so lane-exclusivity stays
        // happy) onto the same switch's OTHER right-side port.
        for (LaneId bad = 0; bad < route.size(); ++bad) {
          const auto& ch = net_.lane_channel(bad);
          if (!ch.src.is_switch() || ch.src.id != good_ch.src.id) continue;
          if (ch.src.port == good_ch.src.port) continue;
          if (owner[bad] != kInvalidId) continue;
          owner[good] = kInvalidId;
          route[in] = bad;
          owner[bad] = in;
          break;
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'routing-legality'.*destination-tag digit");
}

TEST_F(EngineCorruption, MissingHeaderEntryCaught) {
  step_until([&] { return EngineTestPeer::header_count(engine_) > 0; });
  EXPECT_DEATH(
      {
        // Drop one set bit from the header bitmap: the engine would never
        // arbitrate that header again.
        auto& bits = EngineTestPeer::header_bits(engine_);
        for (std::size_t pos = 0; pos < bits.size(); ++pos) {
          if (bits.test(pos)) {
            bits.clear(pos);
            break;
          }
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'header-set'.*missing from header_lanes_");
}

TEST_F(EngineCorruption, ChannelSourceCounterCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        ++EngineTestPeer::channel_sources(engine_)[0];
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'channel-sources'.*counter says");
}

TEST_F(EngineCorruption, DroppedSeedBitCaught) {
  // Wait until an ejection channel is allocated with a flit waiting:
  // that channel can certainly transmit next cycle (an ejecting lane
  // needs no downstream credit), so it must carry a seed bit.
  const auto ready_ejection = [&]() -> topology::ChannelId {
    const auto& route = EngineTestPeer::route_out(engine_);
    const auto& buf = EngineTestPeer::buf_packet(engine_);
    for (LaneId in = 0; in < route.size(); ++in) {
      if (route[in] == kInvalidId || buf[in] == kNoPacket) continue;
      const auto& ch = net_.lane_channel(route[in]);
      if (ch.dst.is_node()) return ch.id;
    }
    return kInvalidId;
  };
  step_until([&] { return ready_ejection() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Clear the scheduled channel's seed bit: the engine would
        // silently skip its move next epoch.
        EngineTestPeer::seed_bits(engine_).clear(ready_ejection());
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'event-frontier'.*not scheduled");
}

TEST(BminCorruption, SkippedTurnTripsRoutingLegality) {
  // A 2-flit worm crossing a BMIN: once the tail has left the injection
  // lane and the header has not yet turned, every live route enters on a
  // forward channel.  Zeroing the packet's recorded turn stage then makes
  // each of them a worm sailing past its turnaround — the "skipped turn"
  // bug class.
  const Network net = topology::build_network(
      net_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  Engine engine(net, *router, nullptr, validating_config());
  const PacketId pid = engine.inject_message(0, 7, 2);
  const auto routes_all_forward = [&] {
    const auto& route = EngineTestPeer::route_out(engine);
    bool any = false;
    for (LaneId in = 0; in < route.size(); ++in) {
      if (route[in] == kInvalidId) continue;
      if (net.lane_channel(in).role != topology::ChannelRole::kForward) {
        return false;
      }
      any = true;
    }
    return any;
  };
  for (int i = 0; i < 50 && !routes_all_forward(); ++i) engine.step();
  ASSERT_TRUE(routes_all_forward());
  EXPECT_DEATH(
      {
        EngineTestPeer::packets(engine)[pid].turn_stage = 0;
        EngineTestPeer::validator(engine).check_cycle_end();
      },
      "invariant 'routing-legality'.*skipped turn");
}

// ---- Flow-control corruptions ---------------------------------------------

TEST_F(EngineCorruption, LeakedCreditTripsCreditConservation) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        const LaneId lane = buffered_lane();
        ++EngineTestPeer::fc(engine_).credits[lane];
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'credit-conservation'.*!= depth");
}

TEST_F(EngineCorruption, OccupancyCounterTripsBufferBound) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Zero the fifo count under a lane whose head slot holds a flit —
        // the books now claim an empty buffer that demonstrably is not.
        const LaneId lane = buffered_lane();
        EngineTestPeer::fc(engine_).count[lane] = 0;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'buffer-occupancy'.*disagrees with the head slot");
}

TEST_F(EngineCorruption, OverdueCreditEventCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  ASSERT_GT(EngineTestPeer::cycle(engine_), 0u);
  EXPECT_DEATH(
      {
        // A credit whose due cycle already passed should have been
        // drained at the top of step(); finding one means the calendar
        // stopped advancing.
        EngineTestPeer::fc(engine_).events.push_back({0, 0, false});
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'credit-conservation'.*already overdue");
}

TEST_F(EngineCorruption, PhantomStarvationIntervalCaught) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Open a starvation interval on a lane that can plainly accept a
        // flit — the accounting would charge cycles nobody starved for.
        auto& fc = EngineTestPeer::fc(engine_);
        for (LaneId lane = 0; lane < fc.count.size(); ++lane) {
          if (fc.can_accept(lane)) {
            fc.starve_since[lane] = 0;
            break;
          }
        }
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'starvation-accounting'.*can accept a flit");
}

TEST_F(EngineCorruption, FlitsOnDeadChannelTripFaultQuiescence) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Declare the channel under the worm's buffered flit dead without
        // draining it — leaked kill state the quiescence sweep must catch.
        const LaneId lane = buffered_lane();
        EngineTestPeer::channel_faulty(engine_).set(net_.lane(lane).channel);
        EngineTestPeer::fault_any(engine_) = true;
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'fault-quiescence'.*still buffers");
}

TEST_F(EngineCorruption, TerminatedButBufferedTripsFaultTermination) {
  step_until([&] { return buffered_lane() != kInvalidId; });
  EXPECT_DEATH(
      {
        // Stamp the in-flight worm terminated while its flits stay
        // buffered — a kill that forgot the truncate-and-drain half.
        EngineTestPeer::packets(engine_)[pid_].mark_terminated(
            EngineTestPeer::cycle(engine_));
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'fault-termination'.*still buffered");
}

TEST_F(EngineCorruption, StarvedHeaderTripsFaultRoutability) {
  step_until([&] { return header_pos() != kNoPos; });
  EXPECT_DEATH(
      {
        // Kill every legal candidate ahead of an unrouted header but leave
        // the header parked.  The first sweep only flags the starved
        // (lane, packet) pair; the second must fail — serve() is required
        // to terminate fault-starved worms, never stall them.
        const std::size_t pos = header_pos();
        const LaneId lane = EngineTestPeer::switch_input_lanes(engine_)[pos];
        const PacketState& pkt = EngineTestPeer::packets(
            engine_)[EngineTestPeer::buf_packet(engine_)[lane]];
        routing::RouteQuery query;
        query.src = pkt.src;
        query.dst = pkt.dst;
        query.turn_stage = pkt.turn_stage;
        routing::CandidateList candidates;
        router_->candidates(query, lane, candidates);
        for (const LaneId c : candidates) {
          EngineTestPeer::channel_faulty(engine_).set(net_.lane(c).channel);
        }
        EngineTestPeer::fault_any(engine_) = true;
        EngineTestPeer::validator(engine_).check_cycle_end();
        EngineTestPeer::validator(engine_).check_cycle_end();
      },
      "invariant 'fault-routability'.*two sweeps");
}

TEST(OnOffCorruption, StuckStopBitTripsLiveness) {
  const Network net = topology::build_network(
      net_config(NetworkKind::kTMIN, "cube", 2, 3));
  const auto router = routing::make_router(net);
  SimConfig config;
  config.seed = 7;
  config.warmup_cycles = 0;
  config.measure_cycles = 1'000'000;
  config.drain_cycles = 0;
  config.validate = true;
  config.buffer_depth = 8;
  config.flow_control = FlowControlScheme::kOnOff;
  config.credit_delay = 2;
  Engine engine(net, *router, nullptr, config);
  engine.inject_message(0, 7, 8);
  for (int i = 0; i < 4; ++i) engine.step();
  EXPECT_DEATH(
      {
        // Stop an empty lane with no GO in flight: the sender would wait
        // forever on a resume signal nobody owes it.
        EngineTestPeer::fc(engine).stopped[0] = 1;
        EngineTestPeer::validator(engine).check_cycle_end();
      },
      "invariant 'onoff-liveness'.*no GO in flight");
}

// ---- Store-and-forward corruptions ----------------------------------------

StoreForwardConfig sf_validating_config() {
  StoreForwardConfig config;
  config.seed = 11;
  config.warmup_cycles = 0;
  config.measure_cycles = 1u << 20;
  config.drain_cycles = 0;
  config.validate = true;
  return config;
}

class StoreForwardCorruption : public ::testing::Test {
 protected:
  StoreForwardCorruption()
      : net_(topology::build_network(
            net_config(NetworkKind::kTMIN, "cube", 2, 3))),
        router_(routing::make_router(net_)),
        engine_(net_, *router_, nullptr, sf_validating_config()) {
    // Queues the packet and starts its first transfer immediately.
    engine_.inject_message(0, 7, 4);
  }

  Network net_;
  std::unique_ptr<routing::Router> router_;
  StoreForwardEngine engine_;
};

TEST_F(StoreForwardCorruption, QueueCounterCaught) {
  EXPECT_DEATH(
      {
        ++StoreForwardTestPeer::queued_packets(engine_);
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-conservation'.*counter says");
}

TEST_F(StoreForwardCorruption, InFlightCounterCaught) {
  EXPECT_DEATH(
      {
        ++StoreForwardTestPeer::in_flight(engine_);
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-transfer-accounting'.*transfers active");
}

TEST_F(StoreForwardCorruption, PhantomBusyChannelCaught) {
  EXPECT_DEATH(
      {
        // Mark an unused channel busy far into the future with no
        // transfer to back it up.
        const topology::ChannelId idle = net_.injection_channel(1);
        StoreForwardTestPeer::channel_free_at(engine_)[idle] =
            engine_.now() + 100;
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-channel-accounting'.*marked busy");
}

TEST_F(StoreForwardCorruption, PhantomTransmitFlagCaught) {
  EXPECT_DEATH(
      {
        StoreForwardTestPeer::lane_transmitting(engine_, 0) = true;
        StoreForwardTestPeer::validator(engine_).check_event_end();
      },
      "invariant 'sf-transfer-accounting'.*transmit flag");
}

// The validator must be a pure observer: the same run with and without it
// produces bit-identical results (the golden-digest guarantee).
// Regression: at buffer depth > 1 a held route's output FIFO can still
// hold the previous worm's tail flits after the input FIFO drained, so
// the routing-legality sweep must judge the route by the worm holding it
// (the youngest flit there), not by the FIFO head.  This BMIN cut-through
// run used to abort with a false 'routing-legality' violation at cycle
// 2583 (a forward-phase worm seemingly leaving through a left-side port).
TEST(Validation, DeepFifoRouteJudgedByItsHolder) {
  NetworkConfig config = net_config(NetworkKind::kBMIN, "cube", 2, 3);
  config.dilation = 2;
  config.vcs = 2;
  const Network net = topology::build_network(config);
  const auto router = routing::make_router(net);
  traffic::WorkloadSpec workload;
  workload.offered = 0.45;
  workload.length = traffic::LengthSpec::uniform(4, 64);
  traffic::StandardTraffic traffic(net, workload);
  SimConfig sim;
  sim.seed = 7;
  sim.warmup_cycles = 500;
  sim.measure_cycles = 2'500;
  sim.drain_cycles = 0;
  sim.flow_control = FlowControlScheme::kVirtualCutThrough;
  sim.buffer_depth = 64;
  sim.credit_delay = 2;
  sim.validate = true;
  Engine engine(net, *router, &traffic, sim);
  const SimResult result = engine.run();
  EXPECT_GT(result.delivered_messages_total, 0u);
  EXPECT_GT(EngineTestPeer::validator(engine).sweeps_run(), 600u);
}

TEST(Validation, ValidatedRunMatchesUnvalidatedRun) {
  const Network net = topology::build_network(
      net_config(NetworkKind::kBMIN, "butterfly", 2, 3));
  const auto router = routing::make_router(net);
  SimConfig plain = validating_config();
  plain.validate = false;
  SimConfig checked = validating_config();

  Engine a(net, *router, nullptr, plain);
  Engine b(net, *router, nullptr, checked);
  for (Engine* e : {&a, &b}) {
    e->inject_message(0, 7, 16);
    e->inject_message(3, 4, 16);
    e->inject_message(5, 2, 16);
    EXPECT_TRUE(e->run_until_idle(10'000));
  }
  ASSERT_EQ(a.packet_count(), b.packet_count());
  for (PacketId id = 0; id < a.packet_count(); ++id) {
    EXPECT_EQ(a.packet(id).deliver_cycle(), b.packet(id).deliver_cycle());
  }
  EXPECT_GT(EngineTestPeer::validator(b).sweeps_run(), 0u);
}

}  // namespace
}  // namespace wormsim::sim
