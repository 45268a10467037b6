// Order-sensitive engine state the golden digests leave out.
//
// tests/golden_test.cpp pins SimResult: latency statistics, histograms,
// channel busy cycles and the lane/switch counters.  Several pieces of
// engine state depend on the exact order in which the advance phase
// applies moves within one cycle and are invisible there:
//
//   * the credit-starvation clocks (FlowControlState::starve_since) and
//     the lane_credit_starved counters they feed;
//   * the per-worm tracer's stall intervals and starvation totals;
//   * the flow-control event calendar — the credit returns and on/off
//     STOP/GO signals in flight, in calendar order;
//   * the buffer occupancy, credits, stop bits and virtual-channel
//     round-robin pointers.
//
// Each configuration below exercises one way a cycle's moves can
// interact: multi-lane round-robin (VMIN 2 and 4 VCs, DMIN, an extra
// stage), deep buffers with instant and delayed credits, on/off with
// STOP and GO for one lane in the same cycle, virtual cut-through, and a
// mid-run fault kill and repair.  Three more run short worms (1-3
// flits), where a 1-flit message's header is also its tail, so a grant
// and a release happen on the same flit: deep credit FIFOs holding
// several worms, virtual cut-through, and a kill that compacts FIFOs
// whose surviving flits must keep their tail flags.  One more runs a
// 256-node net of 1280 two-lane channels under virtual cut-through with
// worms of up to 64 flits.  Every configuration runs on both topology
// backends and must match the committed digest, which snapshots all of
// the state above every kSnapshotEvery cycles and at the end.
//
// A second digest pins the source side: every packet's lifecycle record
// (endpoints, length, creation/injection/delivery/termination cycles,
// measured flag), the per-node source-queue lengths at every snapshot,
// and the drop / generation counters.  The source-side configurations
// stress it: a light load whose arrival gaps run to thousands of
// cycles, a small queue capacity that drops messages, bimodal lengths,
// and one store-and-forward run (its source queues and packet records
// share the wormhole engine's types).
//
// Regenerating (only legitimate after an *intentional* semantic change):
//   WORMSIM_EMIT_ADVANCE_ORDER=1 ./tests/advance_order_test
//       --gtest_filter='AdvanceOrder.Emit'      (one command line)
// and paste the printed rows into kExpected.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "routing/router.hpp"
#include "sim/engine.hpp"
#include "sim/store_forward.hpp"
#include "sim/trace.hpp"
#include "telemetry/worm_trace.hpp"
#include "topology/implicit.hpp"
#include "topology/net_view.hpp"
#include "topology/network.hpp"
#include "traffic/workload.hpp"

namespace wormsim::sim {
namespace {

struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;

  void byte(std::uint8_t b) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (i * 8)));
  }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void stats(const util::OnlineStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
  }
  void all(const std::vector<std::uint64_t>& values) {
    u64(values.size());
    for (const std::uint64_t v : values) u64(v);
  }
};

/// Word-at-a-time mixer with Fnv's interface, for the per-cycle state
/// comparison (hashes far more data than the committed table).
struct WordMix {
  std::uint64_t h = 1469598103934665603ULL;

  void u64(std::uint64_t v) {
    h = (h ^ v) * 1099511628211ULL;
    h ^= h >> 31;
  }
  void byte(std::uint8_t b) { u64(b); }
  void f64(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    u64(bits);
  }
  void stats(const util::OnlineStats& s) {
    u64(s.count());
    f64(s.mean());
    f64(s.variance());
  }
  void all(const std::vector<std::uint64_t>& values) {
    u64(values.size());
    for (const std::uint64_t v : values) u64(v);
  }
};

}  // namespace

/// Private engine state the public introspection does not expose.
struct EngineTestPeer {
  static const std::vector<std::uint8_t>& vc_rr(const Engine& e) {
    return e.vc_rr_;
  }
  /// Forces the reference ascending fixpoint on a feed-forward network.
  static void use_fixpoint(Engine& e) { e.consumer_first_ = false; }
  static bool consumer_first(const Engine& e) { return e.consumer_first_; }
  /// Every piece of mutable engine state a cycle can change, hashed per
  /// component so a divergence names what diverged.
  static std::vector<std::pair<const char*, std::uint64_t>> state_digest(
      const Engine& e) {
    std::vector<std::pair<const char*, std::uint64_t>> parts;
    WordMix f;
    const auto part = [&parts, &f](const char* name) {
      parts.push_back({name, f.h});
      f = WordMix{};
    };
    f.u64(static_cast<std::uint64_t>(e.occupied_));
    f.u64(static_cast<std::uint64_t>(e.worms_in_flight_));
    f.u64(e.delivered_flits_total_);
    f.u64(e.transmitting_nodes_);
    f.u64(e.queued_messages_);
    f.u64(e.last_move_cycle_);
    part("counters");
    util::Rng rng = e.rng_;
    f.u64(rng());
    part("rng");
    for (std::size_t lane = 0; lane < e.buf_packet_.size(); ++lane) {
      f.u64(e.buf_packet_[lane]);
      f.u64(e.buf_flit_[lane].seq());
      f.byte(e.buf_flit_[lane].is_tail() ? 1 : 0);
      f.u64(e.arrived_epoch_[lane]);
    }
    const FlowControlState& fc = e.fc_;
    for (std::size_t i = 0; i < fc.ext_packet.size(); ++i) {
      f.u64(fc.ext_packet[i]);
      f.u64(fc.ext_flit[i].seq());
      f.byte(fc.ext_flit[i].is_tail() ? 1 : 0);
      f.u64(fc.ext_epoch[i]);
    }
    part("buffers");
    for (std::size_t lane = 0; lane < e.buf_packet_.size(); ++lane) {
      f.u64(e.route_out_[lane]);
      f.u64(e.alloc_owner_[lane]);
    }
    part("routes");
    for (std::size_t lane = 0; lane < fc.count.size(); ++lane) {
      f.u64(fc.count[lane]);
      f.u64(fc.credits[lane]);
      f.byte(fc.stopped[lane]);
    }
    part("gates");
    f.all(fc.starve_since);
    part("starve_since");
    f.u64(fc.events.size());
    for (const FlowControlEvent& ev : fc.events) {
      f.u64(ev.due);
      f.u64(ev.lane);
      f.byte(ev.go ? 1 : 0);
    }
    part("events");
    for (const std::uint8_t rr : e.vc_rr_) f.byte(rr);
    part("vc_rr");
    for (const std::uint32_t n : e.channel_sources_) f.u64(n);
    e.seed_bits_.for_each([&f](std::uint32_t ch) { f.u64(ch); });
    part("seeds");
    e.header_bits_.for_each([&f](std::uint32_t pos) { f.u64(pos); });
    f.u64(e.header_count_);
    part("headers");
    for (std::size_t node = 0; node < e.node_tx_packet_.size(); ++node) {
      f.u64(e.node_tx_packet_[node]);
      f.u64(e.node_tx_sent_[node]);
      if (e.node_tx_packet_[node] != kNoPacket) f.u64(e.node_tx_len_[node]);
    }
    part("nodes");
    const SimResult& r = e.result_;
    f.stats(r.latency_cycles);
    f.stats(r.network_latency_cycles);
    f.stats(r.queueing_cycles);
    f.u64(r.delivered_flits_in_window);
    f.u64(r.delivered_messages_total);
    f.all(r.channel_busy_cycles);
    f.all(r.telemetry_counters.lane_flits);
    part("result");
    f.all(r.telemetry_counters.lane_credit_starved);
    if (e.worm_tracer() != nullptr) f.all(e.worm_tracer()->lane_starved());
    part("starved_cycles");
    return parts;
  }
  /// Per-packet lifecycle and worm-trace records (checked at the end).
  static std::uint64_t packet_digest(const Engine& e) {
    Fnv f;
    for (const PacketState& p : e.packets_) {
      f.u64(p.inject_cycle());
      f.u64(p.deliver_cycle());
      f.u64(p.terminate_cycle());
    }
    if (e.worm_tracer() != nullptr) {
      for (const telemetry::WormRecord& w : e.worm_tracer()->records()) {
        f.u64(w.starved_cycles);
        f.u64(w.blocked_cycles);
        f.u64(w.stages.size());
      }
    }
    return f.h;
  }
};

namespace {

using topology::NetworkConfig;
using topology::NetworkKind;

constexpr std::uint64_t kSnapshotEvery = 50;

/// Flow-control and buffer state, calendar in order.
void hash_engine_state(const Engine& engine, Fnv& f) {
  const FlowControlState& fc = engine.flow_control();
  f.u64(engine.cycle());
  f.all(fc.starve_since);
  f.u64(fc.events.size());
  for (const FlowControlEvent& ev : fc.events) {
    f.u64(ev.due);
    f.u64(ev.lane);
    f.byte(ev.go ? 1 : 0);
  }
  for (std::size_t lane = 0; lane < fc.count.size(); ++lane) {
    f.u64(fc.count[lane]);
    f.u64(fc.credits[lane]);
    f.byte(fc.stopped[lane]);
    f.u64(engine.buffered_packet(static_cast<topology::LaneId>(lane)));
  }
  for (const std::uint8_t rr : EngineTestPeer::vc_rr(engine)) f.byte(rr);
}

void hash_result(const SimResult& r, Fnv& f) {
  f.stats(r.latency_cycles);
  f.stats(r.network_latency_cycles);
  f.u64(r.delivered_messages_total);
  f.u64(r.delivered_flits_in_window);
  f.u64(r.terminated_messages);
  f.u64(r.terminated_flits);
  const telemetry::Counters& c = r.telemetry_counters;
  f.all(c.lane_flits);
  f.all(c.lane_blocked);
  f.all(c.lane_credit_starved);
  f.all(c.lane_fault_terminated);
}

void hash_worm_trace(const telemetry::WormTracer& tracer, Fnv& f) {
  f.all(tracer.lane_starved());
  for (const telemetry::WormRecord& r : tracer.records()) {
    f.u64(r.inject_cycle);
    f.u64(r.deliver_cycle);
    f.u64(r.terminate_cycle);
    f.u64(r.blocked_cycles);
    f.u64(r.streaming_cycles);
    f.u64(r.starved_cycles);
    f.u64(r.stages.size());
    for (const telemetry::StageSpan& s : r.stages) {
      f.u64(s.in_lane);
      f.u64(s.out_lane);
      f.u64(s.arrive_cycle);
      f.u64(s.grant_cycle);
      f.u64(s.blocked_cycles);
    }
    f.u64(r.blocked.size());
    for (const telemetry::BlockedInterval& b : r.blocked) {
      f.u64(b.first_cycle);
      f.u64(b.last_cycle);
      f.u64(b.culprit_lane);
      f.u64(b.culprit_worm);
      f.byte(b.credit_starved ? 1 : 0);
    }
  }
}

// ---- The pinned configurations ------------------------------------------

struct OrderCase {
  const char* name;
  NetworkKind kind;
  unsigned dilation;
  unsigned vcs;
  unsigned extra_stages;
  bool vc_node_links;
  FlowControlScheme scheme;
  std::uint32_t depth;
  std::uint32_t delay;
  double fault_fraction;  ///< killed at cycle 700, repaired at 1600
  double offered = 0.6;
  bool bimodal = false;  ///< bimodal instead of uniform(4, 24) lengths
  std::uint64_t queue_capacity = SimConfig{}.queue_capacity;
  bool store_forward = false;  ///< run the store-and-forward engine
  std::uint32_t min_length = 4;  ///< uniform lengths (unless bimodal)
  std::uint32_t max_length = 24;
  unsigned stages = 3;  ///< radix-4 cube with 4^stages nodes
  std::uint64_t seed = 29;
};

constexpr FlowControlScheme kCredit = FlowControlScheme::kCredit;
constexpr FlowControlScheme kOnOff = FlowControlScheme::kOnOff;
constexpr FlowControlScheme kVct = FlowControlScheme::kVirtualCutThrough;

constexpr OrderCase kCases[] = {
    {"TMIN", NetworkKind::kTMIN, 1, 1, 0, false, kCredit, 1, 0, 0.0},
    {"VMIN_vc2", NetworkKind::kVMIN, 1, 2, 0, false, kCredit, 1, 0, 0.0},
    {"VMIN_vc4", NetworkKind::kVMIN, 1, 4, 0, false, kCredit, 1, 0, 0.0},
    {"VMIN_vc2_ejection_vcs", NetworkKind::kVMIN, 1, 2, 0, true, kCredit, 2,
     0, 0.0},
    {"DMIN", NetworkKind::kDMIN, 2, 1, 0, false, kCredit, 1, 0, 0.0},
    {"TMIN_extra_stage", NetworkKind::kTMIN, 1, 1, 1, false, kCredit, 1, 0,
     0.0},
    {"VMIN_credit_depth4_delay0", NetworkKind::kVMIN, 1, 2, 0, false, kCredit,
     4, 0, 0.0},
    {"VMIN_credit_depth4_delay2", NetworkKind::kVMIN, 1, 2, 0, false, kCredit,
     4, 2, 0.0},
    // depth - delay = 2: STOP at occupancy 2, GO at 1, so one lane can
    // emit both signals in a single cycle (push to 2, pop back to 1).
    {"VMIN_onoff_depth4_delay2", NetworkKind::kVMIN, 1, 2, 0, false, kOnOff,
     4, 2, 0.0},
    {"VMIN_onoff_depth2_delay0", NetworkKind::kVMIN, 1, 2, 0, false, kOnOff,
     2, 0, 0.0},
    // Instant signals with hysteresis: a lane draining from STOP toward
    // GO is starved with space free, and the clock opens and closes
    // inside one cycle.
    {"VMIN_onoff_depth5_delay0", NetworkKind::kVMIN, 1, 2, 0, false, kOnOff,
     5, 0, 0.0},
    {"DMIN_onoff_depth6_delay1", NetworkKind::kDMIN, 2, 1, 0, false, kOnOff,
     6, 1, 0.0},
    {"VMIN_vct_delay0", NetworkKind::kVMIN, 1, 2, 0, false, kVct, 24, 0, 0.0},
    {"VMIN_vct_delay2", NetworkKind::kVMIN, 1, 2, 0, false, kVct, 24, 2, 0.0},
    {"DMIN_fault_credit_depth2_delay1", NetworkKind::kDMIN, 2, 1, 0, false,
     kCredit, 2, 1, 0.15},
    {"VMIN_fault_onoff_depth4_delay0", NetworkKind::kVMIN, 1, 2, 0, false,
     kOnOff, 4, 0, 0.15},
    // Source side.  Mean gap ~700 cycles at load 0.02.
    {"TMIN_light_load", NetworkKind::kTMIN, 1, 1, 0, false, kCredit, 1, 0,
     0.0, 0.02},
    {"TMIN_queue_capacity4", NetworkKind::kTMIN, 1, 1, 0, false, kCredit, 1,
     0, 0.0, 0.9, false, 4},
    {"VMIN_bimodal_light", NetworkKind::kVMIN, 1, 2, 0, false, kCredit, 1, 0,
     0.0, 0.03, true},
    {"TMIN_store_forward", NetworkKind::kTMIN, 1, 1, 0, false, kCredit, 1, 0,
     0.0, 0.3, false, 6, true},
    // Short worms: every third message is a single flit.
    {"VMIN_credit_depth4_short", NetworkKind::kVMIN, 1, 2, 0, false, kCredit,
     4, 0, 0.0, 0.6, false, SimConfig{}.queue_capacity, false, 1, 3},
    {"VMIN_vct_depth4_short", NetworkKind::kVMIN, 1, 2, 0, false, kVct, 4, 0,
     0.0, 0.6, false, SimConfig{}.queue_capacity, false, 1, 3},
    {"VMIN_fault_credit_depth4_short", NetworkKind::kVMIN, 1, 2, 0, false,
     kCredit, 4, 0, 0.15, 0.6, false, SimConfig{}.queue_capacity, false, 1,
     3},
    // A 256-node net of 1280 two-lane channels under virtual cut-through
    // with instant credits and worms up to 64 flits: consumer-first
    // across many stage boundaries and long worms.
    {"TMIN_256_vc2_vct_depth64", NetworkKind::kTMIN, 1, 2, 0, false, kVct, 64,
     0, 0.0, 0.45, false, SimConfig{}.queue_capacity, false, 4, 64, 4, 11},
};

struct OrderExpect {
  const char* name;
  std::uint64_t digest;
  std::uint64_t lifecycle;
  std::uint64_t delivered_messages_total;
};

constexpr OrderExpect kExpected[] = {
    // BEGIN advance_order
    {"TMIN", 0xd6a4a077dd937feaULL, 0xac3706b3d4c23167ULL, 4340ULL},
    {"VMIN_vc2", 0xeb9e3bfeabd0c7b5ULL, 0xa65c21e4115998e4ULL, 4541ULL},
    {"VMIN_vc4", 0x63d8271009f63cd2ULL, 0xa775201e542c0ed2ULL, 4241ULL},
    {"VMIN_vc2_ejection_vcs",
     0x4fc21eff4da32648ULL, 0xccc2f8ecc617ae4dULL, 5310ULL},
    {"DMIN", 0x8f8caf202d1d6b7cULL, 0xf1710f0bf3106611ULL, 6197ULL},
    {"TMIN_extra_stage", 0xe6c41277de6f82b4ULL, 0x15905f131e258a60ULL, 4466ULL},
    {"VMIN_credit_depth4_delay0",
     0x5d48e86e98595ea6ULL, 0x2329bb5a30ffc8a3ULL, 5161ULL},
    {"VMIN_credit_depth4_delay2",
     0x94136dd849eb1ad1ULL, 0xfee4bc1252d88e4aULL, 4692ULL},
    {"VMIN_onoff_depth4_delay2",
     0xf8ccf2605080dca7ULL, 0xdd2d4db5427d9374ULL, 4206ULL},
    {"VMIN_onoff_depth2_delay0",
     0x95d5f668a8fb388eULL, 0x7d871497ac020c50ULL, 4679ULL},
    {"VMIN_onoff_depth5_delay0",
     0xf8ab73b489803fc7ULL, 0xbbe6f392f1cfa03aULL, 4989ULL},
    {"DMIN_onoff_depth6_delay1",
     0x10d676d0b1f1e7ceULL, 0x2c6a77842dad24afULL, 6150ULL},
    {"VMIN_vct_delay0", 0x8786f01c6169c94aULL, 0x07f1d79f4f5b792dULL, 6251ULL},
    {"VMIN_vct_delay2", 0x26873bc7a2b964a5ULL, 0x53c2db976e010f8fULL, 6166ULL},
    {"DMIN_fault_credit_depth2_delay1",
     0xb42acc2e795370ddULL, 0x18cb887387588eeaULL, 5996ULL},
    {"VMIN_fault_onoff_depth4_delay0",
     0xc4710d5eab753af6ULL, 0xc9fd47d4e4fe6b56ULL, 4745ULL},
    {"TMIN_light_load", 0x7a2fc0da5b9d8993ULL, 0x4f3ec78cf3c4b3bcULL, 254ULL},
    {"TMIN_queue_capacity4",
     0x1bd2ae18cb74ba1eULL, 0xbd7a3bed3873dc05ULL, 4403ULL},
    {"VMIN_bimodal_light",
     0x40efddf5401d4018ULL, 0xf5db5efa8b01a2c6ULL, 324ULL},
    {"TMIN_store_forward",
     0x20a5f7580a74fabcULL, 0x977077e2fc552182ULL, 2731ULL},
    {"VMIN_credit_depth4_short",
     0xe9d4c3f0c2788457ULL, 0x14b5ca45fe22383cULL, 46115ULL},
    {"VMIN_vct_depth4_short",
     0x529a36e976af6fecULL, 0x8a245113550cd3a3ULL, 45659ULL},
    {"VMIN_fault_credit_depth4_short",
     0x1205978d56c28dd2ULL, 0x107fda7f7151552aULL, 43720ULL},
    {"TMIN_256_vc2_vct_depth64",
     0x7c9a18ccd331a9bfULL, 0x333361802e412bbaULL, 7481ULL},
    // END advance_order
};

NetworkConfig case_network(const OrderCase& oc) {
  NetworkConfig config;
  config.kind = oc.kind;
  config.topology = "cube";
  config.radix = 4;
  config.stages = oc.stages;
  config.dilation = oc.dilation;
  config.vcs = oc.vcs;
  config.extra_stages = oc.extra_stages;
  config.vc_node_links = oc.vc_node_links;
  return config;
}

traffic::WorkloadSpec case_workload(const OrderCase& oc) {
  traffic::WorkloadSpec workload;
  workload.offered = oc.offered;
  workload.length = oc.bimodal ? traffic::LengthSpec::bimodal(2, 6, 40, 64,
                                                              0.7)
                               : traffic::LengthSpec::uniform(oc.min_length,
                                                              oc.max_length);
  return workload;
}

SimConfig case_sim_config(const OrderCase& oc) {
  SimConfig config;
  config.seed = oc.seed;
  config.queue_capacity = oc.queue_capacity;
  config.warmup_cycles = 300;
  config.measure_cycles = 1'800;
  config.drain_cycles = 600;
  config.flow_control = oc.scheme;
  config.buffer_depth = oc.depth;
  config.credit_delay = oc.delay;
  config.telemetry.counters = true;
  config.telemetry.worm_trace = true;
  if (oc.fault_fraction > 0.0) {
    config.fault_fraction = oc.fault_fraction;
    config.fault_seed = 5;
    config.fault_at_cycle = 700;
    config.fault_repair_cycle = 1'600;
  }
  return config;
}

StoreForwardConfig case_sf_config(const OrderCase& oc) {
  const SimConfig sim = case_sim_config(oc);
  StoreForwardConfig config;
  config.seed = sim.seed;
  config.warmup_cycles = sim.warmup_cycles;
  config.measure_cycles = sim.measure_cycles;
  config.drain_cycles = sim.drain_cycles;
  config.queue_capacity = sim.queue_capacity;
  config.telemetry.worm_trace = true;
  return config;
}

/// Source-side counters of a finished run.
void hash_source_result(const SimResult& r, Fnv& f) {
  f.u64(r.dropped_messages);
  f.u64(r.max_source_queue);
  f.u64(r.generated_messages_in_window);
  f.u64(r.generated_flits_in_window);
  f.u64(r.measured_messages_unfinished);
  f.byte(r.drained ? 1 : 0);
  f.u64(r.time_to_drain_cycles);
  f.stats(r.queueing_cycles);
}

/// Every packet's lifecycle record, in id order.
template <class AnyEngine>
void hash_packets(const AnyEngine& engine, std::size_t count, Fnv& f) {
  f.u64(count);
  for (PacketId id = 0; id < count; ++id) {
    const PacketState& p = engine.packet(id);
    f.u64(p.src);
    f.u64(p.dst);
    f.u64(p.length);
    f.u64(p.turn_stage);
    f.byte(p.measured() ? 1 : 0);
    f.u64(p.create_cycle);
    f.u64(p.inject_cycle());
    f.u64(p.deliver_cycle());
    f.u64(p.terminate_cycle());
  }
}

/// Source-queue lengths of every node.
void hash_source_queues(const Engine& engine, Fnv& f) {
  f.u64(engine.packet_count());
  for (topology::NodeId node = 0; node < engine.network().node_count();
       ++node) {
    f.u64(engine.source_queue_length(node));
  }
}

struct CaseRun {
  std::uint64_t digest = 0;
  std::uint64_t lifecycle = 0;
  std::uint64_t delivered = 0;
};

CaseRun run_store_forward_case(const OrderCase& oc,
                               const topology::NetView& network,
                               const routing::Router& router) {
  traffic::StandardTraffic traffic(network, case_workload(oc));
  StoreForwardEngine engine(network, router, &traffic, case_sf_config(oc));
  const SimResult result = engine.run();
  Fnv f;
  hash_result(result, f);
  hash_worm_trace(*engine.worm_tracer(), f);
  Fnv g;
  hash_source_result(result, g);
  // The tracer records every created packet.
  hash_packets(engine, engine.worm_tracer()->records().size(), g);
  return {f.h, g.h, result.delivered_messages_total};
}

CaseRun run_case(const OrderCase& oc, bool implicit) {
  const NetworkConfig net_config = case_network(oc);
  std::unique_ptr<const topology::Network> materialized;
  topology::ImplicitTopologyPtr implicit_topology;
  if (implicit) {
    implicit_topology =
        std::make_shared<const topology::ImplicitTopology>(net_config);
  } else {
    materialized = std::make_unique<const topology::Network>(
        topology::build_network(net_config));
  }
  const topology::NetView network =
      implicit ? topology::NetView(implicit_topology)
               : topology::NetView(*materialized);
  const auto router = routing::make_router(network);
  if (oc.store_forward) return run_store_forward_case(oc, network, *router);
  traffic::StandardTraffic traffic(network, case_workload(oc));
  const SimConfig config = case_sim_config(oc);
  Engine engine(network, *router, &traffic, config);

  Fnv f;
  Fnv g;
  const std::uint64_t total = config.total_cycles();
  while (engine.cycle() < total) {
    engine.step();
    if (engine.cycle() % kSnapshotEvery == 0) {
      hash_engine_state(engine, f);
      hash_source_queues(engine, g);
    }
  }
  const SimResult result = engine.run();  // no cycles left: finalizes
  hash_engine_state(engine, f);
  hash_result(result, f);
  hash_worm_trace(*engine.worm_tracer(), f);
  hash_source_queues(engine, g);
  hash_source_result(result, g);
  hash_packets(engine, engine.packet_count(), g);
  return {f.h, g.h, result.delivered_messages_total};
}

TEST(AdvanceOrder, MatchesCommittedTable) {
  ASSERT_EQ(std::size(kExpected), std::size(kCases));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    SCOPED_TRACE(kCases[i].name);
    ASSERT_STREQ(kExpected[i].name, kCases[i].name);
    for (const bool implicit : {false, true}) {
      SCOPED_TRACE(implicit ? "implicit" : "materialized");
      const CaseRun run = run_case(kCases[i], implicit);
      EXPECT_EQ(run.delivered, kExpected[i].delivered_messages_total);
      EXPECT_EQ(run.digest, kExpected[i].digest);
      EXPECT_EQ(run.lifecycle, kExpected[i].lifecycle);
    }
  }
}

// The configurations must actually exercise what they claim to pin.
TEST(AdvanceOrder, CasesExerciseTheirMechanisms) {
  for (const OrderCase& oc : kCases) {
    SCOPED_TRACE(oc.name);
    const NetworkConfig net_config = case_network(oc);
    const topology::Network net = topology::build_network(net_config);
    const auto router = routing::make_router(net);
    traffic::StandardTraffic traffic(net, case_workload(oc));
    if (oc.store_forward) {
      StoreForwardEngine sf(net, *router, &traffic, case_sf_config(oc));
      const SimResult result = sf.run();
      EXPECT_GT(result.delivered_messages_total, 0u);
      EXPECT_GT(result.dropped_messages, 0u) << "the queue cap dropped nothing";
      continue;
    }
    Engine engine(net, *router, &traffic, case_sim_config(oc));
    // Short worms under a kill: just before it lands, record per lane the
    // packets its FIFO holds.
    const bool short_kill = oc.min_length == 1 && oc.fault_fraction > 0.0;
    const std::uint64_t kill = case_sim_config(oc).fault_at_cycle;
    std::vector<std::vector<PacketId>> fifo_at_kill;
    if (short_kill) {
      while (engine.cycle() < kill) engine.step();
      const FlowControlState& fc = engine.flow_control();
      fifo_at_kill.resize(fc.count.size());
      for (topology::LaneId lane = 0; lane < fc.count.size(); ++lane) {
        if (fc.count[lane] == 0) continue;
        fifo_at_kill[lane].push_back(engine.buffered_packet(lane));
        for (std::uint32_t s = 0; s + 1 < fc.count[lane]; ++s) {
          fifo_at_kill[lane].push_back(fc.ext_packet[fc.ext_base(lane) + s]);
        }
      }
    }
    const SimResult result = engine.run();
    EXPECT_GT(result.delivered_messages_total, 0u);
    if (oc.min_length == 1 && !oc.bimodal) {
      bool single_flit_delivered = false;
      for (PacketId id = 0; id < engine.packet_count(); ++id) {
        const PacketState& p = engine.packet(id);
        single_flit_delivered =
            single_flit_delivered || (p.length == 1 && p.delivered());
      }
      EXPECT_TRUE(single_flit_delivered) << "no 1-flit worm was delivered";
    }
    if (short_kill) {
      // The kill removed a victim's flits from a FIFO that also held a
      // surviving worm, so the compaction moved survivors.
      bool compacted = false;
      for (const std::vector<PacketId>& fifo : fifo_at_kill) {
        bool victim = false;
        bool survivor = false;
        for (const PacketId id : fifo) {
          const bool killed = engine.packet(id).terminate_cycle() == kill;
          victim = victim || killed;
          survivor = survivor || !killed;
        }
        compacted = compacted || (victim && survivor);
      }
      EXPECT_TRUE(compacted) << "the kill compacted no shared FIFO";
    }
    if (oc.queue_capacity < SimConfig{}.queue_capacity) {
      EXPECT_GT(result.dropped_messages, 0u) << "the queue cap dropped nothing";
    }
    if (oc.offered < 0.1) {
      // Light load: the mean arrival gap is long enough that many gaps
      // exceed a thousand cycles.
      const double mean_gap =
          static_cast<double>(net.node_count()) * 1'800.0 /
          static_cast<double>(result.generated_messages_in_window);
      EXPECT_GT(mean_gap, 500.0) << "the load is not light";
    }
    std::uint64_t starved = 0;
    for (const std::uint64_t v : result.telemetry_counters.lane_credit_starved) {
      starved += v;
    }
    const bool gated_with_space =
        oc.scheme == kOnOff ? oc.depth - oc.delay > 2 || oc.delay > 0
                            : oc.delay > 0;
    if (gated_with_space) {
      EXPECT_GT(starved, 0u) << "no credit starvation observed";
    }
    if (oc.fault_fraction > 0.0) {
      EXPECT_GT(result.terminated_messages, 0u) << "the fault killed no worm";
    }
  }
}

// The consumer-first pass against the reference fixpoint on random
// configurations it runs on (feed-forward networks, credit or cut-through
// flow control with instant credit return): every piece of engine state
// must agree after every cycle.  Traced trials attach the recording sink,
// the worm tracer and the counters, which must see the same event
// sequence, the same worm records and the same counters; untraced trials
// run with every probe off, which keeps the single-lane pass off the
// pass stamps.
TEST(AdvanceOrder, ConsumerFirstMatchesFixpointEveryCycle) {
  util::Rng rng(20251017);
  const auto pick = [&rng](std::uint64_t n) { return rng.below(n); };
  constexpr FlowControlScheme kSchemes[] = {kCredit, kVct};
  constexpr int kTrials = 32;
  for (int trial = 0; trial < kTrials; ++trial) {
    OrderCase oc{"random", NetworkKind::kTMIN, 1, 1, 0, false, kCredit, 1, 0,
                 0.0};
    switch (pick(4)) {
      case 0: oc.kind = NetworkKind::kTMIN; break;
      case 1: oc.kind = NetworkKind::kDMIN; oc.dilation = 2; break;
      case 2:
        oc.kind = NetworkKind::kVMIN;
        oc.vcs = 2 + static_cast<unsigned>(pick(3));
        oc.vc_node_links = pick(2) == 0;
        break;
      default: oc.kind = NetworkKind::kTMIN; oc.extra_stages = 1; break;
    }
    oc.scheme = kSchemes[pick(2)];
    oc.depth = 1 + static_cast<std::uint32_t>(pick(6));
    if (oc.scheme == kVct) oc.depth = 12 + static_cast<std::uint32_t>(pick(8));
    if (pick(4) == 0) oc.fault_fraction = 0.15;
    const bool traced = pick(3) == 0;
    SCOPED_TRACE("trial " + std::to_string(trial) + ": kind " +
                 topology::to_string(oc.kind) + " vcs " +
                 std::to_string(oc.vcs) + " scheme " + to_string(oc.scheme) +
                 " depth " + std::to_string(oc.depth) +
                 (oc.fault_fraction > 0.0 ? " faulted" : "") +
                 (traced ? " traced" : ""));

    const NetworkConfig net_config = case_network(oc);
    const topology::Network net = topology::build_network(net_config);
    const auto router = routing::make_router(net);
    traffic::WorkloadSpec workload;
    workload.offered = 0.3 + 0.1 * static_cast<double>(pick(7));
    workload.length = traffic::LengthSpec::uniform(
        1 + static_cast<std::uint32_t>(pick(4)),
        oc.scheme == kVct ? 12 : 6 + static_cast<std::uint32_t>(pick(20)));
    SimConfig config = case_sim_config(oc);
    config.telemetry.counters = traced;
    config.telemetry.worm_trace = traced;
    config.seed = 1000 + static_cast<std::uint64_t>(trial);
    config.warmup_cycles = 200;
    config.measure_cycles = 700;
    config.drain_cycles = 200;
    config.fault_at_cycle = 400;
    config.fault_repair_cycle = 800;
    config.record_channel_utilization = true;
    traffic::StandardTraffic traffic_a(net, workload);
    traffic::StandardTraffic traffic_b(net, workload);
    Engine single(net, *router, &traffic_a, config);
    Engine fixpoint(net, *router, &traffic_b, config);
    ASSERT_TRUE(EngineTestPeer::consumer_first(single));
    EngineTestPeer::use_fixpoint(fixpoint);
    RecordingTraceSink sink_a;
    RecordingTraceSink sink_b;
    if (traced) {
      single.set_observer(&sink_a);
      fixpoint.set_observer(&sink_b);
    }
    const std::uint64_t total = config.total_cycles();
    while (single.cycle() < total) {
      single.step();
      fixpoint.step();
      const auto a = EngineTestPeer::state_digest(single);
      const auto b = EngineTestPeer::state_digest(fixpoint);
      for (std::size_t i = 0; i < a.size(); ++i) {
        ASSERT_EQ(a[i].second, b[i].second)
            << a[i].first << " diverged after cycle " << single.cycle();
      }
    }
    ASSERT_EQ(EngineTestPeer::packet_digest(single),
              EngineTestPeer::packet_digest(fixpoint));
    ASSERT_EQ(sink_a.events().size(), sink_b.events().size());
    for (std::size_t i = 0; i < sink_a.events().size(); ++i) {
      const TraceEvent& a = sink_a.events()[i];
      const TraceEvent& b = sink_b.events()[i];
      ASSERT_TRUE(a.kind == b.kind && a.cycle == b.cycle &&
                  a.packet == b.packet && a.flit_seq == b.flit_seq &&
                  a.lane == b.lane)
          << "trace event " << i << " differs";
    }
    if (!traced) continue;
    ASSERT_TRUE(single.telemetry_counters() == fixpoint.telemetry_counters());
    const auto& records_a = single.worm_tracer()->records();
    const auto& records_b = fixpoint.worm_tracer()->records();
    ASSERT_EQ(records_a.size(), records_b.size());
    for (std::size_t i = 0; i < records_a.size(); ++i) {
      ASSERT_TRUE(records_a[i] == records_b[i]) << "worm " << i << " differs";
    }
  }
}

// The advance schedule is chosen once, at construction: the single
// consumer-first pass exactly where a pop returns its credit inline
// (credit or cut-through flow control at delay 0) on a feed-forward
// network, the fixpoint everywhere else, on both topology backends.  The
// unread SimConfig::engine_threads must not move that choice, and the
// engine always reports a single advance thread.
TEST(AdvanceOrder, ConsumerFirstChosenExactlyWhereItHolds) {
  struct Selection {
    const char* name;
    NetworkKind kind;
    unsigned vcs;
    FlowControlScheme scheme;
    std::uint32_t depth;
    std::uint32_t delay;
    std::uint32_t engine_threads;
    bool consumer_first;
  };
  constexpr Selection kSelections[] = {
      {"TMIN_credit_delay0", NetworkKind::kTMIN, 1, kCredit, 4, 0, 1, true},
      {"VMIN_vct_delay0", NetworkKind::kVMIN, 2, kVct, 24, 0, 1, true},
      {"TMIN_credit_delay0_width4", NetworkKind::kTMIN, 1, kCredit, 4, 0, 4,
       true},
      {"VMIN_credit_delay2", NetworkKind::kVMIN, 2, kCredit, 4, 2, 1, false},
      {"VMIN_vct_delay2", NetworkKind::kVMIN, 2, kVct, 24, 2, 1, false},
      {"VMIN_onoff_delay0", NetworkKind::kVMIN, 2, kOnOff, 5, 0, 1, false},
      {"BMIN_credit_delay0", NetworkKind::kBMIN, 2, kCredit, 4, 0, 1, false},
  };
  for (const Selection& s : kSelections) {
    SCOPED_TRACE(s.name);
    NetworkConfig net_config;
    net_config.kind = s.kind;
    net_config.topology =
        s.kind == NetworkKind::kBMIN ? "butterfly" : "cube";
    net_config.radix = 4;
    net_config.stages = 2;
    net_config.dilation = 1;
    net_config.vcs = s.vcs;
    SimConfig config;
    config.flow_control = s.scheme;
    config.buffer_depth = s.depth;
    config.credit_delay = s.delay;
    config.engine_threads = s.engine_threads;
    for (const bool implicit : {false, true}) {
      SCOPED_TRACE(implicit ? "implicit" : "materialized");
      std::unique_ptr<const topology::Network> materialized;
      topology::ImplicitTopologyPtr implicit_topology;
      if (implicit) {
        implicit_topology =
            std::make_shared<const topology::ImplicitTopology>(net_config);
      } else {
        materialized = std::make_unique<const topology::Network>(
            topology::build_network(net_config));
      }
      const topology::NetView network =
          implicit ? topology::NetView(implicit_topology)
                   : topology::NetView(*materialized);
      const auto router = routing::make_router(network);
      const Engine engine(network, *router, nullptr, config);
      EXPECT_EQ(EngineTestPeer::consumer_first(engine), s.consumer_first);
      EXPECT_EQ(engine.engine_threads(), 1u);
    }
  }
}

// Prints the kExpected rows (see file comment); passes silently otherwise.
TEST(AdvanceOrder, Emit) {
  const char* env = std::getenv("WORMSIM_EMIT_ADVANCE_ORDER");
  if (env == nullptr || env[0] == '\0' || env[0] == '0') GTEST_SKIP();
  for (const OrderCase& oc : kCases) {
    const CaseRun run = run_case(oc, /*implicit=*/false);
    std::printf("    {\"%s\", 0x%016llxULL, 0x%016llxULL, %lluULL},\n",
                oc.name, static_cast<unsigned long long>(run.digest),
                static_cast<unsigned long long>(run.lifecycle),
                static_cast<unsigned long long>(run.delivered));
  }
}

}  // namespace
}  // namespace wormsim::sim
