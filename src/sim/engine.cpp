#include "sim/engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>

#include "sim/fault_injection/plan.hpp"
#include "sim/validate.hpp"
#include "telemetry/worm_trace.hpp"
#include "util/check.hpp"

namespace wormsim::sim {

using topology::ChannelId;
using topology::kInvalidId;
using topology::LaneId;
using topology::NodeId;
using topology::PhysChannel;

namespace {

/// First integer cycle at which `next_arrival <= cycle` holds.
std::uint64_t fire_cycle(double next_arrival) {
  return static_cast<std::uint64_t>(std::ceil(next_arrival));
}

}  // namespace

Engine::Engine(const topology::NetView& network,
               const routing::Router& router, TrafficSource* traffic,
               SimConfig config)
    : network_(network),
      router_(router),
      traffic_(traffic),
      config_(config),
      rng_(config.seed) {
  // Packet records keep their cycles as 32-bit offsets from creation.
  WORMSIM_CHECK_MSG(config_.total_cycles() < (std::uint64_t{1} << 32),
                    "runs are limited to 2^32 - 1 cycles");
  const std::size_t lanes = network_.lane_count();
  const std::size_t channels = network_.channel_count();
  buf_packet_.assign(lanes, kNoPacket);
  buf_flit_.assign(lanes, Flit{});
  arrived_epoch_.assign(lanes, 0);
  route_out_.assign(lanes, kInvalidId);
  alloc_owner_.assign(lanes, kInvalidId);
  channel_used_epoch_.assign(channels, 0);
  vc_rr_.assign(channels, 0);
  channel_faulty_.resize(channels);
  channel_sources_.assign(channels, 0);
  seed_bits_.resize(channels);
  cur_pass_.resize(channels);
  next_pass_.resize(channels);
  fc_.configure(lanes, config_.flow_control, config_.buffer_depth,
                config_.credit_delay);

  // Flatten the per-channel topology fields the advance loop reads, so a
  // transmit decision never decodes a PhysChannel/Endpoint pair.  One
  // pass over the channel records also collects the switch-input lane
  // scan order — with an implicit backend each record is recomputed on
  // the fly, so visiting it twice would double the construction cost.
  // Lane ids are allocated contiguously per channel in ascending channel
  // order by both backends, so the channel-major walk pushes
  // switch_input_lanes_ in the same ascending lane order the old
  // lane-major walk produced.
  ch_first_lane_.assign(channels, kInvalidId);
  ch_num_lanes_.assign(channels, 0);
  ch_src_node_.assign(channels, kInvalidId);
  ch_dst_is_switch_.resize(channels);
  lane_channel_.assign(lanes, kInvalidId);
  lane_scan_pos_.assign(lanes, kInvalidId);
  network_.for_each_channel([&](const PhysChannel& ch) {
    ch_first_lane_[ch.id] = ch.first_lane;
    ch_num_lanes_[ch.id] = static_cast<std::uint8_t>(ch.num_lanes);
    multi_lane_ = multi_lane_ || ch.num_lanes > 1;
    if (ch.src.is_node()) {
      ch_src_node_[ch.id] = static_cast<std::uint32_t>(ch.src.id);
    }
    const bool dst_switch = ch.dst.is_switch();
    if (dst_switch) ch_dst_is_switch_.set(ch.id);
    for (unsigned v = 0; v < ch.num_lanes; ++v) {
      const LaneId lane = ch.first_lane + v;
      lane_channel_[lane] = ch.id;
      if (dst_switch) {
        lane_scan_pos_[lane] =
            static_cast<std::uint32_t>(switch_input_lanes_.size());
        switch_input_lanes_.push_back(lane);
      }
    }
  });
  header_bits_.resize(switch_input_lanes_.size());

  const std::size_t node_count = network_.node_count();
  node_queue_.resize(node_count);
  node_tx_packet_.assign(node_count, kNoPacket);
  node_tx_sent_.assign(node_count, 0);
  node_tx_len_.assign(node_count, 0);
  node_next_arrival_.assign(node_count, 0.0);
  tx_pending_flag_.assign(node_count, 0);
  for (NodeId node = 0; node < node_count; ++node) {
    if (traffic_ != nullptr && traffic_->node_active(node)) {
      node_next_arrival_[node] = traffic_->next_gap(node, rng_);
      arrival_calendar_.schedule(0, fire_cycle(node_next_arrival_[node]),
                                 node);
    }
  }

  cand_stride_ =
      std::min<std::uint32_t>(kCandStrideMax, network_.max_route_fanout());
  cand_pkt_.assign(lanes, kNoPacket);
  cand_len_.assign(lanes, 0);
  cand_store_.assign(lanes * cand_stride_, kInvalidId);

  // Feed-forward check for the consumer-first advance: every switch's
  // incoming channel ids must all be lower than its outgoing ones, so a
  // move can only unblock a strictly lower channel and a descending-id
  // pass decides every consumer before its producers (DESIGN.md §7,
  // §12).  The unidirectional MIN builders lay channels out stage by
  // stage and satisfy this; BMIN's turnaround wiring does not and runs
  // the fixpoint.  The implicit backend allocates channel ids stage by
  // stage in closed form, so the property holds by construction for
  // every unidirectional layout and the O(channels) scan is skipped.
  bool feed_forward = false;
  if (!network_.materialized()) {
    feed_forward = !network_.bidirectional();
  } else {
    const std::size_t switches = network_.switch_count();
    std::vector<std::int64_t> in_max(switches, -1);
    std::vector<std::int64_t> out_min(switches,
                                      static_cast<std::int64_t>(channels));
    network_.for_each_channel([&](const PhysChannel& ch) {
      if (ch.dst.is_switch()) {
        in_max[ch.dst.id] =
            std::max(in_max[ch.dst.id], static_cast<std::int64_t>(ch.id));
      }
      if (ch.src.is_switch()) {
        out_min[ch.src.id] =
            std::min(out_min[ch.src.id], static_cast<std::int64_t>(ch.id));
      }
    });
    feed_forward = true;
    for (std::size_t sw = 0; sw < switches; ++sw) {
      if (in_max[sw] >= out_min[sw]) {
        feed_forward = false;
        break;
      }
    }
  }

  // One consumer-first pass per cycle replaces the fixpoint where a pop
  // returns its credit inline — the case in which the fixpoint needs many
  // passes — on a feed-forward network (DESIGN.md §7).  Only multi-lane
  // round-robin picks need the pass stamps.
  consumer_first_ = feed_forward && fc_.delay == 0 &&
                    fc_.scheme != FlowControlScheme::kOnOff;
  if (consumer_first_ && multi_lane_) pop_stamp_.assign(lanes, 0);

  result_.measure_cycles = config_.measure_cycles;
  result_.node_count = network_.node_count();
  result_.flits_per_microsecond = config_.flits_per_microsecond;
  if (config_.record_channel_utilization) {
    result_.channel_busy_cycles.assign(network_.channel_count(), 0);
  }
  if (config_.telemetry.counters) {
    counter_sink_ = std::make_unique<telemetry::CounterSink>(
        result_.telemetry_counters, network_, config_.warmup_cycles,
        config_.measure_cycles);
  }
  if (config_.telemetry.sampling) {
    WORMSIM_CHECK(config_.telemetry.sample_interval_cycles > 0);
    sample_sink_ = std::make_unique<telemetry::SampleSink>(
        config_.telemetry.sample_capacity,
        config_.telemetry.sample_interval_cycles, node_count);
  }
  if (config_.telemetry.worm_trace ||
      telemetry::worm_trace_enabled_from_env()) {
    worm_tracer_ = std::make_shared<telemetry::WormTracer>(lanes, channels);
    result_.worm_trace = worm_tracer_;
  }
  run_monitor_ = telemetry::make_run_monitor(
      config_.telemetry, network_, config_.warmup_cycles,
      config_.measure_cycles, config_.drain_cycles, "wormhole");
  set_observer(nullptr);
  if (config_.fault_fraction > 0.0) {
    fault_state_.plan = fault_injection::build_fault_plan(
        network_, config_.fault_fraction, config_.fault_seed,
        config_.fault_at_cycle, config_.fault_repair_cycle);
    fault_injection::validate_plan(network_, fault_state_.plan);
  }
  if (config_.validate || validate_enabled_from_env()) {
    validator_ = std::make_unique<EngineValidator>(*this);
  }
  if (config_.telemetry.profile || telemetry::profile_enabled_from_env()) {
    profiler_ = std::make_unique<telemetry::PhaseProfiler>();
    prof_ = profiler_.get();
  }
}

Engine::~Engine() = default;

void Engine::set_observer(telemetry::EngineObserver* observer) {
  fanout_.clear();
  fanout_.add(counter_sink_.get());
  fanout_.add(sample_sink_.get());
  fanout_.add(worm_tracer_.get());
  fanout_.add(run_monitor_.get());
  fanout_.add(observer);
  observer_ = fanout_.target();
  observed_ = fanout_.kinds();
}

void StagedEvents::replay(telemetry::EngineObserver& target) {
  // A channel moves at most once per cycle and the pass visits channels
  // in descending id order, so each key's events are contiguous and the
  // keys of one emulated pass descend.  Walking the moves backwards once
  // per pass, lowest pass first, is the ascending (pass, channel) order
  // without sorting.
  std::uint64_t pass = 0;
  while (true) {
    std::uint64_t next = ~std::uint64_t{0};
    for (std::size_t end = events_.size(); end > 0;) {
      std::size_t begin = end - 1;
      const std::uint64_t key = events_[begin].first;
      while (begin > 0 && events_[begin - 1].first == key) --begin;
      const std::uint64_t move_pass = key >> 32;
      if (move_pass == pass) {
        for (std::size_t i = begin; i < end; ++i) {
          target.on_event(events_[i].second);
        }
      } else if (move_pass > pass) {
        next = std::min(next, move_pass);
      }
      end = begin;
    }
    if (next == ~std::uint64_t{0}) break;
    pass = next;
  }
  events_.clear();
}

PacketId Engine::inject_message(NodeId src, std::uint64_t dst,
                                std::uint32_t length) {
  WORMSIM_CHECK_MSG(dst != src, "self-addressed message");
  WORMSIM_CHECK(length >= 1);
  WORMSIM_CHECK_MSG(length <= 65535, "packets are limited to 65535 flits");
  WORMSIM_DCHECK(dst < network_.node_count());
  if (config_.flow_control == FlowControlScheme::kVirtualCutThrough) {
    // Cut-through only grants a lane that can hold the whole packet, so a
    // packet longer than the buffer could never route at all.
    WORMSIM_CHECK_MSG(length <= config_.buffer_depth,
                      "virtual cut-through needs buffer_depth >= packet "
                      "length");
  }
  PacketState pkt;
  pkt.src = src;
  pkt.dst = static_cast<std::uint32_t>(dst);
  pkt.length = static_cast<std::uint16_t>(length);
  pkt.create_cycle = cycle_;
  pkt.set_measured(in_measure_window());
  pkt.turn_stage = static_cast<std::uint8_t>(
      routing::make_query(network_, src, dst).turn_stage);
  const auto id = static_cast<PacketId>(packets_.size());
  packets_.push_back(pkt);
  enqueue_packet(src, id);
  if (observes(Event::kCreated)) {
    observer_->on_event({.kind = Event::kCreated, .cycle = cycle_,
                         .packet = id, .src = pkt.src, .dst = pkt.dst,
                         .count = length, .flag = pkt.measured()});
  }
  return id;
}

void Engine::enqueue_packet(NodeId src, PacketId id) {
  PacketFifo& queue = node_queue_[src];
  if (queue.size() >= config_.queue_capacity) {
    ++result_.dropped_messages;
    return;
  }
  queue.push_back(packets_, id);
  ++queued_messages_;
  if (node_tx_packet_[src] == kNoPacket) mark_tx_pending(src);
  if (in_measure_window()) {
    result_.max_source_queue =
        std::max<std::uint64_t>(result_.max_source_queue, queue.size());
  }
}

void Engine::generate_arrivals() {
  if (traffic_ == nullptr) return;
  const auto now = static_cast<double>(cycle_);
  // Drain every due calendar entry, then process the due nodes in id
  // order: the RNG draw sequence must match the original all-nodes scan.
  arrival_calendar_.take_due(cycle_, due_nodes_);
  for (NodeId node : due_nodes_) {
    double next = node_next_arrival_[node];
    while (next <= now) {
      const std::uint64_t dst = traffic_->next_destination(node, rng_);
      WORMSIM_DCHECK(dst != node);
      const std::uint32_t length = traffic_->next_length(node, rng_);
      inject_message(node, dst, length);
      if (in_measure_window()) {
        ++result_.generated_messages_in_window;
        result_.generated_flits_in_window += length;
      }
      next += std::max(traffic_->next_gap(node, rng_), 1e-9);
    }
    node_next_arrival_[node] = next;
    arrival_calendar_.schedule(cycle_, fire_cycle(next), node);
  }
}

void Engine::start_transmissions() {
  // One-port source: start transmitting the queue head when idle.  Only
  // nodes marked pending (new queue head, or a transmission that just
  // finished with more queued) can change state.
  if (tx_pending_.empty()) return;
  for (NodeId node : tx_pending_) {
    tx_pending_flag_[node] = 0;
    PacketFifo& queue = node_queue_[node];
    if (node_tx_packet_[node] == kNoPacket && !queue.empty()) {
      const PacketId id = queue.pop_front(packets_);
      node_tx_packet_[node] = id;
      --queued_messages_;
      node_tx_sent_[node] = 0;
      node_tx_len_[node] = packets_[id].length;
      ++transmitting_nodes_;
      activate_channel(network_.injection_channel(node));
    }
  }
  tx_pending_.clear();
}

void Engine::route_and_allocate() {
  // Headers are served in a configurable order; the default rotation
  // keeps any single switch or lane from a systematic priority advantage.
  const std::size_t count = switch_input_lanes_.size();
  if (count == 0) return;
  std::size_t offset = 0;
  switch (config_.arbitration) {
    case ArbitrationOrder::kRotating:
      offset = static_cast<std::size_t>(cycle_ % count);
      break;
    case ArbitrationOrder::kRandom:
      // Drawn every cycle — even with no waiting header — to keep the RNG
      // stream identical to the original full scan (golden tests).
      offset = static_cast<std::size_t>(rng_.below(count));
      break;
    case ArbitrationOrder::kFixed:
      break;
  }
  if (header_count_ == 0) return;
  const bool vct =
      config_.flow_control == FlowControlScheme::kVirtualCutThrough;
  routing::CandidateList fresh;
  routing::CandidateList free_lanes;
  // Visit exactly the set positions, rotated: [offset, count) then
  // [0, offset) — the same order the old rotated sort produced.  A grant
  // clears its own bit; blocked headers keep theirs for next cycle.
  const auto serve = [&](std::uint32_t pos) {
    const LaneId u = switch_input_lanes_[pos];
    WORMSIM_DCHECK(buf_packet_[u] != kNoPacket);
    WORMSIM_DCHECK(buf_flit_[u].seq() == 0);
    WORMSIM_DCHECK(route_out_[u] == kInvalidId);
    const PacketId pid = buf_packet_[u];
    // Router::candidates is pure in (packet, lane) and packet ids are
    // unique per run, so a blocked header re-arbitrating every cycle
    // reuses its memoized list instead of re-walking the topology.
    const LaneId* cand = nullptr;
    std::size_t cand_count = 0;
    if (cand_pkt_[u] == pid && cand_len_[u] != kCandOverflow) {
      cand = &cand_store_[std::size_t{u} * cand_stride_];
      cand_count = cand_len_[u];
    } else {
      const PacketState& pkt = packets_[pid];
      routing::RouteQuery query;
      query.src = pkt.src;
      query.dst = pkt.dst;
      query.turn_stage = pkt.turn_stage;
      fresh.clear();
      router_.candidates(query, u, fresh);
      cand_pkt_[u] = pid;
      if (fresh.size() <= cand_stride_) {
        cand_len_[u] = static_cast<std::uint8_t>(fresh.size());
        std::copy(fresh.begin(), fresh.end(),
                  &cand_store_[std::size_t{u} * cand_stride_]);
      } else {
        cand_len_[u] = kCandOverflow;
      }
      cand = fresh.begin();
      cand_count = fresh.size();
    }
    free_lanes.clear();
    // Virtual cut-through only grants a switch-destined lane whose buffer
    // can absorb the whole packet (ejection lanes consume instantly and
    // are exempt); the first such credit-gated lane is remembered for
    // starvation attribution.
    LaneId credit_gated = kInvalidId;
    bool any_alive = false;  // some candidate is not faulty
    for (std::size_t i = 0; i < cand_count; ++i) {
      const LaneId lane = cand[i];
      if (alloc_owner_[lane] != kInvalidId) {
        any_alive = true;  // allocations never survive on dead channels
        continue;
      }
      if (channel_faulty_.test(lane_channel_[lane])) continue;
      any_alive = true;
      if (vct && lane_scan_pos_[lane] != kInvalidId &&
          !fc_.can_accept_packet(lane, packets_[pid].length)) {
        if (credit_gated == kInvalidId) credit_gated = lane;
        continue;
      }
      free_lanes.push_back(lane);
    }
    if (cand_count > 0 && !any_alive) {
      // Every legal lane is dead: the worm can never progress (only a
      // repair could save it, and waiting would either trip the deadlock
      // watchdog or hold buffers hostage indefinitely).  Terminate it —
      // truncate-and-account, DESIGN.md §14.  Non-adaptive TMIN worms
      // whose unique path died land here; adaptive networks only when
      // the fault fraction disconnects the pair outright.
      terminate_worm(pid);
      return;
    }
    if (free_lanes.empty()) {  // blocked; the bit stays for next cycle
      if (observes(Event::kBlocked)) {
        // Culprit: the first *allocated* candidate in candidate order (the
        // tracer resolves its holder worm).  A header whose only obstacle
        // is a credit-dry lane is credit-starved, not contending; with
        // every candidate faulty, the first faulty lane — there is no
        // worm to blame.
        LaneId culprit = cand_count == 0 ? kInvalidId : cand[0];
        bool busy = false;
        for (std::size_t i = 0; i < cand_count; ++i) {
          if (alloc_owner_[cand[i]] != kInvalidId) {
            culprit = cand[i];
            busy = true;
            break;
          }
        }
        const bool starved = !busy && credit_gated != kInvalidId;
        if (starved) culprit = credit_gated;
        observer_->on_event({.kind = Event::kBlocked, .cycle = cycle_,
                             .packet = pid, .lane = culprit, .from = u,
                             .flag = starved});
      }
      return;
    }
    const LaneId chosen =
        config_.lane_selection == LaneSelection::kFirstFree
            ? free_lanes[0]
            : free_lanes[static_cast<std::size_t>(
                  rng_.below(free_lanes.size()))];
    header_bits_.clear(pos);
    --header_count_;
    route_out_[u] = chosen;
    alloc_owner_[chosen] = u;
    activate_channel(lane_channel_[chosen]);
    if (observes(Event::kRouted)) {
      observer_->on_event({.kind = Event::kRouted, .cycle = cycle_,
                           .packet = pid, .lane = chosen, .from = u});
    }
  };
  header_bits_.for_each_in(offset, count, serve);
  header_bits_.for_each_in(0, offset, serve);
}

void Engine::set_fault_plan(fault_injection::FaultPlan plan) {
  WORMSIM_CHECK_MSG(cycle_ == 0, "install fault plans before the first step");
  fault_injection::validate_plan(network_, plan);
  fault_state_ = fault_injection::FaultState{};
  fault_state_.plan = std::move(plan);
}

PacketId Engine::chain_worm(LaneId u) const {
  // The worm streaming through input lane `u` (its route is held): the
  // FIFO head is the oldest un-crossed flit and belongs to the route
  // holder; an empty FIFO means the tail is strictly upstream, so follow
  // the allocation chain until flits — or the still-transmitting
  // source — are found.
  while (true) {
    if (fc_.count[u] > 0) return buf_packet_[u];
    const ChannelId ch = lane_channel_[u];
    const std::uint32_t src_node = ch_src_node_[ch];
    if (src_node != kInvalidId) return node_tx_packet_[src_node];
    const LaneId up = alloc_owner_[u];
    if (up == kInvalidId) return kNoPacket;  // released chain, no worm
    u = up;
  }
}

std::uint32_t Engine::fc_remove_packet(LaneId lane, PacketId pid) {
  const std::uint32_t count = fc_.count[lane];
  if (count == 0) return 0;
  const std::size_t base = fc_.ext_base(lane);
  // Gather the survivors in FIFO order (head slot, then extensions).
  std::vector<PacketId> keep_pkt;
  std::vector<Flit> keep_flit;
  std::vector<std::uint64_t> keep_epoch;
  const bool head_removed = buf_packet_[lane] == pid;
  if (!head_removed) {
    keep_pkt.push_back(buf_packet_[lane]);
    keep_flit.push_back(buf_flit_[lane]);
    keep_epoch.push_back(arrived_epoch_[lane]);
  }
  for (std::uint32_t s = 0; s + 1 < count; ++s) {
    if (fc_.ext_packet[base + s] == pid) continue;
    keep_pkt.push_back(fc_.ext_packet[base + s]);
    keep_flit.push_back(fc_.ext_flit[base + s]);
    keep_epoch.push_back(fc_.ext_epoch[base + s]);
  }
  const auto kept = static_cast<std::uint32_t>(keep_pkt.size());
  const std::uint32_t removed = count - kept;
  if (removed == 0) return 0;

  // Unregister the worm's unrouted header if it sat at this head slot
  // (the bit state is authoritative: set iff an unrouted header is
  // registered — a granted header already cleared it).
  if (head_removed && buf_flit_[lane].seq() == 0 &&
      lane_scan_pos_[lane] != kInvalidId &&
      header_bits_.test(lane_scan_pos_[lane])) {
    header_bits_.clear(lane_scan_pos_[lane]);
    --header_count_;
  }

  // Compact the survivors back, clearing the freed tail slots exactly as
  // fc_pop leaves them so the validator's occupancy recount holds.
  fc_.count[lane] = kept;
  occupied_ -= removed;
  if (kept > 0) {
    buf_packet_[lane] = keep_pkt[0];
    buf_flit_[lane] = keep_flit[0];
    arrived_epoch_[lane] = keep_epoch[0];
    for (std::uint32_t s = 0; s + 1 < kept; ++s) {
      fc_.ext_packet[base + s] = keep_pkt[s + 1];
      fc_.ext_flit[base + s] = keep_flit[s + 1];
      fc_.ext_epoch[base + s] = keep_epoch[s + 1];
    }
  } else {
    buf_packet_[lane] = kNoPacket;
  }
  for (std::uint32_t s = kept > 0 ? kept - 1 : 0; s + 1 < count; ++s) {
    fc_.ext_packet[base + s] = kNoPacket;
    fc_.ext_flit[base + s] = Flit{};
    fc_.ext_epoch[base + s] = 0;
  }

  // A survivor promoted into the head slot can only be a header: a worm
  // queued behind the removed one has popped nothing yet, so its oldest
  // present flit is seq 0.  Register it.
  if (head_removed && kept > 0 && buf_flit_[lane].seq() == 0 &&
      lane_scan_pos_[lane] != kInvalidId) {
    WORMSIM_DCHECK(route_out_[lane] == kInvalidId);
    add_header_lane(lane);
  }

  // Return the freed slots upstream, mirroring fc_pop's per-flit
  // sender-side accounting (the credit-conservation invariant needs
  // every discarded flit's credit back, even on a dead lane).
  const ChannelId lane_ch = lane_channel_[lane];
  const bool lane_dead = channel_faulty_.test(lane_ch);
  if (fc_.scheme == FlowControlScheme::kOnOff) {
    // GO is emitted when occupancy drains *to* the threshold; removal
    // crosses it at most once.
    if (kept <= fc_.on_threshold && fc_.on_threshold < count) {
      fc_deliver_or_queue(lane, /*go=*/true);
    }
  } else if (fc_.delay == 0) {
    fc_.credits[lane] += removed;
    fc_close_starve(lane);
  } else {
    for (std::uint32_t r = 0; r < removed; ++r) {
      fc_.events.push_back({cycle_ + fc_.delay, lane, /*go=*/false});
    }
  }
  if (fc_.scheme != FlowControlScheme::kCredit || fc_.delay > 0) {
    if (!lane_dead && !fc_.can_accept(lane) && upstream_has_flit(lane)) {
      fc_open_starve(lane);
    }
  }
  // Freed slots may unblock a sender of a surviving worm on this lane.
  if (!lane_dead && channel_sources_[lane_ch] != 0) {
    schedule_channel(lane_ch);
  }
  if (observes(Event::kDiscarded)) {
    observer_->on_event({.kind = Event::kDiscarded, .cycle = cycle_,
                         .packet = pid, .lane = lane, .count = removed});
  }
  return removed;
}

void Engine::terminate_worm(PacketId pid) {
  PacketState& pkt = packets_[pid];
  WORMSIM_DCHECK(!pkt.delivered());
  WORMSIM_DCHECK(!pkt.terminated());
  // (1) Collect the allocation chain first: chain_worm() identifies the
  // worm on an empty injection lane by its still-transmitting source, so
  // the walk must run before the source is stopped (and before releasing
  // mutates the alloc_owner_ links it follows).
  std::vector<LaneId> held;
  const auto lanes = static_cast<LaneId>(buf_packet_.size());
  for (LaneId u = 0; u < lanes; ++u) {
    if (route_out_[u] != kInvalidId && chain_worm(u) == pid) {
      held.push_back(u);
    }
  }
  // (2) Stop the source mid-message: the un-sent tail never enters.
  const auto src = static_cast<NodeId>(pkt.src);
  std::uint32_t sent = pkt.length;
  if (node_tx_packet_[src] == pid) {
    sent = node_tx_sent_[src];
    node_tx_packet_[src] = kNoPacket;
    node_tx_sent_[src] = 0;
    --transmitting_nodes_;
    deactivate_channel(network_.injection_channel(src));
    if (!node_queue_[src].empty()) mark_tx_pending(src);
  }
  // (3) Release the chain.
  for (const LaneId u : held) {
    const LaneId out = route_out_[u];
    route_out_[u] = kInvalidId;
    alloc_owner_[out] = kInvalidId;
    deactivate_channel(lane_channel_[out]);
    if (observes(Event::kLaneReleased)) {
      emit(Event::kLaneReleased, kNoPacket, 0, out);
    }
  }
  // (4) Discard the worm's buffered flits everywhere it has any.
  std::uint32_t truncated = 0;
  for (LaneId lane = 0; lane < lanes; ++lane) {
    truncated += fc_remove_packet(lane, pid);
  }
  // (5) Account: delivered + terminated is the generalized conservation
  // the validator reconciles (flits ejected before the kill stay
  // delivered; sent - truncated of them were).
  pkt.mark_terminated(cycle_);
  terminations_.push_back({pid, sent, truncated});
  ++result_.terminated_messages;
  result_.terminated_flits += truncated;
  --worms_in_flight_;
  // Termination is progress: state changed, nothing is stuck.
  last_move_cycle_ = cycle_;
  if (observes(Event::kTerminated)) {
    emit(Event::kTerminated, pid, sent, kInvalidId);
  }
}

void Engine::apply_fault_plan() {
  fault_state_.applied = true;
  if (observes(Event::kFault)) {
    observer_->on_event({.kind = Event::kFault, .cycle = cycle_,
                         .count = fault_state_.plan.channels.size()});
  }
  const std::vector<ChannelId>& channels = fault_state_.plan.channels;
  for (const ChannelId ch : channels) channel_faulty_.set(ch);
  // Victims: every worm resident in, streaming through, or allocated
  // onto a dead lane (a dead channel takes its input buffers with it).
  // Worms whose only *future* paths died are caught by the next
  // route_and_allocate instead.
  std::vector<PacketId> victims;
  for (const ChannelId ch : channels) {
    const LaneId first = ch_first_lane_[ch];
    for (unsigned v = 0; v < ch_num_lanes_[ch]; ++v) {
      const LaneId lane = first + v;
      if (fc_.count[lane] > 0) {
        victims.push_back(buf_packet_[lane]);
        const std::size_t base = fc_.ext_base(lane);
        for (std::uint32_t s = 0; s + 1 < fc_.count[lane]; ++s) {
          victims.push_back(fc_.ext_packet[base + s]);
        }
      }
      if (route_out_[lane] != kInvalidId) {
        victims.push_back(chain_worm(lane));
      }
      if (alloc_owner_[lane] != kInvalidId) {
        victims.push_back(chain_worm(alloc_owner_[lane]));
      }
    }
  }
  std::sort(victims.begin(), victims.end());
  victims.erase(std::unique(victims.begin(), victims.end()), victims.end());
  for (const PacketId pid : victims) {
    if (pid == kNoPacket) continue;
    if (!packets_[pid].terminated()) terminate_worm(pid);
  }
}

void Engine::repair_fault_plan() {
  fault_state_.repaired = true;
  if (observes(Event::kFault)) {
    observer_->on_event({.kind = Event::kFault, .cycle = cycle_,
                         .count = fault_state_.plan.channels.size(),
                         .flag = true});
  }
  for (const ChannelId ch : fault_state_.plan.channels) {
    channel_faulty_.clear(ch);
  }
  // Blocked headers re-arbitrate every cycle and new grants re-seed the
  // repaired channels, so no explicit wake-up is needed.
}

int Engine::decide_channel(ChannelId ch_id) {
  if (channel_used_epoch_[ch_id] == epoch_ || channel_faulty_.test(ch_id)) {
    return -1;
  }
  const LaneId first = ch_first_lane_[ch_id];
  const unsigned num = ch_num_lanes_[ch_id];
  const std::uint32_t src_node = ch_src_node_[ch_id];

  // Gather the lanes of this physical channel that could transmit a flit
  // right now, then let the round-robin pointer pick among them.
  std::uint32_t ready_mask = 0;
  if (src_node != kInvalidId) {
    // Injection channel: the node pushes flits of its active message.
    if (node_tx_packet_[src_node] != kNoPacket) {
      for (unsigned v = 0; v < num; ++v) {
        const LaneId lane = first + v;
        if (!fc_.can_accept(lane)) {  // no credit / stopped / buffer full
          fc_open_starve(lane);
          continue;
        }
        ready_mask |= 1u << v;
      }
    }
  } else {
    const bool dst_switch = ch_dst_is_switch_.test(ch_id);
    for (unsigned v = 0; v < num; ++v) {
      const LaneId lane = first + v;
      const LaneId u = alloc_owner_[lane];
      if (u == kInvalidId) continue;
      if (buf_packet_[u] == kNoPacket || arrived_epoch_[u] == epoch_) {
        continue;
      }
      WORMSIM_DCHECK(route_out_[u] == lane);
      if (dst_switch && !fc_.can_accept(lane)) {
        fc_open_starve(lane);
        continue;
      }
      ready_mask |= 1u << v;
    }
  }
  if (ready_mask == 0) return -1;

  unsigned pick = vc_rr_[ch_id] % num;
  while ((ready_mask & (1u << pick)) == 0) pick = (pick + 1) % num;
  vc_rr_[ch_id] = static_cast<std::uint8_t>((pick + 1) % num);
  return static_cast<int>(pick);
}

void Engine::apply_move(ChannelId ch_id, unsigned pick) {
  const LaneId lane = ch_first_lane_[ch_id] + pick;
  const std::uint32_t src_node = ch_src_node_[ch_id];
  if (src_node != kInvalidId) {
    move_from_node<AdvanceMode::kFixpoint>(src_node, lane);
  } else {
    move_from_switch<AdvanceMode::kFixpoint>(alloc_owner_[lane], lane, 0);
  }
  channel_used_epoch_[ch_id] = epoch_;
  if (util_window_) {
    ++result_.channel_busy_cycles[ch_id];
  }
  last_move_cycle_ = cycle_;
}

template <Engine::AdvanceMode M>
void Engine::move_from_node(NodeId node_id, LaneId lane) {
  const PacketId tx = node_tx_packet_[node_id];
  const std::uint32_t sent = node_tx_sent_[node_id];
  const bool tail = sent + 1 == node_tx_len_[node_id];
  const bool was_head = push_flit<M>(lane, tx, Flit(sent, tail));
  // The arrived flit can cross its (already routed) next hop next cycle.
  // A flit landing behind the head changes nothing about readiness.
  if (was_head && route_out_[lane] != kInvalidId) {
    schedule_channel(lane_channel_[route_out_[lane]]);
  }
  if (sent == 0) {
    packets_[tx].mark_injected(cycle_);
    ++worms_in_flight_;
    // A header behind an earlier worm's flits becomes routable only when
    // it reaches the head slot (the tail-pop in fc_pop promotes it).
    if (observes(Event::kInjected)) emit(Event::kInjected, tx, 0, lane);
    if (was_head) add_header_lane(lane);  // injection channels end at
                                          // switches
  }
  if (observes(Event::kFlitMoved)) emit(Event::kFlitMoved, tx, sent, lane);
  node_tx_sent_[node_id] = sent + 1;
  if (tail) {
    node_tx_packet_[node_id] = kNoPacket;
    node_tx_sent_[node_id] = 0;
    --transmitting_nodes_;
    deactivate_channel(lane_channel_[lane]);
    if (!node_queue_[node_id].empty()) mark_tx_pending(node_id);
  }
}

template <Engine::AdvanceMode M>
void Engine::move_from_switch(LaneId in_lane, LaneId out_lane,
                              std::uint32_t pass) {
  const PacketId pkt_id = buf_packet_[in_lane];
  const Flit flit = buf_flit_[in_lane];
  const std::uint32_t seq = flit.seq();
  const bool tail = flit.is_tail();
  const ChannelId out_ch = lane_channel_[out_lane];
  const ChannelId up_ch = lane_channel_[in_lane];

  if constexpr (M == AdvanceMode::kFixpoint) {
    fc_pop(in_lane);
    // The channel feeding in_lane's buffer may now transmit its next flit;
    // the worklist re-tries it at the scan position this move sits at.
    unblocked_ = up_ch;
  } else {
    // Instant credit return: the sender sees the freed slot this cycle.
    fc_pop_slot(in_lane);
    ++fc_.credits[in_lane];
    if (pass != 0) pop_stamp_[in_lane] = pass_stamp(pass);
    // Re-arm the sender below the descending cursor: it is decided after
    // every consumer that can free its buffers.
    if (channel_sources_[up_ch] != 0) {
      WORMSIM_DCHECK(up_ch < out_ch);
      cur_pass_.set(up_ch);
    }
  }
  if (observes(Event::kFlitMoved)) {
    emit(Event::kFlitMoved, pkt_id, seq, out_lane);
  }
  if (!ch_dst_is_switch_.test(out_ch)) {
    if (tail && observes(Event::kDelivered)) {
      emit(Event::kDelivered, pkt_id, seq, kInvalidId);
    }
    if constexpr (M == AdvanceMode::kFixpoint) {
      deliver_flit(pkt_id, flit);
    } else {
      // Ejections are all pass-1 moves of the fixpoint, which applied them
      // in ascending channel order: replay them that way after the pass.
      cf_deliveries_.push_back({pkt_id, flit});
    }
  } else {
    const bool was_head = push_flit<M>(out_lane, pkt_id, flit);
    if (was_head && seq == 0) add_header_lane(out_lane);
    // The arrived flit can cross its (already routed) next hop next cycle.
    if (was_head && route_out_[out_lane] != kInvalidId) {
      schedule_channel(lane_channel_[route_out_[out_lane]]);
    }
  }
  if (tail) {
    // The worm's tail has crossed this hop: release both the input unit's
    // route and the output lane for the next worm.
    route_out_[in_lane] = kInvalidId;
    alloc_owner_[out_lane] = kInvalidId;
    deactivate_channel(out_ch);
    if (observes(Event::kLaneReleased)) {
      emit(Event::kLaneReleased, kNoPacket, 0, out_lane);
    }
    // A deeper FIFO can already hold the next worm's header; it becomes
    // routable the moment the previous tail clears the head slot.
    if (fc_.count[in_lane] > 0 && buf_flit_[in_lane].seq() == 0) {
      add_header_lane(in_lane);
    }
  }
}

template <Engine::AdvanceMode M>
bool Engine::push_flit(LaneId lane, PacketId pkt, Flit flit) {
  if constexpr (M == AdvanceMode::kFixpoint) {
    return fc_push(lane, pkt, flit);
  } else {
    const bool was_head = fc_push_slot(lane, pkt, flit);
    --fc_.credits[lane];
    return was_head;
  }
}

bool Engine::fc_push_slot(LaneId lane, PacketId pkt, Flit flit) {
  const bool was_head = fc_.count[lane] == 0;
  if (was_head) {
    buf_packet_[lane] = pkt;
    buf_flit_[lane] = flit;
    arrived_epoch_[lane] = epoch_;
  } else {
    const std::size_t slot = fc_.ext_base(lane) + (fc_.count[lane] - 1);
    fc_.ext_packet[slot] = pkt;
    fc_.ext_flit[slot] = flit;
    fc_.ext_epoch[slot] = epoch_;
  }
  ++fc_.count[lane];
  ++occupied_;
  return was_head;
}

bool Engine::fc_push(LaneId lane, PacketId pkt, Flit flit) {
  const bool was_head = fc_push_slot(lane, pkt, flit);
  if (fc_.scheme == FlowControlScheme::kOnOff) {
    // Occupancy rose to the stop level: tell the sender to pause.  The
    // threshold leaves room for the flits still sendable while the signal
    // travels, so the FIFO can never overflow.
    if (fc_.count[lane] == fc_.off_threshold) {
      fc_deliver_or_queue(lane, /*go=*/false);
    }
  } else {
    WORMSIM_DCHECK(fc_.credits[lane] > 0);
    --fc_.credits[lane];
  }
  return was_head;
}

void Engine::fc_pop_slot(LaneId lane) {
  --fc_.count[lane];
  --occupied_;
  const std::uint32_t remaining = fc_.count[lane];
  if (remaining > 0) {
    // Promote the next slot to the head, oldest first.  Its recorded
    // arrival epoch rides along, so a flit pushed this very cycle still
    // waits a cycle before crossing the next channel.
    const std::size_t base = fc_.ext_base(lane);
    buf_packet_[lane] = fc_.ext_packet[base];
    buf_flit_[lane] = fc_.ext_flit[base];
    arrived_epoch_[lane] = fc_.ext_epoch[base];
    for (std::uint32_t s = 0; s + 1 < remaining; ++s) {
      fc_.ext_packet[base + s] = fc_.ext_packet[base + s + 1];
      fc_.ext_flit[base + s] = fc_.ext_flit[base + s + 1];
      fc_.ext_epoch[base + s] = fc_.ext_epoch[base + s + 1];
    }
    fc_.ext_packet[base + remaining - 1] = kNoPacket;
    fc_.ext_flit[base + remaining - 1] = Flit{};
    fc_.ext_epoch[base + remaining - 1] = 0;
  } else {
    buf_packet_[lane] = kNoPacket;
  }
}

void Engine::fc_pop(LaneId lane) {
  fc_pop_slot(lane);
  // Return the freed slot to the sender.
  if (fc_.scheme == FlowControlScheme::kOnOff) {
    if (fc_.count[lane] == fc_.on_threshold) {
      fc_deliver_or_queue(lane, /*go=*/true);
    }
  } else if (fc_.delay == 0) {
    // Instant credit return: the sender sees the free slot this cycle —
    // at depth 1 exactly the legacy "downstream buffer is empty" check.
    // No starvation clock can be open: with instant credits a sender is
    // gated only by a full buffer, which is backpressure, not starvation.
    ++fc_.credits[lane];
    return;
  } else {
    fc_.events.push_back({cycle_ + fc_.delay, lane, /*go=*/false});
  }
  // The freed slot may leave the sender gated with space downstream
  // (credit in flight, or an on/off pause): starvation begins now, and
  // no try_channel attempt will observe it — the sender is not seeded
  // until the gate lifts.
  if (!fc_.can_accept(lane) && upstream_has_flit(lane)) {
    fc_open_starve(lane);
  }
}

void Engine::fc_deliver_or_queue(LaneId lane, bool go) {
  if (fc_.delay == 0) {
    const bool was_stopped = fc_.stopped[lane] != 0;
    fc_.stopped[lane] = go ? 0 : 1;
    // The pop-site unblock retry re-seeds the sender, so an inline GO
    // needs no explicit wake.
    if (go && was_stopped) fc_close_starve(lane);
  } else {
    fc_.events.push_back({cycle_ + fc_.delay, lane, go});
  }
}

void Engine::drain_flow_control_events() {
  while (!fc_.events.empty() && fc_.events.front().due <= cycle_) {
    const FlowControlEvent ev = fc_.events.front();
    fc_.events.pop_front();
    bool now_sendable = false;
    if (fc_.scheme == FlowControlScheme::kOnOff) {
      now_sendable = ev.go && fc_.stopped[ev.lane] != 0;
      fc_.stopped[ev.lane] = ev.go ? 0 : 1;
    } else {
      now_sendable = fc_.credits[ev.lane] == 0;
      ++fc_.credits[ev.lane];
    }
    if (now_sendable) {
      fc_close_starve(ev.lane);
      // Wake the sender: schedule its channel for this cycle's advance
      // (the drain runs before the phases).  Source-less channels have
      // nothing to send; skipping them keeps the seed set exact.
      const ChannelId ch = lane_channel_[ev.lane];
      if (channel_sources_[ch] != 0) schedule_channel(ch);
    }
  }
}

void Engine::fc_close_starve(LaneId lane) {
  if (fc_.starve_since[lane] == kNoCycle) return;
  const std::uint64_t cycles = cycle_ - fc_.starve_since[lane];
  fc_.starve_since[lane] = kNoCycle;
  if (cycles == 0) return;
  if (observes(Event::kCreditStarved)) {
    // Blame the worm whose flit sat waiting for the gate to lift: the
    // transmitting node's packet on an injection lane, the upstream
    // FIFO's head worm otherwise.
    const std::uint32_t src_node = ch_src_node_[lane_channel_[lane]];
    PacketId worm = kNoPacket;
    if (src_node != kInvalidId) {
      worm = node_tx_packet_[src_node];
    } else if (alloc_owner_[lane] != kInvalidId) {
      worm = buf_packet_[alloc_owner_[lane]];
    }
    observer_->on_event({.kind = Event::kCreditStarved, .cycle = cycle_,
                         .packet = worm, .lane = lane, .count = cycles});
  }
}

bool Engine::upstream_has_flit(LaneId lane) const {
  const std::uint32_t src_node = ch_src_node_[lane_channel_[lane]];
  if (src_node != kInvalidId) {
    return node_tx_packet_[src_node] != kNoPacket;
  }
  const LaneId owner = alloc_owner_[lane];
  return owner != kInvalidId && buf_packet_[owner] != kNoPacket;
}

void Engine::deliver_flit(PacketId pkt_id, Flit flit) {
  if (in_measure_window()) {
    ++result_.delivered_flits_in_window;
  }
  ++delivered_flits_total_;
  if (!flit.is_tail()) return;
  PacketState& pkt = packets_[pkt_id];
  WORMSIM_DCHECK(network_
                     .channel(network_.ejection_channel(
                         static_cast<NodeId>(pkt.dst)))
                     .dst.id == pkt.dst);
  pkt.mark_delivered(cycle_);
  --worms_in_flight_;
  ++result_.delivered_messages_total;
  if (pkt.measured()) {
    const auto latency = static_cast<double>(cycle_ - pkt.create_cycle);
    result_.latency_cycles.add(latency);
    result_.latency_histogram.add(latency);
    result_.network_latency_cycles.add(
        static_cast<double>(cycle_ - pkt.inject_cycle()));
    result_.queueing_cycles.add(
        static_cast<double>(pkt.inject_cycle() - pkt.create_cycle));
  }
}

void Engine::advance_flits() {
  // Epoch-stamped channel_used_/arrived_ replace the two per-cycle
  // std::fill passes: bumping the epoch invalidates every stamp at once.
  ++epoch_;

  // Consume the event frontier: every channel scheduled since the previous
  // advance — by a grant, a transmission start, a flit arrival onto a
  // routed lane, or its own move last cycle.  This is a superset of the
  // channels that can move at pass one (see DESIGN.md for the induction).
  cur_pass_.swap(seed_bits_);

  if (consumer_first_) {
    if (multi_lane_ || (observed_ & kAdvanceEvents) != 0) {
      if (pop_stamp_.empty()) pop_stamp_.assign(buf_packet_.size(), 0);
      advance_consumer_first<true>();
    } else {
      advance_consumer_first<false>();
    }
    return;
  }

  // Resolve movement to a fixpoint: a move can free a buffer that enables
  // another move in the same cycle, which is exactly how an unblocked worm
  // slides forward one hop as a unit.  Invariant reproducing the original
  // scan order: a move at channel c re-tries the channel u it unblocked in
  // the *current* pass when u > c (the ascending scan has not reached it
  // yet) and in the *next* pass otherwise.  Readiness only ever arises
  // from such unblocks — every other state change during advance removes
  // readiness — so skipping never-seeded channels drops no move.
  while (cur_pass_.any()) advance_pass();
}

template <bool kPasses>
void Engine::advance_consumer_first() {
  // Descending id order is consumer-first on a feed-forward network: a
  // switch's in-channel ids are below its out-channel ids, so every
  // channel that can pop this channel's buffers is decided before it, and
  // a pop re-arms its sender below the cursor.  The fixpoint applied
  // every ejection in pass 1 in ascending channel order, and each event
  // at its (pass, channel) move: both are deferred and replayed so.
  telemetry::EngineObserver* const observer = observer_;
  const bool stage = (observed_ & kAdvanceEvents) != 0;
  if (stage) observer_ = &staged_;
  cur_pass_.consume_descending(
      [this](std::uint32_t ch) { visit_channel<kPasses>(ch); });
  for (auto it = cf_deliveries_.rbegin(); it != cf_deliveries_.rend(); ++it) {
    deliver_flit(it->first, it->second);
  }
  cf_deliveries_.clear();
  if (stage) {
    observer_ = observer;
    staged_.replay(*observer);
  }
}

template <bool kPasses>
std::uint32_t Engine::lane_pass_bound(LaneId lane) const {
  // Credits already include this cycle's pop of the lane, if any: with
  // exactly one left the lane was full before it and accepts only in the
  // pass after the pop.
  const std::uint32_t credits = fc_.credits[lane];
  if (credits == 0) return kNeverPass;
  if constexpr (kPasses) {
    if (credits == 1) {
      const std::uint32_t popped = popped_pass(lane);
      if (popped != 0) return popped + 1;
    }
  }
  return 1;
}

template <bool kPasses>
void Engine::visit_channel(ChannelId ch) {
  const LaneId first = ch_first_lane_[ch];
  const unsigned num = ch_num_lanes_[ch];
  const std::uint32_t src_node = ch_src_node_[ch];
  const bool dst_switch = ch_dst_is_switch_.test(ch);

  // Lanes whose upstream holds a flit that may cross this cycle.  The
  // senders of those flits sit on lower channels the descending pass has
  // not visited, so this is the cycle-start view the fixpoint saw.
  std::uint32_t up_mask = 0;
  if (!channel_faulty_.test(ch)) {
    if (src_node != kInvalidId) {
      if (node_tx_packet_[src_node] != kNoPacket) {
        up_mask = num >= 32 ? ~0u : (1u << num) - 1;
      }
    } else {
      for (unsigned v = 0; v < num; ++v) {
        const LaneId u = alloc_owner_[first + v];
        if (u != kInvalidId && buf_packet_[u] != kNoPacket &&
            arrived_epoch_[u] != epoch_) {
          WORMSIM_DCHECK(route_out_[u] == first + v);
          up_mask |= 1u << v;
        }
      }
    }
  }
  if (up_mask == 0) return;

  // The fixpoint moves this channel in the first pass t* at which one of
  // those lanes accepts, and round-robins among the lanes accepting by t*.
  std::uint32_t pass = kNeverPass;
  std::uint32_t ready = 0;
  if (!dst_switch) {
    pass = 1;  // ejection consumes instantly
    ready = up_mask;
  } else if (num == 1) {
    pass = lane_pass_bound<kPasses>(first);
    ready = pass != kNeverPass ? 1u : 0u;
  } else {
    std::uint32_t bound[32];
    for (unsigned v = 0; v < num; ++v) {
      if ((up_mask >> v) & 1) {
        bound[v] = lane_pass_bound<kPasses>(first + v);
        pass = std::min(pass, bound[v]);
      }
    }
    if (pass == kNeverPass) return;
    for (unsigned v = 0; v < num; ++v) {
      if (((up_mask >> v) & 1) && bound[v] <= pass) ready |= 1u << v;
    }
  }
  if (ready == 0) return;
  unsigned pick = vc_rr_[ch] % num;
  while ((ready & (1u << pick)) == 0) pick = (pick + 1) % num;
  vc_rr_[ch] = static_cast<std::uint8_t>((pick + 1) % num);

  if (kPasses) staged_.key = (std::uint64_t{pass} << 32) | ch;
  const LaneId lane = first + pick;
  const std::uint32_t stamp_pass = kPasses ? pass : 0;
  if (src_node != kInvalidId) {
    move_from_node<AdvanceMode::kConsumerFirst>(src_node, lane);
  } else {
    move_from_switch<AdvanceMode::kConsumerFirst>(alloc_owner_[lane], lane,
                                                  stamp_pass);
  }
  // A multi-lane channel may still hold another ready lane, and a
  // streaming channel wants its next flit: a mover is always a candidate
  // again next cycle.
  schedule_channel(ch);
  if (util_window_) ++result_.channel_busy_cycles[ch];
  last_move_cycle_ = cycle_;
}

void Engine::advance_pass() {
  cur_pass_.consume([&](std::uint32_t ch) {
    unblocked_ = kInvalidId;
    if (!try_channel(ch)) return;
    // A multi-lane channel may still hold another ready lane, and a
    // streaming channel wants its next flit: a mover is always a
    // candidate again next cycle.
    schedule_channel(ch);
    const ChannelId u = unblocked_;
    if (u == kInvalidId || channel_sources_[u] == 0 ||
        channel_used_epoch_[u] == epoch_) {
      // Nothing upstream, or it already transmitted this cycle (in
      // which case its own move rescheduled it for the next one).
      return;
    }
    if (u > ch) {
      cur_pass_.set(u);  // the ascending scan has not reached u yet
    } else {
      next_pass_.set(u);
    }
  });
  cur_pass_.swap(next_pass_);
}

void Engine::step() {
  using telemetry::EnginePhase;
  util_window_ = in_measure_window() && config_.record_channel_utilization;
  if (prof_ != nullptr) prof_->mark();
  if (!fc_.events.empty()) drain_flow_control_events();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kFlowControl);
  if (fault_state_.kill_due(cycle_)) apply_fault_plan();
  if (fault_state_.repair_due(cycle_)) repair_fault_plan();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kFault);
  generate_arrivals();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kArrivals);
  start_transmissions();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kStartTx);
  route_and_allocate();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kRouting);
  advance_flits();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kAdvance);

  // `cycle_ + 1` cycles are complete once this step ends.
  if (observer_ != nullptr) observer_->on_snapshot(snapshot(cycle_ + 1));
  if (prof_ != nullptr) prof_->lap(EnginePhase::kTelemetry);

  if (validator_ != nullptr) validator_->on_cycle_end();
  if (prof_ != nullptr) prof_->lap(EnginePhase::kValidate);

  if (occupied_ > 0 &&
      cycle_ - last_move_cycle_ > config_.deadlock_watchdog_cycles) {
    report_deadlock();
  }
  ++cycle_;
}

telemetry::Snapshot Engine::snapshot(std::uint64_t completed) const {
  telemetry::Snapshot snap;
  snap.cycle = completed;
  snap.messages_created = packets_.size();
  snap.messages_delivered = result_.delivered_messages_total;
  snap.messages_terminated = result_.terminated_messages;
  snap.flits_delivered = delivered_flits_total_;
  snap.flits_terminated = result_.terminated_flits;
  snap.flits_in_flight = occupied_;
  snap.worms_in_flight = worms_in_flight_;
  snap.queued_messages = queued_messages_;
  snap.dropped_messages = result_.dropped_messages;
  snap.faulty_channels =
      fault_state_.active() ? fault_state_.plan.channels.size() : 0;
  snap.lane_occupancy = fc_.count.data();
  return snap;
}

void Engine::report_deadlock() const {
  std::fprintf(stderr,
               "wormsim: deadlock watchdog fired at cycle %llu "
               "(%lld flits stuck)\n",
               static_cast<unsigned long long>(cycle_),
               static_cast<long long>(occupied_));
  std::size_t sourced = 0;
  for (std::uint32_t n : channel_sources_) sourced += n != 0 ? 1 : 0;
  std::fprintf(stderr,
               "  active sets: %zu channels with sources, %zu seeded for "
               "next cycle, %zu unrouted headers, %zu tx-pending nodes, "
               "%zu calendar entries\n",
               sourced, seed_bits_.count(), header_count_,
               tx_pending_.size(), arrival_calendar_.size());
  for (LaneId lane = 0; lane < buf_packet_.size(); ++lane) {
    if (buf_packet_[lane] == kNoPacket) continue;
    const PacketState& pkt = packets_[buf_packet_[lane]];
    const PhysChannel ch = network_.lane_channel(lane);
    std::fprintf(stderr,
                 "  lane %u (channel %u role %d) holds packet %u seq %u%s "
                 "(src %llu dst %llu len %u)\n",
                 lane, ch.id, static_cast<int>(ch.role), buf_packet_[lane],
                 buf_flit_[lane].seq(),
                 buf_flit_[lane].is_tail() ? " (tail)" : "",
                 static_cast<unsigned long long>(pkt.src),
                 static_cast<unsigned long long>(pkt.dst), pkt.length);
    for (std::uint32_t s = 0; s + 1 < fc_.count[lane]; ++s) {
      const std::size_t slot = fc_.ext_base(lane) + s;
      std::fprintf(stderr, "    fifo slot %u holds packet %u seq %u%s\n",
                   s + 1, fc_.ext_packet[slot], fc_.ext_flit[slot].seq(),
                   fc_.ext_flit[slot].is_tail() ? " (tail)" : "");
    }
  }
  if (!fc_.events.empty()) {
    std::fprintf(stderr, "  %zu backpressure events in flight (next due "
                 "cycle %llu)\n",
                 fc_.events.size(),
                 static_cast<unsigned long long>(fc_.events.front().due));
  }
  if (validator_ != nullptr) validator_->describe_stall();
  WORMSIM_CHECK_MSG(false, "deadlock detected (should be impossible)");
}

bool Engine::run_until_idle(std::uint64_t max_cycles) {
  for (std::uint64_t i = 0; i < max_cycles; ++i) {
    if (idle()) return true;
    step();
  }
  return idle();
}

SimResult Engine::run() {
  const std::uint64_t total = config_.total_cycles();
  const std::uint64_t measure_end =
      config_.warmup_cycles + config_.measure_cycles;
  const auto run_start = std::chrono::steady_clock::now();
  while (cycle_ < total) {
    step();
  }
  if (prof_ != nullptr) {
    profiler_->set_total_seconds(
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      run_start)
            .count());
  }
  // Time-to-drain SLO: cycles past the measurement window until every
  // message created before it ended was resolved (delivered or
  // fault-terminated).  Sources keep offering traffic through the drain
  // phase, so "network momentarily empty" would never fire at real
  // loads; resolving the pre-drain population is the degraded-mode
  // question — a fault that strands traffic shows up as a failed drain.
  std::uint64_t last_resolved = 0;
  bool all_resolved = true;
  for (const PacketState& pkt : packets_) {
    if (pkt.measured() && !pkt.delivered()) {
      ++result_.measured_messages_unfinished;
    }
    if (pkt.create_cycle >= measure_end) continue;
    if (pkt.delivered()) {
      last_resolved = std::max(last_resolved, pkt.deliver_cycle());
    } else if (pkt.terminated()) {
      last_resolved = std::max(last_resolved, pkt.terminate_cycle());
    } else {
      // Still queued at a source (or dropped at creation): the pre-drain
      // population never resolved inside the drain budget.
      all_resolved = false;
    }
  }
  result_.drained = all_resolved;
  result_.time_to_drain_cycles =
      all_resolved
          ? (last_resolved > measure_end ? last_resolved - measure_end : 0)
          : config_.drain_cycles;
  if (observer_ != nullptr) {
    observer_->on_run_end(snapshot(cycle_), result_.drained,
                          static_cast<double>(result_.time_to_drain_cycles) /
                              config_.flits_per_microsecond);
  }
  if (sample_sink_ != nullptr) {
    result_.telemetry_samples = sample_sink_->ordered();
  }
  if (run_monitor_ != nullptr) {
    result_.saturation_onset_cycle = run_monitor_->saturation_onset_cycle();
    result_.fault_onset_cycle = run_monitor_->fault_onset_cycle();
  }
  if (prof_ != nullptr) result_.phase_profile = profiler_->profile();
  if (validator_ != nullptr) validator_->check_final(result_);
  return result_;
}

}  // namespace wormsim::sim
