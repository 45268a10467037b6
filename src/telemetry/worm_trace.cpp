#include "telemetry/worm_trace.hpp"

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <ostream>
#include <string>

#include "telemetry/chrome_trace.hpp"
#include "util/check.hpp"

namespace wormsim::telemetry {

using topology::ChannelId;
using topology::kInvalidId;
using topology::LaneId;

bool worm_trace_enabled_from_env() {
  const char* value = std::getenv("WORMSIM_TRACE");
  return value != nullptr && value[0] != '\0' &&
         !(value[0] == '0' && value[1] == '\0');
}

WormTracer::WormTracer(std::size_t lane_count, std::size_t channel_count)
    : EngineObserver(~(EngineEvent::bit(EngineEvent::Kind::kFlitMoved) |
                       EngineEvent::bit(EngineEvent::Kind::kDiscarded) |
                       EngineEvent::bit(EngineEvent::Kind::kFault))) {
  lane_holder_.assign(lane_count, kNoWorm);
  channel_last_user_.assign(channel_count, kNoWorm);
  lane_starved_.assign(lane_count, 0);
}

void WormTracer::on_event(const EngineEvent& e) {
  using Kind = EngineEvent::Kind;
  switch (e.kind) {
    case Kind::kCreated: {
      if (records_.size() <= e.packet) records_.resize(e.packet + 1);
      WormRecord& r = records_[e.packet];
      r.id = e.packet;
      r.src = e.src;
      r.dst = e.dst;
      r.length = static_cast<std::uint32_t>(e.count);
      r.measured = e.flag;
      r.create_cycle = e.cycle;
      break;
    }
    case Kind::kInjected:
      rec(e.packet).inject_cycle = e.cycle;
      break;
    case Kind::kHeaderArrival: {  // a new stage begins
      StageSpan stage;
      stage.in_lane = e.lane;
      stage.arrive_cycle = e.cycle;
      rec(e.packet).stages.push_back(stage);
      break;
    }
    case Kind::kBlocked:
      on_blocked(e);
      break;
    case Kind::kRouted: {
      WormRecord& r = rec(e.packet);
      WORMSIM_DCHECK(!r.stages.empty() && r.stages.back().in_lane == e.from);
      r.stages.back().out_lane = e.lane;
      r.stages.back().grant_cycle = e.cycle;
      r.blocked_open = false;
      lane_holder_[e.lane] = e.packet;
      break;
    }
    case Kind::kLaneReleased:
      lane_holder_[e.lane] = kNoWorm;
      break;
    case Kind::kCreditStarved:
      lane_starved_[e.lane] += e.count;
      if (e.packet != kNoWorm) rec(e.packet).starved_cycles += e.count;
      break;
    case Kind::kDelivered:
      on_delivered(rec(e.packet), e.cycle);
      break;
    case Kind::kTerminated:
      rec(e.packet).terminate_cycle = e.cycle;
      rec(e.packet).blocked_open = false;
      break;
    case Kind::kFlitMoved:
    case Kind::kDiscarded:
    case Kind::kFault:
      break;
  }
}

std::uint32_t WormTracer::open_chain_depth(WormId culprit) const {
  // Snapshot walk over currently-open intervals.  One-edge-per-worm
  // attribution can form cycles under adaptive routing (a worm waits on
  // all its candidates but we pin only the first), so the cap is a
  // correctness guard, not just a bound.
  std::uint32_t depth = 1;
  while (culprit != kNoWorm && depth < kMaxChainDepth) {
    const WormRecord& r = records_[culprit];
    if (!r.blocked_open) break;
    ++depth;
    culprit = r.blocked.empty() ? kNoWorm : r.blocked.back().culprit_worm;
  }
  return depth;
}

void WormTracer::on_blocked(const EngineEvent& e) {
  WormRecord& r = rec(e.packet);
  WORMSIM_DCHECK(!r.stages.empty());
  ++r.stages.back().blocked_cycles;
  const LaneId culprit_lane = e.lane;
  const WormId holder = culprit_lane != kInvalidId &&
                                culprit_lane < lane_holder_.size()
                            ? lane_holder_[culprit_lane]
                            : kNoWorm;
  if (r.blocked_open) {
    BlockedInterval& open = r.blocked.back();
    if (open.culprit_lane == culprit_lane && open.culprit_worm == holder &&
        open.credit_starved == e.flag && open.last_cycle + 1 == e.cycle) {
      open.last_cycle = e.cycle;
      return;
    }
  }
  BlockedInterval interval;
  interval.first_cycle = e.cycle;
  interval.last_cycle = e.cycle;
  interval.waiting_lane = e.from;
  interval.culprit_lane = culprit_lane;
  interval.culprit_worm = holder;
  interval.chain_depth = open_chain_depth(holder);
  interval.credit_starved = e.flag;
  r.blocked.push_back(interval);
  r.blocked_open = true;
}

void WormTracer::on_delivered(WormRecord& r, std::uint64_t cycle) {
  r.deliver_cycle = cycle;
  r.blocked_open = false;
  r.queue_cycles = r.inject_cycle - r.create_cycle;
  // One grant cycle per stage; the per-cycle denial hooks fill `blocked`.
  // Streaming is derived from the stage *timestamps* instead — if either
  // instrumentation path miscounted, the components would no longer sum
  // to the end-to-end latency (the reconciliation test's whole point).
  r.routing_cycles = r.stages.size();
  r.blocked_cycles = 0;
  for (const BlockedInterval& interval : r.blocked) {
    r.blocked_cycles += interval.cycles();
  }
  std::uint64_t header_wait = 0;  // sum over stages of grant - arrive
  for (const StageSpan& stage : r.stages) {
    WORMSIM_DCHECK(stage.granted());
    header_wait += stage.grant_cycle - stage.arrive_cycle;
  }
  r.streaming_cycles = (r.deliver_cycle - r.inject_cycle) - header_wait;
}

void WormTracer::set_measured(WormId id, bool measured) {
  rec(id).measured = measured;
}

void WormTracer::on_sf_hop_arrival(WormId id, LaneId lane,
                                   std::uint64_t cycle) {
  WormRecord& r = rec(id);
  r.hop_arrival = cycle;
  r.blocked_open = true;  // waiting in lane's queue until the next start
  (void)lane;  // the close-side hook names the waiting lane
}

void WormTracer::on_sf_transfer_start(WormId id, LaneId from, LaneId to,
                                      ChannelId channel,
                                      std::uint64_t cycle) {
  WormRecord& r = rec(id);
  ++r.hops;
  if (from == kInvalidId) {
    r.inject_cycle = cycle;
  } else if (cycle > r.hop_arrival) {
    // The packet sat in `from`'s queue; blame the previous user of the
    // channel it ultimately took (chain depth is a lower bound for SF:
    // the culprit's own wait target is unknown until it closes).
    BlockedInterval interval;
    interval.first_cycle = r.hop_arrival;
    interval.last_cycle = cycle - 1;
    interval.waiting_lane = from;
    interval.culprit_lane = to;
    interval.culprit_worm = channel_last_user_[channel];
    interval.chain_depth =
        interval.culprit_worm != kNoWorm &&
                records_[interval.culprit_worm].blocked_open
            ? 2
            : 1;
    r.blocked.push_back(interval);
  }
  r.blocked_open = false;
  channel_last_user_[channel] = id;
}

void WormTracer::on_sf_delivered(WormId id, std::uint64_t cycle) {
  WormRecord& r = rec(id);
  r.deliver_cycle = cycle;
  r.blocked_open = false;
  r.queue_cycles = r.inject_cycle - r.create_cycle;
  r.routing_cycles = 0;  // no per-stage header arbitration in SF
  r.blocked_cycles = 0;
  for (const BlockedInterval& interval : r.blocked) {
    r.blocked_cycles += interval.cycles();
  }
  // Transfer time; equals hops x length by construction (cross-checked in
  // tests against the hop counter).
  r.streaming_cycles = (r.deliver_cycle - r.inject_cycle) - r.blocked_cycles;
}

WormTraceSummary summarize_worm_trace(const WormTracer& tracer,
                                      std::size_t top_n) {
  WormTraceSummary summary;
  summary.chain_depth_histogram.assign(WormTracer::kMaxChainDepth + 1, 0);
  // Same binning as the latency histogram: 20 cycles = 1 us, overflow
  // above 60k cycles (p95 reports +inf there, serialized as null).
  util::Histogram queue_hist(20.0, 3000);
  util::Histogram routing_hist(20.0, 3000);
  util::Histogram blocked_hist(20.0, 3000);
  util::Histogram streaming_hist(20.0, 3000);
  std::vector<std::uint64_t> lane_cycles;
  std::vector<std::uint64_t> lane_intervals;
  std::vector<std::uint64_t> worm_cycles;
  std::vector<std::uint64_t> worm_intervals;
  for (const WormRecord& r : tracer.records()) {
    if (!r.delivered()) {
      if (r.terminated()) {
        ++summary.terminated;
      } else {
        ++summary.unfinished;
      }
      continue;
    }
    ++summary.delivered;
    summary.starved_cycles_total += r.starved_cycles;
    summary.starved_worms += r.starved_cycles > 0;
    summary.queue_cycles.add(static_cast<double>(r.queue_cycles));
    summary.routing_cycles.add(static_cast<double>(r.routing_cycles));
    summary.blocked_cycles.add(static_cast<double>(r.blocked_cycles));
    summary.streaming_cycles.add(static_cast<double>(r.streaming_cycles));
    summary.total_cycles.add(static_cast<double>(r.total_cycles()));
    queue_hist.add(static_cast<double>(r.queue_cycles));
    routing_hist.add(static_cast<double>(r.routing_cycles));
    blocked_hist.add(static_cast<double>(r.blocked_cycles));
    streaming_hist.add(static_cast<double>(r.streaming_cycles));
    for (const BlockedInterval& interval : r.blocked) {
      ++summary.blocked_intervals;
      const std::uint32_t depth =
          std::min(interval.chain_depth, WormTracer::kMaxChainDepth);
      ++summary.chain_depth_histogram[depth];
      if (interval.culprit_lane != topology::kInvalidId) {
        if (lane_cycles.size() <= interval.culprit_lane) {
          lane_cycles.resize(interval.culprit_lane + 1, 0);
          lane_intervals.resize(interval.culprit_lane + 1, 0);
        }
        lane_cycles[interval.culprit_lane] += interval.cycles();
        ++lane_intervals[interval.culprit_lane];
      }
      if (interval.culprit_worm != kNoWorm) {
        if (worm_cycles.size() <= interval.culprit_worm) {
          worm_cycles.resize(interval.culprit_worm + 1, 0);
          worm_intervals.resize(interval.culprit_worm + 1, 0);
        }
        worm_cycles[interval.culprit_worm] += interval.cycles();
        ++worm_intervals[interval.culprit_worm];
      }
    }
  }
  summary.queue_p95_cycles = queue_hist.quantile(0.95);
  summary.routing_p95_cycles = routing_hist.quantile(0.95);
  summary.blocked_p95_cycles = blocked_hist.quantile(0.95);
  summary.streaming_p95_cycles = streaming_hist.quantile(0.95);
  while (!summary.chain_depth_histogram.empty() &&
         summary.chain_depth_histogram.back() == 0) {
    summary.chain_depth_histogram.pop_back();
  }

  for (LaneId lane = 0; lane < lane_cycles.size(); ++lane) {
    if (lane_cycles[lane] == 0) continue;
    summary.top_lanes.push_back(
        {lane, lane_cycles[lane], lane_intervals[lane]});
  }
  std::stable_sort(summary.top_lanes.begin(), summary.top_lanes.end(),
                   [](const WormTraceSummary::CulpritLane& a,
                      const WormTraceSummary::CulpritLane& b) {
                     return a.cycles > b.cycles;
                   });
  if (summary.top_lanes.size() > top_n) summary.top_lanes.resize(top_n);

  for (WormId worm = 0; worm < worm_cycles.size(); ++worm) {
    if (worm_cycles[worm] == 0) continue;
    summary.top_worms.push_back(
        {worm, worm_cycles[worm], worm_intervals[worm]});
  }
  std::stable_sort(summary.top_worms.begin(), summary.top_worms.end(),
                   [](const WormTraceSummary::CulpritWorm& a,
                      const WormTraceSummary::CulpritWorm& b) {
                     return a.cycles > b.cycles;
                   });
  if (summary.top_worms.size() > top_n) summary.top_worms.resize(top_n);

  const std::vector<std::uint64_t>& starved = tracer.lane_starved();
  for (LaneId lane = 0; lane < starved.size(); ++lane) {
    if (starved[lane] == 0) continue;
    summary.top_starved_lanes.push_back({lane, starved[lane]});
  }
  std::stable_sort(summary.top_starved_lanes.begin(),
                   summary.top_starved_lanes.end(),
                   [](const WormTraceSummary::StarvedLane& a,
                      const WormTraceSummary::StarvedLane& b) {
                     return a.cycles > b.cycles;
                   });
  if (summary.top_starved_lanes.size() > top_n) {
    summary.top_starved_lanes.resize(top_n);
  }
  return summary;
}

namespace {

/// mean/p95 pair with the results-JSON overflow convention: a p95 in the
/// histogram's overflow bin serializes as null plus an `_overflow` flag.
void set_component(JsonValue& parent, const std::string& name,
                   const util::OnlineStats& stats, double p95_cycles,
                   double flits_per_microsecond) {
  JsonValue component = JsonValue::object();
  component.set("mean_cycles", stats.mean());
  component.set("mean_us", stats.mean() / flits_per_microsecond);
  if (p95_cycles == std::numeric_limits<double>::infinity()) {
    component.set("p95_cycles", JsonValue());
    component.set("p95_overflow", true);
  } else {
    component.set("p95_cycles", p95_cycles);
    component.set("p95_overflow", false);
  }
  parent.set(name, std::move(component));
}

}  // namespace

JsonValue worm_trace_summary_to_json(const WormTraceSummary& summary,
                                     double flits_per_microsecond) {
  JsonValue json = JsonValue::object();
  json.set("worms_delivered", summary.delivered);
  json.set("worms_unfinished", summary.unfinished);
  // Only present under fault injection, keeping fault-free results
  // byte-identical to the pre-fault schema (same discipline as the
  // credit_starvation section below).
  if (summary.terminated > 0) {
    json.set("worms_terminated", summary.terminated);
  }
  set_component(json, "queue", summary.queue_cycles,
                summary.queue_p95_cycles, flits_per_microsecond);
  set_component(json, "routing", summary.routing_cycles,
                summary.routing_p95_cycles, flits_per_microsecond);
  set_component(json, "blocked", summary.blocked_cycles,
                summary.blocked_p95_cycles, flits_per_microsecond);
  set_component(json, "streaming", summary.streaming_cycles,
                summary.streaming_p95_cycles, flits_per_microsecond);
  json.set("mean_total_cycles", summary.total_cycles.mean());
  json.set("blocked_intervals", summary.blocked_intervals);
  JsonValue chain = JsonValue::array();
  for (std::uint64_t count : summary.chain_depth_histogram) {
    chain.push_back(count);
  }
  json.set("chain_depth_histogram", std::move(chain));
  JsonValue lanes = JsonValue::array();
  for (const WormTraceSummary::CulpritLane& lane : summary.top_lanes) {
    JsonValue entry = JsonValue::object();
    entry.set("lane", static_cast<std::int64_t>(lane.lane));
    entry.set("blocked_cycles", lane.cycles);
    entry.set("intervals", lane.intervals);
    lanes.push_back(std::move(entry));
  }
  json.set("top_culprit_lanes", std::move(lanes));
  JsonValue worms = JsonValue::array();
  for (const WormTraceSummary::CulpritWorm& worm : summary.top_worms) {
    JsonValue entry = JsonValue::object();
    entry.set("worm", static_cast<std::int64_t>(worm.worm));
    entry.set("blocked_cycles", worm.cycles);
    entry.set("intervals", worm.intervals);
    worms.push_back(std::move(entry));
  }
  json.set("top_culprit_worms", std::move(worms));
  // Only present when starvation actually occurred, so results from the
  // legacy depth-1 / delay-0 model serialize byte-identically to before
  // the flow-control subsystem existed.
  if (summary.starved_cycles_total > 0) {
    JsonValue starvation = JsonValue::object();
    starvation.set("starved_cycles", summary.starved_cycles_total);
    starvation.set("starved_worms", summary.starved_worms);
    JsonValue starved_lanes = JsonValue::array();
    for (const WormTraceSummary::StarvedLane& lane :
         summary.top_starved_lanes) {
      JsonValue entry = JsonValue::object();
      entry.set("lane", static_cast<std::int64_t>(lane.lane));
      entry.set("starved_cycles", lane.cycles);
      starved_lanes.push_back(std::move(entry));
    }
    starvation.set("top_starved_lanes", std::move(starved_lanes));
    json.set("credit_starvation", std::move(starvation));
  }
  return json;
}

std::size_t write_worm_trace_chrome(const WormTracer& tracer,
                                    std::ostream& os,
                                    const WormChromeOptions& options) {
  ChromeTraceWriter writer(options.flits_per_microsecond);
  std::vector<WormId> shown;
  for (const WormRecord& r : tracer.records()) {
    if (!r.delivered()) continue;
    if (r.total_cycles() < options.min_total_cycles) continue;
    shown.push_back(r.id);
    const auto tid = static_cast<std::int64_t>(r.id);

    // Lifetime slice [create, deliver]; children nest inside it.
    JsonValue& lifetime = writer.slice(
        "worm " + std::to_string(r.id) + " " + std::to_string(r.src) +
            "->" + std::to_string(r.dst) + " len " +
            std::to_string(r.length),
        "worm", 0, tid, r.create_cycle, r.total_cycles() + 1);
    JsonValue args = JsonValue::object();
    args.set("queue_cycles", r.queue_cycles);
    args.set("routing_cycles", r.routing_cycles);
    args.set("blocked_cycles", r.blocked_cycles);
    args.set("streaming_cycles", r.streaming_cycles);
    args.set("measured", r.measured);
    lifetime.set("args", std::move(args));

    if (r.queue_cycles > 0) {
      writer.slice("queue", "queue", 0, tid, r.create_cycle, r.queue_cycles);
    }
    for (std::size_t k = 0; k < r.stages.size(); ++k) {
      const StageSpan& stage = r.stages[k];
      // [arrive, grant]: the header's whole residence as an unrouted
      // header at this stage, denials and the grant cycle included.
      writer.slice("stage " + std::to_string(k) + " @ lane " +
                       std::to_string(stage.in_lane) + " -> " +
                       std::to_string(stage.out_lane),
                   "routing", 0, tid, stage.arrive_cycle,
                   stage.grant_cycle - stage.arrive_cycle + 1);
    }
    for (const BlockedInterval& interval : r.blocked) {
      const std::string culprit =
          interval.credit_starved
              ? std::string("credit starvation")
              : interval.culprit_worm == kNoWorm
                    ? std::string("faulty lane")
                    : "worm " + std::to_string(interval.culprit_worm);
      writer.slice("blocked on " + culprit + " @ lane " +
                       std::to_string(interval.culprit_lane) + " (depth " +
                       std::to_string(interval.chain_depth) + ")",
                   "blocked", 0, tid, interval.first_cycle,
                   interval.cycles());
    }
    // Tail streaming after the last grant (wormhole) or after injection
    // for hop-wait-free SF packets; derived, but nice in the viewer.
    if (!r.stages.empty()) {
      const std::uint64_t last_grant = r.stages.back().grant_cycle;
      if (r.deliver_cycle > last_grant) {
        writer.slice("streaming", "streaming", 0, tid, last_grant + 1,
                     r.deliver_cycle - last_grant);
      }
    }
  }

  if (options.metadata) {
    writer.name(0, -1, "worms");
    for (WormId id : shown) {
      writer.name(0, id, "worm " + std::to_string(id));
    }
  }
  writer.write(os);
  return writer.slices();
}

}  // namespace wormsim::telemetry
