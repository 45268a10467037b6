#include "telemetry/chrome_trace.hpp"

#include <map>
#include <ostream>
#include <set>

namespace wormsim::telemetry {

using topology::LaneId;
using topology::PhysChannel;

JsonValue& ChromeTraceWriter::slice(const std::string& name, const char* cat,
                                    std::int64_t pid, std::int64_t tid,
                                    std::uint64_t first,
                                    std::uint64_t cycles) {
  JsonValue event = JsonValue::object();
  event.set("name", name);
  event.set("cat", cat);
  event.set("ph", "X");
  event.set("ts", static_cast<double>(first) * scale_);
  event.set("dur", static_cast<double>(cycles) * scale_);
  event.set("pid", pid);
  event.set("tid", tid);
  ++slices_;
  events_.push_back(std::move(event));
  return events_.items().back();
}

void ChromeTraceWriter::name(std::int64_t pid, std::int64_t tid,
                             const std::string& label) {
  JsonValue meta = JsonValue::object();
  meta.set("name", tid < 0 ? "process_name" : "thread_name");
  meta.set("ph", "M");
  meta.set("pid", pid);
  if (tid >= 0) meta.set("tid", tid);
  JsonValue args = JsonValue::object();
  args.set("name", label);
  meta.set("args", std::move(args));
  events_.push_back(std::move(meta));
}

void ChromeTraceWriter::write(std::ostream& os) {
  JsonValue document = JsonValue::object();
  document.set("traceEvents", std::move(events_));
  document.set("displayTimeUnit", "ms");
  document.dump(os, /*indent=*/-1);
  events_ = JsonValue::array();
}

namespace {

// Track ids: switches keep their switch id as pid; node endpoints get a
// disjoint pid range above every switch id.
std::int64_t endpoint_pid(const topology::Network& network,
                          const topology::Endpoint& endpoint) {
  if (endpoint.is_switch()) return endpoint.id;
  return static_cast<std::int64_t>(network.switches().size()) + endpoint.id;
}

struct Occupancy {
  std::uint64_t first_cycle = 0;
  std::uint64_t last_cycle = 0;
  std::uint32_t flits = 0;
};

}  // namespace

std::size_t write_chrome_trace(const std::vector<EngineEvent>& events,
                               const topology::Network& network,
                               std::ostream& os,
                               const ChromeTraceOptions& options) {
  // Pass 1: collapse flit moves into per-(packet, lane) occupancy spans.
  // A worm occupies a lane from its header crossing to its tail crossing;
  // map key order (packet, lane, first cycle) keeps output deterministic.
  std::map<std::pair<WormId, LaneId>, Occupancy> spans;
  for (const EngineEvent& event : events) {
    if (event.kind != EngineEvent::Kind::kFlitMoved) continue;
    auto [it, inserted] =
        spans.try_emplace({event.packet, event.lane}, Occupancy{});
    Occupancy& span = it->second;
    if (inserted) span.first_cycle = event.cycle;
    span.last_cycle = event.cycle;
    ++span.flits;
  }

  ChromeTraceWriter writer(options.flits_per_microsecond);
  std::set<std::int64_t> pids_seen;
  for (const auto& [key, span] : spans) {
    const auto [packet, lane] = key;
    const PhysChannel& channel = network.lane_channel(lane);
    const std::int64_t pid = endpoint_pid(network, channel.dst);
    pids_seen.insert(pid);
    // A span covering cycles [first, last] occupies last - first + 1.
    JsonValue& slice = writer.slice(
        "worm " + std::to_string(packet), "worm", pid,
        static_cast<std::int64_t>(lane), span.first_cycle,
        span.last_cycle - span.first_cycle + 1);
    JsonValue args = JsonValue::object();
    args.set("packet", static_cast<std::int64_t>(packet));
    args.set("channel", static_cast<std::int64_t>(channel.id));
    args.set("lane", static_cast<std::int64_t>(lane));
    args.set("flits", static_cast<std::int64_t>(span.flits));
    slice.set("args", std::move(args));
  }

  if (options.metadata) {
    const auto switch_count =
        static_cast<std::int64_t>(network.switches().size());
    for (std::int64_t pid : pids_seen) {
      if (pid < switch_count) {
        const topology::Switch& sw =
            network.switch_ref(static_cast<topology::SwitchId>(pid));
        writer.name(pid, -1,
                    "switch " + std::to_string(sw.id) + " (stage " +
                        std::to_string(sw.stage) + ")");
      } else {
        writer.name(pid, -1, "node " + std::to_string(pid - switch_count));
      }
    }
  }
  writer.write(os);
  return writer.slices();
}

}  // namespace wormsim::telemetry
