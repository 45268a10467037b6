#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "experiment/results_json.hpp"
#include "perfbench.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

namespace {

/// Shortest text that parses back to the same double; whole counts
/// print as integers.
std::string number(double value) {
  char buffer[40];
  if (value == std::floor(value) && std::fabs(value) < 1e15) {
    std::snprintf(buffer, sizeof(buffer), "%.0f", value);
    return buffer;
  }
  for (int precision = 1; precision <= 17; ++precision) {
    std::snprintf(buffer, sizeof(buffer), "%.*g", precision, value);
    if (std::strtod(buffer, nullptr) == value) break;
  }
  return buffer;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
      continue;
    }
    out += c;
  }
  return out + "\"";
}

thread_local std::vector<std::uint64_t> open_spans;

}  // namespace

// ---- Report -----------------------------------------------------------------

void Report::check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    std::cout << "CHECK FAILED: " << what << "\n";
  }
}

void Report::print(const std::string& path) const {
  for (const Note& note : notes_) {
    std::cout << note.key << " " << note.value << "\n";
  }
  for (const Metric& m : metrics_) {
    std::cout << "metric " << m.name << " " << number(m.value) << " "
              << m.unit << "\n";
  }
  std::cout << "checks " << attempted_ << " attempted, " << failed_
            << " failed (check_failed_frac "
            << number(attempted_ ? static_cast<double>(failed_) /
                                       static_cast<double>(attempted_)
                                 : 1.0)
            << ")\n";

  std::string metrics = "{";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const Metric& m = metrics_[i];
    metrics += (i ? ", " : "") + json_string(m.name) + ": {\"value\": " +
               number(m.value) + ", \"unit\": " + json_string(m.unit) + "}";
  }
  metrics += "}";
  const bool correct = failed_ == 0 && attempted_ > 0;
  const std::string line =
      std::string("{\"correct\": ") + (correct ? "true" : "false") +
      ", \"attempted\": " + std::to_string(attempted_) +
      ", \"failed\": " + std::to_string(failed_) +
      ", \"metrics\": " + metrics + "}";

  std::ofstream file(path);
  file << "{\"host\": {";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    file << (i ? ", " : "") << json_string(notes_[i].key) << ": "
         << json_string(notes_[i].value);
  }
  file << "},\n \"result\": " << line << "}\n";
  std::cout << line << std::endl;
}

// ---- Tracer -----------------------------------------------------------------

Tracer::Tracer() : origin_(Clock::now()) {}

std::uint32_t Tracer::thread_index() {
  // Caller holds mutex_.
  const std::thread::id self = std::this_thread::get_id();
  for (std::size_t i = 0; i < threads_.size(); ++i) {
    if (threads_[i] == self) return static_cast<std::uint32_t>(i);
  }
  threads_.push_back(self);
  return static_cast<std::uint32_t>(threads_.size() - 1);
}

std::uint64_t Tracer::begin(const std::string& name, std::uint64_t parent) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  std::lock_guard<std::mutex> lock(mutex_);
  Record record;
  record.name = name;
  record.parent = parent != 0           ? parent
                  : open_spans.empty() ? 0
                                       : open_spans.back();
  record.thread = thread_index();
  record.start_ns = now;
  records_.push_back(std::move(record));
  const std::uint64_t id = records_.size();  // 1-based; 0 means "root"
  open_spans.push_back(id);
  return id;
}

void Tracer::end(std::uint64_t id) {
  const std::int64_t now =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           origin_)
          .count();
  open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mutex_);
  Record& record = records_[id - 1];
  record.dur_ns = now - record.start_ns;
}

double Tracer::total_seconds(const std::string& name) const {
  double sum = 0.0;
  for (double d : durations(name)) sum += d;
  return sum;
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<double> out;
  for (const Record& r : records_) {
    if (r.name == name && r.dur_ns >= 0) out.push_back(r.dur_ns * 1e-9);
  }
  return out;
}

double Tracer::self_seconds(const std::string& category) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::int64_t> child_ns(records_.size() + 1, 0);
  for (const Record& r : records_) {
    // Only children on the parent's own thread overlap its interval;
    // cross-thread children (series under a figure) run concurrently.
    if (r.parent != 0 && r.dur_ns >= 0 &&
        records_[r.parent - 1].thread == r.thread) {
      child_ns[r.parent] += r.dur_ns;
    }
  }
  std::int64_t self_ns = 0;
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.dur_ns < 0) continue;
    if (r.name.compare(0, category.size(), category) != 0) continue;
    if (r.name.size() > category.size() && r.name[category.size()] != '.') {
      continue;
    }
    self_ns += r.dur_ns - child_ns[i + 1];
  }
  return self_ns * 1e-9;
}

std::size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_.size();
}

void Tracer::write(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::ostringstream os;
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  os << "{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": 1, \"tid\": 0, "
        "\"args\": {\"name\": \"perfbench\"}}";
  for (std::size_t t = 0; t < threads_.size(); ++t) {
    os << ",\n{\"ph\": \"M\", \"name\": \"thread_name\", \"pid\": 1, "
          "\"tid\": "
       << t << ", \"args\": {\"name\": "
       << json_string(t == 0 ? "main" : "worker " + std::to_string(t))
       << "}}";
  }
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (r.dur_ns < 0) continue;
    const std::string category = r.name.substr(0, r.name.find('.'));
    char times[96];
    std::snprintf(times, sizeof(times), "\"ts\": %.3f, \"dur\": %.3f",
                  r.start_ns * 1e-3, r.dur_ns * 1e-3);
    os << ",\n{\"ph\": \"X\", \"name\": " << json_string(r.name)
       << ", \"cat\": " << json_string(category) << ", " << times
       << ", \"pid\": 1, \"tid\": " << r.thread << ", \"args\": {\"id\": "
       << i + 1 << ", \"parent\": " << r.parent << "}}";
  }
  os << "\n]}\n";
  std::ofstream file(path);
  file << os.str();
}

// ---- per-layer metrics ------------------------------------------------------

void Probes::add(const wormsim::sim::SimResult& result) {
  std::lock_guard<std::mutex> lock(mutex);
  profile.merge(result.phase_profile);
  const wormsim::telemetry::Counters& c = result.telemetry_counters;
  if (!c.enabled()) return;
  grants += c.total_grants();
  denials += c.total_denials();
  crossings += c.total_flit_crossings();
  blocked += c.total_blocked_cycles();
  starved += c.total_credit_starved_cycles();
}

void report_layers(const Tracer& tracer, const Probes& probes,
                   const LayerExtras& x, const std::string& out_dir,
                   Report& report) {
  using wormsim::telemetry::EnginePhase;
  auto ratio = [](double part, double whole) {
    return whole > 0.0 ? part / whole : 0.0;
  };
  const std::string trace_path = out_dir + "/trace.json";
  tracer.write(trace_path);
  report.note("trace.file", trace_path);
  report.note("trace.spans", std::to_string(tracer.span_count()));

  auto span_s = [&](const char* metric, const char* span) {
    report.metric(metric, tracer.total_seconds(span), "s");
  };
  span_s("topology.build_s", "topology.build");
  span_s("routing.make_router_s", "routing.make_router");
  span_s("traffic.setup_s", "traffic.setup");
  span_s("sim.engine_ctor_s", "sim.engine_ctor");
  report.metric("routing.grants", probes.grants, "count");
  report.metric("routing.denials", probes.denials, "count");
  report.metric("routing.grant_ratio",
                ratio(probes.grants, probes.grants + probes.denials), "ratio");
  span_s("sim.run_s", "sim.run");
  report.metric("sim.step_ms_p50", x.step_ms_p50, "ms");
  report.metric("sim.step_ms_p99", x.step_ms_p99, "ms");
  for (const EnginePhase phase :
       {EnginePhase::kArrivals, EnginePhase::kStartTx, EnginePhase::kRouting,
        EnginePhase::kAdvance, EnginePhase::kFlowControl, EnginePhase::kFault,
        EnginePhase::kTelemetry}) {
    report.metric(std::string("sim.phase.") +
                      wormsim::telemetry::engine_phase_name(phase) + "_s",
                  probes.profile.seconds[static_cast<std::size_t>(phase)],
                  "s");
  }
  report.metric("sim.phase.coverage", x.phase_coverage, "ratio");
  report.metric("sim.flit_crossings", probes.crossings, "count");
  report.metric("sim.blocked_cycles", probes.blocked, "count");
  report.metric("sim.credit_starved_cycles", probes.starved, "count");
  report.metric("sim.team4_speedup", x.team4_speedup, "x");

  report.metric("scheduler.busy_s", x.scheduler_busy_s, "s");
  report.metric("scheduler.idle_s",
                std::max(0.0, x.scheduler_capacity_s - x.scheduler_busy_s),
                "s");
  report.metric("scheduler.utilization",
                ratio(x.scheduler_busy_s, x.scheduler_capacity_s), "ratio");
  report.metric("scheduler.computed", x.scheduler_computed, "count");
  report.metric("scheduler.speculated", x.scheduler_speculated, "count");
  report.metric("scheduler.useful_ratio",
                ratio(x.scheduler_computed - x.scheduler_speculated,
                      x.scheduler_computed),
                "ratio");
  const std::vector<double> points = tracer.durations("point.compute");
  report.note("scheduler.point_samples", std::to_string(points.size()));
  report.metric("scheduler.point_s_p50", percentile(points, 0.5), "s");
  report.metric("scheduler.point_s_p80", percentile(points, 0.8), "s");

  span_s("cache.fingerprint_s", "cache.fingerprint");
  span_s("cache.load_s", "cache.load");
  span_s("cache.store_s", "cache.store");
  const std::uint64_t lookups =
      x.cache.hits + x.cache.misses + x.cache.rejected;
  report.metric("cache.hits", x.cache.hits, "count");
  report.metric("cache.misses", x.cache.misses, "count");
  report.metric("cache.rejected", x.cache.rejected, "count");
  report.metric("cache.hit_ratio", ratio(x.cache.hits, lookups), "ratio");
  report.metric("cache.bytes", x.cache_bytes, "B");
  span_s("emit.table_s", "emit.table");
  span_s("emit.json_s", "emit.json");
  report.metric("emit.bytes", x.emit_bytes, "B");

  report.metric("trace.self.figure_s", tracer.self_seconds("figure"), "s");
  report.metric("trace.self.series_s", tracer.self_seconds("series"), "s");
  report.metric("trace.self.point_s", tracer.self_seconds("point"), "s");
  report.metric("trace.overhead_x", x.overhead_x, "x");
}

// ---- shared layer calls -----------------------------------------------------

std::unique_ptr<PointSetup> make_point_setup(
    const wormsim::experiment::SeriesSpec& spec, double load,
    const wormsim::sim::SimConfig& config, Tracer* tracer) {
  using namespace wormsim;
  auto setup = std::make_unique<PointSetup>();
  const auto start = Clock::now();
  {
    Span span(tracer, "topology.build");
    if (config.implicit_topology &&
        topology::ImplicitTopology::supports(spec.net)) {
      setup->implicit =
          std::make_shared<const topology::ImplicitTopology>(spec.net);
      setup->view = std::make_unique<topology::NetView>(setup->implicit);
    } else {
      setup->materialized = std::make_unique<const topology::Network>(
          topology::build_network(spec.net));
      setup->view = std::make_unique<topology::NetView>(*setup->materialized);
    }
  }
  {
    Span span(tracer, "routing.make_router");
    setup->router = routing::make_router(*setup->view);
  }
  {
    Span span(tracer, "traffic.setup");
    setup->traffic = std::make_unique<traffic::StandardTraffic>(
        *setup->view, spec.workload(*setup->view, load));
  }
  {
    Span span(tracer, "sim.engine_ctor");
    setup->engine = std::make_unique<sim::Engine>(
        *setup->view, *setup->router, setup->traffic.get(), config);
  }
  setup->seconds = seconds_since(start);
  return setup;
}

wormsim::experiment::SweepPoint to_sweep_point(
    const wormsim::sim::SimResult& result, double load,
    std::uint64_t sustainable_limit) {
  wormsim::experiment::SweepPoint point;
  point.offered_requested = load;
  point.offered_measured = result.offered_fraction();
  point.throughput = result.throughput_fraction();
  point.latency_us = result.mean_latency_us();
  point.latency_p95_us = result.latency_quantile_us(0.95);
  point.latency_p99_us = result.latency_quantile_us(0.99);
  point.network_latency_us = result.mean_network_latency_us();
  point.queueing_us =
      result.queueing_cycles.mean() / result.flits_per_microsecond;
  point.sustainable = result.sustainable(sustainable_limit);
  point.max_source_queue = result.max_source_queue;
  point.delivered_messages = result.delivered_messages_total;
  point.delivery_fraction = result.delivery_fraction();
  point.terminated_messages = result.terminated_messages;
  point.time_to_drain_us = static_cast<double>(result.time_to_drain_cycles) /
                           result.flits_per_microsecond;
  point.saturation_onset_cycle = result.saturation_onset_cycle;
  point.fault_onset_cycle = result.fault_onset_cycle;
  return point;
}

std::uint64_t emit_figure(const wormsim::experiment::FigureResult& figure,
                          const wormsim::telemetry::RunManifest& manifest,
                          Tracer* tracer, std::string* table) {
  std::ostringstream text;
  {
    Span span(tracer, "emit.table");
    wormsim::experiment::print_figure(figure, text);
  }
  std::string json;
  {
    Span span(tracer, "emit.json");
    json = wormsim::experiment::figure_to_json(figure, manifest).dump_string();
  }
  *table += text.str();
  return text.str().size() + json.size();
}

// ---- CoreRotation -----------------------------------------------------------

CoreRotation::CoreRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) cpus_.push_back(cpu);
  }
}

void CoreRotation::next() {
  if (cpus_.size() < 2) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[next_++ % cpus_.size()], &set);
  pinned_ = sched_setaffinity(0, sizeof(set), &set) == 0;
}

void CoreRotation::release() {
  if (!pinned_) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
  pinned_ = false;
}

// ---- helpers ----------------------------------------------------------------

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::min(values.size(), std::max<std::size_t>(rank, 1)) - 1];
}

std::string fnv_hex(const std::string& bytes) {
  std::uint64_t h = 1469598103934665603ULL;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016" PRIx64, h);
  return buffer;
}

std::string read_file(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  std::ostringstream os;
  os << file.rdbuf();
  return os.str();
}

std::uint64_t directory_bytes(const std::string& path) {
  std::uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry :
       std::filesystem::recursive_directory_iterator(path, ec)) {
    if (entry.is_regular_file(ec)) bytes += entry.file_size(ec);
  }
  return bytes;
}

double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

unsigned pool_width() {
  const unsigned n = std::thread::hardware_concurrency();
  return std::max(1u, std::min(2u, n));
}

void note_host(Report& report) {
  std::string model = "unknown";
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid(0x80000000u, &regs[0], &regs[1], &regs[2], &regs[3]) &&
      regs[0] >= 0x80000004u) {
    for (unsigned leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002u + leaf, &regs[4 * leaf], &regs[4 * leaf + 1],
                  &regs[4 * leaf + 2], &regs[4 * leaf + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    model = brand;
    model.erase(0, model.find_first_not_of(' '));
  }
#endif
  auto kib = [](long bytes) {
    return bytes > 0 ? std::to_string(bytes / 1024) + "KiB"
                     : std::string("unknown");
  };
  report.note("host.nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN)));
  report.note("host.cpu_model", model);
  report.note("host.l2", kib(sysconf(_SC_LEVEL2_CACHE_SIZE)));
  report.note("host.l3", kib(sysconf(_SC_LEVEL3_CACHE_SIZE)));
  report.note("host.build_type", PERFBENCH_BUILD_TYPE);
  report.note("host.git_revision", wormsim::telemetry::git_revision());
}

}  // namespace perfbench
