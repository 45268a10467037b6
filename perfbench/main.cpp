// perfbench: the wormsim repo benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--smoke] [--repo <dir>] [--out <dir>]
//
// Workloads: large_n_saturation, quick_sweep_cache.
// --trace 0 measures the end-to-end metrics; --trace 1 runs the traced
// variant and reports per-layer metrics plus a Trace Event span file.
// The last line of stdout is one JSON object:
//   {"correct": ..., "attempted": n, "failed": n, "metrics": {...}}
// Exit status is 0 when every correctness check passed.
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <string>

#include "perfbench.hpp"

namespace {

int usage(const char* why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload <large_n_saturation|"
               "quick_sweep_cache> --seed <n> "
               "--seconds <s> --trace <0|1> [--smoke] [--repo <dir>] "
               "[--out <dir>]\n";
  return 2;
}

bool parse_u64(const char* text, std::uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(text, &end, 10);
  return end != text && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  args.repo = ".";
  args.out_dir = ".bench_build/perfbench-out";
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      args.smoke = true;
      continue;
    }
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    std::uint64_t number = 0;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      if (!parse_u64(value, &args.seed)) return usage("bad --seed");
    } else if (flag == "--seconds") {
      if (!parse_u64(value, &number) || number == 0) {
        return usage("bad --seconds");
      }
      args.seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return usage("--trace takes 0 or 1");
      }
      args.trace = value[0] == '1';
    } else if (flag == "--repo") {
      args.repo = value;
    } else if (flag == "--out") {
      args.out_dir = value;
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  void (*run)(const perfbench::Args&, perfbench::Report&) = nullptr;
  if (args.workload == "large_n_saturation") {
    run = perfbench::run_large_n_saturation;
  } else if (args.workload == "quick_sweep_cache") {
    run = perfbench::run_quick_sweep_cache;
  } else {
    return usage("unknown --workload");
  }

  args.out_dir += "/" + args.workload;
  std::filesystem::create_directories(args.out_dir);

  perfbench::Report report;
  perfbench::note_host(report);
  report.note("workload", args.workload);
  report.note("seed", std::to_string(args.seed));
  report.note("mode", args.trace ? "traced" : "measured");
  run(args, report);
  report.print(args.out_dir + (args.trace ? "/traced.json" : "/result.json"));
  return report.failed() == 0 && report.attempted() > 0 ? 0 : 1;
}
