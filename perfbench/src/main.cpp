// hbc-perfbench — the host-wall benchmark of the library (README.md).
//
//   hbc-perfbench --workload sweep|serve|fleet --seed N --seconds S --trace 0|1
//
// Untraced runs report the end-to-end metrics, traced runs the per-layer
// ones; both check every output. Progress and a metric table go to stderr;
// the last line of stdout is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// The metric names and units below are the ones BENCHMARK.json lists.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <span>
#include <stdexcept>
#include <string>
#include <unistd.h>

#include "common.hpp"

namespace {

using perfbench::Args;
using perfbench::Outcome;

struct MetricSpec {
  const char* name;
  const char* unit;
};

constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"},          {"ops_per_s", "1/s"},       {"latency_p50_ms", "ms"},
    {"latency_p90_ms", "ms"},  {"mteps_wall", "MTEPS"},    {"peak_rss_mb", "MiB"},
};

constexpr MetricSpec kPerLayer[] = {
    {"graph.gen_ms", "ms"},
    {"graph.open_ms", "ms"},
    {"graph.compressed_slowdown", "ratio"},
    {"graph.heap_ns_per_edge", "ns"},
    {"graph.mmap_ns_per_edge", "ns"},
    {"graph.hbcgz_ns_per_edge", "ns"},
    {"graph.hbcgz_materialize_ms", "ms"},
    {"kernels.wall_ms", "ms"},
    {"kernels.ns_per_inspected_edge", "ns"},
    {"kernels.forward_ms", "ms"},
    {"kernels.dependency_ms", "ms"},
    {"kernels.edges_inspected", "count"},
    {"kernels.edges_traversed", "count"},
    {"kernels.sim_s", "s"},
    {"cpu.parallel_mteps", "MTEPS"},
    {"cpu.serial_mteps", "MTEPS"},
    {"core.overhead_ms", "ms"},
    {"service.submit_us", "us"},
    {"service.hit_us", "us"},
    {"service.queue_ms", "ms"},
    {"service.compute_ms", "ms"},
    {"service.hit_rate", "fraction"},
    {"service.coalesced", "count"},
    {"service.cache_lookup_ns", "ns"},
    {"dyn.mutate_ms", "ms"},
    {"dyn.refresh_ms", "ms"},
    {"dyn.affected_fraction", "fraction"},
    {"dyn.patched", "count"},
    {"dyn.invalidated", "count"},
    {"mutate_p50_ms", "ms"},
    {"net.query_ms", "ms"},
    {"net.overhead_ms", "ms"},
    {"net.shards_per_query", "count"},
    {"net.shard_retries", "count"},
    {"net.local_fallbacks", "count"},
    {"net.result_bytes_per_query", "bytes"},
    {"net.encode_us", "us"},
    {"net.decode_us", "us"},
    {"trace.overhead", "fraction"},
    {"error_rate", "fraction"},
};

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "hbc-perfbench: %s\nusage: hbc-perfbench --workload sweep|serve|fleet "
               "--seed N --seconds S --trace 0|1\n",
               msg);
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string val = argv[++i];
    try {
      if (flag == "--workload") {
        a.workload = val;
        have[0] = true;
      } else if (flag == "--seed") {
        a.seed = std::stoull(val);
        have[1] = true;
      } else if (flag == "--seconds") {
        a.seconds = std::stod(val);
        have[2] = true;
      } else if (flag == "--trace") {
        if (val != "0" && val != "1") usage("--trace takes 0 or 1");
        a.trace = val == "1";
        have[3] = true;
      } else {
        usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::logic_error&) {
      usage(("bad value for " + flag).c_str());
    }
  }
  if (!(have[0] && have[1] && have[2] && have[3])) usage("all four flags are required");
  if (!(a.seconds > 0.0 && a.seconds <= 600.0)) usage("--seconds must be in (0, 600]");
  return a;
}

long llc_bytes() {
  for (int name : {_SC_LEVEL4_CACHE_SIZE, _SC_LEVEL3_CACHE_SIZE, _SC_LEVEL2_CACHE_SIZE}) {
    const long v = ::sysconf(name);
    if (v > 0) return v;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  std::fprintf(stderr, "hbc-perfbench: workload=%s seed=%llu seconds=%g trace=%d "
               "nproc=%zu llc_bytes=%ld\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               args.seconds, args.trace ? 1 : 0, perfbench::nproc(), llc_bytes());

  Outcome out;
  try {
    if (args.workload == "sweep") {
      out = perfbench::run_sweep(args);
    } else if (args.workload == "serve") {
      out = perfbench::run_serve(args);
    } else if (args.workload == "fleet") {
      out = perfbench::run_fleet(args);
    } else {
      usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hbc-perfbench: %s\n", e.what());
    return 1;
  }

  std::string json = "{\"correct\": ";
  json += out.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricSpec& m : args.trace ? std::span<const MetricSpec>(kPerLayer)
                                        : std::span<const MetricSpec>(kEndToEnd)) {
    const auto it = out.values.find(m.name);
    // A layer a workload bypasses did no work: its metrics read 0.
    double value = it == out.values.end() ? 0.0 : it->second;
    if (!std::isfinite(value)) value = 0.0;
    std::fprintf(stderr, "  %-30s %18.6f %s\n", m.name, value, m.unit);
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    json += std::string(first ? "" : ", ") + "\"" + m.name + "\": {\"value\": " + buf +
            ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  json += "}}";
  std::fprintf(stderr, "  correct=%s attempted=%llu failed=%llu\n",
               out.correct ? "true" : "false",
               static_cast<unsigned long long>(out.attempted),
               static_cast<unsigned long long>(out.failed));
  std::printf("%s\n", json.c_str());
  return 0;
}
