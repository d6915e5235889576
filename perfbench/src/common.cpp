#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

std::string run_path(const std::string& name) {
  std::filesystem::create_directories(".bench_run");
  return ".bench_run/" + name;
}

std::uint64_t mix(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double s = 0.0;
  for (double x : values) s += x;
  return s / static_cast<double>(values.size());
}

std::uint64_t digest(const std::vector<double>& scores) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* p = reinterpret_cast<const unsigned char*>(scores.data());
  for (std::size_t i = 0; i < scores.size() * sizeof(double); ++i) {
    h = (h ^ p[i]) * 0x100000001b3ull;
  }
  return h;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::size_t nproc() {
  return std::max<std::size_t>(1, std::thread::hardware_concurrency());
}

void add_end_to_end(Values& v, double setup_s, const Loop& loop) {
  std::vector<double> ends = loop.window_ends;
  if (ends.empty()) {
    const int windows = std::max(1, static_cast<int>(std::lround(loop.seconds /
                                                                 Loop::kWindowSeconds)));
    for (int w = 1; w <= windows; ++w) ends.push_back(loop.seconds * w / windows);
  }
  std::vector<double> rate, p50, p90, mteps;
  std::size_t next = 0, samples = 0;
  double begin = 0.0;  // last completion of the previous window
  for (double end : ends) {
    std::size_t count = 0;
    double work = 0.0, last = begin;
    std::vector<double> lat;
    for (; next < loop.ops.size() && (loop.ops[next].at_s <= end || end == ends.back());
         ++next) {
      const Loop::Op& op = loop.ops[next];
      ++count;
      work += op.teps_work;
      last = op.at_s;
      if (op.latency_ms >= 0) lat.push_back(op.latency_ms);
    }
    // Rates over the measured completion times, not the nominal window, so
    // they do not quantize to (whole ops) / (window length).
    const double span = last - begin;
    begin = last;
    if (span <= 0 || count == 0) continue;
    rate.push_back(static_cast<double>(count) / span);
    mteps.push_back(work / span / 1e6);
    if (!lat.empty()) {
      p50.push_back(quantile(lat, 0.5));
      p90.push_back(quantile(lat, 0.9));
      samples += lat.size();
    }
  }
  v["setup_s"] = setup_s;
  v["ops_per_s"] = quantile(rate, 0.5);
  v["latency_p50_ms"] = quantile(p50, 0.5);
  v["latency_p90_ms"] = quantile(p90, 0.5);
  v["mteps_wall"] = quantile(mteps, 0.5);
  v["peak_rss_mb"] = peak_rss_mb();
  std::fprintf(stderr, "  %zu ops in %.3f s over %zu windows; %zu latency samples\n",
               loop.ops.size(), loop.seconds, ends.size(), samples);
  std::fprintf(stderr, "  ops/s per window:");
  for (double r : rate) std::fprintf(stderr, " %.4g", r);
  std::fprintf(stderr, "\n  p50 ms per window:");
  for (double p : p50) std::fprintf(stderr, " %.4g", p);
  std::fprintf(stderr, "\n");
}

// --- Spans -------------------------------------------------------------

Spans::Spans(bool enabled) {
  if (enabled) {
    trace::TracerConfig cfg;
    cfg.categories = trace::kCompute;
    tracer_ = std::make_unique<trace::Tracer>(cfg);
  }
}

std::map<std::string, Spans::Totals> Spans::totals() const {
  std::map<std::string, Totals> out;
  if (!tracer_) return out;
  struct Open {
    const char* name;
    std::uint64_t begin;
    std::uint64_t child_ns;
  };
  // Events arrive sink by sink; a sink is one thread's timeline.
  std::map<std::uint32_t, std::vector<Open>> stacks;
  for (const trace::Event& e : tracer_->events()) {
    auto& stack = stacks[e.tid];
    if (e.phase == trace::Phase::Begin) {
      stack.push_back({e.name, e.ts_ns, 0});
    } else if (e.phase == trace::Phase::End && !stack.empty()) {
      const Open top = stack.back();
      stack.pop_back();
      const std::uint64_t dur = e.ts_ns - top.begin;
      Totals& t = out[top.name];
      ++t.count;
      t.total_ms += static_cast<double>(dur) / 1e6;
      t.self_ms += static_cast<double>(dur - std::min(dur, top.child_ns)) / 1e6;
      if (!stack.empty()) stack.back().child_ns += dur;
    }
  }
  return out;
}

double Spans::mean_ms(const std::string& name) const {
  const auto all = totals();
  const auto it = all.find(name);
  if (it == all.end() || it->second.count == 0) return 0.0;
  return it->second.total_ms / static_cast<double>(it->second.count);
}

bool Spans::write_chrome(const std::string& path, std::string& error) const {
  if (!tracer_) return true;
  const std::string json = tracer_->chrome_json();
  const trace::CheckResult check = trace::validate_chrome_trace(json);
  if (!check.ok) {
    error = check.error_text();
    return false;
  }
  std::ofstream out(path, std::ios::binary);
  out << json;
  if (!out) {
    error = "cannot write " + path;
    return false;
  }
  std::fprintf(stderr, "  trace: %s (%zu events, %zu spans, %llu dropped) validated\n",
               path.c_str(), check.total_events, check.span_pairs,
               static_cast<unsigned long long>(tracer_->dropped()));
  return true;
}

void Spans::print_table() const {
  std::fprintf(stderr, "  %-28s %8s %12s %12s\n", "span", "count", "total_ms", "self_ms");
  for (const auto& [name, t] : totals()) {
    std::fprintf(stderr, "  %-28s %8llu %12.3f %12.3f\n", name.c_str(),
                 static_cast<unsigned long long>(t.count), t.total_ms, t.self_ms);
  }
}

// --- Canary ------------------------------------------------------------

Canary::Canary(const std::string& workload, std::uint64_t seed)
    : path_(run_path("canary-" + workload + "-" + std::to_string(seed) + ".tsv")) {
  std::ifstream in(path_);
  std::string line;
  while (std::getline(in, line)) {
    const auto tab = line.find('\t');
    if (tab != std::string::npos) known_[line.substr(0, tab)] = line.substr(tab + 1);
  }
}

void Canary::record(const std::string& key, const kernels::RunMetrics& m,
                    std::uint64_t shards) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "sim_s=%a inspected=%llu traversed=%llu shards=%llu",
                m.sim_seconds, static_cast<unsigned long long>(m.counters.edges_inspected),
                static_cast<unsigned long long>(m.counters.edges_traversed),
                static_cast<unsigned long long>(shards));
  const auto [it, inserted] = known_.emplace(key, buf);
  if (!inserted && it->second != buf) {
    ++drifts_;
    std::fprintf(stderr, "  CANARY DRIFT %s: was {%s} now {%s}\n", key.c_str(),
                 it->second.c_str(), buf);
  }
}

void Canary::save() const {
  std::ofstream out(path_);
  for (const auto& [k, v] : known_) out << k << '\t' << v << '\n';
}

// --- KernelTotals --------------------------------------------------------

void KernelTotals::add(const kernels::RunMetrics& m) {
  ++computes;
  wall_s += m.wall_seconds;
  inspected_all += m.counters.edges_inspected;
  if (prefix_count < kCanaryPrefix) {
    ++prefix_count;
    prefix_inspected += m.counters.edges_inspected;
    prefix_traversed += m.counters.edges_traversed;
    prefix_sim_s += m.sim_seconds;
  }
}

void KernelTotals::put(Values& v) const {
  if (computes > 0) {
    v["kernels.wall_ms"] = wall_s * 1e3 / static_cast<double>(computes);
  }
  if (inspected_all > 0) {
    v["kernels.ns_per_inspected_edge"] = wall_s * 1e9 / static_cast<double>(inspected_all);
  }
  v["kernels.edges_inspected"] = static_cast<double>(prefix_inspected);
  v["kernels.edges_traversed"] = static_cast<double>(prefix_traversed);
  v["kernels.sim_s"] = prefix_sim_s;
}

}  // namespace perfbench
