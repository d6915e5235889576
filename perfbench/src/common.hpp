#pragma once

// Shared pieces of hbc-perfbench: arguments, clocks, quantiles, the span
// recorder behind the traced run, the determinism canary, and the metric
// map every workload fills.

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "hbc.hpp"

namespace perfbench {

using namespace hbc;
using Clock = std::chrono::steady_clock;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
};

/// Metric name -> value. Workloads fill it; main prints the names listed
/// in BENCHMARK.json with their units.
using Values = std::map<std::string, double>;

/// What one workload run hands back to main.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  Values values;
};

Outcome run_sweep(const Args& args);
Outcome run_serve(const Args& args);
Outcome run_fleet(const Args& args);

inline double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Path of a scratch file under .bench_run/ (relative to the checkout
/// root, the working directory); creates the directory.
std::string run_path(const std::string& name);

/// Generator seed of every workload graph. The graphs are fixed instances
/// and --seed draws the roots and request streams on them: drawing the
/// graphs per seed as well moved sweep's ops_per_s by 30% between seeds
/// (isolated-vertex share, road diameter), which would hide regressions.
inline constexpr std::uint64_t kGraphSeed = 1;

/// splitmix64 of (seed, stream): independent deterministic sub-seeds.
std::uint64_t mix(std::uint64_t seed, std::uint64_t stream);

/// Linear-interpolated quantile (q in [0,1]); 0 for an empty sample.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);

/// FNV-1a over the bytes of a score vector: equal digests stand in for a
/// memcmp against an answer the run no longer holds, which keeps the
/// benchmark's own memory flat however many ops a run completes.
std::uint64_t digest(const std::vector<double>& scores);

/// Peak resident set size of this process (VmHWM), in MiB.
double peak_rss_mb();

/// hardware_concurrency, at least 1.
std::size_t nproc();

/// One measured closed loop: every completed op with its completion time.
struct Loop {
  struct Op {
    double at_s = 0.0;        // completion, seconds since the loop started
    double latency_ms = -1.0; // < 0: not a latency sample (serve's writes)
    double teps_work = 0.0;   // m * roots_processed this op computed
  };
  std::vector<Op> ops;
  double seconds = 0.0;
  /// Window boundaries (seconds since start, ascending, last == seconds).
  /// Empty = equal slices of about kWindowSeconds each.
  std::vector<double> window_ends;
  static constexpr double kWindowSeconds = 2.0;

  void add(Clock::time_point start, double latency_ms, double teps_work) {
    ops.push_back({seconds_since(start), latency_ms, teps_work});
  }
};

/// The end-to-end metrics shared by every workload. Each rate and
/// quantile is computed per window of the loop and reported as the median
/// over windows, so a burst of machine noise moves one window, not the run.
void add_end_to_end(Values& v, double setup_s, const Loop& loop);

/// Spans around the public library calls the benchmark makes, recorded
/// into an hbc::trace::Tracer (host sinks, kept in memory) when tracing is
/// on. Off, scope() costs one pointer test.
class Spans {
 public:
  explicit Spans(bool enabled);

  /// RAII span on the calling thread's sink. `name` must be a literal.
  trace::ScopedSpan scope(const char* name) {
    return trace::ScopedSpan(tracer_ ? tracer_->thread_sink("bench") : nullptr,
                             tracer_.get(), name, trace::kCompute);
  }

  struct Totals {
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  // total minus the time covered by child spans
  };
  /// Per span name, from the recorded events. Call after writers quiesce.
  std::map<std::string, Totals> totals() const;

  /// Mean duration (ms) of spans named `name`; 0 when none.
  double mean_ms(const std::string& name) const;

  /// Write the capture as Chrome trace_event JSON and validate it with the
  /// checker hbc-trace-check uses. Returns false (with `error`) on failure.
  bool write_chrome(const std::string& path, std::string& error) const;

  /// Print the per-name count / total / self-time table to stderr.
  void print_table() const;

 private:
  std::unique_ptr<trace::Tracer> tracer_;
};

/// Determinism canary: the simulated model's counters per job or query.
/// Values recorded by earlier runs of the same workload and seed (kept in
/// .bench_run/canary-*) and earlier records in this run must repeat
/// exactly; any drift is counted and fails the run.
class Canary {
 public:
  Canary(const std::string& workload, std::uint64_t seed);

  void record(const std::string& key, const kernels::RunMetrics& m,
              std::uint64_t shards = 0);
  std::uint64_t drifts() const noexcept { return drifts_; }
  /// Persist everything recorded so later runs compare against it.
  void save() const;

 private:
  std::string path_;
  std::map<std::string, std::string> known_;
  std::uint64_t drifts_ = 0;
};

/// Sums of the deterministic kernel counters over a fixed prefix of a
/// workload's GPU-model computes (the first kCanaryPrefix in op order), so
/// the reported counts repeat exactly for a seed whatever the run length.
struct KernelTotals {
  static constexpr std::size_t kCanaryPrefix = 12;
  std::size_t computes = 0;
  double wall_s = 0.0;
  std::uint64_t inspected_all = 0;
  std::uint64_t prefix_count = 0;
  std::uint64_t prefix_inspected = 0;
  std::uint64_t prefix_traversed = 0;
  double prefix_sim_s = 0.0;

  void add(const kernels::RunMetrics& m);
  void put(Values& v) const;
};

/// The run protocol every workload shares. W is constructed (that is the
/// set-up), then run(seconds) is the measured closed loop, check() verifies
/// the stored outputs outside the timed window and returns how many ops
/// were wrong, and layers() adds the per-layer metrics after a traced run.
///
/// Untraced: set up eleven times (setup_s is the median), one loop of
/// `seconds`, end-to-end metrics. Traced: an untraced and a traced loop of
/// seconds/2 each from fresh set-ups (their rates give trace.overhead),
/// then per-layer metrics and probes, and the capture written as Chrome
/// JSON under .bench_run/ and validated.
template <class W>
Outcome drive(const Args& args) {
  Outcome out;
  Canary canary(args.workload, args.seed);
  bool trace_ok = true;
  auto tally = [&](W& w, const Loop& loop) {
    out.attempted += loop.ops.size();
    out.failed += w.check();
  };
  if (!args.trace) {
    Spans off(false);
    std::unique_ptr<W> w;
    std::vector<double> setup_s;
    for (int rep = 0; rep < 11; ++rep) {
      w.reset();  // tear-down is not set-up time
      const auto t0 = Clock::now();
      w = std::make_unique<W>(args, canary, off);
      setup_s.push_back(seconds_since(t0));
    }
    std::fprintf(stderr, "  setup ms per rep:");
    for (double s : setup_s) std::fprintf(stderr, " %.2f", s * 1e3);
    std::fprintf(stderr, "\n");
    const Loop loop = w->run(args.seconds);
    tally(*w, loop);
    add_end_to_end(out.values, quantile(setup_s, 0.5), loop);
  } else {
    double untraced_rate = 0.0;
    {
      Spans off(false);
      W w(args, canary, off);
      const Loop loop = w.run(args.seconds / 2);
      tally(w, loop);
      untraced_rate = static_cast<double>(loop.ops.size()) / loop.seconds;
    }
    Spans on(true);
    {
      W w(args, canary, on);
      const Loop loop = w.run(args.seconds / 2);
      tally(w, loop);
      const double traced_rate = static_cast<double>(loop.ops.size()) / loop.seconds;
      out.values["trace.overhead"] = 1.0 - traced_rate / untraced_rate;
      w.layers(out.values);
      out.values["graph.gen_ms"] = on.totals()["graph.gen"].total_ms;
    }
    on.print_table();
    std::string error;
    const std::string path =
        run_path("trace-" + args.workload + "-" + std::to_string(args.seed) + ".json");
    if (!on.write_chrome(path, error)) {
      trace_ok = false;
      std::fprintf(stderr, "  trace check FAILED: %s\n", error.c_str());
    }
  }
  canary.save();
  out.values["error_rate"] =
      out.attempted > 0 ? static_cast<double>(out.failed) / out.attempted : 0.0;
  out.correct = out.failed == 0 && canary.drifts() == 0 && trace_ok;
  return out;
}

}  // namespace perfbench
