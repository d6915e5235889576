#pragma once

// Service observability: request/cache/admission counters, a log-bucketed
// latency histogram with interpolated quantiles, and a plain-text report.
//
// The histogram trades exactness for O(1) memory: 64 geometric buckets
// spanning 1 µs .. ~100 s of milliseconds-denominated latency, quantiles
// linearly interpolated inside the winning bucket and clamped to the
// observed min/max (tracked exactly by util::RunningStats). That keeps
// p50/p95/p99 within one bucket ratio (~35%) of truth at any load, which
// is the standard serving-metrics trade (cf. HDR-histogram style buckets).

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>

#include "util/stats.hpp"

namespace hbc::service {

class LatencyHistogram {
 public:
  static constexpr std::size_t kBuckets = 64;

  void record(double ms) noexcept;

  /// Interpolated quantile in milliseconds, q in [0, 1]. 0 when empty.
  double quantile(double q) const noexcept;

  std::uint64_t count() const noexcept { return stats_.count(); }
  double mean_ms() const noexcept { return stats_.mean(); }
  double min_ms() const noexcept { return stats_.min(); }
  double max_ms() const noexcept { return stats_.max(); }

 private:
  static double bucket_upper(std::size_t i) noexcept;
  static std::size_t bucket_of(double ms) noexcept;

  std::array<std::uint64_t, kBuckets> counts_{};
  util::RunningStats stats_;
};

/// Point-in-time copy of every service metric, assembled by
/// BcService::metrics() from the counters here plus cache and queue state.
struct MetricsSnapshot {
  // Requests by outcome.
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;   // futures satisfied with status Ok
  std::uint64_t computed = 0;    // actual core::compute runs
  std::uint64_t cache_hits = 0;  // answered from the result cache
  std::uint64_t coalesced = 0;   // attached to an identical in-flight request
  std::uint64_t shed = 0;        // admitted with a downgraded configuration
  std::uint64_t rejected_full = 0;
  std::uint64_t rejected_deadline = 0;  // deadline passed while blocked on admission
  std::uint64_t deadline_dropped = 0;   // deadline passed while queued
  std::uint64_t graph_not_found = 0;
  std::uint64_t errors = 0;

  // Cache.
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::size_t cache_entries = 0;
  std::size_t cache_bytes = 0;
  std::size_t cache_budget_bytes = 0;

  // Queue.
  std::size_t queue_depth = 0;
  std::size_t queue_peak_depth = 0;
  std::size_t workers = 0;

  // Resilience (docs/resilience.md).
  std::uint64_t device_faults = 0;    // simulated DeviceFaults observed
  std::uint64_t degraded = 0;         // responses served by a substitute
  std::uint64_t cancellations = 0;    // in-flight computes cancelled
                                      // (deadline mid-compute or stop())
  // Cancel request -> compute actually stopped (one root boundary).
  double time_to_cancel_mean_ms = 0.0;
  double time_to_cancel_max_ms = 0.0;

  // Progressive approximation (docs/serving.md § Accuracy contracts).
  std::uint64_t approx_served = 0;   // budgeted responses (fresh or cached)
  std::uint64_t approx_strata = 0;   // root strata computed (fore+background)
  std::uint64_t refine_jobs = 0;     // background refinement jobs queued
  std::uint64_t refine_rungs = 0;    // rungs completed in the background
  std::uint64_t refine_strata = 0;   // strata folded in the background
  std::uint64_t refine_dropped = 0;  // refinements dropped: entry invalidated
  std::size_t approx_entries = 0;    // refinable-cache state (assembled by
  std::size_t approx_bytes = 0;      // BcService::metrics())
  std::uint64_t approx_evictions = 0;

  // Dynamic graphs (docs/dynamic.md).
  std::uint64_t mutations = 0;           // committed batches that changed a graph
  std::uint64_t mutation_updates = 0;    // edge updates applied across batches
  std::uint64_t mutation_noops = 0;      // submitted updates dropped as no-ops
  std::uint64_t refresh_patched = 0;     // cache entries incrementally patched
  std::uint64_t refresh_invalidated = 0; // cache entries dropped on mutation
  // Affected-source fraction of incremental patches (dyn level test).
  double affected_fraction_mean = 0.0;
  double affected_fraction_max = 0.0;

  // Latency (end-to-end submit -> response, milliseconds).
  double latency_p50_ms = 0.0;
  double latency_p90_ms = 0.0;
  double latency_p95_ms = 0.0;
  double latency_p99_ms = 0.0;
  double latency_mean_ms = 0.0;
  double latency_max_ms = 0.0;
  // Compute-only latency of cache-miss requests.
  double compute_mean_ms = 0.0;

  double uptime_seconds = 0.0;
  double qps = 0.0;  // completed / uptime

  double cache_hit_rate() const noexcept {
    const double denom = static_cast<double>(cache_hits + cache_misses);
    return denom > 0.0 ? static_cast<double>(cache_hits) / denom : 0.0;
  }
};

/// Multi-line human-readable report (the `hbc-serve` output format).
std::string format_report(const MetricsSnapshot& snapshot);

/// Thread-safe counter/histogram sink the service records into.
class ServiceMetrics {
 public:
  ServiceMetrics() : start_(std::chrono::steady_clock::now()) {}

  void on_submitted();
  void on_cache_hit(double latency_ms);
  /// A request became the leader of a fresh computation (request-level
  /// miss; coalesced twins count as neither hit nor miss).
  void on_cache_miss();
  void on_coalesced();
  void on_shed();
  void on_rejected_full();
  void on_rejected_deadline();
  void on_deadline_dropped();
  void on_graph_not_found();
  void on_error();
  /// A computed (cache-miss) request finished OK.
  void on_computed(double compute_ms, double total_ms);
  /// `n` simulated device faults surfaced from one compute run.
  void on_faults(std::uint64_t n);
  /// A response was served degraded (the CPU engine's substitute).
  void on_degraded();
  /// An in-flight compute was cancelled; `time_to_cancel_ms` measures
  /// cancel request -> the run actually unwinding (root-boundary latency).
  void on_cancelled(double time_to_cancel_ms);
  /// A mutation batch committed a new epoch (`applied` effective updates,
  /// `noops` dropped).
  void on_mutation(std::uint64_t applied, std::uint64_t noops);
  /// The refresher patched one cache entry across an epoch transition.
  void on_refresh_patched(double affected_fraction);
  /// `n` cache entries were dropped by a mutation instead of patched.
  void on_refresh_invalidated(std::uint64_t n);
  /// A budgeted (progressive) response was served.
  void on_approx_served();
  /// One root stratum was computed (foreground or background).
  void on_approx_stratum();
  /// A background refinement job was queued.
  void on_refine_queued();
  /// Background refinement completed one rung.
  void on_refine_rung();
  /// Background refinement folded one stratum.
  void on_refine_stratum();
  /// A queued refinement was dropped because its entry was invalidated
  /// (mutation/eviction) — the never-resurrect guarantee in action.
  void on_refine_dropped();

  /// Counters + latency fields; cache/queue fields are the caller's job.
  MetricsSnapshot snapshot() const;

 private:
  mutable std::mutex mu_;
  std::chrono::steady_clock::time_point start_;
  MetricsSnapshot counts_;  // only the counter fields are maintained here
  LatencyHistogram latency_;
  util::RunningStats compute_ms_;
  util::RunningStats time_to_cancel_ms_;
  util::RunningStats affected_fraction_;
};

}  // namespace hbc::service
