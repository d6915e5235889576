#include "service/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace hbc::service {

namespace {

// Geometric bucket grid: bucket i covers (upper(i-1), upper(i)] with
// upper(i) = kFloorMs * kRatio^(i+1); the last bucket is open-ended.
constexpr double kFloorMs = 1e-3;  // 1 microsecond
constexpr double kSpan = 1e8;      // floor * span = 100,000 ms ceiling
const double kRatio = std::pow(kSpan, 1.0 / static_cast<double>(LatencyHistogram::kBuckets));

}  // namespace

double LatencyHistogram::bucket_upper(std::size_t i) noexcept {
  return kFloorMs * std::pow(kRatio, static_cast<double>(i + 1));
}

std::size_t LatencyHistogram::bucket_of(double ms) noexcept {
  if (!(ms > kFloorMs)) return 0;
  const double idx = std::log(ms / kFloorMs) / std::log(kRatio);
  const auto b = static_cast<std::size_t>(idx);
  return std::min(b, kBuckets - 1);
}

void LatencyHistogram::record(double ms) noexcept {
  if (!(ms >= 0.0)) return;  // drop NaN / negative clock anomalies
  ++counts_[bucket_of(ms)];
  stats_.add(ms);
}

double LatencyHistogram::quantile(double q) const noexcept {
  const std::uint64_t total = stats_.count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double target = q * static_cast<double>(total);
  std::uint64_t cum = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    if (counts_[i] == 0) continue;
    const std::uint64_t prev = cum;
    cum += counts_[i];
    if (static_cast<double>(cum) >= target) {
      const double lo = i == 0 ? 0.0 : bucket_upper(i - 1);
      const double hi = bucket_upper(i);
      const double frac =
          counts_[i] ? (target - static_cast<double>(prev)) / static_cast<double>(counts_[i])
                     : 0.0;
      const double est = lo + std::clamp(frac, 0.0, 1.0) * (hi - lo);
      return std::clamp(est, stats_.min(), stats_.max());
    }
  }
  return stats_.max();
}

void ServiceMetrics::on_submitted() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.submitted;
}

void ServiceMetrics::on_cache_hit(double latency_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.cache_hits;
  ++counts_.completed;
  latency_.record(latency_ms);
}

void ServiceMetrics::on_cache_miss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.cache_misses;
}

void ServiceMetrics::on_coalesced() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.coalesced;
}

void ServiceMetrics::on_shed() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.shed;
}

void ServiceMetrics::on_rejected_full() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.rejected_full;
}

void ServiceMetrics::on_rejected_deadline() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.rejected_deadline;
}

void ServiceMetrics::on_deadline_dropped() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.deadline_dropped;
}

void ServiceMetrics::on_graph_not_found() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.graph_not_found;
}

void ServiceMetrics::on_error() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.errors;
}

void ServiceMetrics::on_computed(double compute_ms, double total_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.computed;
  ++counts_.completed;
  compute_ms_.add(compute_ms);
  latency_.record(total_ms);
}

void ServiceMetrics::on_faults(std::uint64_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  counts_.device_faults += n;
}

void ServiceMetrics::on_compute_retry() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.compute_retries;
}

void ServiceMetrics::on_fallback() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.fallbacks;
}

void ServiceMetrics::on_degraded() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.degraded;
}

void ServiceMetrics::on_cancelled(double time_to_cancel_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.cancellations;
  if (time_to_cancel_ms >= 0.0) time_to_cancel_ms_.add(time_to_cancel_ms);
}

void ServiceMetrics::on_mutation(std::uint64_t applied, std::uint64_t noops) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.mutations;
  counts_.mutation_updates += applied;
  counts_.mutation_noops += noops;
}

void ServiceMetrics::on_refresh_patched(double affected_fraction) {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.refresh_patched;
  affected_fraction_.add(affected_fraction);
}

void ServiceMetrics::on_refresh_invalidated(std::uint64_t n) {
  if (n == 0) return;
  std::lock_guard<std::mutex> lock(mu_);
  counts_.refresh_invalidated += n;
}

void ServiceMetrics::on_reconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.net_reconnects;
}

void ServiceMetrics::on_heartbeat_miss() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.net_heartbeat_misses;
}

void ServiceMetrics::on_approx_served() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.approx_served;
}

void ServiceMetrics::on_approx_stratum() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.approx_strata;
}

void ServiceMetrics::on_refine_queued() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.refine_jobs;
}

void ServiceMetrics::on_refine_rung() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.refine_rungs;
}

void ServiceMetrics::on_refine_stratum() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.refine_strata;
}

void ServiceMetrics::on_refine_dropped() {
  std::lock_guard<std::mutex> lock(mu_);
  ++counts_.refine_dropped;
}

MetricsSnapshot ServiceMetrics::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  MetricsSnapshot s = counts_;
  s.latency_p50_ms = latency_.quantile(0.50);
  s.latency_p90_ms = latency_.quantile(0.90);
  s.latency_p95_ms = latency_.quantile(0.95);
  s.latency_p99_ms = latency_.quantile(0.99);
  s.latency_mean_ms = latency_.mean_ms();
  s.latency_max_ms = latency_.max_ms();
  s.compute_mean_ms = compute_ms_.mean();
  s.time_to_cancel_mean_ms = time_to_cancel_ms_.mean();
  s.time_to_cancel_max_ms = time_to_cancel_ms_.max();
  if (affected_fraction_.count() > 0) {
    s.affected_fraction_mean = affected_fraction_.mean();
    s.affected_fraction_max = affected_fraction_.max();
  }
  s.uptime_seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
                         .count();
  s.qps = s.uptime_seconds > 0.0 ? static_cast<double>(s.completed) / s.uptime_seconds : 0.0;
  return s;
}

std::string format_report(const MetricsSnapshot& s) {
  char buf[2048];
  const int written = std::snprintf(
      buf, sizeof(buf),
      "== hbc::service metrics ==\n"
      "uptime      %.2f s, %zu workers, %.1f completed QPS\n"
      "requests    submitted=%llu completed=%llu computed=%llu errors=%llu\n"
      "cache       hits=%llu misses=%llu hit_rate=%.1f%% entries=%zu"
      " bytes=%zu/%zu evictions=%llu\n"
      "coalescing  coalesced=%llu\n"
      "admission   shed=%llu rejected_full=%llu rejected_deadline=%llu"
      " deadline_dropped=%llu graph_not_found=%llu\n"
      "queue       depth=%zu peak=%zu\n"
      "resilience  faults=%llu retries=%llu fallbacks=%llu degraded=%llu"
      " cancelled=%llu time_to_cancel_ms mean=%.3f max=%.3f\n"
      "network     reconnects=%llu heartbeat_misses=%llu\n"
      "approx      served=%llu strata=%llu refine_jobs=%llu refine_rungs=%llu"
      " refine_strata=%llu refine_dropped=%llu entries=%zu bytes=%zu evictions=%llu\n"
      "dynamic     mutations=%llu updates=%llu noops=%llu refresh_patched=%llu"
      " invalidated=%llu affected_frac mean=%.3f max=%.3f\n"
      "latency_ms  p50=%.3f p90=%.3f p95=%.3f p99=%.3f mean=%.3f max=%.3f"
      " (n=%llu)\n"
      "compute_ms  mean=%.3f\n",
      s.uptime_seconds, s.workers, s.qps,
      static_cast<unsigned long long>(s.submitted),
      static_cast<unsigned long long>(s.completed),
      static_cast<unsigned long long>(s.computed),
      static_cast<unsigned long long>(s.errors),
      static_cast<unsigned long long>(s.cache_hits),
      static_cast<unsigned long long>(s.cache_misses), 100.0 * s.cache_hit_rate(),
      s.cache_entries, s.cache_bytes, s.cache_budget_bytes,
      static_cast<unsigned long long>(s.cache_evictions),
      static_cast<unsigned long long>(s.coalesced),
      static_cast<unsigned long long>(s.shed),
      static_cast<unsigned long long>(s.rejected_full),
      static_cast<unsigned long long>(s.rejected_deadline),
      static_cast<unsigned long long>(s.deadline_dropped),
      static_cast<unsigned long long>(s.graph_not_found),
      s.queue_depth, s.queue_peak_depth,
      static_cast<unsigned long long>(s.device_faults),
      static_cast<unsigned long long>(s.compute_retries),
      static_cast<unsigned long long>(s.fallbacks),
      static_cast<unsigned long long>(s.degraded),
      static_cast<unsigned long long>(s.cancellations),
      s.time_to_cancel_mean_ms, s.time_to_cancel_max_ms,
      static_cast<unsigned long long>(s.net_reconnects),
      static_cast<unsigned long long>(s.net_heartbeat_misses),
      static_cast<unsigned long long>(s.approx_served),
      static_cast<unsigned long long>(s.approx_strata),
      static_cast<unsigned long long>(s.refine_jobs),
      static_cast<unsigned long long>(s.refine_rungs),
      static_cast<unsigned long long>(s.refine_strata),
      static_cast<unsigned long long>(s.refine_dropped),
      s.approx_entries, s.approx_bytes,
      static_cast<unsigned long long>(s.approx_evictions),
      static_cast<unsigned long long>(s.mutations),
      static_cast<unsigned long long>(s.mutation_updates),
      static_cast<unsigned long long>(s.mutation_noops),
      static_cast<unsigned long long>(s.refresh_patched),
      static_cast<unsigned long long>(s.refresh_invalidated),
      s.affected_fraction_mean, s.affected_fraction_max,
      s.latency_p50_ms, s.latency_p90_ms, s.latency_p95_ms, s.latency_p99_ms,
      s.latency_mean_ms, s.latency_max_ms,
      static_cast<unsigned long long>(s.completed),
      s.compute_mean_ms);
  return std::string(buf, written > 0 ? static_cast<std::size_t>(written) : 0);
}

}  // namespace hbc::service
