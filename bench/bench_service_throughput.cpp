// Service throughput: QPS vs worker count x cache-hit ratio, plus the
// resilience axes (docs/resilience.md).
//
// Replays a synthetic query workload (sampling-strategy approximate BC
// over a small-world graph) through hbc::service::BcService at 0% and
// ~90% request-level cache-hit ratios for 1, 4, and hardware worker
// threads. The cold-cache column measures how well the worker pool scales
// compute throughput (on a multi-core host 1 -> 4 workers should exceed
// 2x); the warm column shows the cache collapsing latency to lookups, at
// which point QPS is bounded by the submit path, not by workers.
//
// Two resilience measurements follow:
//   * a fault-rate axis — the same cold-cache workload with a transient
//     fault plan injecting faults into 0%, 1%, and 10% of roots, reporting
//     QPS, p99 latency, the faults injected and the degraded responses
//     (every root recovers in the driver, so degraded reads 0 while QPS
//     degrades only by the retried roots' extra work);
//   * a cancellation-overhead check — the driver polls its CancelToken at
//     every root boundary even when no deadline is set; best-of-N kernel
//     runs with an inert vs. an armed (never firing) token must stay
//     within 2%, i.e. fault-free runs don't pay for cancellability.
//
// Plus the fleet-level chaos axes (docs/resilience.md): distributed QPS
// under seeded frame-drop chaos at 0% / 1% / 10% (recovery cost, with
// bitwise-identical answers), and an inert-chaos overhead gate — an armed
// plan that never targets a frame must stay within 2% of an unarmed run.
//
// And a background-refinement axis (docs/serving.md): exact-query QPS
// with the progressive refiner idle vs actively saturating a backlog of
// accuracy contracts. Refinement only runs while the admission queue is
// drained, so the cost to foreground work must stay under 5%.
//
// Environment knobs (bench/common.hpp conventions):
//   HBC_BENCH_SCALE     log2 vertices of the benchmark graph (default 11)
//   HBC_BENCH_ROOTS     sample_roots per query          (default 16)
//   HBC_BENCH_REQUESTS  requests per measurement        (default 96)
//   HBC_BENCH_JSON      also write machine-readable records to this path

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench/common.hpp"
#include "core/bc.hpp"
#include "gpusim/faults.hpp"
#include "graph/generators.hpp"
#include "net/chaos.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"
#include "service/service.hpp"
#include "trace/trace.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace {

using namespace hbc;

struct Measurement {
  double qps = 0.0;
  double hit_rate = 0.0;
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  std::uint64_t faults = 0;     // device faults injected (incl. recovered)
  std::uint64_t degraded = 0;   // responses a substitute strategy answered
};

std::vector<std::string> g_json_records;

void record_measurement(const char* axis, std::size_t workers, double hit_ratio,
                        double fault_rate, const Measurement& m) {
  std::ostringstream s;
  s << "{\"bench\":\"service_throughput\",\"axis\":\"" << axis
    << "\",\"workers\":" << workers << ",\"target_hit_ratio\":" << hit_ratio
    << ",\"fault_rate\":" << fault_rate << ",\"qps\":" << m.qps
    << ",\"hit_rate\":" << m.hit_rate << ",\"p50_ms\":" << m.p50_ms
    << ",\"p99_ms\":" << m.p99_ms << ",\"faults\":" << m.faults
    << ",\"degraded\":" << m.degraded << "}";
  g_json_records.push_back(s.str());
}

void emit_json() {
  const char* path = std::getenv("HBC_BENCH_JSON");
  if (path == nullptr || *path == '\0') return;
  std::ostringstream out;
  out << "[\n";
  for (std::size_t i = 0; i < g_json_records.size(); ++i) {
    out << "  " << g_json_records[i] << (i + 1 < g_json_records.size() ? ",\n" : "\n");
  }
  out << "]\n";
  std::ofstream f(path);
  f << out.str();
  std::printf("wrote %zu records to %s\n", g_json_records.size(), path);
}

Measurement run_workload(const graph::CSRGraph& g, std::size_t workers,
                         double hit_ratio, std::uint32_t sample_roots,
                         std::size_t requests, double fault_rate = 0.0) {
  service::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.admission.max_queue_depth = requests;  // measure workers, not admission
  service::BcService svc(cfg);
  svc.load_graph("bench", std::make_shared<const graph::CSRGraph>(g));

  std::shared_ptr<const gpusim::FaultPlan> plan;
  if (fault_rate > 0.0) {
    gpusim::FaultPlan p(5);
    p.add({.kind = gpusim::FaultKind::KernelLaunch, .rate = fault_rate});
    plan = std::make_shared<const gpusim::FaultPlan>(std::move(p));
  }

  // hit_ratio ~0.9: 90% of requests cycle through a small warm set that
  // was computed once up front; the rest (and everything at ratio 0) get
  // unique seeds so each is a fresh computation.
  constexpr std::size_t kWarmSet = 4;
  auto make_request = [&](std::uint64_t seed) {
    service::Request r;
    r.graph_id = "bench";
    r.options.strategy = core::Strategy::Sampling;
    r.options.sample_roots = sample_roots;
    r.options.seed = seed;
    r.options.resilience.fault_plan = plan;
    return r;
  };
  if (hit_ratio > 0.0) {
    for (std::size_t i = 0; i < kWarmSet; ++i) {
      (void)svc.query(make_request(i));  // pre-warm, excluded from timing
    }
  }

  util::Timer wall;
  std::vector<service::Ticket> tickets;
  tickets.reserve(requests);
  std::uint64_t unique_seed = 1u << 20;
  for (std::size_t i = 0; i < requests; ++i) {
    const bool warm = hit_ratio > 0.0 &&
                      (static_cast<double>(i % 10) < hit_ratio * 10.0);
    tickets.push_back(svc.submit(make_request(warm ? i % kWarmSet : unique_seed++)));
  }
  for (const auto& t : tickets) (void)svc.wait(t);
  const double seconds = wall.elapsed_seconds();

  const service::MetricsSnapshot m = svc.metrics();
  Measurement out;
  out.qps = seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  out.hit_rate = m.cache_hit_rate();
  out.p50_ms = m.latency_p50_ms;
  out.p99_ms = m.latency_p99_ms;
  out.faults = m.device_faults;
  out.degraded = m.degraded;
  return out;
}

/// Background-refinement axis: the exact cold-cache workload, with the
/// progressive refiner either idle or chewing through a set of saturating
/// accuracy contracts queued just before the timer. Each contract serves
/// rung 0 synchronously (untimed) and leaves every remaining stratum to
/// the background queue, so the refiner has work for the whole window.
Measurement run_workload_vs_refinement(const graph::CSRGraph& g,
                                       std::size_t workers,
                                       std::uint32_t sample_roots,
                                       std::size_t requests, bool refine,
                                       std::uint64_t* strata_folded = nullptr) {
  service::ServiceConfig cfg;
  cfg.workers = workers;
  cfg.admission.max_queue_depth = requests;
  service::BcService svc(cfg);
  svc.load_graph("bench", std::make_shared<const graph::CSRGraph>(g));

  if (refine) {
    for (std::uint64_t c = 0; c < 4; ++c) {
      service::Request b;
      b.graph_id = "bench";
      b.options.strategy = core::Strategy::WorkEfficient;
      b.options.seed = 100 + c;
      b.budget.accuracy_target = 1e-9;  // unreachable before saturation
      b.budget.allow_refinement = true;
      (void)svc.query(b);
    }
  }

  auto make_request = [&](std::uint64_t seed) {
    service::Request r;
    r.graph_id = "bench";
    r.options.strategy = core::Strategy::Sampling;
    r.options.sample_roots = sample_roots;
    r.options.seed = seed;
    return r;
  };
  util::Timer wall;
  std::vector<service::Ticket> tickets;
  tickets.reserve(requests);
  std::uint64_t unique_seed = 1u << 21;
  for (std::size_t i = 0; i < requests; ++i) {
    tickets.push_back(svc.submit(make_request(unique_seed++)));
  }
  for (const auto& t : tickets) (void)svc.wait(t);
  const double seconds = wall.elapsed_seconds();

  const service::MetricsSnapshot m = svc.metrics();
  if (strata_folded != nullptr) *strata_folded = m.approx_strata;
  Measurement out;
  out.qps = seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  out.p50_ms = m.latency_p50_ms;
  out.p99_ms = m.latency_p99_ms;
  return out;
}

/// Distributed axis (docs/distributed.md): QPS through a net::Coordinator
/// fronting `fleet` net::Worker threads over a Unix socket. Queries are
/// block-sharded work-efficient runs with sampled roots and unique seeds
/// (cold cache), issued sequentially — the measured parallelism is the
/// intra-query shard fan-out across the fleet, the distributed analogue of
/// the paper's multi-GPU root distribution. fleet == 0 measures the same
/// sequential workload on an in-process BcService as the baseline.
// `healing` arms the recovery knobs (straggler re-dispatch, fast worker
// heartbeats/rejoin). It is separate from `chaos` so the inert-overhead
// gate can compare armed vs unarmed plans over an otherwise *identical*
// fleet — with the knobs tied to the plan, the armed arm would also pay
// for 50ms heartbeat chatter and the gate would measure that, not chaos.
Measurement run_distributed(const graph::CSRGraph& g, std::size_t fleet,
                            std::uint32_t sample_roots, std::size_t requests,
                            std::shared_ptr<const net::ChaosPlan> chaos = nullptr,
                            bool healing = false) {
  auto shared = std::make_shared<const graph::CSRGraph>(g);
  auto make_request = [&](std::uint64_t seed) {
    service::Request r;
    r.graph_id = "bench";
    r.options.strategy = core::Strategy::WorkEfficient;
    r.options.sample_roots = sample_roots;
    r.options.seed = seed;
    return r;
  };

  std::vector<double> lat_ms;
  lat_ms.reserve(requests);
  double seconds = 0.0;

  if (fleet == 0) {
    service::ServiceConfig cfg;
    cfg.workers = 2;  // same service pool each net::Worker gets below
    service::BcService svc(cfg);
    svc.load_graph("bench", shared);
    util::Timer wall;
    for (std::size_t i = 0; i < requests; ++i) {
      const service::Response r = svc.query(make_request(1000 + i));
      lat_ms.push_back(r.total_ms);
    }
    seconds = wall.elapsed_seconds();
  } else {
    const std::string sock = "/tmp/hbc-bench-" + std::to_string(::getpid()) +
                             "-" + std::to_string(fleet) + ".sock";
    std::filesystem::remove(sock);
    net::CoordinatorConfig cc;
    cc.listen = net::Endpoint::parse("unix:" + sock);
    // Chaos is armed coordinator-side (stream ids are accept slots, which
    // advance on rejoin, so an unlucky fate cannot recur forever); the
    // straggler timeout is what turns dropped shard frames into
    // re-dispatches instead of a hung query.
    cc.chaos = chaos;
    if (healing) cc.straggler_timeout = std::chrono::milliseconds(100);
    net::Coordinator coord(cc);

    std::vector<std::unique_ptr<net::Worker>> workers;
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < fleet; ++i) {
      net::WorkerConfig wc;
      wc.connect = cc.listen;
      wc.name = "bench-worker-" + std::to_string(i);
      wc.service.workers = 2;
      wc.graph_loader = [shared](const std::string&) { return *shared; };
      if (healing) {
        wc.rejoin_attempts = 100;
        wc.heartbeat_interval = std::chrono::milliseconds(50);
        wc.connect_backoff = std::chrono::milliseconds(5);
        wc.max_backoff = std::chrono::milliseconds(100);
      }
      workers.push_back(std::make_unique<net::Worker>(wc));
      threads.emplace_back([w = workers.back().get()] { w->run(); });
    }
    coord.wait_for_workers(fleet, std::chrono::seconds(20));
    coord.load_graph("bench", shared, "bench");

    util::Timer wall;
    for (std::size_t i = 0; i < requests; ++i) {
      const service::Response r = coord.query(make_request(1000 + i));
      lat_ms.push_back(r.total_ms);
    }
    seconds = wall.elapsed_seconds();

    coord.drain();
    for (auto& w : workers) w->request_stop();
    for (auto& t : threads) t.join();
    std::filesystem::remove(sock);
  }

  std::sort(lat_ms.begin(), lat_ms.end());
  Measurement out;
  out.qps = seconds > 0.0 ? static_cast<double>(requests) / seconds : 0.0;
  if (!lat_ms.empty()) {
    out.p50_ms = lat_ms[lat_ms.size() / 2];
    out.p99_ms = lat_ms[std::min(lat_ms.size() - 1, lat_ms.size() * 99 / 100)];
  }
  return out;
}

/// Best-of-N wall seconds for one sampling run over `g` with the given
/// cancel token. Min-of-N is the standard noise-robust point estimate for
/// "how fast can this go" comparisons.
double best_run_seconds(const graph::CSRGraph& g, std::uint32_t sample_roots,
                        const util::CancelToken& token, int reps,
                        trace::Tracer* tracer = nullptr) {
  core::Options o;
  o.strategy = core::Strategy::Sampling;
  o.sample_roots = sample_roots;
  o.resilience.cancel = token;
  o.trace.tracer = tracer;
  double best = 1e300;
  for (int i = 0; i < reps; ++i) {
    util::Timer t;
    (void)core::compute(g, o);
    best = std::min(best, t.elapsed_seconds());
  }
  return best;
}

}  // namespace

int main() {
  const std::uint32_t scale = bench::env_u32("HBC_BENCH_SCALE", 11);
  const std::uint32_t roots = bench::env_u32("HBC_BENCH_ROOTS", 16);
  const std::size_t requests = bench::env_u32("HBC_BENCH_REQUESTS", 96);

  const auto g = graph::gen::small_world({.num_vertices = 1u << scale, .k = 4, .seed = 3});

  bench::print_header(
      "service throughput: QPS vs workers x cache-hit ratio",
      "graph: " + g.summary() + "\nsampling strategy, " + std::to_string(roots) +
          " roots/query, " + std::to_string(requests) + " requests per cell");

  const std::size_t hw = std::max<std::size_t>(1, std::thread::hardware_concurrency());
  std::vector<std::size_t> worker_counts{1, 4};
  if (hw != 1 && hw != 4) worker_counts.push_back(hw);

  std::printf("%8s | %28s | %28s\n", "", "cold cache (0% target)", "warm cache (~90% target)");
  std::printf("%8s | %10s %8s %8s | %10s %8s %8s\n", "workers", "QPS", "hit%",
              "p99 ms", "QPS", "hit%", "p99 ms");
  bench::print_rule();

  double qps_1 = 0.0, qps_4 = 0.0;
  for (const std::size_t w : worker_counts) {
    const Measurement cold = run_workload(g, w, 0.0, roots, requests);
    const Measurement warm = run_workload(g, w, 0.9, roots, requests);
    record_measurement("workers", w, 0.0, 0.0, cold);
    record_measurement("workers", w, 0.9, 0.0, warm);
    if (w == 1) qps_1 = cold.qps;
    if (w == 4) qps_4 = cold.qps;
    std::printf("%8zu | %10.1f %8.1f %8.2f | %10.1f %8.1f %8.2f\n", w, cold.qps,
                100.0 * cold.hit_rate, cold.p99_ms, warm.qps, 100.0 * warm.hit_rate,
                warm.p99_ms);
  }
  bench::print_rule();
  if (qps_1 > 0.0 && qps_4 > 0.0) {
    std::printf("cold-cache speedup 1 -> 4 workers: %.2fx (hardware reports %zu cores;"
                " expect >2x when >=4 are available)\n",
                qps_4 / qps_1, hw);
  }

  // --- fault-rate axis ----------------------------------------------------
  // Transient launch faults on 0% / 1% / 10% of roots (docs/resilience.md).
  // Every fault recovers in the driver, so no response is degraded and QPS
  // pays only for the retried launches.
  const std::size_t fault_workers = std::min<std::size_t>(4, hw);
  std::printf("\nfault-rate axis (cold cache, %zu workers, transient launch faults)\n",
              fault_workers);
  std::printf("%10s | %10s %8s %8s %8s\n", "fault rate", "QPS", "p99 ms", "faults",
              "degraded");
  bench::print_rule();
  for (const double rate : {0.0, 0.01, 0.10}) {
    const Measurement m = run_workload(g, fault_workers, 0.0, roots, requests, rate);
    record_measurement("fault_rate", fault_workers, 0.0, rate, m);
    std::printf("%9.0f%% | %10.1f %8.2f %8llu %8llu\n", 100.0 * rate, m.qps, m.p99_ms,
                static_cast<unsigned long long>(m.faults),
                static_cast<unsigned long long>(m.degraded));
  }
  bench::print_rule();

  // --- background-refinement axis -----------------------------------------
  // The accuracy-contract quality dial (docs/serving.md): a saturated
  // refinement backlog must cost foreground exact queries <5% QPS. Best
  // of N per arm — max QPS is the standard noise-robust point estimate.
  constexpr int kRefineReps = 5;
  double idle_qps = 0.0, busy_qps = 0.0;
  std::uint64_t bg_strata = 0;
  for (int i = 0; i < kRefineReps; ++i) {
    const Measurement idle =
        run_workload_vs_refinement(g, fault_workers, roots, requests, false);
    std::uint64_t strata = 0;
    const Measurement busy = run_workload_vs_refinement(g, fault_workers, roots,
                                                        requests, true, &strata);
    idle_qps = std::max(idle_qps, idle.qps);
    busy_qps = std::max(busy_qps, busy.qps);
    bg_strata = std::max(bg_strata, strata);
  }
  const double refine_cost =
      idle_qps > 0.0 ? (idle_qps - busy_qps) / idle_qps : 0.0;
  std::printf("\nbackground-refinement axis (best of %d, %zu workers): "
              "refiner idle %.1f QPS vs refining %.1f QPS (%llu strata folded) "
              "-> %+.2f%%\n",
              kRefineReps, fault_workers, idle_qps, busy_qps,
              static_cast<unsigned long long>(bg_strata), 100.0 * refine_cost);
  const bool refine_ok = refine_cost <= 0.05;
  std::printf("background refinement within 5%% of exact QPS: %s\n",
              refine_ok ? "PASS" : "FAIL");
  {
    std::ostringstream s;
    s << "{\"bench\":\"service_throughput\",\"axis\":\"refinement\",\"workers\":"
      << fault_workers << ",\"idle_qps\":" << idle_qps << ",\"refining_qps\":"
      << busy_qps << ",\"strata_folded\":" << bg_strata << ",\"qps_cost\":"
      << refine_cost << "}";
    g_json_records.push_back(s.str());
  }

  // --- distributed axis ---------------------------------------------------
  // Coordinator-mode QPS: block-sharded work-efficient queries fanned out
  // across an in-process worker fleet over a Unix socket. Sequential
  // submission (the coordinator runs one query at a time), so scaling here
  // is intra-query: one query's B blocks spread across fleet x 2 threads.
  const std::size_t dist_requests = std::max<std::size_t>(8, requests / 8);
  std::printf("\ndistributed axis (coordinator + fleet over unix socket, "
              "%zu work-efficient queries, %u sampled roots)\n",
              dist_requests, roots);
  std::printf("%12s | %10s %8s %8s\n", "fleet", "QPS", "p50 ms", "p99 ms");
  bench::print_rule();
  for (const std::size_t fleet : {std::size_t{0}, std::size_t{1}, std::size_t{2},
                                  std::size_t{4}}) {
    const Measurement m = run_distributed(g, fleet, roots, dist_requests);
    record_measurement("distributed", fleet, 0.0, 0.0, m);
    if (fleet == 0) {
      std::printf("%12s | %10.1f %8.2f %8.2f\n", "standalone", m.qps, m.p50_ms,
                  m.p99_ms);
    } else {
      std::printf("%8zu x2t | %10.1f %8.2f %8.2f\n", fleet, m.qps, m.p50_ms,
                  m.p99_ms);
    }
  }
  bench::print_rule();

  // --- chaos axis ---------------------------------------------------------
  // The distributed workload under seeded frame-drop chaos (net::ChaosPlan,
  // docs/resilience.md): at 1% and 10% drop rates the fleet pays for
  // straggler re-dispatches and worker rejoins, but every query still
  // returns the bitwise-standalone answer — this axis prices the recovery
  // machinery, it does not relax correctness.
  const std::size_t chaos_fleet = 2;
  std::printf("\nchaos axis (fleet of %zu, coordinator-side frame drops, "
              "%zu queries)\n",
              chaos_fleet, dist_requests);
  std::printf("%10s | %10s %8s %8s\n", "drop rate", "QPS", "p50 ms", "p99 ms");
  bench::print_rule();
  for (const double rate : {0.0, 0.01, 0.10}) {
    std::shared_ptr<const net::ChaosPlan> plan;
    if (rate > 0.0) {
      char spec[64];
      std::snprintf(spec, sizeof(spec), "seed=29;drop,rate=%g", rate);
      plan = net::ChaosPlan::parse_shared(spec);
    }
    const Measurement m =
        run_distributed(g, chaos_fleet, roots, dist_requests, plan, /*healing=*/true);
    record_measurement("chaos", chaos_fleet, 0.0, rate, m);
    std::printf("%9.0f%% | %10.1f %8.2f %8.2f\n", 100.0 * rate, m.qps, m.p50_ms,
                m.p99_ms);
  }
  bench::print_rule();

  // --- inert-chaos overhead -----------------------------------------------
  // Every Conn::send consults the chaos injector; with a plan armed that
  // never targets a frame, that is one hash per frame on top of the null
  // test an unarmed connection pays. Best-of-N distributed runs, armed vs
  // unarmed, must stay within 2% — same standard as the cancel token and
  // disabled tracing: you don't pay for chaos you aren't injecting.
  constexpr int kChaosReps = 5;
  const auto never_fires =
      net::ChaosPlan::parse_shared("seed=1;drop,frames=4000000000");
  double chaos_base_s = 1e300, chaos_armed_s = 1e300;
  for (int i = 0; i < kChaosReps; ++i) {
    const Measurement base = run_distributed(g, chaos_fleet, roots, dist_requests);
    const Measurement armed =
        run_distributed(g, chaos_fleet, roots, dist_requests, never_fires);
    if (base.qps > 0.0)
      chaos_base_s = std::min(chaos_base_s, static_cast<double>(dist_requests) / base.qps);
    if (armed.qps > 0.0)
      chaos_armed_s = std::min(chaos_armed_s, static_cast<double>(dist_requests) / armed.qps);
  }
  const double chaos_overhead =
      chaos_base_s > 0.0 ? (chaos_armed_s - chaos_base_s) / chaos_base_s : 0.0;
  std::printf("\ninert-chaos overhead (best of %d, fleet of %zu): "
              "unarmed %.4fs vs armed-never-firing %.4fs -> %+.2f%%\n",
              kChaosReps, chaos_fleet, chaos_base_s, chaos_armed_s,
              100.0 * chaos_overhead);
  const bool chaos_ok = chaos_overhead <= 0.02;
  std::printf("inert-chaos overhead within 2%%: %s\n", chaos_ok ? "PASS" : "FAIL");

  // --- cancellation-check overhead ----------------------------------------
  // The driver polls RunConfig::cancel once per root even with no deadline
  // set. Compare best-of-N runs with an inert token (default) against an
  // armed token whose deadline never fires: the armed run adds one atomic
  // load + clock read per root, which must stay within 2%.
  constexpr int kReps = 5;
  const util::CancelToken inert;  // default: one pointer test per check
  util::CancelSource armed =
      util::CancelSource::with_timeout(std::chrono::hours(24));
  const double base_s = best_run_seconds(g, roots, inert, kReps);
  const double armed_s = best_run_seconds(g, roots, armed.token(), kReps);
  const double overhead = base_s > 0.0 ? (armed_s - base_s) / base_s : 0.0;
  std::printf("\ncancellation-check overhead (best of %d, %u roots): "
              "inert %.4fs vs armed %.4fs -> %+.2f%%\n",
              kReps, roots, base_s, armed_s, 100.0 * overhead);
  const bool overhead_ok = overhead <= 0.02;
  std::printf("cancellation overhead within 2%%: %s\n", overhead_ok ? "PASS" : "FAIL");

  // --- disabled-tracing overhead ------------------------------------------
  // Every instrumentation point holds a null Sink pointer when no tracer is
  // attached, so tracing off must be free to the same standard as the inert
  // cancel token. Compare no tracer (baseline) against a tracer with every
  // category masked off (one load+AND per point): within 2%. An enabled
  // capture is also timed and written out so bench runs double as trace
  // producers (HBC_BENCH_TRACE overrides the output path).
  trace::Tracer masked(trace::TracerConfig{.categories = trace::kNone});
  const double masked_s = best_run_seconds(g, roots, inert, kReps, &masked);
  const double trace_overhead =
      base_s > 0.0 ? (masked_s - base_s) / base_s : 0.0;
  std::printf("\ndisabled-tracing overhead (best of %d, %u roots): "
              "off %.4fs vs masked %.4fs -> %+.2f%%\n",
              kReps, roots, base_s, masked_s, 100.0 * trace_overhead);
  const bool trace_ok = trace_overhead <= 0.02;
  std::printf("disabled-tracing overhead within 2%%: %s\n", trace_ok ? "PASS" : "FAIL");

  trace::Tracer enabled;
  const double enabled_s = best_run_seconds(g, roots, inert, 1, &enabled);
  const char* trace_path = std::getenv("HBC_BENCH_TRACE");
  const std::string trace_out =
      trace_path != nullptr && *trace_path != '\0' ? trace_path : "service_bench_trace.json";
  std::ofstream tf(trace_out);
  enabled.write_chrome_json(tf);
  std::printf("enabled capture: %.4fs, %zu events -> %s\n", enabled_s,
              enabled.event_count(), trace_out.c_str());

  emit_json();
  return overhead_ok && trace_ok && chaos_ok && refine_ok ? 0 : 1;
}
