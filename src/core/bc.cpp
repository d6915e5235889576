#include "core/bc.hpp"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <sstream>
#include <stdexcept>

#include "core/teps.hpp"
#include "cpu/brandes.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace hbc::core {

using graph::VertexId;

std::vector<VertexId> sample_roots(VertexId n, std::uint32_t k, std::uint64_t seed) {
  // Partial Fisher–Yates over a dense id vector.
  std::vector<VertexId> ids(n);
  for (VertexId v = 0; v < n; ++v) ids[v] = v;
  util::Xoshiro256 rng(seed);
  const std::uint32_t take = std::min<std::uint32_t>(k, n);
  for (std::uint32_t i = 0; i < take; ++i) {
    const std::uint64_t j = i + rng.next_below(n - i);
    std::swap(ids[i], ids[j]);
  }
  ids.resize(take);
  return ids;
}

std::string options_signature(const Options& o) {
  std::ostringstream s;
  s << "strategy=" << to_string(o.strategy);
  s << ";sample_roots=" << o.sample_roots << ";seed=" << o.seed;
  s << ";halve=" << (o.halve_undirected ? 1 : 0)
    << ";normalize=" << (o.normalize ? 1 : 0);
  const gpusim::DeviceConfig& d = o.device;
  const gpusim::CostModel& c = d.cost;
  s << ";device=" << d.name << ',' << d.num_sms << ',' << d.threads_per_block << ','
    << d.warp_size << ',' << d.clock_ghz << ',' << d.memory_bytes << ',' << d.time_scale;
  s << ";cost=" << c.scan_seq << ',' << c.process_seq << ',' << c.process_rand << ','
    << c.stream_threshold << ',' << c.queue_vertex << ',' << c.queue_insert << ','
    << c.atomic_extra << ',' << c.thread_ilp << ',' << c.block_barrier << ','
    << c.hybrid_decision << ',' << c.sampling_guard << ',' << c.grid_relaunch;
  s << ";hybrid=" << o.hybrid.alpha << ',' << o.hybrid.beta;
  s << ";sampling=" << o.sampling.n_samps << ',' << o.sampling.gamma << ','
    << o.sampling.min_frontier;
  s << ";roots=";
  for (const VertexId v : o.roots) s << v << ',';
  // A fully-recovered fault-injected run is bitwise-identical to a clean
  // one, but runs that can FAIL roots are not interchangeable with clean
  // runs — so any armed plan (and the retry budget that shapes which roots
  // survive) conservatively fragments the key. cancel/fault_retry_epoch
  // are excluded: they never change the scores of a result that completes.
  // Options::trace is excluded entirely — capture is pure diagnostics.
  if (o.resilience.fault_plan && !o.resilience.fault_plan->empty()) {
    s << ";faults=" << o.resilience.fault_plan->signature()
      << ";max_attempts=" << o.resilience.max_root_attempts;
  }
  return s.str();
}

namespace {

std::atomic<std::uint64_t> g_compute_invocations{0};

}  // namespace

void validate_roots(VertexId n, std::span<const VertexId> roots) {
  std::vector<bool> seen(n, false);
  for (const VertexId r : roots) {
    if (r >= n) {
      throw std::invalid_argument("root " + std::to_string(r) +
                                  " out of range for graph with " +
                                  std::to_string(n) + " vertices");
    }
    if (seen[r]) {
      throw std::invalid_argument(
          "duplicate root " + std::to_string(r) +
          " (duplicates double-count its contribution to every score)");
    }
    seen[r] = true;
  }
}

RootPlan resolve_roots(VertexId n, const Options& options) {
  RootPlan plan;
  plan.approximate =
      options.roots.empty() && options.sample_roots > 0 && options.sample_roots < n;
  if (!options.roots.empty()) {
    plan.roots = options.roots;
  } else if (plan.approximate) {
    plan.roots = sample_roots(n, options.sample_roots, options.seed);
  } else {
    plan.roots.resize(n);
    std::iota(plan.roots.begin(), plan.roots.end(), VertexId{0});
  }
  return plan;
}

void finalize(std::vector<double>& scores, std::size_t n, std::uint64_t scale_roots,
              bool halve, bool normalize) {
  if (scale_roots > 0) {
    const double scale = static_cast<double>(n) / static_cast<double>(scale_roots);
    for (double& s : scores) s *= scale;
  }
  if (halve) {
    for (double& s : scores) s *= 0.5;
  }
  if (normalize) scores = normalized(scores);
}

std::uint64_t compute_invocations() noexcept {
  return g_compute_invocations.load(std::memory_order_relaxed);
}

BCResult compute(const graph::CSRGraph& g, const Options& options) {
  validate_roots(g.num_vertices(), options.roots);
  g_compute_invocations.fetch_add(1, std::memory_order_relaxed);
  BCResult result;
  result.strategy = options.strategy;

  const RootPlan plan = resolve_roots(g.num_vertices(), options);
  const std::vector<VertexId>& roots = plan.roots;
  result.approximate = plan.approximate || roots.size() < g.num_vertices();

  // CPU engines get a wall-clock compute span on a host sink. GPU-model
  // strategies deliberately get NO wall-clock events — their traces are
  // stamped purely from the simulated cycle ledger so captures stay
  // bitwise-identical at every host-thread count.
  trace::Tracer* tracer = options.trace.tracer;
  trace::Sink* host_sink =
      tracer && !uses_gpu_model(options.strategy) ? tracer->thread_sink() : nullptr;
  trace::ScopedSpan compute_span(host_sink, tracer, to_string(options.strategy),
                                 trace::kCompute,
                                 {{"roots", static_cast<std::uint64_t>(roots.size())}});

  util::Timer wall;
  switch (options.strategy) {
    case Strategy::CpuSerial:
    case Strategy::CpuParallel: {
      // One engine: threads split the roots and the bits never depend on
      // how many there are.
      const std::size_t threads =
          options.strategy == Strategy::CpuSerial ? 1 : options.cpu_threads;
      cpu::BrandesResult r = cpu::brandes(g, {.sources = roots,
                                              .num_threads = threads,
                                              .cancel = options.resilience.cancel});
      result.scores = std::move(r.bc);
      result.sums = std::move(r.sums);
      result.roots_processed = r.roots_processed;
      result.time_seconds = wall.elapsed_seconds();
      break;
    }
    default: {
      kernels::RunConfig rc;
      rc.roots = roots;
      rc.device = options.device;
      rc.hybrid = options.hybrid;
      rc.sampling = options.sampling;
      rc.collect_per_root_stats = options.collect_per_root_stats;
      rc.cpu_threads = options.cpu_threads;
      rc.fault_plan = options.resilience.fault_plan;
      rc.cancel = options.resilience.cancel;
      rc.max_root_attempts = options.resilience.max_root_attempts;
      rc.fault_retry_epoch = options.resilience.fault_retry_epoch;
      rc.tracer = tracer;
      kernels::RunResult r = kernels::run_strategy(options.strategy, g, rc);
      result.scores = std::move(r.bc);
      result.sums = std::move(r.sums);
      result.roots_processed = r.metrics.counters.roots_processed;
      result.time_seconds = r.metrics.sim_seconds;
      result.kernel_metrics = std::move(r.metrics);
      result.per_root = std::move(r.per_root);
      result.faults = std::move(r.faults);
      break;
    }
  }
  result.wall_seconds = wall.elapsed_seconds();

  finalize(result.scores, g.num_vertices(),
           plan.approximate ? result.roots_processed : 0, options.halve_undirected,
           options.normalize);

  result.teps = teps_bc(g, result.roots_processed, result.time_seconds);
  return result;
}

std::vector<double> normalized(std::span<const double> scores) {
  const double n = static_cast<double>(scores.size());
  std::vector<double> out(scores.begin(), scores.end());
  if (n < 3) {
    std::fill(out.begin(), out.end(), 0.0);
    return out;
  }
  const double scale = 1.0 / ((n - 1.0) * (n - 2.0));
  for (double& s : out) s *= scale;
  return out;
}

std::vector<std::pair<VertexId, double>> top_k(std::span<const double> scores,
                                               std::size_t k) {
  std::vector<std::pair<VertexId, double>> pairs;
  pairs.reserve(scores.size());
  for (std::size_t v = 0; v < scores.size(); ++v) {
    pairs.emplace_back(static_cast<VertexId>(v), scores[v]);
  }
  const std::size_t take = std::min(k, pairs.size());
  std::partial_sort(pairs.begin(), pairs.begin() + static_cast<std::ptrdiff_t>(take),
                    pairs.end(), [](const auto& a, const auto& b) {
                      if (a.second != b.second) return a.second > b.second;
                      return a.first < b.first;
                    });
  pairs.resize(take);
  return pairs;
}

}  // namespace hbc::core
