#pragma once

// Public API of the library: one call computing betweenness centrality
// with any of the paper's strategies (plus CPU baselines), approximation
// by root sampling, score normalization, and top-k extraction.
//
// Quickstart:
//
//   auto g = hbc::graph::gen::small_world({.num_vertices = 1 << 14});
//   hbc::core::Options opt;
//   opt.strategy = hbc::core::Strategy::Sampling;   // Algorithm 5
//   hbc::core::BCResult r = hbc::core::compute(g, opt);
//   for (auto [v, score] : hbc::core::top_k(r.scores, 10)) { ... }

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "gpusim/config.hpp"
#include "gpusim/faults.hpp"
#include "graph/csr.hpp"
#include "kernels/kernels.hpp"
#include "trace/trace.hpp"
#include "util/cancel.hpp"
#include "util/exact_sum.hpp"

namespace hbc::core {

/// The engine a compute() call runs; one enum shared with kernels (see
/// kernels/kernels.hpp for the members, names and parsing).
using Strategy = kernels::Strategy;
using kernels::strategy_from_string;
using kernels::strategy_from_wire;
using kernels::to_string;
using kernels::uses_gpu_model;

struct Options {
  Strategy strategy = Strategy::Sampling;

  /// Explicit root set. Empty = exact BC (all vertices as sources).
  /// compute() validates the list (validate_roots): a root >= n or a
  /// duplicate root throws std::invalid_argument. The scores depend only
  /// on the set (every engine adds dependencies exactly); the order deals
  /// roots onto simulated blocks, so GPU-model metrics depend on it.
  std::vector<graph::VertexId> roots;

  /// Approximate BC with k sampled roots (Bader et al. style): when > 0
  /// and `roots` is empty, k roots are drawn uniformly without
  /// replacement using `seed`, and scores are scaled by n/k so they
  /// estimate the exact values.
  std::uint32_t sample_roots = 0;
  std::uint64_t seed = 42;

  /// Divide each score by 2 (undirected double-count correction, Fig 1).
  bool halve_undirected = false;
  /// Normalize by (n-1)(n-2) after any halving (§II.B).
  bool normalize = false;

  gpusim::DeviceConfig device = gpusim::gtx_titan();
  kernels::HybridParams hybrid;
  kernels::SamplingParams sampling;
  /// Host worker threads. cpu-parallel splits the roots across them
  /// (cpu-serial runs one); GPU-model strategies run that
  /// many simulated blocks concurrently (kernels::BlockDriver). Scores,
  /// counters and simulated-cycle metrics are bitwise-identical for every
  /// value. 0 = hardware concurrency.
  std::size_t cpu_threads = 0;

  bool collect_per_root_stats = false;

  /// Resilience knobs (docs/resilience.md), grouped so the public surface
  /// stays one nested struct per concern instead of a flat parameter pile.
  struct Resilience {
    /// Deterministic fault injection into the simulated device (GPU-model
    /// strategies only; CPU engines run no simulated device and ignore
    /// it). nullptr = fault-free.
    std::shared_ptr<const gpusim::FaultPlan> fault_plan;
    /// Cooperative cancellation: every engine (GPU-model and CPU) polls
    /// this token at root boundaries and throws util::Cancelled, so a
    /// deadline or a manual cancel takes effect within one root rather
    /// than at run end. Default-constructed = never cancels.
    util::CancelToken cancel;
    /// Launches a root may consume before it is reported as failed (first
    /// try + retries + the recovery-sweep attempt). Minimum 1.
    std::uint32_t max_root_attempts = 3;
    /// Attempt-index offset for FaultPlan queries; bump per whole-run
    /// retry so transient faults deterministically clear (see RunConfig).
    std::uint32_t fault_retry_epoch = 0;
  };
  Resilience resilience;

  /// Trace capture (docs/tracing.md). Diagnostics only: never part of
  /// options_signature, never changes scores.
  struct TraceOptions {
    /// Destination tracer; nullptr = tracing off (the default — engines
    /// then pay one pointer test per would-be event). Non-owning: the
    /// Tracer must outlive the compute() call.
    trace::Tracer* tracer = nullptr;
  };
  TraceOptions trace;
};

struct BCResult {
  std::vector<double> scores;
  /// The exact raw dependency sums `scores` were finalized from
  /// (util::ExactSum): what a fleet coordinator merges across root shards
  /// before it finalizes. compute() fills it; service::BcService drops it
  /// from the answers it computes with core::compute.
  util::ExactSum sums;
  Strategy strategy = Strategy::Sampling;
  std::uint64_t roots_processed = 0;
  bool approximate = false;

  /// Simulated device seconds (GPU-model strategies) or measured wall
  /// seconds (CPU strategies).
  double time_seconds = 0.0;
  double wall_seconds = 0.0;
  /// TEPS_BC = m * n / t extrapolated from the processed root count
  /// (exactly the paper's Equation 4 when all roots are processed).
  double teps = 0.0;

  /// Populated for GPU-model strategies.
  kernels::RunMetrics kernel_metrics;
  std::vector<kernels::PerRootStats> per_root;

  /// Fault-injection accounting (GPU-model strategies with a fault_plan).
  /// complete() == false means some roots' contributions are missing from
  /// `scores` — the result is partial, not exact; callers decide whether
  /// to retry, degrade, or surface the failure.
  gpusim::FaultReport faults;
};

BCResult compute(const graph::CSRGraph& g, const Options& options = {});

/// Reject a root list no run may use: a root >= n would index past the
/// CSR arrays, and a duplicate root silently double-counts its sigma/delta
/// contributions into every score. Throws std::invalid_argument naming
/// the offending root. compute() calls this first; the serving layers
/// call it to answer BadRequest before any work is scheduled.
void validate_roots(graph::VertexId n, std::span<const graph::VertexId> roots);

/// The roots a run of `options` visits on an n-vertex graph, in
/// accumulation order.
struct RootPlan {
  /// The explicit `roots`, else `sample_roots` seeded draws (0 < k < n),
  /// else every vertex in id order.
  std::vector<graph::VertexId> roots;
  /// The roots were sampled: finalize() scales the sums up by n/processed.
  bool approximate = false;
};
RootPlan resolve_roots(graph::VertexId n, const Options& options);

/// compute()'s finalization of raw dependency sums, in this order: scale
/// by n/scale_roots (the unbiased sampled-root scale-up; 0 skips it),
/// halve (the undirected double count), normalize. Elementwise, so equal
/// raw sums finalize to equal bits wherever they were reduced.
void finalize(std::vector<double>& scores, std::size_t n, std::uint64_t scale_roots,
              bool halve, bool normalize);

/// Scores scaled by 1/((n-1)(n-2)); n < 3 leaves scores at zero scale.
std::vector<double> normalized(std::span<const double> scores);

/// Largest-first (vertex, score) pairs; ties broken by smaller vertex id.
std::vector<std::pair<graph::VertexId, double>> top_k(std::span<const double> scores,
                                                      std::size_t k);

/// Draw k distinct roots uniformly from [0, n).
std::vector<graph::VertexId> sample_roots(graph::VertexId n, std::uint32_t k,
                                          std::uint64_t seed);

/// Stable, canonical serialization of every Options field that can change
/// the scores (or reported metrics) compute() produces for a fixed graph.
/// Two Options with equal signatures yield identical BCResults on the same
/// machine, so the string is usable as a cache key component (hbc::service
/// keys its result cache on graph fingerprint + this signature).
///
/// Canonicalization rules:
///  * `roots` is serialized verbatim, NOT sorted: root order deals roots
///    onto simulated blocks, so two permutations of the same root set
///    have equal scores but may have different GPU-model metrics, and are
///    distinct cache entries.
///  * `cpu_threads` is excluded for every strategy: every engine adds
///    dependencies exactly (util::ExactSum) and kernels::BlockDriver
///    merges its ledgers in a fixed order, so scores and simulated metrics
///    are bitwise-identical at every thread count (a hit computed at any
///    thread count is bit-identical to a fresh compute at any other).
///  * `collect_per_root_stats` is excluded: it only adds diagnostics.
std::string options_signature(const Options& options);

/// Monotone process-wide count of core::compute() invocations (all
/// threads). The serving layer's tests assert request coalescing and cache
/// hits by differencing this counter around a workload.
std::uint64_t compute_invocations() noexcept;

}  // namespace hbc::core
