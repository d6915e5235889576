#pragma once

// dyn::IncrementalBC — batched incremental betweenness centrality.
//
// Maintains exact BC across whole UpdateBatches (a one-edge batch is the
// classic single-update case) with the affected-source decomposition
// (paper reference [27], McLaughlin & Bader IPDPSW'14 — the
// dynamic-analytics workload class), extended to batches:
//
//   A source s is provably unaffected by the transition before -> after
//   when EVERY applied edge {u,v} is a same-level edge w.r.t. s in BOTH
//   graphs: d_before(s,u) == d_before(s,v) and d_after(s,u) == d_after(s,v).
//   Then no shortest path from s uses an inserted edge (every edge on a
//   shortest path connects adjacent levels) and none used a removed one,
//   so the whole shortest-path DAG — distances, sigma, delta — is
//   identical and s's contribution to BC carries over unchanged.
//
//   Identification costs one BFS pass per applied-edge endpoint per graph
//   (O(|batch| * (n + m))), run on the util::ThreadPool. Each affected
//   source then pays two single-source Brandes stages (old dependencies
//   subtracted on `before`, new ones added on `after`).
//
// Determinism: each affected source's change (new dependencies less old)
// is added exactly, as 64.64 fixed point (util::ExactSum), on the root
// loop of cpu::brandes (cpu::for_each_root) — so refreshed scores are
// bitwise-identical at every thread count, the same guarantee
// kernels::BlockDriver gives the GPU-model strategies. The churn fallback and the epoch-0 scores are
// cpu::brandes over all sources on the engine's pool: cpu-serial's bits.
//
// Churn threshold: when the affected fraction exceeds
// config.churn_threshold the incremental path would do near-full work
// twice (old + new dependencies); the engine recomputes from scratch on
// `after` instead — the accuracy-vs-work trade the GPU BC comparison
// literature frames for approximate variants (arXiv:1409.7764), applied
// here as a work cliff guard. Worst-case batches (a bridge insert) thus
// degrade to ~1x full recompute, never ~2x.
//
// Undirected graphs ONLY. The level test reads d(s,u) for every s off a
// single BFS *from* u, which is d(u,s) — equal to d(s,u) only under
// undirected symmetry. On a directed graph the pruning would silently
// skip genuinely affected sources, so directed graphs are rejected with
// std::invalid_argument instead of producing wrong answers.
//
// docs/dynamic.md walks through the model; tests/test_dyn.cpp pins
// batch-vs-sequential score equality and the determinism sweep.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dyn/versioned_graph.hpp"
#include "graph/csr.hpp"
#include "trace/trace.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace hbc::dyn {

struct IncrementalConfig {
  /// Worker threads for identification and recompute; 0 = hardware
  /// concurrency. Results are bitwise-identical for every value.
  std::size_t threads = 0;
  /// Affected fraction above which the batch falls back to a full
  /// from-scratch recompute on the new snapshot. 1.0 never falls back;
  /// 0.0 always recomputes fully. Values outside [0,1] throw.
  double churn_threshold = 0.25;
  /// Non-owning trace destination (kDyn batch/affected-set/fallback
  /// events, kCompute recompute spans); nullptr = off.
  trace::Tracer* tracer = nullptr;
  /// Polled at BFS and source boundaries; throws util::Cancelled from the
  /// calling thread, leaving the engine's scores UNCHANGED (the batch can
  /// be re-applied).
  util::CancelToken cancel;
};

/// What one batch cost. `sources_recomputed + sources_skipped == n`
/// except for pure-no-op batches (all zero then).
struct BatchStats {
  std::uint64_t epoch = 0;            // epoch id after the commit
  std::uint64_t batch_updates = 0;    // updates submitted
  std::uint64_t applied_updates = 0;  // updates that changed the graph
  std::uint64_t noop_updates = 0;
  std::uint64_t affected_sources = 0;  // identified by the level test
  std::uint64_t sources_recomputed = 0;
  std::uint64_t sources_skipped = 0;
  double affected_fraction = 0.0;  // affected_sources / n
  bool full_recompute = false;     // churn threshold tripped
  double identify_ms = 0.0;        // BFS identification wall time
  double recompute_ms = 0.0;       // dependency recompute wall time
};

/// Exact BC of `g`: cpu::brandes over all sources on `pool`, the bits of
/// cpu-serial at every thread count. This is what the churn fallback and
/// IncrementalBC's constructor run.
std::vector<double> exact_scores(const graph::CSRGraph& g, util::ThreadPool& pool,
                                 const util::CancelToken& cancel = {});

/// Core one-shot form: advance `scores` — which must hold the exact BC of
/// `before` — to the exact BC of `after`, where `after` differs from
/// `before` by exactly the normalized `applied` updates (the
/// CommitResult::applied set). On util::Cancelled, `scores` is left
/// unchanged. The service's background refresher calls this directly on
/// cached score vectors; IncrementalBC wraps it with a VersionedGraph.
BatchStats refresh_scores(const graph::CSRGraph& before, const graph::CSRGraph& after,
                          std::span<const EdgeUpdate> applied,
                          std::vector<double>& scores, util::ThreadPool& pool,
                          const IncrementalConfig& config);

/// Stateful engine: a VersionedGraph plus exact BC scores maintained
/// across batched epoch transitions.
class IncrementalBC {
 public:
  /// Builds epoch-0 scores with a full Brandes sweep (exact_scores).
  /// Throws std::invalid_argument for directed graphs.
  explicit IncrementalBC(graph::CSRGraph initial, IncrementalConfig config = {});
  explicit IncrementalBC(std::shared_ptr<const graph::CSRGraph> initial,
                         IncrementalConfig config = {});
  ~IncrementalBC();

  IncrementalBC(const IncrementalBC&) = delete;
  IncrementalBC& operator=(const IncrementalBC&) = delete;

  /// Commit the batch and refresh the scores. Serialized internally;
  /// throws std::out_of_range on bad vertex ids (state unchanged) and
  /// util::Cancelled on cancellation (epoch NOT advanced, scores intact).
  BatchStats apply(const UpdateBatch& batch);

  /// Current epoch / graph / scores. scores() and graph() are stable
  /// between apply() calls; do not read them concurrently with apply().
  Epoch epoch() const { return versioned_.current(); }
  const graph::CSRGraph& graph() const { return *snapshot_; }
  const std::vector<double>& scores() const noexcept { return bc_; }

  /// Accumulated counters across all batches.
  struct Totals {
    std::uint64_t batches = 0;
    std::uint64_t applied_updates = 0;
    std::uint64_t noop_updates = 0;
    std::uint64_t sources_recomputed = 0;
    std::uint64_t sources_skipped = 0;
    std::uint64_t full_recomputes = 0;
  };
  const Totals& totals() const noexcept { return totals_; }

 private:
  IncrementalConfig cfg_;
  VersionedGraph versioned_;
  std::unique_ptr<util::ThreadPool> pool_;
  std::shared_ptr<const graph::CSRGraph> snapshot_;  // current epoch's graph
  std::vector<double> bc_;
  Totals totals_;
  std::mutex apply_mu_;  // serializes apply(); readers are documented out
};

}  // namespace hbc::dyn
