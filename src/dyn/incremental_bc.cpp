#include "dyn/incremental_bc.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <utility>

#include "cpu/brandes.hpp"
#include "util/exact_sum.hpp"
#include "util/timer.hpp"

namespace hbc::dyn {

using graph::CSRGraph;
using graph::kInfDistance;
using graph::VertexId;

namespace {

/// Distances-only BFS into a caller-owned buffer (graph::bfs also builds
/// parents and frontier histograms we don't need here — the
/// identification pass runs 4 BFS per applied edge, so lean matters).
void bfs_distances(const CSRGraph& g, VertexId source, std::vector<std::uint32_t>& dist,
                   std::vector<VertexId>& queue) {
  dist.assign(g.num_vertices(), kInfDistance);
  queue.clear();
  dist[source] = 0;
  queue.push_back(source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId u = queue[head];
    const std::uint32_t du = dist[u];
    for (const VertexId w : g.neighbors(u)) {
      if (dist[w] == kInfDistance) {
        dist[w] = du + 1;
        queue.push_back(w);
      }
    }
  }
}

void validate(const IncrementalConfig& cfg) {
  if (cfg.churn_threshold < 0.0 || cfg.churn_threshold > 1.0) {
    throw std::invalid_argument("IncrementalConfig: churn_threshold outside [0,1]");
  }
}

trace::Sink* dyn_sink(trace::Tracer* tracer) {
  return tracer != nullptr ? tracer->thread_sink() : nullptr;
}

void dyn_instant(trace::Tracer* tracer, const char* name,
                 std::initializer_list<trace::Arg> args) {
  trace::Sink* sink = dyn_sink(tracer);
  if (sink != nullptr && sink->wants(trace::kDyn)) {
    sink->instant(name, trace::kDyn, tracer->now_ns(), args);
  }
}

}  // namespace

std::vector<double> exact_scores(const CSRGraph& g, util::ThreadPool& pool,
                                 const util::CancelToken& cancel) {
  return cpu::brandes(g, {.sources = {}, .cancel = cancel}, pool).bc;
}

BatchStats refresh_scores(const CSRGraph& before, const CSRGraph& after,
                          std::span<const EdgeUpdate> applied,
                          std::vector<double>& scores, util::ThreadPool& pool,
                          const IncrementalConfig& cfg) {
  validate(cfg);
  const VertexId n = before.num_vertices();
  if (after.num_vertices() != n) {
    throw std::invalid_argument("refresh_scores: before/after vertex counts differ");
  }
  if (scores.size() != n) {
    throw std::invalid_argument("refresh_scores: scores size != num_vertices");
  }

  BatchStats stats;
  stats.applied_updates = applied.size();
  if (applied.empty()) return stats;

  trace::ScopedSpan batch_span(dyn_sink(cfg.tracer), cfg.tracer, "batch-refresh",
                               trace::kDyn,
                               {{"applied", static_cast<std::uint64_t>(applied.size())}});

  // ---- Identification: union of the per-edge level tests, both graphs.
  // affected[s] flips to 1 when any applied edge spans levels w.r.t. s in
  // either snapshot; concurrent setters all write 1, order-free, so the
  // result is deterministic regardless of scheduling.
  util::Timer identify_timer;
  std::vector<std::atomic<std::uint8_t>> affected(n);
  for (auto& a : affected) a.store(0, std::memory_order_relaxed);
  std::atomic<bool> cancelled{false};

  pool.parallel_for(applied.size(), [&](std::size_t i) {
    if (cancelled.load(std::memory_order_relaxed) || cfg.cancel.cancelled()) {
      cancelled.store(true, std::memory_order_relaxed);
      return;
    }
    const EdgeUpdate& e = applied[i];
    std::vector<std::uint32_t> du, dv;
    std::vector<VertexId> queue;
    queue.reserve(n);
    for (const CSRGraph* g : {&before, &after}) {
      // Undirected symmetry: d(s,u) == d(u,s), so two BFS runs give the
      // edge's level relation for every source at once.
      bfs_distances(*g, e.u, du, queue);
      bfs_distances(*g, e.v, dv, queue);
      for (VertexId s = 0; s < n; ++s) {
        if (du[s] != dv[s]) affected[s].store(1, std::memory_order_relaxed);
      }
      if (cfg.cancel.cancelled()) {
        cancelled.store(true, std::memory_order_relaxed);
        return;
      }
    }
  });
  if (cancelled.load(std::memory_order_relaxed)) cfg.cancel.check();

  std::vector<VertexId> affected_list;
  for (VertexId s = 0; s < n; ++s) {
    if (affected[s].load(std::memory_order_relaxed) != 0) affected_list.push_back(s);
  }
  stats.affected_sources = affected_list.size();
  stats.affected_fraction =
      n > 0 ? static_cast<double>(affected_list.size()) / static_cast<double>(n) : 0.0;
  stats.identify_ms = identify_timer.elapsed_ms();
  dyn_instant(cfg.tracer, "affected-set",
              {{"affected", stats.affected_sources},
               {"fraction", stats.affected_fraction},
               {"n", static_cast<std::uint64_t>(n)}});

  util::Timer recompute_timer;
  if (stats.affected_fraction > cfg.churn_threshold) {
    // ---- Churn fallback: the incremental path would pay ~2x a full
    // sweep (old + new dependencies per source); recompute once instead.
    stats.full_recompute = true;
    stats.sources_recomputed = n;
    stats.sources_skipped = 0;
    dyn_instant(cfg.tracer, "churn-fallback",
                {{"fraction", stats.affected_fraction},
                 {"threshold", cfg.churn_threshold}});
    trace::ScopedSpan span(dyn_sink(cfg.tracer), cfg.tracer, "full-recompute",
                           trace::kCompute);
    scores = exact_scores(after, pool, cfg.cancel);
    stats.recompute_ms = recompute_timer.elapsed_ms();
    return stats;
  }

  // ---- Incremental path: per affected source, fixed(new δ) − fixed(old
  // δ) into its worker's util::ExactSum — exact, so the merged change has
  // the same bits at any thread count. `scores` is only touched by the
  // final add, so a cancellation anywhere above leaves it exactly as it
  // was.
  stats.sources_recomputed = affected_list.size();
  stats.sources_skipped = n - affected_list.size();
  struct alignas(64) Scratch {  // a line of its own per worker
    cpu::BrandesWorkspace ws;
    std::vector<double> old_delta, new_delta;
    util::ExactSum change;
  };
  std::vector<Scratch> scratch(
      std::max<std::size_t>(1, std::min(pool.thread_count(), affected_list.size())));
  for (Scratch& sc : scratch) sc.change = util::ExactSum(n);
  {
    trace::ScopedSpan span(dyn_sink(cfg.tracer), cfg.tracer, "incremental-recompute",
                           trace::kCompute,
                           {{"sources", stats.sources_recomputed}});
    cpu::for_each_root(affected_list.size(), &pool, cfg.cancel,
                       [&](std::size_t i, std::size_t worker) {
                         Scratch& sc = scratch[worker];
                         sc.old_delta.resize(n);
                         sc.new_delta.resize(n);
                         const VertexId s = affected_list[i];
                         cpu::single_source_dependencies(before, s, sc.ws, sc.old_delta);
                         cpu::single_source_dependencies(after, s, sc.ws, sc.new_delta);
                         for (VertexId w = 0; w < n; ++w) {
                           if (w != s && sc.new_delta[w] != sc.old_delta[w]) {
                             sc.change.add(w, sc.new_delta[w]);
                             sc.change.subtract(w, sc.old_delta[w]);
                           }
                         }
                       });
  }
  for (std::size_t k = 1; k < scratch.size(); ++k) scratch[0].change.merge(scratch[k].change);
  const std::vector<double> change = scratch[0].change.to_doubles();
  for (VertexId v = 0; v < n; ++v) scores[v] += change[v];
  stats.recompute_ms = recompute_timer.elapsed_ms();
  return stats;
}

IncrementalBC::IncrementalBC(CSRGraph initial, IncrementalConfig config)
    : IncrementalBC(std::make_shared<const CSRGraph>(std::move(initial)),
                    std::move(config)) {}

IncrementalBC::IncrementalBC(std::shared_ptr<const CSRGraph> initial,
                             IncrementalConfig config)
    : cfg_(std::move(config)),
      versioned_(std::move(initial), cfg_.tracer),
      pool_(std::make_unique<util::ThreadPool>(cfg_.threads)) {
  validate(cfg_);
  snapshot_ = versioned_.current().graph;
  bc_ = exact_scores(*snapshot_, *pool_, cfg_.cancel);
}

IncrementalBC::~IncrementalBC() = default;

BatchStats IncrementalBC::apply(const UpdateBatch& batch) {
  std::lock_guard<std::mutex> lock(apply_mu_);
  CommitResult staged = versioned_.stage(batch);  // throws on bad vertex ids

  BatchStats stats;
  if (staged.applied.empty()) {
    stats.epoch = staged.after.id;
    stats.batch_updates = batch.size();
    stats.noop_updates = staged.noops;
    ++totals_.batches;
    totals_.noop_updates += staged.noops;
    return stats;
  }

  // Refresh before committing: a util::Cancelled here unwinds with both
  // the epoch and the scores still at the pre-batch state.
  stats = refresh_scores(*staged.before.graph, *staged.after.graph, staged.applied,
                         bc_, *pool_, cfg_);
  versioned_.commit(staged);
  snapshot_ = staged.after.graph;

  stats.epoch = staged.after.id;
  stats.batch_updates = batch.size();
  stats.noop_updates = staged.noops;

  ++totals_.batches;
  totals_.applied_updates += stats.applied_updates;
  totals_.noop_updates += stats.noop_updates;
  totals_.sources_recomputed += stats.sources_recomputed;
  totals_.sources_skipped += stats.sources_skipped;
  totals_.full_recomputes += stats.full_recompute ? 1 : 0;
  return stats;
}

}  // namespace hbc::dyn
