#pragma once

// Shared per-root state and the level-synchronous building blocks from
// which every GPU-model BC kernel is composed:
//
//   * BCWorkspace holds the paper's per-block local variables
//     (Algorithm 1): d, sigma, delta, Q_curr, Q_next, S and ends. On the
//     modelled device every simulated block owns one (the device-memory
//     ledger charges them per block); on the host, BlockDriver keeps one
//     per host thread and leases it to whichever block that thread runs,
//     since a workspace is fully reset at every root.
//   * we_forward_level / finish_level implement Algorithm 2 (queue-based
//     shortest-path iteration with CAS dedup);
//   * we_backward_level implements Algorithm 3 (successor / neighbor-
//     traversal dependency accumulation — no predecessor array, no
//     atomics);
//   * ep_* / vp_* implement the Jia et al. edge-parallel and
//     vertex-parallel O(n^2 + m) level-check iterations (§III.A),
//     reused by the hybrid (Algorithm 4) and sampling (Algorithm 5)
//     kernels for their edge-parallel phases.
//
// The rule every method follows: charge per modelled operation; execute
// only useful work. The simulated device (the BlockContext, see
// gpusim/device.hpp) is charged for every operation the modelled kernel
// performs, including the futile ones — an edge-parallel level still
// pays its O(m) scan, an adjacency walk still pays for every neighbour
// it inspects. The host computes those charges in closed form (a
// vertex's walk cost depends only on its degree and on what it found)
// and executes only the operations that change state: an edge-parallel
// level walks the frontier's edges, and the dependency stage sums over
// successor edges the forward stage marked in a host-only bitmap. The
// modelled outputs — scores, counters, cycles, traces — are the same as
// executing every charged step.
//
// The host may also run a level in another order than the one it
// charges. A wide work-efficient level (Algorithm 2 is top-down) on an
// undirected graph with strictly ascending rows runs bottom-up on the
// host, by the CPU engine's rule (cpu::bottom_up_pays): every unvisited
// vertex sums σ over its parents on the frontier and marks those arcs in
// a host-only predecessor bitmap. σ sums are integers below 2^53 (the
// frontier's σ total is checked), so their order does not matter. Each
// new vertex's discoverer — the parent first in Q_curr — gives the
// top-down run's Q_next (CAS winners in frontier order, each in its
// adjacency order, i.e. ascending id) and each frontier vertex's found
// count, hence the same charges; every later level sees the top-down
// state. The dependency stage pushes such a level's δ terms into the
// marked predecessors in ascending successor id, the order the successor
// pull adds them on ascending rows.

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "gpusim/faults.hpp"
#include "graph/csr.hpp"
#include "util/bitvector.hpp"
#include "util/cancel.hpp"
#include "util/exact_sum.hpp"

namespace hbc::kernels {

/// Per-iteration parallelization mode (the hybrid's decision variable).
/// BottomUp is the direction-optimizing extension (Beamer et al., §VI of
/// the paper's related work): unvisited vertices search backwards for
/// frontier parents instead of the frontier expanding forwards.
enum class Mode : std::uint8_t { WorkEfficient, EdgeParallel, VertexParallel, BottomUp };

const char* to_string(Mode mode) noexcept;

/// Algorithm 4 thresholds. Defaults are the paper's tuned values.
struct HybridParams {
  std::uint32_t alpha = 768;  // frontier-change threshold
  std::uint32_t beta = 512;   // next-frontier size threshold
};

/// Algorithm 5 parameters. Defaults are the paper's tuned values.
struct SamplingParams {
  std::uint32_t n_samps = 512;    // roots probed work-efficiently
  double gamma = 4.0;             // median-depth multiplier vs log2(n)
  std::uint32_t min_frontier = 512;  // EP guard: frontier must be >= this
};

struct RunConfig {
  /// Roots to process (empty = every vertex; a strict subset is the
  /// paper's approximation/multi-GPU mechanism).
  std::vector<graph::VertexId> roots;
  /// Work-efficient kernel only: keep the O(m)-bit predecessor bitmap of
  /// Green & Bader instead of the paper's pure neighbor-traversal
  /// dependency stage. §IV.A frames this exact trade: the paper removes
  /// the predecessor structure to cut local storage from O(m) to O(n),
  /// "at the cost of additional computation". The flag lets the ablation
  /// bench measure both sides of that trade.
  bool use_predecessor_bitmap = false;
  gpusim::DeviceConfig device;
  HybridParams hybrid;
  SamplingParams sampling;
  /// Record per-iteration frontier sizes and simulated times for each
  /// processed root (Figure 3 / Table I). Costly; keep the root set small.
  bool collect_per_root_stats = false;
  /// Record just the simulated cycles of each processed root (cheap).
  /// Lets the cluster model evaluate many node counts from one kernel run
  /// (Figure 6 / Table IV).
  bool collect_root_cycles = false;
  /// Host threads that execute simulated blocks concurrently (the
  /// coarse-grained block→thread mapping of kernels::BlockDriver).
  /// 0 = hardware concurrency; always clamped to the block count. The BC
  /// vector, operation counters, and simulated-cycle metrics are bitwise
  /// identical for every value — threading changes wall_seconds only.
  std::size_t cpu_threads = 0;
  /// Deterministic fault injection (nullptr = fault-free). Shared and
  /// immutable so concurrent runs can reference one plan.
  std::shared_ptr<const gpusim::FaultPlan> fault_plan;
  /// Cooperative cancellation, polled by the driver at every root
  /// boundary. Default-constructed = never cancels (one pointer test).
  util::CancelToken cancel;
  /// Total launches a root may consume (first try + in-block retries +
  /// the recovery-sweep attempt) before it lands in FaultReport. Min 1.
  std::uint32_t max_root_attempts = 3;
  /// Offset applied to the attempt index in FaultPlan queries. A whole-run
  /// retry at epoch+1 sees fresh attempt numbers, so transient faults
  /// (which clear after `fail_attempts` launches) deterministically stop
  /// firing — the service's backoff path relies on this.
  std::uint32_t fault_retry_epoch = 0;
  /// Trace capture (nullptr = off; docs/tracing.md). The driver registers
  /// one sink per simulated block and stamps every event from the block's
  /// cycle ledger, so captures are bitwise-identical at every host-thread
  /// count. Non-owning: the Tracer must outlive the run.
  trace::Tracer* tracer = nullptr;
};

/// RAII span on a block's sink with simulated-cycle timestamps: begins at
/// the ledger's current sim_ns, ends (exception-safely — a DeviceFault
/// unwinding mid-stage closes the span at the trip point) at destruction.
/// Null sink or masked category = two pointer-sized tests, nothing else.
class SimSpan {
 public:
  SimSpan(trace::Sink* sink, gpusim::BlockContext& ctx, const char* name,
          trace::Category category, std::initializer_list<trace::Arg> args = {})
      : sink_(sink && sink->wants(category) ? sink : nullptr),
        ctx_(&ctx),
        name_(name),
        category_(category) {
    if (sink_) sink_->begin(name_, category_, ctx_->sim_ns(), args);
  }
  ~SimSpan() {
    if (sink_) sink_->end(name_, category_, ctx_->sim_ns());
  }

  SimSpan(const SimSpan&) = delete;
  SimSpan& operator=(const SimSpan&) = delete;

 private:
  trace::Sink* sink_;
  gpusim::BlockContext* ctx_;
  const char* name_;
  trace::Category category_;
};

/// Per-level frontier instant (kLevel), emitted AFTER the level completes
/// so the sink's append order stays timestamp-ordered even when kCharge
/// events interleave. Every forward-stage loop calls this once per level.
inline void trace_level(trace::Sink* sink, gpusim::BlockContext& ctx,
                        std::uint32_t depth, std::uint64_t vertex_frontier,
                        std::uint64_t edge_frontier, Mode mode, std::uint64_t cycles) {
  if (sink && sink->wants(trace::kLevel)) {
    sink->instant("level", trace::kLevel, ctx.sim_ns(),
                  {{"depth", std::uint64_t{depth}},
                   {"vertices", vertex_frontier},
                   {"edges", edge_frontier},
                   {"mode", to_string(mode)},
                   {"cycles", cycles}});
  }
}

/// One forward-stage BFS level of one root.
struct IterationRecord {
  std::uint32_t depth = 0;
  std::uint64_t vertex_frontier = 0;  // |Q_curr| processed this level
  std::uint64_t edge_frontier = 0;    // out-edges incident to the frontier
  std::uint64_t cycles = 0;           // simulated cycles for this level
  Mode mode = Mode::WorkEfficient;
};

struct PerRootStats {
  graph::VertexId root = 0;
  std::uint32_t max_depth = 0;
  std::vector<IterationRecord> iterations;
};

struct RunMetrics {
  gpusim::Counters counters;
  std::uint64_t elapsed_cycles = 0;
  double sim_seconds = 0.0;   // modelled device time
  double wall_seconds = 0.0;  // host execution time of the simulation
  std::uint64_t device_memory_high_water = 0;
  std::uint64_t we_levels = 0;  // forward levels run work-efficiently
  std::uint64_t ep_levels = 0;  // forward levels run edge-parallel
  /// Sampling-kernel outcome (meaningful for Strategy::Sampling only).
  bool sampling_chose_edge_parallel = false;
  double sampling_median_depth = 0.0;
  /// Simulated cycles per processed root, in processing order (only when
  /// RunConfig::collect_root_cycles is set).
  std::vector<std::uint64_t> per_root_cycles;
};

struct RunResult {
  std::vector<double> bc;  // sums.to_doubles()
  /// The exact sum of every completed root's dependencies.
  util::ExactSum sums;
  RunMetrics metrics;
  std::vector<PerRootStats> per_root;  // populated when requested
  /// Fault-injection accounting. faults.complete() == true means every
  /// root's contribution is present (scores exact); failed roots are
  /// missing from `bc` and listed in faults.failed_roots.
  gpusim::FaultReport faults;
};

/// Per-root working set (Algorithm 1's local variables).
class BCWorkspace {
 public:
  explicit BCWorkspace(const graph::CSRGraph& g);

  /// Device bytes one block's local structures occupy: the O(n) layout of
  /// the work-efficient approach (d, sigma, delta, two queues, S, ends).
  static std::uint64_t work_efficient_bytes(graph::VertexId n);

  /// The Jia et al. layout adds the O(m) boolean predecessor map.
  static std::uint64_t jia_bytes(graph::VertexId n, graph::EdgeOffset directed_edges);

  /// GPU-FAN keeps an O(n^2) predecessor list (4-byte entries) — the
  /// scalability cliff demonstrated in Figure 5.
  static std::uint64_t gpufan_bytes(graph::VertexId n);

  /// Algorithm 1: reset d/sigma/delta, seed the queues and S with s.
  /// Charged as one parallel initialisation round over n elements.
  void init_root(graph::VertexId s, gpusim::BlockContext& ctx);

  struct LevelStats {
    std::uint64_t vertex_frontier = 0;
    std::uint64_t edge_frontier = 0;
    std::uint64_t discovered = 0;  // vertices inserted into the next level
  };

  /// Algorithm 2 body: expand Q_curr into Q_next (queue-driven). With
  /// mark_predecessors, edges on shortest paths are recorded in the O(m)
  /// bitmap for the predecessor-driven dependency stage. Charged top-down;
  /// without mark_predecessors, a wide frontier (the CPU engine's rule) on
  /// an undirected graph with strictly ascending rows runs bottom-up on
  /// the host when its σ total is below 2^53 (see the file comment).
  LevelStats we_forward_level(gpusim::BlockContext& ctx,
                              bool mark_predecessors = false);

  /// Jia et al. edge-parallel level: scan every directed edge, process
  /// those whose source sits at `depth`. With maintain_queue the
  /// discovered vertices are also appended to Q_next so hybrid/sampling
  /// bookkeeping (frontier sizes, S, ends) stays intact.
  /// `width` widens the round to more threads (GPU-FAN grid mode).
  /// Charged as the full scan; the host walks only the frontier's edges,
  /// in ascending source order — the edge array's order. Without
  /// maintain_queue (the queue-less Jia et al. kernels, which keep no
  /// frontier on the device) the level's vertices still go into S and
  /// ends as host-only entries, uncharged, so the next level and the
  /// dependency stage can find them.
  LevelStats ep_forward_level(gpusim::BlockContext& ctx, std::uint32_t depth,
                              bool maintain_queue, std::uint64_t width = 0);

  /// Jia et al. vertex-parallel level: one thread per vertex, threads
  /// whose vertex sits at `depth` traverse all its edges (load-imbalanced).
  LevelStats vp_forward_level(gpusim::BlockContext& ctx, std::uint32_t depth);

  /// Direction-optimizing bottom-up level: one thread per UNVISITED
  /// vertex scans its full adjacency for parents at `depth`; sigma is the
  /// sum over all such parents (no early exit — path counting needs every
  /// parent, unlike plain BFS bottom-up). Discovered vertices are
  /// appended to Q_next so the S/ends bookkeeping and the Beamer switch
  /// heuristic keep working.
  LevelStats bu_forward_level(gpusim::BlockContext& ctx, std::uint32_t depth);

  /// Algorithm 2 lines 14–24: publish Q_next as the new Q_curr, append it
  /// to S and push a new `ends` entry.
  void finish_level(gpusim::BlockContext& ctx);

  /// Algorithm 3 body for one depth (S-slice driven, successor checks).
  /// Charged as a walk over every neighbour; for levels that
  /// we_forward_level expanded, the host sums only over the successor
  /// edges it marked, or, for a level it expanded bottom-up, pushes the
  /// next level's terms into their marked predecessors.
  void we_backward_level(gpusim::BlockContext& ctx, std::uint32_t depth);

  /// Predecessor-bitmap dependency level: walks the same S-slice but
  /// consults the bitmap (1-bit streaming read) instead of fetching d[v]
  /// for every neighbor — less scattered traffic, O(m) bits more storage.
  void we_backward_level_pred(gpusim::BlockContext& ctx, std::uint32_t depth);

  /// Bytes of the optional predecessor bitmap for the memory ledger.
  static std::uint64_t predecessor_bitmap_bytes(graph::EdgeOffset directed_edges) {
    return (directed_edges + 7) / 8;
  }

  /// Edge-parallel dependency level: scan all edges; updates the
  /// dependency of edge sources atomically (the paper notes edge-parallel
  /// successor accumulation cannot avoid atomics). Charged as the full
  /// scan; the host walks only the edges of the level's S slice.
  void ep_backward_level(gpusim::BlockContext& ctx, std::uint32_t depth,
                         std::uint64_t width = 0);

  /// Vertex-parallel dependency level (level check over all vertices).
  void vp_backward_level(gpusim::BlockContext& ctx, std::uint32_t depth);

  /// Add delta into the global BC accumulator (skipping the root): the
  /// modelled atomicAdd, exact on the host (util::ExactSum), so the sum
  /// does not depend on which block or thread adds first. Queue-less
  /// kernels scan all n vertices; queue-based kernels walk S. Every charge
  /// is issued before `bc` is touched, so a fault that trips in this step
  /// leaves the accumulator unchanged for the retry.
  void accumulate_bc(util::ExactSum& bc, graph::VertexId root, bool use_queue,
                     gpusim::BlockContext& ctx);

  // --- state inspection used by drivers and tests ---
  std::uint64_t q_curr_len() const noexcept { return q_curr_len_; }
  std::uint64_t q_next_len() const noexcept { return q_next_len_; }
  std::uint32_t current_depth() const noexcept { return depth_; }
  /// Deepest level that holds at least one vertex.
  std::uint32_t max_depth() const noexcept;
  std::span<const std::uint32_t> distances() const noexcept { return d_; }
  std::span<const double> sigmas() const noexcept { return sigma_; }
  std::span<const double> deltas() const noexcept { return delta_; }
  std::span<const graph::VertexId> stack() const noexcept {
    return {s_.data(), s_len_};
  }
  /// Contents of Q_next (valid between a forward level and finish_level).
  std::span<const graph::VertexId> next_queue() const noexcept {
    return {q_next_.data(), q_next_len_};
  }
  std::span<const std::uint64_t> ends() const noexcept {
    return {ends_.data(), ends_len_};
  }
  /// Work-efficient levels this workspace ran bottom-up on the host.
  std::uint64_t host_bottom_up_levels() const noexcept { return host_bottom_up_levels_; }

 private:
  /// How we_forward_level expanded a depth of the current root.
  enum class Expansion : std::uint8_t { None, TopDown, BottomUp };

  /// A depth expanded bottom-up: its new vertices are
  /// discovered_[begin, end), ascending, with their parent arcs marked in
  /// predecessor_marks_ until the dependency stage drains them (end is
  /// then set to begin).
  struct BottomUpLevel {
    std::uint32_t depth;
    std::uint64_t begin;
    std::uint64_t end;
  };

  /// we_forward_level's bottom-up path (frontier_arcs = Σ deg Q_curr).
  LevelStats bottom_up_level(gpusim::BlockContext& ctx, std::uint64_t frontier_arcs);
  /// Push the δ terms of the level below `depth` into their predecessors.
  void push_to_predecessors(std::uint32_t depth);

  const graph::CSRGraph* g_;
  /// Undirected with strictly ascending rows: wide levels may run
  /// bottom-up on the host.
  bool bottom_up_rows_;
  std::vector<std::uint32_t> d_;
  std::vector<double> sigma_;
  /// Also, during a bottom-up level, each frontier vertex's Q_curr
  /// position (high 32 bits) and found count (low 32) as raw bits;
  /// zeroed again before the level returns.
  std::vector<double> delta_;
  /// Bit e is set when edge e carried a sigma update in we_forward_level.
  /// Host-only: it is the modelled predecessor bitmap only when the
  /// kernel runs with use_predecessor_bitmap (which puts it on the
  /// device ledger); otherwise it just lets the dependency stage skip
  /// non-successor edges. Lazily sized; one bit per directed edge.
  util::BitVector successor_marks_;
  /// expansion_[k]: how we_forward_level expanded depth k this root.
  std::vector<Expansion> expansion_;
  /// Host-only bottom-up state, allocated at the workspace's first
  /// bottom-up level: the arcs from new vertices to their parents, the
  /// new vertices of each such level in ascending id, the vertices no
  /// level has reached yet (ascending; built at a root's first bottom-up
  /// level), and the bottom-up levels of the current root.
  util::BitVector predecessor_marks_;
  std::vector<graph::VertexId> discovered_;
  std::vector<graph::VertexId> unvisited_;
  std::vector<BottomUpLevel> bottom_up_levels_;
  std::uint64_t host_bottom_up_levels_ = 0;
  /// Σ degree of the depths already expanded this root.
  std::uint64_t settled_arcs_ = 0;
  gpusim::ImbalancedRound round_{1};  // reused by every imbalanced round
  std::vector<graph::VertexId> q_curr_;
  std::vector<graph::VertexId> q_next_;
  std::vector<graph::VertexId> s_;
  std::vector<std::uint64_t> ends_;
  std::uint64_t q_curr_len_ = 0;
  std::uint64_t q_next_len_ = 0;
  std::uint64_t s_len_ = 0;
  std::uint64_t ends_len_ = 0;
  std::uint32_t depth_ = 0;  // depth of the level currently in Q_curr
};

}  // namespace hbc::kernels
