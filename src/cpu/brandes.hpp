#pragma once

// Brandes algorithm (Brandes 2001) — the exact-BC oracle every GPU-model
// kernel is validated against, and the per-node CPU baseline.
//
// Threads split the roots, never one root: the paper's one-root-per-SM
// mapping. Each worker adds its roots' dependencies into its own
// util::ExactSum (64.64 fixed point, exact and associative) and the sums
// are merged at the end, so every thread count and every claim order
// gives the same bits.
//
// Matches the paper's conventions: unweighted BFS shortest paths, the
// successor form of the dependency accumulation, and no halving — for an
// undirected graph each unordered pair {s,t} contributes twice (once per
// direction), so callers who want the "count each pair once" convention
// divide by 2 (core/bc.hpp offers this as an option).

#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/cancel.hpp"
#include "util/exact_sum.hpp"
#include "util/thread_pool.hpp"

namespace hbc::cpu {

struct BrandesOptions {
  /// Restrict the computation to these source vertices (empty = all).
  /// This is exactly the paper's root-subset mechanism used for
  /// approximation and for multi-GPU work distribution.
  std::vector<graph::VertexId> sources;
  /// Worker threads over the roots: 0 = hardware concurrency, 1 = a plain
  /// loop on the calling thread. Capped by brandes_threads(); the scores
  /// and stats are the same bits at every value.
  std::size_t num_threads = 1;
  /// Polled before each source; throws util::Cancelled within one root.
  util::CancelToken cancel;
};

struct BrandesResult {
  std::vector<double> bc;  // sums.to_doubles()
  /// The exact sum of every processed root's dependencies.
  util::ExactSum sums;
  std::uint64_t roots_processed = 0;
  std::uint64_t edges_traversed = 0;  // useful traversals (forward stage)
  std::uint32_t max_depth_seen = 0;
  /// Forward levels expanded bottom-up, summed over roots (0 when every
  /// level ran top-down; a root rerun top-down counts none).
  std::uint64_t bottom_up_levels = 0;
};

namespace detail {
struct SingleSourceKernel;
}

/// Scratch for the single-source kernel, reused across roots: one per
/// engine worker, never shared between threads. It sizes itself on first
/// use for a graph and after each root resets only the entries that root
/// touched — so any sequence of roots, on any graphs, sees the same clean
/// state as a fresh allocation. Top-down it holds 20 bytes per vertex plus
/// one successor bit per directed edge slot; an engine that may go
/// bottom-up adds 4 bytes per vertex (the unvisited list) and one
/// predecessor bit per slot. Each BFS level costs 16 bytes more.
class BrandesWorkspace {
 private:
  friend struct detail::SingleSourceKernel;
  struct Level {
    std::size_t end;  // one past the level's last entry in order_
    bool bottom_up;   // expanded bottom-up from the level before
  };
  // Vertex level in the forward stage, then the bits of its dependency
  // delta in the dependency stage (which never reads a level).
  std::vector<std::uint64_t> level_or_delta_;
  std::vector<double> sigma_;
  std::vector<graph::VertexId> order_;  // BFS visit order (the stack S)
  std::vector<Level> levels_;
  // Bit e of successors_ is set iff directed edge slot e leads to a
  // successor (top-down levels); of predecessors_, to a predecessor
  // (bottom-up levels).
  std::vector<std::uint64_t> successors_;
  std::vector<std::uint64_t> predecessors_;
  // Ascending vertices no level has reached, kept once a root goes
  // bottom-up and compacted by each bottom-up level.
  std::vector<graph::VertexId> unvisited_;
};

/// Whether the forward stage may expand wide frontiers bottom-up on g: g
/// is flagged undirected, its columns are contiguous (a .hbcgz whose
/// columns are not resident streams top-down) and every row is strictly
/// ascending (checked once per graph and cached by its storage). Scores
/// are the same bits either way.
bool bottom_up_eligible(const graph::CSRGraph& g);

/// Below this every integer is a double, so σ sums are exact in any order:
/// a bottom-up level keeps the top-down bits while the frontier's σ total
/// stays under it (rows are duplicate-free, so no new σ exceeds it).
inline constexpr double kExactSigma = 0x1p53;

/// A frontier of at most n/32 vertices stays top-down, so callers test
/// this before counting its arcs (keeps road at top-down cost).
constexpr bool frontier_is_wide(std::uint64_t n, std::uint64_t frontier_vertices) noexcept {
  return 32 * frontier_vertices > n;
}

/// Beamer's direction rule for one BFS level of a graph with n vertices
/// and m arcs: the frontier expands bottom-up when it is wide, its arcs
/// outnumber half the arcs of still-unvisited vertices, and they exceed
/// m/32. The one rule for this engine and for the GPU model's host
/// execution of work-efficient levels (kernels::BCWorkspace).
constexpr bool bottom_up_pays(std::uint64_t n, std::uint64_t m, std::uint64_t frontier_vertices,
                              std::uint64_t frontier_arcs,
                              std::uint64_t unvisited_arcs) noexcept {
  return frontier_is_wide(n, frontier_vertices) && 2 * frontier_arcs > unvisited_arcs &&
         32 * frontier_arcs > m;
}

/// Threads brandes() runs `roots` valid roots on: `requested` (0 = the
/// hardware's count), capped by the roots and by `hardware`
/// (std::thread::hardware_concurrency(), 0 when unknown), at least 1.
std::size_t brandes_threads(std::size_t requested, std::size_t roots,
                            std::size_t hardware) noexcept;

/// Sources outside [0, num_vertices()) are skipped; a repeated source
/// counts each time.
BrandesResult brandes(const graph::CSRGraph& g, const BrandesOptions& options = {});
/// As above on the threads of `pool` (options.num_threads is not read):
/// the same bits and stats.
BrandesResult brandes(const graph::CSRGraph& g, const BrandesOptions& options,
                      util::ThreadPool& pool);

/// The root loop of every multi-root CPU path: runs work(i, worker) for
/// every i in [0, count), each worker claiming the next index; `worker` <
/// the pool's thread count names the caller's per-thread state. With no
/// pool, or one thread, it is the plain loop on the calling thread.
/// `cancel` is polled before each root; the first worker to see it, or an
/// exception from `work`, stops every worker before its next root. Either
/// is rethrown on the calling thread once all workers have returned.
void for_each_root(std::size_t count, util::ThreadPool* pool, const util::CancelToken& cancel,
                   const std::function<void(std::size_t i, std::size_t worker)>& work);

/// Single-source stage pair: computes the dependency vector delta for
/// source s and adds it into bc (bc[s] excluded). `bottom_up` must be
/// bottom_up_eligible(g), or false to stay top-down. Throws
/// std::out_of_range when s >= num_vertices().
void brandes_single_source(const graph::CSRGraph& g, graph::VertexId s,
                           BrandesWorkspace& ws, util::ExactSum& bc,
                           BrandesResult* stats = nullptr, bool bottom_up = false);

/// The dependency vector delta_s(v) for all v (without accumulation),
/// written over all of `delta` (num_vertices() entries; 0 where s does
/// not reach). Same kernel and bits as brandes_single_source. Shared by
/// the approximation estimators and the dynamic updater. Throws
/// std::out_of_range when s >= num_vertices().
void single_source_dependencies(const graph::CSRGraph& g, graph::VertexId s,
                                BrandesWorkspace& ws, std::span<double> delta);
std::vector<double> single_source_dependencies(const graph::CSRGraph& g,
                                               graph::VertexId s);

}  // namespace hbc::cpu
