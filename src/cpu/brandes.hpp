#pragma once

// Serial Brandes algorithm (Brandes 2001) — the exact-BC oracle every
// GPU-model kernel is validated against, and the per-node CPU baseline.
//
// Matches the paper's conventions: unweighted BFS shortest paths, the
// successor form of the dependency accumulation, and no halving — for an
// undirected graph each unordered pair {s,t} contributes twice (once per
// direction), so callers who want the "count each pair once" convention
// divide by 2 (core/bc.hpp offers this as an option).

#include <cstdint>
#include <span>
#include <vector>

#include "graph/csr.hpp"
#include "util/cancel.hpp"

namespace hbc::cpu {

struct BrandesOptions {
  /// Restrict the computation to these source vertices (empty = all).
  /// This is exactly the paper's root-subset mechanism used for
  /// approximation and for multi-GPU work distribution.
  std::vector<graph::VertexId> sources;
  /// Polled before each source; throws util::Cancelled within one root.
  util::CancelToken cancel;
};

struct BrandesResult {
  std::vector<double> bc;
  std::uint64_t roots_processed = 0;
  std::uint64_t edges_traversed = 0;  // useful traversals (forward stage)
  std::uint32_t max_depth_seen = 0;
};

namespace detail {
struct SingleSourceKernel;
}

/// Scratch for the single-source kernel, reused across roots: one per
/// engine call, pool range or stripe, never shared between threads. It
/// holds 20 bytes per vertex plus one successor bit per directed edge
/// slot, sizes itself on first use for a graph, and after each root
/// resets only the entries that root touched — so any sequence of roots,
/// on any graphs, sees the same clean state as a fresh allocation.
class BrandesWorkspace {
 private:
  friend struct detail::SingleSourceKernel;
  // Vertex level in the forward stage, then the bits of its dependency
  // delta in the dependency stage (which never reads a level).
  std::vector<std::uint64_t> level_or_delta_;
  std::vector<double> sigma_;
  std::vector<graph::VertexId> order_;  // BFS visit order (the stack S)
  // Bit e is set iff directed edge slot e leads to a successor.
  std::vector<std::uint64_t> successors_;
};

BrandesResult brandes(const graph::CSRGraph& g, const BrandesOptions& options = {});

/// Single-source stage pair: computes the dependency vector delta for
/// source s and accumulates it into bc (bc[s] excluded). Throws
/// std::out_of_range when s >= num_vertices().
void brandes_single_source(const graph::CSRGraph& g, graph::VertexId s,
                           BrandesWorkspace& ws, std::span<double> bc,
                           BrandesResult* stats = nullptr);
/// As above with a workspace of its own (for one-off roots and tests).
void brandes_single_source(const graph::CSRGraph& g, graph::VertexId s,
                           std::span<double> bc, BrandesResult* stats = nullptr);

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
