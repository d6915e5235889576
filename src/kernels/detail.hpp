#pragma once

// Internal helpers shared by kernels::BlockDriver and the weighted
// engines, which keep a bespoke loop. Not part of the public API.

#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "kernels/bc_state.hpp"

namespace hbc::kernels::detail {

/// Roots to process: the explicit list, or every vertex. Throws
/// std::invalid_argument for a listed root that is not a vertex of `g`
/// (the kernels index their O(n) arrays with it).
inline std::vector<graph::VertexId> resolve_roots(const graph::CSRGraph& g,
                                                  const RunConfig& config) {
  for (const graph::VertexId root : config.roots) {
    if (root >= g.num_vertices()) {
      throw std::invalid_argument("root " + std::to_string(root) + " out of range for " +
                                  std::to_string(g.num_vertices()) + " vertices");
    }
  }
  if (!config.roots.empty()) return config.roots;
  std::vector<graph::VertexId> roots(g.num_vertices());
  std::iota(roots.begin(), roots.end(), graph::VertexId{0});
  return roots;
}

/// Register the replicated graph arrays on the device ledger. Edge-
/// parallel kernels additionally keep the per-edge source lookup.
/// Charged via the storage policy's *decoded* sizes: uploading to the
/// simulated device always decompresses, so the ledger (and therefore
/// OOM behaviour and metrics) is identical across heap/mapped/compressed
/// backings of the same graph.
inline void allocate_graph(gpusim::Device& device, const graph::CSRGraph& g,
                           bool needs_edge_sources) {
  const auto& storage = *g.storage();
  auto& mem = device.memory();
  mem.allocate(storage.decoded_row_bytes(), "csr.row_offsets");
  mem.allocate(storage.decoded_adjacency_bytes(), "csr.col_indices");
  if (needs_edge_sources) {
    mem.allocate(storage.decoded_adjacency_bytes(), "csr.edge_sources");
  }
  mem.allocate(static_cast<std::uint64_t>(g.num_vertices()) * sizeof(double), "bc.global");
}

/// Shared BlockDriver functor for the Jia et al. level-check kernels
/// (vertex- and edge-parallel differ only in the per-level primitive).
/// Implemented in edge_parallel.cpp.
RunResult run_levelcheck_kernel(const graph::CSRGraph& g, const RunConfig& config,
                                Mode mode);

}  // namespace hbc::kernels::detail
