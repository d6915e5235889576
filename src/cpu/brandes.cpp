#include "cpu/brandes.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "cpu/brandes_impl.hpp"
#include "graph/storage/compressed.hpp"
#include "graph/types.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::VertexId;

namespace {

// A compressed backing whose columns are not resident: the kernel streams
// its varint decode rather than materialize the adjacency. Once another
// engine has decoded the columns (CompressedStorage::col_indices()), the
// kernel reads that copy like any raw backing. Both views produce
// bitwise-identical scores — see brandes_impl.hpp.
const graph::storage::CompressedStorage* compressed_backing(const CSRGraph& g) {
  if (!graph::storage::is_compressed(g.residency())) return nullptr;
  const auto* cs = dynamic_cast<const graph::storage::CompressedStorage*>(g.storage().get());
  return cs != nullptr && cs->resident_columns().empty() ? cs : nullptr;
}

template <class Visit>
void run_kernel(const CSRGraph& g, VertexId s, BrandesWorkspace& ws, bool bottom_up,
                BrandesResult* stats, Visit&& visit) {
  if (s >= g.num_vertices()) {
    throw std::out_of_range("brandes: source " + std::to_string(s) + " >= num_vertices " +
                            std::to_string(g.num_vertices()));
  }
  if (const auto* cs = compressed_backing(g)) {
    detail::SingleSourceKernel::run(cs->stream_view(), s, ws, false, stats, visit);
  } else {
    detail::SingleSourceKernel::run(detail::SpanView{g.row_offsets(), g.col_indices()}, s,
                                    ws, bottom_up, stats, visit);
  }
}

}  // namespace

bool bottom_up_eligible(const CSRGraph& g) {
  if (!g.undirected() || compressed_backing(g) != nullptr) return false;
  const auto rows = g.row_offsets();
  const auto cols = g.col_indices();
  // Non-ascending neighbour pairs over the whole column array, less the
  // pairs across a row boundary (at the first slot of each non-empty row
  // but the array's first): one branch-free pass, not a loop per row.
  std::size_t descents = 0;
  for (std::size_t e = 1; e < cols.size(); ++e) descents += cols[e - 1] >= cols[e];
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const graph::EdgeOffset e = rows[v];
    if (e > 0 && e < rows[v + 1]) descents -= cols[e - 1] >= cols[e];
  }
  return descents == 0;
}

void brandes_single_source(const CSRGraph& g, VertexId s, BrandesWorkspace& ws,
                           std::span<double> bc, BrandesResult* stats, bool bottom_up) {
  run_kernel(g, s, ws, bottom_up, stats, [&](VertexId w, double dsw) {
    if (w != s) bc[w] += dsw;
  });
}

void brandes_single_source(const CSRGraph& g, VertexId s, std::span<double> bc,
                           BrandesResult* stats) {
  BrandesWorkspace ws;
  brandes_single_source(g, s, ws, bc, stats);
}

void single_source_dependencies(const CSRGraph& g, VertexId s, BrandesWorkspace& ws,
                                std::span<double> delta) {
  if (delta.size() != g.num_vertices()) {
    throw std::invalid_argument("single_source_dependencies: delta size != num_vertices");
  }
  std::fill(delta.begin(), delta.end(), 0.0);
  run_kernel(g, s, ws, false, nullptr, [&](VertexId w, double dsw) { delta[w] = dsw; });
}

std::vector<double> single_source_dependencies(const CSRGraph& g, VertexId s) {
  BrandesWorkspace ws;
  std::vector<double> delta(g.num_vertices());
  single_source_dependencies(g, s, ws, delta);
  return delta;
}

BrandesResult brandes(const CSRGraph& g, const BrandesOptions& options) {
  const VertexId n = g.num_vertices();
  BrandesResult result;
  result.bc.assign(n, 0.0);
  BrandesWorkspace ws;
  const bool bottom_up = bottom_up_eligible(g);

  if (options.sources.empty()) {
    for (VertexId s = 0; s < n; ++s) {
      options.cancel.check();
      brandes_single_source(g, s, ws, result.bc, &result, bottom_up);
      ++result.roots_processed;
    }
  } else {
    for (VertexId s : options.sources) {
      if (s >= n) continue;
      options.cancel.check();
      brandes_single_source(g, s, ws, result.bc, &result, bottom_up);
      ++result.roots_processed;
    }
  }
  return result;
}

}  // namespace hbc::cpu
