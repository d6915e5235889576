#include "cpu/parallel_brandes.hpp"

#include <algorithm>
#include <mutex>
#include <numeric>

#include "util/thread_pool.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::VertexId;

BrandesResult parallel_brandes(const CSRGraph& g, const ParallelBrandesOptions& options) {
  const VertexId n = g.num_vertices();

  std::vector<VertexId> sources = options.sources;
  if (sources.empty()) {
    sources.resize(n);
    std::iota(sources.begin(), sources.end(), VertexId{0});
  }

  const bool bottom_up = bottom_up_eligible(g);
  util::ThreadPool pool(options.num_threads);
  const std::size_t workers = pool.thread_count();

  std::vector<BrandesResult> partials(workers);
  for (auto& p : partials) p.bc.assign(n, 0.0);

  pool.parallel_ranges(sources.size(), [&](std::size_t tid, std::size_t begin, std::size_t end) {
    BrandesResult& local = partials[tid];
    BrandesWorkspace ws;
    for (std::size_t i = begin; i < end; ++i) {
      // Pool tasks must not throw; bail at the root boundary and let the
      // calling thread raise Cancelled after the join below.
      if (options.cancel.cancelled()) return;
      const VertexId s = sources[i];
      if (s >= n) continue;
      brandes_single_source(g, s, ws, local.bc, &local, bottom_up);
      ++local.roots_processed;
    }
  });
  options.cancel.check();

  BrandesResult result;
  result.bc.assign(n, 0.0);
  for (const auto& p : partials) {
    for (VertexId v = 0; v < n; ++v) result.bc[v] += p.bc[v];
    result.roots_processed += p.roots_processed;
    result.edges_traversed += p.edges_traversed;
    result.max_depth_seen = std::max(result.max_depth_seen, p.max_depth_seen);
    result.bottom_up_levels += p.bottom_up_levels;
  }
  return result;
}

}  // namespace hbc::cpu
