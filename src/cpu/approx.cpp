#include "cpu/approx.hpp"

#include <algorithm>

#include "cpu/brandes.hpp"
#include "util/rng.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::VertexId;

AdaptiveApproxResult adaptive_bc(const CSRGraph& g, VertexId target,
                                 const AdaptiveApproxOptions& options) {
  const VertexId n = g.num_vertices();
  AdaptiveApproxResult result;
  if (n == 0 || target >= n) return result;

  const double threshold = options.c * static_cast<double>(n);
  const std::uint32_t cap =
      options.max_pivots == 0 ? n : std::min<std::uint32_t>(options.max_pivots, n);
  util::Xoshiro256 rng(options.seed);

  BrandesWorkspace ws;
  std::vector<double> delta(n);
  double accumulated = 0.0;
  std::uint32_t k = 0;
  while (k < cap) {
    const VertexId s = static_cast<VertexId>(rng.next_below(n));
    ++k;
    if (s == target) continue;  // delta_s(s) is by definition excluded
    single_source_dependencies(g, s, ws, delta);
    accumulated += delta[target];
    if (accumulated >= threshold) {
      result.threshold_hit = true;
      break;
    }
  }

  result.pivots_used = k;
  result.bc_estimate =
      k > 0 ? static_cast<double>(n) * accumulated / static_cast<double>(k) : 0.0;
  return result;
}

}  // namespace hbc::cpu
