#pragma once

// Adaptive approximate betweenness centrality (Bader, Kintali, Madduri,
// Mihail 2007 [3]) — one of the two estimator families the paper cites
// when it notes its techniques "can be trivially adjusted for
// approximation" (§V.A). Keep sampling pivots until the running score of
// the vertex of interest exceeds c*n, giving a (proven) good relative
// estimate for high-centrality vertices with far fewer samples. It drives
// the serial Brandes stage.
//
// The other family, uniform root sampling (Brandes & Pich 2007 [9]), is
// core::compute with Options::sample_roots: k uniformly drawn roots,
// scores scaled by n/k.

#include <cstdint>

#include "graph/csr.hpp"

namespace hbc::cpu {

struct AdaptiveApproxOptions {
  /// Stop once the accumulated dependency of the target exceeds c * n.
  double c = 5.0;
  /// Hard cap on pivots (<= n); 0 means n.
  std::uint32_t max_pivots = 0;
  std::uint64_t seed = 42;
};

struct AdaptiveApproxResult {
  /// Estimated BC of the target vertex: n * S_k / k, where S_k is the
  /// accumulated dependency after k pivots.
  double bc_estimate = 0.0;
  std::uint32_t pivots_used = 0;
  /// True if the c*n threshold fired (high-centrality fast path); false
  /// if the pivot cap was reached instead.
  bool threshold_hit = false;
};

/// Bader et al. adaptive estimator for one target vertex.
AdaptiveApproxResult adaptive_bc(const graph::CSRGraph& g, graph::VertexId target,
                                 const AdaptiveApproxOptions& options = {});

}  // namespace hbc::cpu
