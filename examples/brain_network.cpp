// Biological-network analysis — the domain that motivated GPU-FAN
// (Shi & Zhang analyzed protein-communication and genetic-interaction
// networks) and one the paper's introduction cites via brain connectomics
// (Bullmore & Sporns). Connectomes are small-world: dense local modules
// (high clustering) bridged by a few long-range hub connections, and BC
// is the standard measure for locating those hubs.
//
// The demo builds a synthetic modular connectome (cortical modules as
// dense clusters, sparse inter-module fibers), verifies the small-world
// signature, finds hub regions with exact BC, cross-checks with the
// Brandes–Pich and Bader et al. approximations, and shows what module
// isolation (lesioning the top hub) does to the network.

#include <algorithm>
#include <cstdio>

#include "hbc.hpp"

namespace {

using namespace hbc;
using graph::VertexId;

struct Connectome {
  graph::CSRGraph graph;
  std::vector<VertexId> hubs;  // designated inter-module relay regions
};

/// `modules` dense modules of `module_size` regions; each module elects a
/// hub wired to every other module's hub (the long-range fiber tract).
Connectome synthetic_connectome(std::uint32_t modules, std::uint32_t module_size,
                                double p_local, std::uint64_t seed) {
  const VertexId n = modules * module_size;
  util::Xoshiro256 rng(seed);
  graph::GraphBuilder builder(n);
  Connectome out;

  for (std::uint32_t m = 0; m < modules; ++m) {
    const VertexId base = m * module_size;
    for (VertexId a = 0; a < module_size; ++a) {
      for (VertexId b = a + 1; b < module_size; ++b) {
        if (rng.next_bool(p_local)) builder.add_edge(base + a, base + b);
      }
    }
    out.hubs.push_back(base);  // first region of each module is its hub
  }
  for (std::uint32_t a = 0; a < modules; ++a) {
    for (std::uint32_t b = a + 1; b < modules; ++b) {
      builder.add_edge(out.hubs[a], out.hubs[b]);
    }
  }
  out.graph = builder.build();
  return out;
}

}  // namespace

int main() {
  const std::uint32_t modules = 8, module_size = 40;
  Connectome c = synthetic_connectome(modules, module_size, 0.35, 2026);
  std::printf("synthetic connectome: %s\n", c.graph.summary().c_str());

  // Small-world verification: high clustering, low diameter.
  const double cc = graph::clustering_coefficient(c.graph);
  const auto diameter = graph::pseudo_diameter(c.graph);
  std::printf("clustering coefficient %.3f, pseudo-diameter %u "
              "(small-world: clustered AND shallow)\n\n",
              cc, diameter);

  // Exact BC; the sampling strategy will classify this as small-world.
  core::Options options;
  options.strategy = core::Strategy::Sampling;
  const auto exact = core::compute(c.graph, options);
  std::fputs(core::format_report(c.graph, exact, {.top_k = 8}).c_str(), stdout);

  // The designated hubs must dominate the ranking.
  const auto top = core::top_k(exact.scores, modules);
  std::uint32_t hubs_found = 0;
  for (const auto& [v, score] : top) {
    if (std::find(c.hubs.begin(), c.hubs.end(), v) != c.hubs.end()) ++hubs_found;
  }
  std::printf("\n%u of the top %u regions are designated inter-module hubs\n",
              hubs_found, modules);

  // Approximation cross-checks (the estimators the paper cites).
  core::Options uniform_options;
  uniform_options.strategy = core::Strategy::CpuSerial;
  uniform_options.sample_roots = 64;
  uniform_options.seed = 5;
  const auto uniform = core::compute(c.graph, uniform_options);
  const VertexId top_hub = top[0].first;
  std::printf("Brandes-Pich (64 pivots): top hub estimate %.0f vs exact %.0f\n",
              uniform.scores[top_hub], exact.scores[top_hub]);
  const auto adaptive = cpu::adaptive_bc(c.graph, top_hub, {.c = 5.0, .seed = 5});
  std::printf("Bader adaptive: %.0f after %u pivots (threshold %s)\n",
              adaptive.bc_estimate, adaptive.pivots_used,
              adaptive.threshold_hit ? "hit" : "not hit");

  // Lesion study: removing the busiest hub disconnects nothing (other
  // fibers remain) but stretches paths — quantify it.
  graph::EdgeList remaining;
  for (VertexId u = 0; u < c.graph.num_vertices(); ++u) {
    if (u == top_hub) continue;
    for (VertexId v : c.graph.neighbors(u)) {
      if (v != top_hub && u < v) remaining.push_back({u, v});
    }
  }
  const auto lesioned = graph::build_csr(c.graph.num_vertices(), remaining);
  const auto cc_after = graph::connected_components(lesioned);
  std::printf("\nlesion of region %u: %u components (largest %llu),"
              " pseudo-diameter %u -> %u\n",
              top_hub, cc_after.num_components,
              static_cast<unsigned long long>(cc_after.largest_size), diameter,
              graph::pseudo_diameter(lesioned));
  return 0;
}
