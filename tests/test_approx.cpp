// Approximation estimators (Brandes–Pich uniform pivots through
// core::compute's sample_roots, Bader et al. adaptive sampling):
// unbiasedness, convergence, and threshold behaviour.

#include <gtest/gtest.h>

#include <cmath>

#include "core/bc.hpp"
#include "cpu/approx.hpp"
#include "cpu/brandes.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::VertexId;

/// Brandes–Pich uniform pivots: core::compute over `pivots` sampled roots
/// on the serial Brandes engine, scores scaled by n / pivots.
core::BCResult uniform_pivots(const CSRGraph& g, std::uint32_t pivots, std::uint64_t seed) {
  core::Options options;
  options.strategy = core::Strategy::CpuSerial;
  options.sample_roots = pivots;
  options.seed = seed;
  return core::compute(g, options);
}

TEST(UniformApprox, AllPivotsEqualsExactInExpectation) {
  // Averaging over many seeds approaches exact BC (law of large numbers).
  const CSRGraph g = graph::gen::small_world({.num_vertices = 200, .k = 3, .seed = 4});
  const auto exact = cpu::brandes(g).bc;

  std::vector<double> avg(g.num_vertices(), 0.0);
  const int trials = 16;
  for (int t = 0; t < trials; ++t) {
    const auto est = uniform_pivots(g, 50, 100u + t);
    EXPECT_EQ(est.roots_processed, 50u);
    for (std::size_t v = 0; v < avg.size(); ++v) avg[v] += est.scores[v] / trials;
  }
  double total_exact = 0, total_err = 0;
  for (std::size_t v = 0; v < avg.size(); ++v) {
    total_exact += exact[v];
    total_err += std::abs(avg[v] - exact[v]);
  }
  EXPECT_LT(total_err / total_exact, 0.15);
}

TEST(UniformApprox, MorePivotsReduceError) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 300, .attach = 3, .seed = 1});
  const auto exact = cpu::brandes(g).bc;
  auto total_error = [&](std::uint32_t pivots) {
    double err = 0, avg_trials = 6;
    for (int t = 0; t < 6; ++t) {
      const auto est = uniform_pivots(g, pivots, 7u + t);
      double e = 0;
      for (std::size_t v = 0; v < exact.size(); ++v) e += std::abs(est.scores[v] - exact[v]);
      err += e / avg_trials;
    }
    return err;
  };
  EXPECT_LT(total_error(128), total_error(8));
}

TEST(UniformApprox, DeterministicInSeed) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 100, .attach = 2, .seed = 2});
  const auto a = uniform_pivots(g, 10, 5);
  const auto b = uniform_pivots(g, 10, 5);
  EXPECT_EQ(a.scores, b.scores);
}

TEST(UniformApprox, EmptyGraph) {
  const auto est = uniform_pivots(CSRGraph({0}, {}, true), 5, 42);
  EXPECT_TRUE(est.scores.empty());
}

TEST(UniformApprox, TopVertexIdentifiedWithFewPivots) {
  // Star-of-paths: the hub dominates; even a handful of pivots finds it.
  graph::EdgeList edges;
  for (VertexId arm = 0; arm < 6; ++arm) {
    VertexId prev = 0;
    for (VertexId hop = 0; hop < 10; ++hop) {
      const VertexId v = 1 + arm * 10 + hop;
      edges.push_back({prev, v});
      prev = v;
    }
  }
  const CSRGraph g = graph::build_csr(61, edges);
  const auto est = uniform_pivots(g, 6, 3);
  VertexId best = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (est.scores[v] > est.scores[best]) best = v;
  }
  EXPECT_EQ(best, 0u);
}

TEST(AdaptiveApprox, HighCentralityVertexStopsEarly) {
  // Hub of a star: its dependency per pivot is ~n, so the c*n threshold
  // fires after roughly c pivots.
  graph::EdgeList edges;
  const VertexId leaves = 200;
  for (VertexId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  const CSRGraph g = graph::build_csr(leaves + 1, edges);

  const auto r = cpu::adaptive_bc(g, 0, {.c = 2.0, .seed = 1});
  EXPECT_TRUE(r.threshold_hit);
  EXPECT_LT(r.pivots_used, 10u);
  const double exact = static_cast<double>(leaves) * (leaves - 1);
  EXPECT_GT(r.bc_estimate, exact * 0.5);
  EXPECT_LT(r.bc_estimate, exact * 2.0);
}

TEST(AdaptiveApprox, ZeroCentralityVertexNeverHitsThreshold) {
  graph::EdgeList edges;
  for (VertexId v = 1; v <= 20; ++v) edges.push_back({0, v});
  const CSRGraph g = graph::build_csr(21, edges);
  // A leaf has BC 0: the loop must run to the pivot cap.
  const auto r = cpu::adaptive_bc(g, 5, {.c = 1.0, .max_pivots = 15, .seed = 2});
  EXPECT_FALSE(r.threshold_hit);
  EXPECT_EQ(r.pivots_used, 15u);
  EXPECT_DOUBLE_EQ(r.bc_estimate, 0.0);
}

TEST(AdaptiveApprox, EstimateTracksExactValue) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 250, .attach = 2, .seed = 6});
  const auto exact = cpu::brandes(g).bc;
  // Pick the highest-BC vertex; the adaptive estimate should be within a
  // factor ~2 with generous sampling.
  VertexId target = 0;
  for (VertexId v = 1; v < g.num_vertices(); ++v) {
    if (exact[v] > exact[target]) target = v;
  }
  const auto r = cpu::adaptive_bc(g, target, {.c = 20.0, .max_pivots = 250, .seed = 9});
  EXPECT_GT(r.bc_estimate, exact[target] * 0.5);
  EXPECT_LT(r.bc_estimate, exact[target] * 2.0);
}

TEST(AdaptiveApprox, InvalidTargetReturnsZero) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto r = cpu::adaptive_bc(g, 100);
  EXPECT_EQ(r.pivots_used, 0u);
  EXPECT_EQ(r.bc_estimate, 0.0);
}

}  // namespace
