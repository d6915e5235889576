// Every GPU-model kernel must reproduce serial Brandes exactly (up to
// floating-point association) on every graph class of the paper's
// evaluation. Parameterized across (generator family, scale, strategy).

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>
#include <tuple>

#include "cpu/brandes.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/kernels.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::VertexId;
using kernels::RunConfig;
using kernels::Strategy;

void expect_vectors_near(const std::vector<double>& a, const std::vector<double>& b,
                         double tol) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double scale = std::max({1.0, std::fabs(a[i]), std::fabs(b[i])});
    EXPECT_NEAR(a[i], b[i], tol * scale) << "index " << i;
  }
}

RunConfig small_device_config() {
  RunConfig config;
  config.device = gpusim::gtx_titan();
  // Shrink thresholds so the hybrid/sampling decision logic actually
  // triggers at test scale.
  config.hybrid.alpha = 24;
  config.hybrid.beta = 16;
  config.sampling.n_samps = 16;
  config.sampling.min_frontier = 16;
  return config;
}

struct Case {
  std::string family;
  std::uint32_t scale;
  Strategy strategy;
};

std::string case_name(const testing::TestParamInfo<Case>& info) {
  return info.param.family + "_s" + std::to_string(info.param.scale) + "_" +
         [&] {
           std::string s = kernels::to_string(info.param.strategy);
           for (char& c : s) {
             if (c == '-') c = '_';
           }
           return s;
         }();
}

class KernelMatchesOracle : public testing::TestWithParam<Case> {};

TEST_P(KernelMatchesOracle, FullBCVectorMatchesBrandes) {
  const Case& c = GetParam();
  const CSRGraph g = graph::gen::family_by_name(c.family).make(c.scale, /*seed=*/7);

  const auto oracle = cpu::brandes(g).bc;
  const kernels::RunResult r =
      kernels::run_strategy(c.strategy, g, small_device_config());

  EXPECT_EQ(r.metrics.counters.roots_processed, g.num_vertices());
  expect_vectors_near(r.bc, oracle, 1e-9);
  EXPECT_GT(r.metrics.sim_seconds, 0.0);
}

std::vector<Case> all_cases() {
  const std::vector<std::string> families{"rgg",  "delaunay",   "kron", "road",
                                          "smallworld", "scalefree", "web", "mesh2d"};
  const std::vector<Strategy> strategies{
      Strategy::VertexParallel, Strategy::EdgeParallel, Strategy::GpuFan,
      Strategy::WorkEfficient,  Strategy::Hybrid,       Strategy::Sampling,
      Strategy::DirectionOptimized,
  };
  std::vector<Case> cases;
  for (const auto& f : families) {
    for (const auto s : strategies) {
      cases.push_back({f, 8, s});
    }
  }
  // A deeper scale for the strategies whose control flow depends on size.
  for (const auto s : {Strategy::WorkEfficient, Strategy::Hybrid, Strategy::Sampling}) {
    cases.push_back({"kron", 10, s});
    cases.push_back({"road", 10, s});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllFamilies, KernelMatchesOracle, testing::ValuesIn(all_cases()),
                         case_name);

TEST(Kernels, RootSubsetMatchesOracleSubset) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 256, .k = 4, .seed = 1});
  const std::vector<VertexId> roots{0, 17, 101, 255};
  const auto oracle = cpu::brandes(g, {.sources = roots}).bc;

  for (const auto strategy :
       {Strategy::VertexParallel, Strategy::EdgeParallel, Strategy::GpuFan,
        Strategy::WorkEfficient, Strategy::Hybrid, Strategy::Sampling,
        Strategy::DirectionOptimized}) {
    RunConfig config = small_device_config();
    config.roots = roots;
    const auto r = kernels::run_strategy(strategy, g, config);
    EXPECT_EQ(r.metrics.counters.roots_processed, roots.size())
        << kernels::to_string(strategy);
    expect_vectors_near(r.bc, oracle, 1e-9);
  }
}

TEST(Kernels, IsolatedRootContributesNothing) {
  // A graph with isolated vertices (the case the Jia et al. reference
  // implementation cannot even load).
  const CSRGraph g = graph::build_csr(
      6, std::vector<graph::Edge>{{0, 1}, {1, 2}, {2, 3}});
  RunConfig config = small_device_config();
  config.roots = {4, 5};
  for (const auto strategy :
       {Strategy::EdgeParallel, Strategy::WorkEfficient, Strategy::Hybrid}) {
    const auto r = kernels::run_strategy(strategy, g, config);
    for (double s : r.bc) EXPECT_EQ(s, 0.0);
  }
}

TEST(Kernels, StrategyNamesRoundTrip) {
  EXPECT_STREQ(kernels::to_string(Strategy::WorkEfficient), "work-efficient");
  EXPECT_STREQ(kernels::to_string(Strategy::EdgeParallel), "edge-parallel");
  EXPECT_STREQ(kernels::to_string(Strategy::GpuFan), "gpu-fan");
  EXPECT_STREQ(kernels::to_string(Strategy::Sampling), "sampling");
}

TEST(Kernels, RunStrategyRejectsCpuEngines) {
  // The CPU engines share the Strategy enum but run inside core::compute,
  // never on the simulated device.
  const CSRGraph g = graph::gen::figure1_graph();
  for (const Strategy strategy :
       {Strategy::CpuSerial, Strategy::CpuParallel, Strategy::CpuFineGrained}) {
    EXPECT_FALSE(kernels::uses_gpu_model(strategy));
    EXPECT_THROW(kernels::run_strategy(strategy, g, small_device_config()),
                 std::invalid_argument);
  }
}

TEST(Kernels, DeterministicAcrossRuns) {
  const CSRGraph g = graph::gen::kronecker({.scale = 8, .edge_factor = 8, .seed = 3});
  const RunConfig config = small_device_config();
  const auto a = kernels::run_hybrid(g, config);
  const auto b = kernels::run_hybrid(g, config);
  ASSERT_EQ(a.bc.size(), b.bc.size());
  for (std::size_t i = 0; i < a.bc.size(); ++i) EXPECT_EQ(a.bc[i], b.bc[i]);
  EXPECT_EQ(a.metrics.elapsed_cycles, b.metrics.elapsed_cycles);
  EXPECT_EQ(a.metrics.counters.edges_traversed, b.metrics.counters.edges_traversed);
}

}  // namespace
