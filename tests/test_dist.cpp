// The multi-GPU cluster driver: correctness of the reduction and the
// scaling shape the paper reports in Figure 6 / Table IV.

#include <gtest/gtest.h>

#include <cmath>

#include "cpu/brandes.hpp"
#include "dist/cluster.hpp"
#include "graph/generators.hpp"

namespace {

using namespace hbc;
using dist::ClusterConfig;

TEST(Cluster, BCMatchesSerialOracle) {
  const auto g = graph::gen::small_world({.num_vertices = 512, .k = 4, .seed = 1});
  const auto oracle = cpu::brandes(g).bc;

  ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 3;
  config.strategy = kernels::Strategy::WorkEfficient;
  const auto r = dist::run_cluster_bc(g, config);

  EXPECT_EQ(r.total_gpus, 6u);
  EXPECT_EQ(r.roots_processed, g.num_vertices());
  ASSERT_EQ(r.bc.size(), oracle.size());
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_NEAR(r.bc[i], oracle[i], 1e-9 * std::max(1.0, oracle[i]));
  }
}

TEST(Cluster, NearLinearScalingWithEnoughWork) {
  // Figure 6's shape: doubling GPUs roughly halves modelled time when
  // every GPU has plenty of roots.
  const auto g = graph::gen::delaunay_mesh({.scale = 12, .seed = 1});
  ClusterConfig config;
  config.strategy = kernels::Strategy::WorkEfficient;

  config.nodes = 1;
  const double t1 = dist::run_cluster_bc(g, config).sim_seconds;
  config.nodes = 4;
  const double t4 = dist::run_cluster_bc(g, config).sim_seconds;

  const double speedup = t1 / t4;
  EXPECT_GT(speedup, 3.2);
  EXPECT_LE(speedup, 4.2);
}

TEST(Cluster, ReduceCostGrowsWithNodes) {
  dist::InterconnectModel net;
  const std::uint64_t bytes = 8ull << 20;
  EXPECT_EQ(net.reduce_seconds(bytes, 1), 0.0);
  const double r2 = net.reduce_seconds(bytes, 2);
  const double r64 = net.reduce_seconds(bytes, 64);
  EXPECT_GT(r2, 0.0);
  EXPECT_NEAR(r64 / r2, 6.0, 1e-9);  // log2(64) tree steps
}

TEST(Cluster, PerGpuTimesReported) {
  const auto g = graph::gen::small_world({.num_vertices = 256, .k = 3, .seed = 1});
  ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 2;
  config.strategy = kernels::Strategy::WorkEfficient;
  const auto r = dist::run_cluster_bc(g, config);
  ASSERT_EQ(r.per_gpu_seconds.size(), 4u);
  for (double t : r.per_gpu_seconds) EXPECT_GT(t, 0.0);
  EXPECT_GE(r.sim_seconds, r.compute_seconds);
}

TEST(Cluster, RoundRobinMatchesContiguousScores) {
  const auto g = graph::gen::kronecker({.scale = 9, .edge_factor = 8, .seed = 2});
  ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 3;
  config.strategy = kernels::Strategy::WorkEfficient;
  const auto contiguous = dist::run_cluster_bc(g, config);
  config.distribution = dist::RootDistribution::RoundRobin;
  const auto interleaved = dist::run_cluster_bc(g, config);
  ASSERT_EQ(contiguous.bc.size(), interleaved.bc.size());
  for (std::size_t i = 0; i < contiguous.bc.size(); ++i) {
    EXPECT_NEAR(contiguous.bc[i], interleaved.bc[i],
                1e-9 * std::max(1.0, contiguous.bc[i]));
  }
}

TEST(Cluster, RoundRobinBalancesSkewedRootCosts) {
  // Synthetic per-root costs: a contiguous run of expensive roots lands
  // on one GPU under Contiguous but spreads under RoundRobin.
  std::vector<std::uint64_t> costs(120, 100);
  for (int i = 0; i < 20; ++i) costs[i] = 100000;  // hot prefix

  ClusterConfig config;
  config.nodes = 2;
  config.gpus_per_node = 3;
  config.device.num_sms = 2;
  const auto contiguous = dist::model_cluster_time(costs, config, 1000);
  config.distribution = dist::RootDistribution::RoundRobin;
  const auto interleaved = dist::model_cluster_time(costs, config, 1000);
  EXPECT_LT(interleaved.compute_seconds, contiguous.compute_seconds * 0.5);
}

TEST(Cluster, RootSubsetSplitsEvenly) {
  const auto g = graph::gen::small_world({.num_vertices = 256, .k = 3, .seed = 1});
  ClusterConfig config;
  config.nodes = 1;
  config.gpus_per_node = 3;
  config.strategy = kernels::Strategy::WorkEfficient;
  std::vector<graph::VertexId> roots{0, 1, 2, 3, 4, 5, 6};  // 7 roots on 3 GPUs
  const auto r = dist::run_cluster_bc(g, config, roots);
  EXPECT_EQ(r.roots_processed, 7u);
  const auto oracle = cpu::brandes(g, {.sources = roots}).bc;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_NEAR(r.bc[i], oracle[i], 1e-9 * std::max(1.0, oracle[i]));
  }
}

}  // namespace
