// kernels::BlockDriver: the block→host-thread mapping must never change
// observable results. Every strategy is swept across host-thread counts
// on directed and undirected graphs, asserting bitwise-identical BC
// vectors and identical simulated-cycle accounting — the determinism
// contract that lets core::options_signature exclude cpu_threads for
// GPU-model strategies (and the service cache serve any thread count).

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "kernels/kernels.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::VertexId;
using kernels::RunConfig;
using kernels::RunResult;
using kernels::Strategy;

constexpr Strategy kAllStrategies[] = {
    Strategy::VertexParallel, Strategy::EdgeParallel, Strategy::GpuFan,
    Strategy::WorkEfficient,  Strategy::Hybrid,       Strategy::Sampling,
    Strategy::DirectionOptimized,
};

RunConfig small_device_config() {
  RunConfig config;
  config.device = gpusim::gtx_titan();
  // Shrink thresholds so hybrid/sampling decision logic triggers at
  // test scale (same knobs as test_kernels.cpp).
  config.hybrid.alpha = 24;
  config.hybrid.beta = 16;
  config.sampling.n_samps = 16;
  config.sampling.min_frontier = 16;
  return config;
}

CSRGraph undirected_graph() {
  return graph::gen::small_world({.num_vertices = 400, .k = 6, .seed = 3});
}

CSRGraph directed_graph() {
  // Random directed edges, NOT symmetrized: exercises the kernels on
  // asymmetric adjacency so thread scheduling can't hide behind the
  // undirected structure.
  const VertexId n = 300;
  util::Xoshiro256 rng(11);
  std::vector<graph::Edge> edges;
  for (int i = 0; i < 1500; ++i) {
    const VertexId u = static_cast<VertexId>(rng.next_below(n));
    const VertexId v = static_cast<VertexId>(rng.next_below(n));
    edges.push_back({u, v});
  }
  return graph::build_csr(n, edges, {.symmetrize = false});
}

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << what;
  }
}

void expect_identical_metrics(const kernels::RunMetrics& a, const kernels::RunMetrics& b,
                              const std::string& what) {
  EXPECT_EQ(a.elapsed_cycles, b.elapsed_cycles) << what;
  EXPECT_EQ(a.we_levels, b.we_levels) << what;
  EXPECT_EQ(a.ep_levels, b.ep_levels) << what;
  EXPECT_EQ(a.device_memory_high_water, b.device_memory_high_water) << what;
  EXPECT_EQ(a.sampling_chose_edge_parallel, b.sampling_chose_edge_parallel) << what;
  EXPECT_EQ(a.sampling_median_depth, b.sampling_median_depth) << what;
  EXPECT_EQ(a.per_root_cycles, b.per_root_cycles) << what;

  EXPECT_EQ(a.counters.edges_traversed, b.counters.edges_traversed) << what;
  EXPECT_EQ(a.counters.edges_inspected, b.counters.edges_inspected) << what;
  EXPECT_EQ(a.counters.vertices_scanned, b.counters.vertices_scanned) << what;
  EXPECT_EQ(a.counters.queue_inserts, b.counters.queue_inserts) << what;
  EXPECT_EQ(a.counters.atomic_ops, b.counters.atomic_ops) << what;
  EXPECT_EQ(a.counters.barriers, b.counters.barriers) << what;
  EXPECT_EQ(a.counters.grid_syncs, b.counters.grid_syncs) << what;
  EXPECT_EQ(a.counters.bfs_iterations, b.counters.bfs_iterations) << what;
  EXPECT_EQ(a.counters.roots_processed, b.counters.roots_processed) << what;
}

TEST(BlockDriverDeterminism, AllStrategiesBitwiseIdenticalAcrossThreadCounts) {
  const CSRGraph undirected = undirected_graph();
  const CSRGraph directed = directed_graph();

  struct NamedGraph {
    const CSRGraph* g;
    const char* name;
  };
  const NamedGraph graphs[] = {{&undirected, "undirected"}, {&directed, "directed"}};

  for (const NamedGraph& ng : graphs) {
    for (const Strategy strategy : kAllStrategies) {
      RunConfig baseline_config = small_device_config();
      baseline_config.collect_root_cycles = true;
      baseline_config.cpu_threads = 1;
      const RunResult baseline = kernels::run_strategy(strategy, *ng.g, baseline_config);

      for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
        RunConfig config = baseline_config;
        config.cpu_threads = threads;
        const RunResult r = kernels::run_strategy(strategy, *ng.g, config);
        const std::string what = std::string(kernels::to_string(strategy)) + "/" +
                                 ng.name + "/threads=" + std::to_string(threads);
        expect_bitwise_equal(r.bc, baseline.bc, what);
        expect_identical_metrics(r.metrics, baseline.metrics, what);
      }
    }
  }
}

TEST(BlockDriverDeterminism, PerRootStatsIdenticalAcrossThreadCounts) {
  const CSRGraph g = undirected_graph();
  const std::vector<VertexId> roots{3, 50, 199, 7, 321};

  RunConfig config = small_device_config();
  config.roots = roots;
  config.collect_per_root_stats = true;

  config.cpu_threads = 1;
  const RunResult serial = kernels::run_hybrid(g, config);
  config.cpu_threads = 8;
  const RunResult threaded = kernels::run_hybrid(g, config);

  ASSERT_EQ(serial.per_root.size(), roots.size());
  ASSERT_EQ(threaded.per_root.size(), roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    // Stats come back in root order regardless of which thread ran them.
    EXPECT_EQ(serial.per_root[i].root, roots[i]);
    EXPECT_EQ(threaded.per_root[i].root, roots[i]);
    EXPECT_EQ(serial.per_root[i].max_depth, threaded.per_root[i].max_depth);
    ASSERT_EQ(serial.per_root[i].iterations.size(), threaded.per_root[i].iterations.size());
    for (std::size_t j = 0; j < serial.per_root[i].iterations.size(); ++j) {
      EXPECT_EQ(serial.per_root[i].iterations[j].cycles,
                threaded.per_root[i].iterations[j].cycles);
      EXPECT_EQ(serial.per_root[i].iterations[j].vertex_frontier,
                threaded.per_root[i].iterations[j].vertex_frontier);
    }
  }
}

TEST(BlockDriverDeterminism, ThreadCountBeyondBlocksIsHarmless) {
  // More host threads than simulated blocks (gtx_titan has 14 SMs) must
  // clamp, not misbehave.
  const CSRGraph g = undirected_graph();
  RunConfig config = small_device_config();
  config.cpu_threads = 1;
  const RunResult serial = kernels::run_work_efficient(g, config);
  config.cpu_threads = 64;
  const RunResult wide = kernels::run_work_efficient(g, config);
  expect_bitwise_equal(wide.bc, serial.bc, "threads=64");
  EXPECT_EQ(wide.metrics.elapsed_cycles, serial.metrics.elapsed_cycles);
}

TEST(BlockDriverDeterminism, DefaultThreadsMatchExplicitOne) {
  // cpu_threads = 0 (hardware concurrency) still yields the serial bits.
  const CSRGraph g = directed_graph();
  RunConfig config = small_device_config();
  config.cpu_threads = 1;
  const RunResult serial = kernels::run_sampling(g, config);
  config.cpu_threads = 0;
  const RunResult defaulted = kernels::run_sampling(g, config);
  expect_bitwise_equal(defaulted.bc, serial.bc, "threads=default");
  expect_identical_metrics(defaulted.metrics, serial.metrics, "threads=default");
}

TEST(BlockDriver, RejectsOutOfRangeRoot) {
  // Only core::compute and the coordinator validate roots; the kernels
  // must not trust RunConfig::roots either (a root >= n would index past
  // the workspace arrays).
  const CSRGraph g = undirected_graph();
  for (const Strategy strategy : kAllStrategies) {
    RunConfig config = small_device_config();
    config.roots = {0, g.num_vertices()};
    EXPECT_THROW(kernels::run_strategy(strategy, g, config), std::invalid_argument)
        << kernels::to_string(strategy);
  }
}

}  // namespace
