// Property tests on kernel internals: the Algorithm 1–3 invariants
// (sigma counts, ends/S level structure, queue dedup), work accounting
// (work-efficient traverses exactly the reachable edges; level-check
// kernels inspect m per level), and memory-footprint claims (O(n) vs
// O(m) vs O(n^2)).

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "cpu/brandes.hpp"
#include "cpu/naive.hpp"
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "gpusim/device.hpp"
#include "kernels/bc_state.hpp"
#include "kernels/kernels.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::VertexId;
using kernels::BCWorkspace;

class WorkspaceProperty : public testing::TestWithParam<std::uint64_t> {};

// Drive the work-efficient forward stage to completion on a generated
// graph and check every structural invariant of Algorithms 1–2.
TEST_P(WorkspaceProperty, ForwardStageInvariants) {
  const std::uint64_t seed = GetParam();
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 300, .attach = 2, .seed = seed});
  const VertexId root = static_cast<VertexId>(seed % g.num_vertices());

  gpusim::Device device(gpusim::test_device());
  device.begin_run(1);
  auto ctx = device.block(0);

  BCWorkspace ws(g);
  ws.init_root(root, ctx);
  while (true) {
    ws.we_forward_level(ctx);
    if (ws.q_next_len() == 0) break;
    ws.finish_level(ctx);
  }

  const auto bfs = graph::bfs(g, root);

  // (1) Distances equal BFS distances.
  const auto d = ws.distances();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(d[v], bfs.distance[v]) << "vertex " << v;
  }

  // (2) Sigma equals the naive path count.
  const auto pc = cpu::count_paths(g, root);
  const auto sigma = ws.sigmas();
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_DOUBLE_EQ(sigma[v], pc.sigma[v]) << "vertex " << v;
  }

  // (3) S holds each reached vertex exactly once (CAS dedup).
  const auto stack = ws.stack();
  EXPECT_EQ(stack.size(), bfs.reached);
  std::set<VertexId> unique(stack.begin(), stack.end());
  EXPECT_EQ(unique.size(), stack.size());

  // (4) ends is a CSR-like level index: ends[i]..ends[i+1] covers level i
  //     vertices, in traversal order, ends_len = max_depth + 2.
  const auto ends = ws.ends();
  ASSERT_EQ(ends.size(), static_cast<std::size_t>(ws.max_depth()) + 2);
  EXPECT_EQ(ends.front(), 0u);
  EXPECT_EQ(ends.back(), stack.size());
  for (std::size_t level = 0; level + 1 < ends.size(); ++level) {
    for (std::uint64_t i = ends[level]; i < ends[level + 1]; ++i) {
      EXPECT_EQ(d[stack[i]], level) << "S index " << i;
    }
    EXPECT_EQ(ends[level + 1] - ends[level], bfs.frontiers[level]);
  }

  // (5) max_depth equals the BFS eccentricity.
  EXPECT_EQ(ws.max_depth(), bfs.max_depth);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WorkspaceProperty, testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(WorkAccounting, WorkEfficientTraversesExactlyReachableEdges) {
  const CSRGraph g = graph::gen::delaunay_mesh({.scale = 10, .seed = 1});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.roots = {0};
  const auto r = kernels::run_work_efficient(g, config);
  // Connected mesh: forward traverses every directed edge once; the
  // dependency stage traverses them again (neighbor traversal) and skips
  // only the deepest level's adjacency.
  EXPECT_GE(r.metrics.counters.edges_traversed, g.num_directed_edges());
  EXPECT_LE(r.metrics.counters.edges_traversed, 2 * g.num_directed_edges());
  EXPECT_EQ(r.metrics.counters.edges_inspected, r.metrics.counters.edges_traversed);
}

TEST(WorkAccounting, EdgeParallelInspectsMPerLevel) {
  const CSRGraph g = graph::gen::road({.scale = 10, .seed = 1});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.roots = {0};
  const auto r = kernels::run_edge_parallel(g, config);
  const auto bfs = graph::bfs(g, 0);
  // Forward: one full m-edge scan per level 0..max_depth (inclusive of
  // the terminating empty scan); backward: one per level max_depth-1..1.
  const std::uint64_t fwd_scans = bfs.max_depth + 1;
  const std::uint64_t bwd_scans = bfs.max_depth >= 2 ? bfs.max_depth - 1 : 0;
  EXPECT_EQ(r.metrics.counters.edges_inspected,
            (fwd_scans + bwd_scans) * g.num_directed_edges());
  // Futile inspections dominate on this high-diameter graph (the paper's
  // central observation).
  EXPECT_GT(r.metrics.counters.edges_inspected,
            50 * r.metrics.counters.edges_traversed);
}

TEST(WorkAccounting, WorkEfficientBeatsEdgeParallelOnHighDiameter) {
  // Diameter is what the speedup scales with (the paper's ~10x needs
  // n >= 10^5); at test scale 14 the model must still show a clear win.
  const CSRGraph g = graph::gen::road({.scale = 14, .seed = 1});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.roots = {0, 1, 2, 3};
  const auto we = kernels::run_work_efficient(g, config);
  const auto ep = kernels::run_edge_parallel(g, config);
  EXPECT_LT(we.metrics.sim_seconds, ep.metrics.sim_seconds / 2.0);
}

TEST(WorkAccounting, EdgeParallelCompetitiveOnSmallWorld) {
  const CSRGraph g =
      graph::gen::small_world({.num_vertices = 1 << 12, .k = 5, .seed = 1});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.roots = {0, 1, 2, 3};
  const auto we = kernels::run_work_efficient(g, config);
  const auto ep = kernels::run_edge_parallel(g, config);
  // §IV.B: a wrong work-efficient choice costs at most ~2.2x; the
  // edge-parallel method must not lose by much more than that here either.
  EXPECT_LT(we.metrics.sim_seconds / ep.metrics.sim_seconds, 2.5);
  EXPECT_LT(ep.metrics.sim_seconds / we.metrics.sim_seconds, 2.5);
}

TEST(Memory, FootprintOrdering) {
  // O(n) < O(n + m) < O(n^2) at the paper's scales.
  const VertexId n = 1 << 16;
  const graph::EdgeOffset m = 16ull << 16;
  const auto we = BCWorkspace::work_efficient_bytes(n);
  const auto jia = BCWorkspace::jia_bytes(n, m);
  const auto fan = BCWorkspace::gpufan_bytes(n);
  EXPECT_LT(we, jia);
  EXPECT_LT(jia, fan);
  // GPU-FAN at scale 16 needs > 6 GB: the Figure 5 OOM cliff.
  EXPECT_GT(fan, 6ull << 30);
  EXPECT_LT(BCWorkspace::gpufan_bytes(1 << 15), 6ull << 30);
}

TEST(Memory, GpuFanRunsOutOfMemoryAtScale) {
  const CSRGraph g = graph::gen::kronecker({.scale = 16, .edge_factor = 2, .seed = 1});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();  // 6 GB
  config.roots = {0};
  EXPECT_THROW(kernels::run_gpufan(g, config), gpusim::DeviceOutOfMemory);
  // The paper's methods are fine at the same scale.
  EXPECT_NO_THROW(kernels::run_work_efficient(g, config));
  EXPECT_NO_THROW(kernels::run_sampling(g, config));
}

TEST(Memory, HighWaterReportedInMetrics) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 512, .k = 3, .seed = 1});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.roots = {0};
  const auto we = kernels::run_work_efficient(g, config);
  const auto fan = kernels::run_gpufan(g, config);
  EXPECT_GT(we.metrics.device_memory_high_water, 0u);
  EXPECT_GT(fan.metrics.device_memory_high_water, we.metrics.device_memory_high_water);
}

TEST(PredecessorBitmap, SameScoresMoreMemoryLessScatter) {
  const CSRGraph g = graph::gen::delaunay_mesh({.scale = 10, .seed = 1});
  kernels::RunConfig plain;
  plain.device = gpusim::gtx_titan();
  plain.roots = {0, 11, 37};
  kernels::RunConfig with_bitmap = plain;
  with_bitmap.use_predecessor_bitmap = true;

  const auto a = kernels::run_work_efficient(g, plain);
  const auto b = kernels::run_work_efficient(g, with_bitmap);

  // Identical BC output (the trade-off is purely storage vs traffic).
  ASSERT_EQ(a.bc.size(), b.bc.size());
  for (std::size_t i = 0; i < a.bc.size(); ++i) {
    EXPECT_NEAR(a.bc[i], b.bc[i], 1e-9 * std::max(1.0, a.bc[i]));
  }
  // The bitmap costs O(m) bits of device memory per block...
  EXPECT_GT(b.metrics.device_memory_high_water, a.metrics.device_memory_high_water);
  // ...and the backward stage touches only true successors, so the
  // useful-traversal count drops below the neighbor-traversal variant's.
  EXPECT_LT(b.metrics.counters.edges_traversed, a.metrics.counters.edges_traversed);
}

TEST(PredecessorBitmap, MatchesOracleAcrossFamilies) {
  for (const char* fam : {"kron", "road", "smallworld"}) {
    const CSRGraph g = graph::gen::family_by_name(fam).make(8, 5);
    kernels::RunConfig c;
    c.device = gpusim::gtx_titan();
    c.use_predecessor_bitmap = true;
    const auto r = kernels::run_work_efficient(g, c);
    const auto oracle = hbc::cpu::brandes(g).bc;
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_NEAR(r.bc[i], oracle[i], 1e-9 * std::max(1.0, oracle[i])) << fam;
    }
  }
}

TEST(PerRootStats, FrontiersMatchBfs) {
  const CSRGraph g = graph::gen::delaunay_mesh({.scale = 8, .seed = 2});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.roots = {5};
  config.collect_per_root_stats = true;
  const auto r = kernels::run_work_efficient(g, config);
  ASSERT_EQ(r.per_root.size(), 1u);
  const auto& stats = r.per_root[0];
  const auto bfs = graph::bfs(g, 5);
  ASSERT_EQ(stats.iterations.size(), bfs.frontiers.size());
  for (std::size_t i = 0; i < bfs.frontiers.size(); ++i) {
    EXPECT_EQ(stats.iterations[i].vertex_frontier, bfs.frontiers[i]) << "level " << i;
    EXPECT_EQ(stats.iterations[i].edge_frontier, bfs.edge_frontiers[i]) << "level " << i;
    EXPECT_GT(stats.iterations[i].cycles, 0u);
  }
  EXPECT_EQ(stats.max_depth, bfs.max_depth);
}

// The forward levels write a discovery slot for every arc and advance the
// tail only on a discovery, so the last write of a level that reaches
// every remaining vertex lands one past n (S's spare slot). Graphs where
// that happens at once — a complete graph, a star from its hub (a
// bottom-up level on the host when n < 32) or from a leaf, a single edge
// — and roots that reach nothing must still give cpu::brandes's bits in
// every strategy, with and without edge-parallel levels.
TEST(BoundaryGraphs, EveryStrategyGivesOracleBits) {
  auto star = [](VertexId leaves) {
    std::vector<graph::Edge> edges;
    for (VertexId v = 1; v <= leaves; ++v) edges.push_back({0, v});
    return graph::build_csr(leaves + 1, edges);
  };
  std::vector<graph::Edge> complete;
  for (VertexId u = 0; u < 64; ++u) {
    for (VertexId v = u + 1; v < 64; ++v) complete.push_back({u, v});
  }
  // A triangle, a path and two isolated vertices (3 and 7).
  const std::vector<graph::Edge> sparse = {{0, 1}, {1, 2}, {0, 2}, {4, 5}, {5, 6}};

  struct Case {
    std::string name;
    CSRGraph g;
    std::vector<VertexId> roots;  // empty = every vertex
  };
  std::vector<Case> cases;
  cases.push_back({"K64", graph::build_csr(64, complete), {}});
  // Two roots each, so sampling probes one work-efficiently and runs the
  // other with edge-parallel levels.
  cases.push_back({"star16-hub-leaf", star(16), {0, 9}});
  cases.push_back({"star16-leaf-hub", star(16), {9, 0}});
  cases.push_back({"star63-hub-leaf", star(63), {0, 63}});
  cases.push_back({"star63-leaf-hub", star(63), {63, 0}});
  cases.push_back({"path2", graph::build_csr(2, std::vector<graph::Edge>{{0, 1}}), {}});
  cases.push_back({"isolated-roots", graph::build_csr(8, sparse), {3, 0, 7, 5}});
  cases.push_back({"isolated-all", graph::build_csr(8, sparse), {}});

  kernels::RunConfig plain;
  plain.device = gpusim::test_device();
  kernels::RunConfig edge_parallel = plain;  // hybrid and sampling go edge-parallel
  edge_parallel.hybrid.alpha = 0;
  edge_parallel.hybrid.beta = 0;
  edge_parallel.sampling.n_samps = 1;
  edge_parallel.sampling.gamma = 1e9;
  edge_parallel.sampling.min_frontier = 1;

  for (const Case& c : cases) {
    const std::vector<double> oracle = cpu::brandes(c.g, {.sources = c.roots}).bc;
    for (kernels::RunConfig config : {plain, edge_parallel}) {
      config.roots = c.roots;
      for (const auto strategy :
           {kernels::Strategy::VertexParallel, kernels::Strategy::EdgeParallel,
            kernels::Strategy::GpuFan, kernels::Strategy::WorkEfficient,
            kernels::Strategy::Hybrid, kernels::Strategy::Sampling,
            kernels::Strategy::DirectionOptimized}) {
        const std::vector<double> bc = kernels::run_strategy(strategy, c.g, config).bc;
        ASSERT_EQ(bc.size(), oracle.size()) << c.name;
        EXPECT_EQ(0, std::memcmp(bc.data(), oracle.data(), oracle.size() * sizeof(double)))
            << c.name << " " << kernels::to_string(strategy)
            << (config.hybrid.beta == 0 ? " edge-parallel" : "");
      }
      config.use_predecessor_bitmap = true;
      const std::vector<double> bc = kernels::run_work_efficient(c.g, config).bc;
      EXPECT_EQ(0, std::memcmp(bc.data(), oracle.data(), oracle.size() * sizeof(double)))
          << c.name << " work-efficient with the predecessor bitmap";
    }
  }
}

TEST(PerRootStats, ModesRecordedByHybrid) {
  const CSRGraph g = graph::gen::kronecker({.scale = 12, .edge_factor = 8, .seed = 1});
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.roots = {0};
  config.collect_per_root_stats = true;
  config.hybrid.alpha = 64;
  config.hybrid.beta = 64;
  const auto r = kernels::run_hybrid(g, config);
  ASSERT_EQ(r.per_root.size(), 1u);
  bool saw_we = false, saw_ep = false;
  for (const auto& it : r.per_root[0].iterations) {
    saw_we |= it.mode == kernels::Mode::WorkEfficient;
    saw_ep |= it.mode == kernels::Mode::EdgeParallel;
  }
  // A kron graph's frontier explodes: both modes must appear.
  EXPECT_TRUE(saw_we);
  EXPECT_TRUE(saw_ep);
}

}  // namespace
