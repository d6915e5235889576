// Correctness of the CPU oracles: serial Brandes vs the definition-level
// naive path-counting BC, exact values on the paper's Figure 1 graph, and
// the parallel Brandes reduction, digests pinning the exact bits of every
// CPU entry point, and the reused per-worker scratch matching a fresh one.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>

#include "cpu/brandes.hpp"
#include "cpu/naive.hpp"
#include "cpu/fine_grained.hpp"
#include "cpu/parallel_brandes.hpp"
#include "dyn/incremental_bc.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::Edge;
using graph::VertexId;

void expect_vectors_near(const std::vector<double>& a, const std::vector<double>& b,
                         double tol = 1e-9) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_NEAR(a[i], b[i], tol) << "index " << i;
  }
}

TEST(Brandes, MatchesNaiveOnFigure1) {
  const CSRGraph g = graph::gen::figure1_graph();
  expect_vectors_near(cpu::brandes(g).bc, cpu::naive_bc(g));
}

TEST(Brandes, Figure1QualitativeProperties) {
  // The claims the paper makes about its Figure 1 (paper ids in comments;
  // ours are paper-1).
  const CSRGraph g = graph::gen::figure1_graph();
  const auto bc = cpu::brandes(g).bc;

  EXPECT_NEAR(bc[8], 0.0, 1e-12);  // paper vertex 9: leaf, BC = 0
  EXPECT_NEAR(bc[7], 0.0, 1e-12);  // paper vertex 8: only non-shortest paths
  EXPECT_NEAR(bc[5], 0.0, 1e-12);  // paper vertex 6: leaf off the bridge
  // Paper vertex 4 bridges the halves: strictly the largest score.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != 3) {
      EXPECT_GT(bc[3], bc[v]) << "vertex " << v;
    }
  }
}

TEST(Brandes, Figure1ExactBridgeScore) {
  // Vertex 4 (ours: 3) carries: every right{1,2,3} x left{5..9} pair
  // (3*5 = 15 unordered), every pair between leaf 6 and the rest of the
  // left side {5,7,8,9} (4 unordered), and half of the two equal-length
  // 1-2-3 / 1-4-3 paths between vertices 1 and 3 (0.5). Both directions:
  // 2 * (15 + 4 + 0.5) = 39.
  const CSRGraph g = graph::gen::figure1_graph();
  const auto bc = cpu::brandes(g).bc;
  EXPECT_NEAR(bc[3], 39.0, 1e-12);
}

TEST(Brandes, PathGraphClosedForm) {
  // On a path 0-1-2-3-4, interior vertex v lies on all ordered pairs
  // (left, right): BC(v) = 2 * (v)(n-1-v).
  const int n = 5;
  graph::EdgeList edges;
  for (VertexId v = 0; v + 1 < n; ++v) edges.push_back({v, static_cast<VertexId>(v + 1)});
  const CSRGraph g = graph::build_csr(n, edges);
  const auto bc = cpu::brandes(g).bc;
  for (int v = 0; v < n; ++v) {
    EXPECT_NEAR(bc[v], 2.0 * v * (n - 1 - v), 1e-12) << "vertex " << v;
  }
}

TEST(Brandes, StarGraphCenter) {
  // Star with c leaves: center lies on all leaf pairs; leaves have 0.
  const int leaves = 7;
  graph::EdgeList edges;
  for (VertexId v = 1; v <= leaves; ++v) edges.push_back({0, v});
  const CSRGraph g = graph::build_csr(leaves + 1, edges);
  const auto bc = cpu::brandes(g).bc;
  EXPECT_NEAR(bc[0], static_cast<double>(leaves * (leaves - 1)), 1e-12);
  for (int v = 1; v <= leaves; ++v) EXPECT_NEAR(bc[v], 0.0, 1e-12);
}

TEST(Brandes, CompleteGraphAllZero) {
  // Every pair is adjacent: no intermediate vertices on shortest paths.
  graph::EdgeList edges;
  const int n = 6;
  for (VertexId u = 0; u < n; ++u) {
    for (VertexId v = u + 1; v < n; ++v) edges.push_back({u, v});
  }
  const CSRGraph g = graph::build_csr(n, edges);
  for (double s : cpu::brandes(g).bc) EXPECT_NEAR(s, 0.0, 1e-12);
}

TEST(Brandes, CycleGraphUniform) {
  // Even cycle n=6: all vertices equivalent by symmetry.
  graph::EdgeList edges;
  const int n = 6;
  for (VertexId v = 0; v < n; ++v) {
    edges.push_back({v, static_cast<VertexId>((v + 1) % n)});
  }
  const CSRGraph g = graph::build_csr(n, edges);
  const auto bc = cpu::brandes(g).bc;
  for (int v = 1; v < n; ++v) EXPECT_NEAR(bc[v], bc[0], 1e-12);
  expect_vectors_near(bc, cpu::naive_bc(g));
}

TEST(Brandes, EquivalentPathsSplitCredit) {
  // Diamond: 0-1, 0-2, 1-3, 2-3. Pair (0,3) splits across 1 and 2; pair
  // (1,2) splits across 0 and 3. Every vertex gets 0.5 per direction:
  // BC = 1 for all four — equal-length paths share credit.
  const CSRGraph g =
      graph::build_csr(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto bc = cpu::brandes(g).bc;
  for (int v = 0; v < 4; ++v) EXPECT_NEAR(bc[v], 1.0, 1e-12) << v;
  expect_vectors_near(bc, cpu::naive_bc(g));
}

TEST(Brandes, DisconnectedComponentsIndependent) {
  // Two disjoint paths; scores must match the per-component values.
  const CSRGraph g = graph::build_csr(
      6, std::vector<Edge>{{0, 1}, {1, 2}, {3, 4}, {4, 5}});
  const auto bc = cpu::brandes(g).bc;
  EXPECT_NEAR(bc[1], 2.0, 1e-12);
  EXPECT_NEAR(bc[4], 2.0, 1e-12);
  EXPECT_NEAR(bc[0], 0.0, 1e-12);
  expect_vectors_near(bc, cpu::naive_bc(g));
}

TEST(Brandes, MatchesNaiveOnRandomGraphs) {
  for (std::uint64_t seed : {1ull, 2ull, 3ull, 4ull}) {
    const CSRGraph g =
        graph::gen::scale_free({.num_vertices = 60, .attach = 2, .seed = seed});
    expect_vectors_near(cpu::brandes(g).bc, cpu::naive_bc(g), 1e-7);
  }
}

TEST(Brandes, MatchesNaiveOnSparseRandomWithIsolated) {
  // kron-style graphs have isolated vertices; the oracle pair must agree.
  const CSRGraph g = graph::gen::kronecker({.scale = 6, .edge_factor = 2, .seed = 5});
  expect_vectors_near(cpu::brandes(g).bc, cpu::naive_bc(g), 1e-7);
}

TEST(Brandes, SourceSubsetAccumulatesPartialScores) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto full = cpu::brandes(g).bc;
  // Summing per-source contributions over all sources equals the full run.
  std::vector<double> acc(g.num_vertices(), 0.0);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    cpu::BrandesResult r = cpu::brandes(g, {.sources = {s}});
    ASSERT_EQ(r.roots_processed, 1u);
    for (VertexId v = 0; v < g.num_vertices(); ++v) acc[v] += r.bc[v];
  }
  expect_vectors_near(acc, full);
}

TEST(Brandes, IgnoresOutOfRangeSources) {
  const CSRGraph g = graph::gen::figure1_graph();
  cpu::BrandesResult r = cpu::brandes(g, {.sources = {0, 100, 3}});
  EXPECT_EQ(r.roots_processed, 2u);
}

TEST(Brandes, ReportsTraversalStats) {
  const CSRGraph g = graph::gen::figure1_graph();
  cpu::BrandesResult r = cpu::brandes(g);
  EXPECT_EQ(r.roots_processed, g.num_vertices());
  // Connected graph: every root traverses all 2m directed edges.
  EXPECT_EQ(r.edges_traversed, g.num_directed_edges() * g.num_vertices());
  EXPECT_GE(r.max_depth_seen, 3u);
}

TEST(ParallelBrandes, MatchesSerial) {
  const auto g = graph::gen::small_world({.num_vertices = 300, .k = 3, .seed = 9});
  const auto serial = cpu::brandes(g).bc;
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto par = cpu::parallel_brandes(g, {.sources = {}, .num_threads = threads});
    EXPECT_EQ(par.roots_processed, g.num_vertices());
    expect_vectors_near(par.bc, serial, 1e-7);
  }
}

TEST(ParallelBrandes, SourceSubsetMatchesSerialSubset) {
  const auto g = graph::gen::scale_free({.num_vertices = 200, .attach = 2, .seed = 3});
  const std::vector<VertexId> subset{0, 5, 9, 100, 199};
  const auto serial = cpu::brandes(g, {.sources = subset});
  const auto par = cpu::parallel_brandes(g, {.sources = subset, .num_threads = 3});
  expect_vectors_near(par.bc, serial.bc, 1e-9);
  EXPECT_EQ(par.roots_processed, subset.size());
}

TEST(FineGrainedBrandes, MatchesSerialAcrossThreadCounts) {
  const auto g = graph::gen::kronecker({.scale = 8, .edge_factor = 8, .seed = 4});
  const auto serial = cpu::brandes(g).bc;
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto fine = cpu::fine_grained_brandes(g, {.sources = {}, .num_threads = threads});
    EXPECT_EQ(fine.roots_processed, g.num_vertices());
    expect_vectors_near(fine.bc, serial, 1e-7);
  }
}

TEST(FineGrainedBrandes, SourceSubsetAndStats) {
  const auto g = graph::gen::road({.scale = 10, .seed = 2});
  const std::vector<VertexId> subset{0, 7, 99};
  const auto serial = cpu::brandes(g, {.sources = subset});
  const auto fine = cpu::fine_grained_brandes(g, {.sources = subset, .num_threads = 2});
  expect_vectors_near(fine.bc, serial.bc, 1e-9);
  EXPECT_EQ(fine.roots_processed, 3u);
  EXPECT_EQ(fine.edges_traversed, serial.edges_traversed);
  EXPECT_EQ(fine.max_depth_seen, serial.max_depth_seen);
}

TEST(FineGrainedBrandes, IsolatedRootIsSafe) {
  const CSRGraph g = graph::build_csr(4, std::vector<Edge>{{0, 1}});
  const auto fine = cpu::fine_grained_brandes(g, {.sources = {3}, .num_threads = 2});
  for (double x : fine.bc) EXPECT_EQ(x, 0.0);
}

TEST(FineGrainedBrandes, DeterministicScores) {
  const auto g = graph::gen::small_world({.num_vertices = 256, .k = 4, .seed = 6});
  const auto a = cpu::fine_grained_brandes(g, {.sources = {}, .num_threads = 4});
  const auto b = cpu::fine_grained_brandes(g, {.sources = {}, .num_threads = 4});
  expect_vectors_near(a.bc, b.bc, 0.0);
}

// 64-bit FNV-1a over the raw bytes of a score vector: equal digests mean
// bitwise-equal scores.
std::uint64_t fnv1a(const std::vector<double>& v) {
  std::uint64_t h = 14695981039346656037ull;
  const auto* p = reinterpret_cast<const unsigned char*>(v.data());
  for (std::size_t i = 0; i < v.size() * sizeof(double); ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

struct GoldenDigests {
  const char* family;
  std::uint64_t all_roots;
  std::uint64_t sampled;
  std::uint64_t parallel[3];  // threads 1, 2, 4
  std::uint64_t dependencies[3];
  std::uint64_t exact_striped;
};

TEST(Brandes, BitsMatchParentCommit) {
  // Digests recorded from the per-root-allocating kernel that predates the
  // successor bitmap and the reused workspace. Every CPU entry point must
  // reproduce them bit for bit: the accumulation order is part of the
  // contract, and a uniform reordering would still pass every test that
  // only compares the kernel with itself.
  const GoldenDigests golden[] = {
      {"kron",
       0xcf28aafb450ddcb7ull,
       0x1875364a1af7c978ull,
       {0x1875364a1af7c978ull, 0x953cf3d7db1124d4ull, 0xf5c2fdf7496089fcull},
       {0xb33c1df6bc76b011ull, 0x86c547c4d883e227ull, 0x630c08f707c7dfccull},
       0xe4ef709a2007df99ull},
      {"road",
       0x134021212e4555daull,
       0x2a2cef85abc3e270ull,
       {0x2a2cef85abc3e270ull, 0x904c9620fcc85302ull, 0x5b61f07075fed03full},
       {0x5b08f9602398ce44ull, 0xf0594544f65a685eull, 0x8b89f74544bce315ull},
       0xc26581c970505ee3ull},
      {"smallworld",
       0x494559fa40dba8d8ull,
       0xf6920be6c9fd31eeull,
       {0xf6920be6c9fd31eeull, 0xd85dc8815ba801a2ull, 0xbde281f53835420aull},
       {0x087bdcdc45ef2488ull, 0x6ab622378683b845ull, 0x2b195731b5f5831eull},
       0x98eab48356686213ull},
  };
  for (const GoldenDigests& want : golden) {
    SCOPED_TRACE(want.family);
    const CSRGraph g = graph::gen::family_by_name(want.family).make(10, 1);
    const VertexId n = g.num_vertices();
    util::Xoshiro256 rng(7);
    std::vector<VertexId> roots(64);
    for (VertexId& r : roots) r = static_cast<VertexId>(rng.next_below(n));

    EXPECT_EQ(fnv1a(cpu::brandes(g).bc), want.all_roots);
    EXPECT_EQ(fnv1a(cpu::brandes(g, {.sources = roots, .cancel = {}}).bc), want.sampled);
    const std::size_t thread_counts[] = {1, 2, 4};
    for (int i = 0; i < 3; ++i) {
      const auto par =
          cpu::parallel_brandes(
          g, {.sources = roots, .num_threads = thread_counts[i], .cancel = {}});
      EXPECT_EQ(fnv1a(par.bc), want.parallel[i]) << "threads " << thread_counts[i];
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(fnv1a(cpu::single_source_dependencies(g, roots[i])), want.dependencies[i])
          << "root " << roots[i];
    }
    util::ThreadPool pool(2);
    EXPECT_EQ(fnv1a(dyn::exact_scores(g, pool, 32)), want.exact_striped);
  }
}

TEST(Brandes, ReusedScratchEqualsFreshPerRoot) {
  // Component A: a 100-vertex small world. Component B: a 40-vertex ring
  // with self-loops and duplicated edges. Vertex 140 is isolated. Built
  // both symmetrized and as a directed graph.
  const CSRGraph sw = graph::gen::small_world({.num_vertices = 100, .k = 3, .seed = 4});
  std::vector<Edge> edges;
  for (VertexId u = 0; u < sw.num_vertices(); ++u) {
    for (VertexId v : sw.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  for (VertexId i = 0; i < 40; ++i) {
    const VertexId u = 100 + i;
    edges.push_back({u, 100 + (i + 1) % 40});
    if (i % 3 == 0) edges.push_back({u, 100 + (i + 1) % 40});
    if (i % 5 == 0) edges.push_back({u, u});
  }
  const VertexId n = 141;
  const std::vector<VertexId> roots{3, 120, 3, 140, 57, 500, 139, 0, 140, 101, 99, 120};

  for (const bool undirected : {true, false}) {
    SCOPED_TRACE(undirected ? "undirected" : "directed");
    const CSRGraph g = graph::build_csr(n, edges,
                                        {.symmetrize = undirected,
                                         .remove_self_loops = false,
                                         .dedup = false,
                                         .sort_neighbors = true});
    ASSERT_EQ(g.undirected(), undirected);
    ASSERT_EQ(g.num_directed_edges(), (undirected ? 2 : 1) * edges.size());
    const cpu::BrandesResult reused = cpu::brandes(g, {.sources = roots, .cancel = {}});

    cpu::BrandesResult fresh;
    fresh.bc.assign(n, 0.0);
    for (VertexId s : roots) {
      if (s >= n) continue;
      cpu::brandes_single_source(g, s, fresh.bc, &fresh);
      ++fresh.roots_processed;
    }
    ASSERT_EQ(reused.bc.size(), fresh.bc.size());
    EXPECT_EQ(0, std::memcmp(reused.bc.data(), fresh.bc.data(), n * sizeof(double)));
    EXPECT_EQ(reused.roots_processed, fresh.roots_processed);
    EXPECT_EQ(reused.roots_processed, roots.size() - 1);
    EXPECT_EQ(reused.edges_traversed, fresh.edges_traversed);
    EXPECT_EQ(reused.max_depth_seen, fresh.max_depth_seen);
  }
}

TEST(Brandes, OutOfRangeSourceThrows) {
  const CSRGraph g = graph::gen::figure1_graph();
  const VertexId n = g.num_vertices();
  std::vector<double> bc(n, 0.0);
  EXPECT_THROW(cpu::brandes_single_source(g, n, bc), std::out_of_range);
  EXPECT_THROW(cpu::single_source_dependencies(g, n), std::out_of_range);
  for (double x : bc) EXPECT_EQ(x, 0.0);
  // The engine keeps skipping such sources rather than throwing.
  EXPECT_EQ(cpu::brandes(g, {.sources = {n, 0}, .cancel = {}}).roots_processed, 1u);
}

TEST(NaiveOracle, PathCountsOnDiamond) {
  const CSRGraph g =
      graph::build_csr(4, std::vector<Edge>{{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  const auto pc = cpu::count_paths(g, 0);
  EXPECT_DOUBLE_EQ(pc.sigma[0], 1.0);
  EXPECT_DOUBLE_EQ(pc.sigma[1], 1.0);
  EXPECT_DOUBLE_EQ(pc.sigma[2], 1.0);
  EXPECT_DOUBLE_EQ(pc.sigma[3], 2.0);  // two shortest paths 0->3
  EXPECT_EQ(pc.distance[3], 2u);
}

}  // namespace
