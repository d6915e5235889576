// Correctness of the CPU oracles: serial Brandes vs the definition-level
// naive path-counting BC, exact values on the paper's Figure 1 graph, the
// threaded root loop giving the serial bits at every thread count (also
// when its ring of slots fills, and under cancel), digests pinning the
// exact bits of every CPU entry point, the reused per-worker scratch
// matching a fresh one, and the direction-optimizing forward stage
// matching the top-down one bit for bit.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "cpu/brandes.hpp"
#include "cpu/naive.hpp"
#include "dyn/incremental_bc.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/storage/compressed.hpp"
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

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

// Same bits and stats; a top-down twin differs only in bottom_up_levels.
void expect_same_run(const cpu::BrandesResult& got, const cpu::BrandesResult& want) {
  EXPECT_TRUE(same_bits(got.bc, want.bc));
  EXPECT_EQ(got.roots_processed, want.roots_processed);
  EXPECT_EQ(got.edges_traversed, want.edges_traversed);
  EXPECT_EQ(got.max_depth_seen, want.max_depth_seen);
}

// What a thread count may never change: the bits and every stat.
void expect_identical_run(const cpu::BrandesResult& got, const cpu::BrandesResult& want) {
  expect_same_run(got, want);
  EXPECT_EQ(got.bottom_up_levels, want.bottom_up_levels);
}

TEST(ParallelBrandes, MatchesSerial) {
  const auto g = graph::gen::small_world({.num_vertices = 300, .k = 3, .seed = 9});
  const auto serial = cpu::brandes(g);
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto par =
        cpu::brandes(g, {.sources = {}, .num_threads = threads, .cancel = {}});
    EXPECT_EQ(par.roots_processed, g.num_vertices());
    expect_identical_run(par, serial);
  }
}

TEST(ParallelBrandes, SourceSubsetMatchesSerialSubset) {
  const auto g = graph::gen::scale_free({.num_vertices = 200, .attach = 2, .seed = 3});
  const std::vector<VertexId> subset{0, 5, 9, 100, 199};
  const auto serial = cpu::brandes(g, {.sources = subset, .cancel = {}});
  const auto par = cpu::brandes(g, {.sources = subset, .num_threads = 3, .cancel = {}});
  expect_identical_run(par, serial);
  EXPECT_EQ(par.roots_processed, subset.size());
}

TEST(FineGrainedBrandes, MatchesSerialAcrossThreadCounts) {
  const auto g = graph::gen::kronecker({.scale = 8, .edge_factor = 8, .seed = 4});
  const auto serial = cpu::brandes(g);
  for (std::size_t threads : {1u, 2u, 4u}) {
    const auto par =
        cpu::brandes(g, {.sources = {}, .num_threads = threads, .cancel = {}});
    EXPECT_EQ(par.roots_processed, g.num_vertices());
    expect_identical_run(par, serial);
  }
}

TEST(FineGrainedBrandes, SourceSubsetAndStats) {
  const auto g = graph::gen::road({.scale = 10, .seed = 2});
  const std::vector<VertexId> subset{0, 7, 99};
  const auto serial = cpu::brandes(g, {.sources = subset, .cancel = {}});
  const auto par = cpu::brandes(g, {.sources = subset, .num_threads = 2, .cancel = {}});
  expect_identical_run(par, serial);
  EXPECT_EQ(par.roots_processed, 3u);
}

TEST(FineGrainedBrandes, IsolatedRootIsSafe) {
  const CSRGraph g = graph::build_csr(4, std::vector<Edge>{{0, 1}});
  const auto par = cpu::brandes(g, {.sources = {3}, .num_threads = 2, .cancel = {}});
  EXPECT_EQ(par.roots_processed, 1u);
  for (double x : par.bc) EXPECT_EQ(x, 0.0);
}

TEST(FineGrainedBrandes, DeterministicScores) {
  const auto g = graph::gen::small_world({.num_vertices = 256, .k = 4, .seed = 6});
  const cpu::BrandesOptions opt{.sources = {}, .num_threads = 4, .cancel = {}};
  const auto a = cpu::brandes(g, opt);
  const auto b = cpu::brandes(g, opt);
  expect_identical_run(a, b);
  expect_identical_run(a, cpu::brandes(g));
}

TEST(Brandes, ThreadCountRule) {
  constexpr std::size_t kMax = std::numeric_limits<std::uint32_t>::max();
  constexpr std::size_t kHuge = std::numeric_limits<std::size_t>::max();
  // 0 asks for the hardware's count; the roots and the hardware cap it.
  EXPECT_EQ(cpu::brandes_threads(0, 100, 4), 4u);
  EXPECT_EQ(cpu::brandes_threads(0, 3, 4), 3u);
  EXPECT_EQ(cpu::brandes_threads(1, 100, 4), 1u);
  EXPECT_EQ(cpu::brandes_threads(2, 100, 4), 2u);
  EXPECT_EQ(cpu::brandes_threads(kMax, 100, 4), 4u);
  EXPECT_EQ(cpu::brandes_threads(kHuge, kHuge, 8), 8u);
  EXPECT_EQ(cpu::brandes_threads(kMax, 5, 64), 5u);
  EXPECT_EQ(cpu::brandes_threads(16, 2, 8), 2u);
  // Never below one: no roots, an unknown hardware count.
  EXPECT_EQ(cpu::brandes_threads(8, 0, 8), 1u);
  EXPECT_EQ(cpu::brandes_threads(0, 0, 0), 1u);
  EXPECT_EQ(cpu::brandes_threads(0, 100, 0), 1u);
  EXPECT_EQ(cpu::brandes_threads(kMax, kMax, 0), 1u);
}

TEST(Brandes, ThreadCountNeverChangesBits) {
  const char* families[] = {"rgg",       "delaunay", "kron", "road", "smallworld",
                            "scalefree", "web",      "mesh2d"};
  for (const char* family : families) {
    for (const std::uint32_t scale : {10u, 12u}) {
      SCOPED_TRACE(std::string(family) + "-" + std::to_string(scale));
      const CSRGraph g = graph::gen::family_by_name(family).make(scale, 1);
      std::vector<VertexId> roots;  // all roots at scale 10
      if (scale == 12) {
        util::Xoshiro256 rng(scale);
        roots.resize(64);
        for (VertexId& r : roots) r = static_cast<VertexId>(rng.next_below(g.num_vertices()));
        roots[9] = roots[3];                // counted twice
        roots[40] = g.num_vertices() + 5;   // skipped
      }
      const auto serial = cpu::brandes(g, {.sources = roots, .cancel = {}});
      EXPECT_EQ(serial.roots_processed, scale == 12 ? 63u : g.num_vertices());
      for (const std::size_t threads : {1u, 2u, 3u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        const cpu::BrandesOptions opt{.sources = roots, .num_threads = threads, .cancel = {}};
        expect_identical_run(cpu::brandes(g, opt), serial);
      }
    }
  }
}

// A path of 2048 vertices (id 0 at one end) and 600 isolated vertices.
CSRGraph path_and_isolated() {
  std::vector<Edge> edges;
  for (VertexId v = 0; v + 1 < 2048; ++v) edges.push_back({v, v + 1});
  return graph::build_csr(2048 + 600, edges);
}

TEST(Brandes, RingFullOfCheapRootsKeepsBits) {
  // Root 0 walks the whole path; the isolated roots after it finish at
  // once and fill the ring, whose workers then wait for root 0.
  const CSRGraph g = path_and_isolated();
  std::vector<VertexId> roots{0};
  for (VertexId v = 2048; v < g.num_vertices(); ++v) roots.push_back(v);
  roots.push_back(1024);
  roots.push_back(7);
  const auto serial = cpu::brandes(g, {.sources = roots, .cancel = {}});
  util::ThreadPool pool(4);
  for (int rep = 0; rep < 3; ++rep) {
    expect_identical_run(cpu::brandes(g, {.sources = roots, .cancel = {}}, pool), serial);
  }
}

TEST(Brandes, RootLoopBoundsLookaheadAndStopsOnCancel) {
  // Root 0 holds its worker until roots 1..7 are done: the other workers
  // then fill the ring of 2 x 4 slots and must wait, never starting a
  // root past 7 before root 0 returns. One run completes in root order;
  // one cancels from inside root 0 and must throw util::Cancelled; in one
  // root 0 throws, which must wake the waiting workers (no slot is ever
  // folded) and reach the caller. None may hang.
  enum class End { Complete, Cancel, Throw };
  for (const End end : {End::Complete, End::Cancel, End::Throw}) {
    SCOPED_TRACE(static_cast<int>(end));
    util::ThreadPool pool(4);
    util::CancelSource source;
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> furthest{0};
    std::size_t furthest_before_root0 = 0;
    std::vector<double> sum(4, 0.0);
    // Terms whose sum depends on the order they are added in.
    const auto terms_of = [](std::size_t i, cpu::RootTerms& out) {
      out.add(static_cast<VertexId>(i % 4), i % 2 == 0 ? 1e16 : 1.0);
      out.add(static_cast<VertexId>(i % 4), i % 3 == 0 ? -1e16 : 0.5);
    };
    const cpu::RootWork work = [&](std::size_t i, std::size_t, cpu::RootTerms& out) {
      if (i == 0) {
        const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(20);
        while (done.load() < 7 && std::chrono::steady_clock::now() < give_up) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        furthest_before_root0 = furthest.load();
        if (end == End::Cancel) source.cancel();
        if (end == End::Throw) throw std::runtime_error("root 0 failed");
      } else {
        std::size_t seen = furthest.load();
        while (seen < i && !furthest.compare_exchange_weak(seen, i)) {
        }
      }
      terms_of(i, out);
      done.fetch_add(1);
    };
    constexpr std::size_t kCount = 200;
    if (end == End::Cancel) {
      EXPECT_THROW(cpu::sum_roots_in_order(kCount, &pool, sum, source.token(), work),
                   util::Cancelled);
      EXPECT_LT(done.load(), kCount);
    } else if (end == End::Throw) {
      EXPECT_THROW(cpu::sum_roots_in_order(kCount, &pool, sum, {}, work), std::runtime_error);
      EXPECT_EQ(done.load(), 7u);  // roots 8.. wait for slot 0, which never folds
    } else {
      cpu::sum_roots_in_order(kCount, &pool, sum, {}, work);
      std::vector<double> want(4, 0.0);
      cpu::RootTerms terms;
      for (std::size_t i = 0; i < kCount; ++i) {
        terms.clear();
        terms_of(i, terms);
        for (std::size_t k = 0; k < terms.vertices.size(); ++k) {
          want[terms.vertices[k]] += terms.values[k];
        }
      }
      EXPECT_TRUE(same_bits(sum, want));
    }
    EXPECT_GE(done.load(), 7u);
    EXPECT_LT(furthest_before_root0, 8u);
  }
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
  std::uint64_t dependencies[3];
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
       {0xb33c1df6bc76b011ull, 0x86c547c4d883e227ull, 0x630c08f707c7dfccull}},
      {"road",
       0x134021212e4555daull,
       0x2a2cef85abc3e270ull,
       {0x5b08f9602398ce44ull, 0xf0594544f65a685eull, 0x8b89f74544bce315ull}},
      {"smallworld",
       0x494559fa40dba8d8ull,
       0xf6920be6c9fd31eeull,
       {0x087bdcdc45ef2488ull, 0x6ab622378683b845ull, 0x2b195731b5f5831eull}},
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
    // Threads split the roots but add them in root order: the serial bits.
    for (const std::size_t threads : {1u, 2u, 4u}) {
      const auto par =
          cpu::brandes(g, {.sources = roots, .num_threads = threads, .cancel = {}});
      EXPECT_EQ(fnv1a(par.bc), want.sampled) << "threads " << threads;
    }
    for (int i = 0; i < 3; ++i) {
      EXPECT_EQ(fnv1a(cpu::single_source_dependencies(g, roots[i])), want.dependencies[i])
          << "root " << roots[i];
    }
    util::ThreadPool pool(2);
    EXPECT_EQ(fnv1a(dyn::exact_scores(g, pool)), want.all_roots);
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

// The same arcs flagged directed: the engines never go bottom-up on it, so
// it is the top-down reference for the undirected original.
CSRGraph directed_twin(const CSRGraph& g) {
  const auto rows = g.row_offsets();
  const auto cols = g.col_indices();
  return CSRGraph({rows.begin(), rows.end()}, {cols.begin(), cols.end()}, false);
}

std::vector<VertexId> sample_roots(const CSRGraph& g, std::uint64_t seed) {
  util::Xoshiro256 rng(seed);
  std::vector<VertexId> roots(64);
  for (VertexId& r : roots) r = static_cast<VertexId>(rng.next_below(g.num_vertices()));
  return roots;
}

TEST(Brandes, DirectionOptimizingMatchesTopDown) {
  const char* families[] = {"rgg",       "delaunay", "kron", "road", "smallworld",
                            "scalefree", "web",      "mesh2d"};
  for (const char* family : families) {
    for (const std::uint32_t scale : {10u, 12u}) {
      SCOPED_TRACE(std::string(family) + "-" + std::to_string(scale));
      const CSRGraph g = graph::gen::family_by_name(family).make(scale, 1);
      const CSRGraph ref = directed_twin(g);
      ASSERT_TRUE(cpu::bottom_up_eligible(g));
      ASSERT_FALSE(cpu::bottom_up_eligible(ref));
      const std::vector<VertexId> roots = sample_roots(g, scale);

      const auto got = cpu::brandes(g, {.sources = roots, .cancel = {}});
      const auto want = cpu::brandes(ref, {.sources = roots, .cancel = {}});
      expect_same_run(got, want);
      EXPECT_EQ(want.bottom_up_levels, 0u);
      const std::string f = family;
      if (f == "kron" || f == "smallworld" || f == "scalefree") {
        EXPECT_GT(got.bottom_up_levels, 0u);
      }
      for (const std::size_t threads : {2u, 4u}) {
        SCOPED_TRACE(threads);
        const cpu::BrandesOptions opt{.sources = roots, .num_threads = threads, .cancel = {}};
        expect_identical_run(cpu::brandes(g, opt), got);
        expect_identical_run(cpu::brandes(ref, opt), want);
      }
      if (scale == 10) {
        util::ThreadPool pool(2);
        EXPECT_TRUE(same_bits(dyn::exact_scores(g, pool), dyn::exact_scores(ref, pool)));
      }
    }
  }
}

TEST(Brandes, DirectionOptimizingRerunsRootsPastExactSigma) {
  // Vertex s, joined to all of a 256-vertex clique (layer 1), then twelve
  // layers of 64, each vertex joined to a random half of the next layer,
  // under a random labelling. From s (or a clique vertex) the clique's
  // arcs make level 2 bottom-up while σ is small; the layers after it run
  // top-down in another frontier order than the top-down run and their σ
  // passes 2^53 by the last layers, where only the rerun keeps the bits.
  // Roots in the middle layers meet the clique late with σ below 2^53 and
  // keep their bottom-up levels.
  constexpr VertexId kClique = 256;
  constexpr VertexId kLayers = 12;
  constexpr VertexId kWidth = 64;
  constexpr VertexId n = 1 + kClique + kLayers * kWidth;
  util::Xoshiro256 rng(53);
  std::vector<VertexId> label(n);
  std::iota(label.begin(), label.end(), VertexId{0});
  for (VertexId i = n; i > 1; --i) {
    std::swap(label[i - 1], label[static_cast<VertexId>(rng.next_below(i))]);
  }
  // Unlabelled ids: s = 0, the clique 1..kClique, then the layers.
  const auto layer = [&](VertexId l, VertexId i) { return 1 + kClique + l * kWidth + i; };
  std::vector<Edge> edges;
  for (VertexId a = 1; a <= kClique; ++a) {
    edges.push_back({label[0], label[a]});
    for (VertexId b = a + 1; b <= kClique; ++b) edges.push_back({label[a], label[b]});
    for (VertexId b = 0; b < kWidth; ++b) {
      if (rng.next_below(2) == 0) edges.push_back({label[a], label[layer(0, b)]});
    }
  }
  for (VertexId l = 0; l + 1 < kLayers; ++l) {
    for (VertexId a = 0; a < kWidth; ++a) {
      for (VertexId b = 0; b < kWidth; ++b) {
        if (rng.next_below(2) == 0) edges.push_back({label[layer(l, a)], label[layer(l + 1, b)]});
      }
    }
  }
  const CSRGraph g = graph::build_csr(n, edges);
  const CSRGraph ref = directed_twin(g);
  const std::vector<VertexId> roots{label[0],           label[1],           label[7],
                                    label[layer(5, 0)], label[layer(6, 9)], label[layer(11, 3)]};
  const auto sigmas = cpu::count_paths(g, label[0]).sigma;
  ASSERT_GE(*std::max_element(sigmas.begin(), sigmas.end()), 0x1p53);

  const auto got = cpu::brandes(g, {.sources = roots, .cancel = {}});
  const auto want = cpu::brandes(ref, {.sources = roots, .cancel = {}});
  expect_same_run(got, want);
  EXPECT_GT(got.bottom_up_levels, 0u);
  const cpu::BrandesOptions opt{.sources = roots, .num_threads = 2, .cancel = {}};
  expect_identical_run(cpu::brandes(g, opt), got);
  expect_identical_run(cpu::brandes(ref, opt), want);
  util::ThreadPool pool(2);
  EXPECT_TRUE(same_bits(dyn::exact_scores(g, pool), dyn::exact_scores(ref, pool)));
}

TEST(Brandes, UnsortedRowsStayTopDown) {
  // kron-10's edges fed in reverse, neither sorted nor deduplicated: the
  // rows come out descending, so the engines keep every level top-down.
  const CSRGraph kron = graph::gen::family_by_name("kron").make(10, 1);
  std::vector<Edge> edges;
  for (VertexId u = 0; u < kron.num_vertices(); ++u) {
    for (VertexId v : kron.neighbors(u)) {
      if (u < v) edges.push_back({u, v});
    }
  }
  std::reverse(edges.begin(), edges.end());
  const CSRGraph g = graph::build_csr(kron.num_vertices(), edges,
                                      {.symmetrize = true,
                                       .remove_self_loops = true,
                                       .dedup = false,
                                       .sort_neighbors = false});
  ASSERT_TRUE(g.undirected());
  EXPECT_FALSE(cpu::bottom_up_eligible(g));
  const CSRGraph ref = directed_twin(g);

  const std::vector<VertexId> roots = sample_roots(g, 7);
  const auto got = cpu::brandes(g, {.sources = roots, .cancel = {}});
  expect_same_run(got, cpu::brandes(ref, {.sources = roots, .cancel = {}}));
  EXPECT_EQ(got.bottom_up_levels, 0u);
  const auto par = cpu::brandes(g, {.sources = roots, .num_threads = 2, .cancel = {}});
  EXPECT_EQ(par.bottom_up_levels, 0u);
  // The same arcs sorted do go bottom-up.
  EXPECT_GT(cpu::brandes(kron, {.sources = roots, .cancel = {}}).bottom_up_levels, 0u);
}

TEST(Brandes, StreamedHbcgzStaysTopDownWithHeapBits) {
  const CSRGraph heap = graph::gen::family_by_name("kron").make(10, 1);
  const auto storage = graph::storage::CompressedStorage::compress(
      heap.row_offsets(), heap.col_indices(), heap.undirected());
  const CSRGraph comp(storage);
  EXPECT_FALSE(cpu::bottom_up_eligible(comp));
  EXPECT_TRUE(storage->resident_columns().empty());

  const std::vector<VertexId> roots = sample_roots(heap, 7);
  const auto streamed = cpu::brandes(comp, {.sources = roots, .cancel = {}});
  const auto resident = cpu::brandes(heap, {.sources = roots, .cancel = {}});
  expect_same_run(streamed, resident);
  EXPECT_EQ(streamed.bottom_up_levels, 0u);
  EXPECT_GT(resident.bottom_up_levels, 0u);
  const cpu::BrandesOptions opt{.sources = roots, .num_threads = 2, .cancel = {}};
  expect_identical_run(cpu::brandes(comp, opt), streamed);
  expect_identical_run(cpu::brandes(heap, opt), resident);
  util::ThreadPool pool(2);
  EXPECT_TRUE(same_bits(dyn::exact_scores(comp, pool), dyn::exact_scores(heap, pool)));
  EXPECT_TRUE(storage->resident_columns().empty());
}

TEST(Brandes, BottomUpEligibility) {
  // Rows 0: {1,3}, 1: {0}, 2: {}, 3: {0,4}, 4: {3}: strictly ascending,
  // with descents only across row boundaries and an empty row.
  const std::vector<graph::EdgeOffset> rows{0, 2, 3, 3, 5, 6};
  const std::vector<VertexId> cols{1, 3, 0, 0, 4, 3};
  EXPECT_TRUE(cpu::bottom_up_eligible(CSRGraph(rows, cols, true)));
  EXPECT_FALSE(cpu::bottom_up_eligible(CSRGraph(rows, cols, false)));
  EXPECT_FALSE(cpu::bottom_up_eligible(CSRGraph(rows, {3, 1, 0, 0, 4, 3}, true)));
  EXPECT_FALSE(cpu::bottom_up_eligible(CSRGraph(rows, {1, 1, 0, 0, 4, 3}, true)));
  EXPECT_FALSE(cpu::bottom_up_eligible(CSRGraph(rows, {1, 3, 0, 4, 4, 3}, true)));
  EXPECT_TRUE(cpu::bottom_up_eligible(CSRGraph({0}, {}, true)));

  // A compressed backing qualifies once its columns are resident.
  const auto storage = graph::storage::CompressedStorage::compress(rows, cols, true);
  const CSRGraph comp(storage);
  EXPECT_FALSE(cpu::bottom_up_eligible(comp));
  EXPECT_TRUE(storage->resident_columns().empty());
  storage->col_indices();
  EXPECT_TRUE(cpu::bottom_up_eligible(comp));
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
