// Every GPU-model kernel must reproduce serial Brandes exactly (up to
// floating-point association) on every graph class of the paper's
// evaluation. Parameterized across (generator family, scale, strategy).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <stdexcept>
#include <string>
#include <span>
#include <tuple>

#include "cpu/brandes.hpp"
#include "cpu/naive.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "kernels/bc_state.hpp"
#include "kernels/kernels.hpp"
#include "trace/trace.hpp"
#include "util/rng.hpp"

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

TEST(Kernels, RootsInASmallComponentMatchOracle) {
  // A 5-vertex path beside a 64-vertex wheel, one host workspace: each
  // root must start from a clean one whatever the previous root reached.
  // Each path root marks the path's arcs in another direction.
  std::vector<graph::Edge> edges{{0, 1}, {1, 2}, {2, 3}, {3, 4}};
  for (VertexId v = 6; v < 69; ++v) {
    edges.push_back({5, v});
    edges.push_back({v, v + 1 < 69 ? v + 1 : 6});
  }
  const CSRGraph g = graph::build_csr(69, edges);
  const std::vector<VertexId> roots{0, 2, 4, 1, 3, 6, 0};
  const auto oracle = cpu::brandes(g, {.sources = roots, .cancel = {}}).bc;
  for (const Strategy strategy : {Strategy::WorkEfficient, Strategy::Hybrid,
                                  Strategy::Sampling, Strategy::DirectionOptimized}) {
    RunConfig config = small_device_config();
    config.roots = roots;
    config.cpu_threads = 1;
    for (const bool bitmap : {false, true}) {
      config.use_predecessor_bitmap = bitmap && strategy == Strategy::WorkEfficient;
      expect_vectors_near(kernels::run_strategy(strategy, g, config).bc, oracle, 1e-12);
    }
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
       {Strategy::CpuSerial, Strategy::CpuParallel}) {
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

// ---------------------------------------------------------------------------
// Pinned model outputs. The tests above compare the model with the oracle
// (up to FP association) and with itself across thread counts; neither
// would notice a change that shifts every charge the same way. These
// digests pin the modelled outputs — scores, counters, cycles, per-root
// data and a kCharge trace capture — bit for bit, so a host-side
// optimization of the level primitives must reproduce them exactly.

/// FNV-1a over raw bytes.
struct Fnv1a {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 0x100000001b3ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
};

/// The scores, bit for bit.
std::uint64_t scores_digest(const kernels::RunResult& r) {
  Fnv1a f;
  f.u64(r.bc.size());
  f.bytes(r.bc.data(), r.bc.size() * sizeof(double));
  return f.h;
}

/// Every modelled output but the scores: counters, cycles, simulated time,
/// level tallies, the sampling outcome, per-root cycles and records.
std::uint64_t metrics_digest(const kernels::RunResult& r) {
  Fnv1a f;
  const gpusim::Counters& c = r.metrics.counters;
  for (const std::uint64_t v :
       {c.edges_traversed, c.edges_inspected, c.vertices_scanned, c.queue_inserts,
        c.atomic_ops, c.barriers, c.grid_syncs, c.bfs_iterations, c.roots_processed}) {
    f.u64(v);
  }
  f.u64(r.metrics.elapsed_cycles);
  f.f64(r.metrics.sim_seconds);
  f.u64(r.metrics.we_levels);
  f.u64(r.metrics.ep_levels);
  f.u64(r.metrics.sampling_chose_edge_parallel ? 1 : 0);
  f.f64(r.metrics.sampling_median_depth);
  for (const std::uint64_t cycles : r.metrics.per_root_cycles) f.u64(cycles);
  for (const kernels::PerRootStats& s : r.per_root) {
    f.u64(s.root);
    f.u64(s.max_depth);
    for (const kernels::IterationRecord& it : s.iterations) {
      f.u64(it.depth);
      f.u64(it.vertex_frontier);
      f.u64(it.edge_frontier);
      f.u64(it.cycles);
      f.u64(static_cast<std::uint64_t>(it.mode));
    }
  }
  return f.h;
}

RunConfig pinned_config(const CSRGraph& g) {
  RunConfig config = small_device_config();
  const VertexId n = g.num_vertices();
  for (VertexId i = 0; i < 32; ++i) config.roots.push_back(i * (n / 32));
  config.collect_per_root_stats = true;
  config.collect_root_cycles = true;
  return config;
}

struct PinnedDigest {
  const char* family;
  const char* variant;  // a strategy name, or "we-predecessor-bitmap" /
                        // "sampling-forced-ep"
  std::uint64_t digest;
};

// Scores: each variant adds the same per-root dependencies exactly, so
// every variant on a family has one digest (recorded with the exact fold).
constexpr PinnedDigest kPinnedScores[] = {
    {"kron", "any", 0xc299d7c6a7ef2597ull},
    {"road", "any", 0x571817b367f9181bull},
    {"smallworld", "any", 0x8814262c5dda760aull},
};

// Metrics: recorded on the commit before the exact fold by this split
// body, whose combined digest matched the one recorded before the level
// primitives charged in closed form.
constexpr PinnedDigest kPinnedMetrics[] = {
    {"kron", "vertex-parallel", 0x76aee7804220f4caull},
    {"kron", "edge-parallel", 0xd412fcf3a87bd599ull},
    {"kron", "gpu-fan", 0xc3c65e7abdf00d85ull},
    {"kron", "work-efficient", 0x1f24d6e52287daf7ull},
    {"kron", "hybrid", 0xf69e7f16a23a3700ull},
    {"kron", "sampling", 0x9c4fbb2146e938f0ull},
    {"kron", "direction-optimized", 0x4f8fe43b09f51302ull},
    {"kron", "we-predecessor-bitmap", 0x98cfb06287bb9b3full},
    {"kron", "sampling-forced-ep", 0x9c4fbb2146e938f0ull},
    {"road", "vertex-parallel", 0xc3a702133870aceaull},
    {"road", "edge-parallel", 0xd1e0b47449473065ull},
    {"road", "gpu-fan", 0xfdfd0cafce99d821ull},
    {"road", "work-efficient", 0x5e6bce7b5e0bad03ull},
    {"road", "hybrid", 0xa93178571ac48693ull},
    {"road", "sampling", 0x4f16ce5cc83599beull},
    {"road", "direction-optimized", 0x0e6e6a62d6f95a5dull},
    {"road", "we-predecessor-bitmap", 0x1a1d18ff6ff7896cull},
    {"road", "sampling-forced-ep", 0x84181270f140157eull},
    {"smallworld", "vertex-parallel", 0x464b5e43624b270cull},
    {"smallworld", "edge-parallel", 0x2cc1560166f6b20eull},
    {"smallworld", "gpu-fan", 0x98677d9656cc1624ull},
    {"smallworld", "work-efficient", 0x06ce1b7da5e246dcull},
    {"smallworld", "hybrid", 0x35b123951e1a38b9ull},
    {"smallworld", "sampling", 0xeadba11c9dbab0eeull},
    {"smallworld", "direction-optimized", 0x45823869050d5e47ull},
    {"smallworld", "we-predecessor-bitmap", 0x0d6227e58d98ef04ull},
    {"smallworld", "sampling-forced-ep", 0xeadba11c9dbab0eeull},
};

// Chrome-trace export (kAll, i.e. kCharge on) of one 8-root run per
// strategy on kron-10, recorded the same way.
constexpr PinnedDigest kPinnedTraces[] = {
    {"kron", "vertex-parallel", 0x92a4ff949a7eb345ull},
    {"kron", "edge-parallel", 0x6bf12dba12111309ull},
    {"kron", "gpu-fan", 0x575a1dc8bc163de8ull},
    {"kron", "work-efficient", 0x280c58e46dc5bb58ull},
    {"kron", "hybrid", 0x20f1393b00909f17ull},
    {"kron", "sampling", 0x667f7077afee6a17ull},
    {"kron", "direction-optimized", 0xc1895cdfdcdd619eull},
};

std::uint64_t pinned(std::span<const PinnedDigest> table, const std::string& family,
                     const std::string& variant) {
  for (const PinnedDigest& p : table) {
    if (family == p.family && variant == p.variant) return p.digest;
  }
  return 0;
}

constexpr Strategy kGpuModelStrategies[] = {
    Strategy::VertexParallel, Strategy::EdgeParallel, Strategy::GpuFan,
    Strategy::WorkEfficient,  Strategy::Hybrid,       Strategy::Sampling,
    Strategy::DirectionOptimized,
};

TEST(KernelModel, BitsMatchParentCommit) {
  for (const std::string family : {"kron", "road", "smallworld"}) {
    const CSRGraph g = graph::gen::family_by_name(family).make(10, 1);
    struct Variant {
      std::string name;
      Strategy strategy;
      RunConfig config;
    };
    std::vector<Variant> variants;
    for (const Strategy s : kGpuModelStrategies) {
      variants.push_back({kernels::to_string(s), s, pinned_config(g)});
    }
    variants.push_back({"we-predecessor-bitmap", Strategy::WorkEfficient, pinned_config(g)});
    variants.back().config.use_predecessor_bitmap = true;
    variants.push_back({"sampling-forced-ep", Strategy::Sampling, pinned_config(g)});
    variants.back().config.sampling.gamma = 1e9;  // median always below

    for (Variant& v : variants) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        v.config.cpu_threads = threads;
        const kernels::RunResult r = kernels::run_strategy(v.strategy, g, v.config);
        const std::uint64_t scores = scores_digest(r);
        const std::uint64_t metrics = metrics_digest(r);
        EXPECT_EQ(scores, pinned(kPinnedScores, family, "any"))
            << family << "/" << v.name << " threads=" << threads << " scores 0x" << std::hex
            << scores;
        EXPECT_EQ(metrics, pinned(kPinnedMetrics, family, v.name))
            << "{\"" << family << "\", \"" << v.name << "\", 0x" << std::hex << metrics
            << "ull}, threads=" << std::dec << threads;
      }
      if (v.name == "sampling-forced-ep") {
        EXPECT_TRUE(kernels::run_strategy(v.strategy, g, v.config)
                        .metrics.sampling_chose_edge_parallel);
      }
    }
  }

  const CSRGraph kron = graph::gen::family_by_name("kron").make(10, 1);
  for (const Strategy s : kGpuModelStrategies) {
    RunConfig config = small_device_config();
    for (VertexId i = 0; i < 8; ++i) config.roots.push_back(i * 97);
    trace::Tracer tracer(trace::TracerConfig{.categories = trace::kAll});
    config.tracer = &tracer;
    kernels::run_strategy(s, kron, config);
    ASSERT_EQ(tracer.dropped(), 0u) << kernels::to_string(s);
    const std::string json = tracer.chrome_json();
    Fnv1a f;
    f.bytes(json.data(), json.size());
    EXPECT_EQ(f.h, pinned(kPinnedTraces, "kron", kernels::to_string(s)))
        << kernels::to_string(s) << " trace digest 0x" << std::hex << f.h;
  }
}

TEST(KernelModel, ResetRoundMatchesFreshRound) {
  // BCWorkspace keeps one ImbalancedRound and resets it for every level;
  // a reset round must charge exactly what a freshly made one does, at
  // any width and after any number of items (wrapped or not).
  gpusim::ImbalancedRound reused(8);
  util::Xoshiro256 rng(3);
  for (const std::uint32_t threads : {8u, 3u, 300u, 1u, 64u, 0u}) {
    for (const std::size_t items : {0, 1, 5, 64, 1000}) {
      reused.reset(threads);
      gpusim::ImbalancedRound fresh(threads);
      for (std::size_t i = 0; i < items; ++i) {
        const std::uint64_t cycles = rng.next_below(1000);
        reused.add_item(cycles);
        fresh.add_item(cycles);
      }
      const std::string what =
          "threads " + std::to_string(threads) + " items " + std::to_string(items);
      EXPECT_EQ(reused.total_cycles(), fresh.total_cycles()) << what;
      EXPECT_EQ(reused.max_thread_cycles(), fresh.max_thread_cycles()) << what;
      EXPECT_EQ(reused.cost_cycles(10), fresh.cost_cycles(10)) << what;
    }
  }
}

// ---------------------------------------------------------------------------
// Wide work-efficient levels. On an undirected graph with strictly
// ascending rows the host may expand a wide level bottom-up and rebuild
// the top-down run's state from it; the same arcs flagged directed are
// always expanded top-down, so every modelled output of the two must be
// equal bit for bit.

/// The same arcs flagged directed: the host never expands them bottom-up.
CSRGraph directed_twin(const CSRGraph& g) {
  const auto rows = g.row_offsets();
  const auto cols = g.col_indices();
  return CSRGraph({rows.begin(), rows.end()}, {cols.begin(), cols.end()}, false);
}

/// metrics_digest() plus the fault report.
std::uint64_t metrics_digest_with_faults(const kernels::RunResult& r) {
  Fnv1a f;
  f.u64(metrics_digest(r));
  f.u64(r.faults.faults_injected);
  f.u64(r.faults.retries);
  f.u64(r.faults.rescued_roots);
  for (const gpusim::RootFailure& failure : r.faults.host_roots) {
    f.u64(failure.root);
    f.u64(static_cast<std::uint64_t>(failure.kind));
    f.u64(failure.attempts);
    f.u64(failure.transient ? 1 : 0);
  }
  return f.h;
}

struct WideVariant {
  const char* name;
  Strategy strategy;
  RunConfig config;
};

/// Every kernel that expands levels with BCWorkspace::we_forward_level.
std::vector<WideVariant> wide_level_variants(const CSRGraph& g) {
  std::vector<WideVariant> variants;
  for (const Strategy s : {Strategy::WorkEfficient, Strategy::Sampling, Strategy::Hybrid,
                           Strategy::DirectionOptimized}) {
    variants.push_back({kernels::to_string(s), s, pinned_config(g)});
  }
  variants.push_back({"sampling-we", Strategy::Sampling, pinned_config(g)});
  variants.back().config.sampling.gamma = 0.0;  // phase 2 stays work-efficient
  // One instruction stream per thread: a round costs its busiest thread,
  // so every charge depends on the order of Q_curr (thread = position mod
  // width), not only on its totals.
  variants.push_back({"work-efficient-ilp1", Strategy::WorkEfficient, pinned_config(g)});
  variants.back().config.device.cost.thread_ilp = 1;
  return variants;
}

// Transient faults whose trip points land inside the wide levels of
// scale-12 roots; every root recovers (the first plan through an in-block
// retry and then the recovery sweep, the second through one retry).
constexpr const char* kWideLevelFaultPlans[] = {
    "seed=6;ecc,rate=0.4,transient,attempts=2,after=5000",
    "seed=8;timeout,rate=0.3,transient,attempts=1,after=2500",
};

// Scores, one per family: every variant, fault-free or rescued, adds the
// same per-root dependencies exactly (recorded with the exact fold).
constexpr PinnedDigest kWideLevelScores[] = {
    {"kron", "any", 0x9b68106428f29becull},
    {"smallworld", "any", 0xcc7b186b23af1761ull},
    {"scalefree", "any", 0x4f163e5ed44eb920ull},
    {"web", "any", 0x2002a2788470cfb4ull},
};

// Metrics: recorded on the commit before the exact fold by this split
// body, whose combined digests matched the ones recorded before wide
// levels ran bottom-up on the host. Fault-plan digests add the report.
constexpr PinnedDigest kWideLevelMetrics[] = {
    {"kron", "work-efficient", 0x67c40e8c07b52465ull},
    {"kron", "work-efficient+fault0", 0x93b33d3f84d3bb60ull},
    {"kron", "work-efficient+fault1", 0x345b5430c13a1093ull},
    {"kron", "sampling", 0xc7fe9203471dace1ull},
    {"kron", "sampling+fault0", 0xf1f690d62cc54ba7ull},
    {"kron", "sampling+fault1", 0x5da15beb70ee720bull},
    {"kron", "hybrid", 0x59767489a33d9038ull},
    {"kron", "hybrid+fault0", 0x131faf6a516bee06ull},
    {"kron", "hybrid+fault1", 0xe80cd8d51f313b23ull},
    {"kron", "direction-optimized", 0x49c91c6d11065d20ull},
    {"kron", "direction-optimized+fault0", 0x1e92909a42a5b231ull},
    {"kron", "direction-optimized+fault1", 0x60dd71ca0ab86d0full},
    {"kron", "sampling-we", 0xbc4bc16b30e6f075ull},
    {"kron", "sampling-we+fault0", 0x3cbe59ce38a7fdf7ull},
    {"kron", "sampling-we+fault1", 0xace84484d8b872b2ull},
    {"kron", "work-efficient-ilp1", 0xacf12ac7516c6697ull},
    {"kron", "work-efficient-ilp1+fault0", 0xc1cb4856a2f4a23dull},
    {"kron", "work-efficient-ilp1+fault1", 0xb55fcdf4793b4560ull},
    {"smallworld", "work-efficient", 0x81bad8de7bc215aeull},
    {"smallworld", "work-efficient+fault0", 0xa7943a8623a8e80dull},
    {"smallworld", "work-efficient+fault1", 0x8ec32a0721b25a71ull},
    {"smallworld", "sampling", 0x24a40c0af3831f41ull},
    {"smallworld", "sampling+fault0", 0x84aced701d603891ull},
    {"smallworld", "sampling+fault1", 0x07f1f37ecca3ebdfull},
    {"smallworld", "hybrid", 0x5686009fdbf03853ull},
    {"smallworld", "hybrid+fault0", 0xfc77b3a7c2b9b8f1ull},
    {"smallworld", "hybrid+fault1", 0x44e094207361de57ull},
    {"smallworld", "direction-optimized", 0x05671d3d6784fec0ull},
    {"smallworld", "direction-optimized+fault0", 0x567568a8e2ae2c03ull},
    {"smallworld", "direction-optimized+fault1", 0x804c9a358959b5b9ull},
    {"smallworld", "sampling-we", 0x5fa26574cb879d4eull},
    {"smallworld", "sampling-we+fault0", 0xd14abca3496f4f05ull},
    {"smallworld", "sampling-we+fault1", 0x33593bdcb8e6ffb4ull},
    {"smallworld", "work-efficient-ilp1", 0xd9a33d45dccf0e2cull},
    {"smallworld", "work-efficient-ilp1+fault0", 0x3fa396d5d16dd414ull},
    {"smallworld", "work-efficient-ilp1+fault1", 0xe300e0d9543b15c8ull},
    {"scalefree", "work-efficient", 0x8215ef678235a68bull},
    {"scalefree", "work-efficient+fault0", 0x9285061d7e1e7ae6ull},
    {"scalefree", "work-efficient+fault1", 0x5daa40044c0511b4ull},
    {"scalefree", "sampling", 0xa76640ada09bd7ccull},
    {"scalefree", "sampling+fault0", 0x84e3bbd5f3f2bb76ull},
    {"scalefree", "sampling+fault1", 0x56eba66bee39d5d8ull},
    {"scalefree", "hybrid", 0x3b642f40ec703998ull},
    {"scalefree", "hybrid+fault0", 0xb596d435d5b92296ull},
    {"scalefree", "hybrid+fault1", 0xb070601a00bef784ull},
    {"scalefree", "direction-optimized", 0x85b6e516cf8268b7ull},
    {"scalefree", "direction-optimized+fault0", 0x25f3a1e45ee98737ull},
    {"scalefree", "direction-optimized+fault1", 0x07334bdd76e2689eull},
    {"scalefree", "sampling-we", 0x19db0c55550ace90ull},
    {"scalefree", "sampling-we+fault0", 0xa4487da570eee3b3ull},
    {"scalefree", "sampling-we+fault1", 0xb835d6e5f6ff2768ull},
    {"scalefree", "work-efficient-ilp1", 0x41daf9def45611cfull},
    {"scalefree", "work-efficient-ilp1+fault0", 0x49c48aac022a7d1full},
    {"scalefree", "work-efficient-ilp1+fault1", 0x8d9cf35ae7e45394ull},
    {"web", "work-efficient", 0xcfac73345095c4e0ull},
    {"web", "work-efficient+fault0", 0x9bfa366137314830ull},
    {"web", "work-efficient+fault1", 0x54fa0e4cab3f34c5ull},
    {"web", "sampling", 0xa57940456173993full},
    {"web", "sampling+fault0", 0xf22883745ff9329cull},
    {"web", "sampling+fault1", 0x09bdc25e7a5da5beull},
    {"web", "hybrid", 0x359d0daa28f50b80ull},
    {"web", "hybrid+fault0", 0x3fae4dca3d9db5beull},
    {"web", "hybrid+fault1", 0xf90c67a66499b6a7ull},
    {"web", "direction-optimized", 0x0fdf01506704c5a6ull},
    {"web", "direction-optimized+fault0", 0x4efb5be86496556eull},
    {"web", "direction-optimized+fault1", 0x1237438ae1d28362ull},
    {"web", "sampling-we", 0x4e65cf5eda1a3f10ull},
    {"web", "sampling-we+fault0", 0xaff368f40d026450ull},
    {"web", "sampling-we+fault1", 0x0840c3f69f16208dull},
    {"web", "work-efficient-ilp1", 0xf66ebf0e9a6f576eull},
    {"web", "work-efficient-ilp1+fault0", 0x8bb9e2fbfaf2a01bull},
    {"web", "work-efficient-ilp1+fault1", 0x12c38ad5169d5093ull},
};

TEST(KernelModel, WideLevelBitsMatchParentCommit) {
  std::uint64_t faults[std::size(kWideLevelFaultPlans)] = {};
  for (const std::string family : {"kron", "smallworld", "scalefree", "web"}) {
    const CSRGraph g = graph::gen::family_by_name(family).make(12, 1);
    const std::uint64_t want_scores = pinned(kWideLevelScores, family, "any");
    for (WideVariant& v : wide_level_variants(g)) {
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        v.config.cpu_threads = threads;
        const kernels::RunResult r = kernels::run_strategy(v.strategy, g, v.config);
        const std::uint64_t scores = scores_digest(r);
        const std::uint64_t metrics = metrics_digest(r);
        EXPECT_EQ(scores, want_scores) << family << "/" << v.name << " threads=" << threads
                                       << " scores 0x" << std::hex << scores;
        EXPECT_EQ(metrics, pinned(kWideLevelMetrics, family, v.name))
            << "{\"" << family << "\", \"" << v.name << "\", 0x" << std::hex << metrics
            << "ull}, threads=" << std::dec << threads;
      }
      for (std::size_t p = 0; p < std::size(kWideLevelFaultPlans); ++p) {
        RunConfig config = v.config;
        config.fault_plan = gpusim::FaultPlan::parse_shared(kWideLevelFaultPlans[p]);
        const kernels::RunResult r = kernels::run_strategy(v.strategy, g, config);
        EXPECT_TRUE(r.faults.host_roots.empty());
        faults[p] += r.faults.faults_injected;
        const std::string name = std::string(v.name) + "+fault" + std::to_string(p);
        // Retried and rescued roots add exactly what a clean run adds.
        EXPECT_EQ(scores_digest(r), want_scores) << family << "/" << name;
        const std::uint64_t fd = metrics_digest_with_faults(r);
        EXPECT_EQ(fd, pinned(kWideLevelMetrics, family, name))
            << "{\"" << family << "\", \"" << name << "\", 0x" << std::hex << fd << "ull},";
      }
    }
  }
  for (const std::uint64_t injected : faults) EXPECT_GT(injected, 0u);
}

/// Every wide-level variant on g and on its directed twin, at 1 and 4
/// threads: the digests must be equal. `roots` replaces the pinned roots.
void expect_twin_bits(const CSRGraph& g, const CSRGraph& twin, const std::string& what,
                      const std::vector<VertexId>& roots = {}) {
  for (WideVariant& v : wide_level_variants(g)) {
    if (!roots.empty()) v.config.roots = roots;
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      v.config.cpu_threads = threads;
      const kernels::RunResult a = kernels::run_strategy(v.strategy, g, v.config);
      const kernels::RunResult b = kernels::run_strategy(v.strategy, twin, v.config);
      EXPECT_EQ(scores_digest(a), scores_digest(b))
          << what << "/" << v.name << " threads=" << threads;
      EXPECT_EQ(metrics_digest(a), metrics_digest(b))
          << what << "/" << v.name << " threads=" << threads;
    }
  }
}

/// Levels the host ran bottom-up when one workspace runs the
/// work-efficient kernel's two stages from each root.
std::uint64_t host_bottom_up_levels(const CSRGraph& g, const std::vector<VertexId>& roots) {
  gpusim::Device device(gpusim::test_device());
  device.begin_run(1);
  gpusim::BlockContext ctx = device.block(0);
  kernels::BCWorkspace ws(g);
  for (const VertexId root : roots) {
    ws.init_root(root, ctx);
    for (;;) {
      ws.we_forward_level(ctx);
      if (ws.q_next_len() == 0) break;
      ws.finish_level(ctx);
    }
    for (std::uint32_t dep = ws.max_depth(); dep-- > 1;) ws.we_backward_level(ctx, dep);
  }
  return ws.host_bottom_up_levels();
}

TEST(KernelModel, HostBottomUpMatchesTopDown) {
  for (const std::string family : {"kron", "smallworld", "scalefree", "web", "road"}) {
    const CSRGraph g = graph::gen::family_by_name(family).make(12, 1);
    const CSRGraph twin = directed_twin(g);
    expect_twin_bits(g, twin, family);
    const std::vector<VertexId>& roots = pinned_config(g).roots;
    EXPECT_EQ(host_bottom_up_levels(twin, roots), 0u) << family;
    if (family == "road") {
      EXPECT_EQ(host_bottom_up_levels(g, roots), 0u);
    } else if (family == "kron" || family == "smallworld") {
      EXPECT_GT(host_bottom_up_levels(g, roots), 0u) << family;
    }
  }
}

TEST(KernelModel, HostBottomUpPastExactSigmaMatchesTopDown) {
  // Brandes.DirectionOptimizingRerunsRootsPastExactSigma's graph: vertex
  // s joined to all of a 256-vertex clique, then twelve layers of 64, each
  // vertex joined to a random half of the next layer, randomly labelled.
  // The clique level is wide with σ small; the last layers' σ pass 2^53,
  // where a level must stay top-down.
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
  const auto layer = [&](VertexId l, VertexId i) { return 1 + kClique + l * kWidth + i; };
  std::vector<graph::Edge> edges;
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
  const auto sigmas = cpu::count_paths(g, label[0]).sigma;
  ASSERT_GE(*std::max_element(sigmas.begin(), sigmas.end()), 0x1p53);
  const std::vector<VertexId> roots{label[0],           label[1],           label[7],
                                    label[layer(5, 0)], label[layer(6, 9)], label[layer(11, 3)]};
  expect_twin_bits(g, directed_twin(g), "past-2^53", roots);
  EXPECT_GT(host_bottom_up_levels(g, roots), 0u);
}

TEST(KernelModel, HostBottomUpOnHbcgzMatchesTopDown) {
  const CSRGraph heap = graph::gen::family_by_name("kron").make(12, 1);
  const std::string path = testing::TempDir() + "kernels-wide-levels.hbcgz";
  graph::io::save_binary_v2(heap, path, /*compress=*/true);
  const CSRGraph mapped = graph::io::open_mapped(path);
  ASSERT_TRUE(graph::storage::is_compressed(mapped.residency()));
  expect_twin_bits(mapped, directed_twin(heap), "kron-12.hbcgz");
  EXPECT_GT(host_bottom_up_levels(mapped, pinned_config(mapped).roots), 0u);
}

}  // namespace
