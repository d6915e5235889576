// Every GPU-model kernel must reproduce serial Brandes exactly (up to
// floating-point association) on every graph class of the paper's
// evaluation. Parameterized across (generator family, scale, strategy).

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <string>
#include <span>
#include <tuple>

#include "cpu/brandes.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"
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

std::uint64_t digest(const kernels::RunResult& r) {
  Fnv1a f;
  f.u64(r.bc.size());
  f.bytes(r.bc.data(), r.bc.size() * sizeof(double));
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

// Recorded on the commit before the level primitives charged in closed
// form (every fault-free output of that implementation).
constexpr PinnedDigest kPinnedDigests[] = {
    {"kron", "vertex-parallel", 0xc32643ca81cce34full},
    {"kron", "edge-parallel", 0x9f6288390b82bfb4ull},
    {"kron", "gpu-fan", 0x860d597a2c8cb2bcull},
    {"kron", "work-efficient", 0xfac44c79875e26ceull},
    {"kron", "hybrid", 0xc2bbf0d519877d01ull},
    {"kron", "sampling", 0xbf6625f678a08211ull},
    {"kron", "direction-optimized", 0x7bbd137c3f9212a7ull},
    {"kron", "we-predecessor-bitmap", 0x03349cad480fb27aull},
    {"kron", "sampling-forced-ep", 0xbf6625f678a08211ull},
    {"road", "vertex-parallel", 0x4f2a4cecacb09a71ull},
    {"road", "edge-parallel", 0x0b7620e0caf45e8eull},
    {"road", "gpu-fan", 0xb377780e554a7be0ull},
    {"road", "work-efficient", 0xe6914a5c915ba49cull},
    {"road", "hybrid", 0x9fe2670a230356e8ull},
    {"road", "sampling", 0xda23218c7ba47cd1ull},
    {"road", "direction-optimized", 0xf5d049bd140f7776ull},
    {"road", "we-predecessor-bitmap", 0xc137ca03906c5d3bull},
    {"road", "sampling-forced-ep", 0x8f52e8c28bc371e9ull},
    {"smallworld", "vertex-parallel", 0x0d35fd5eaa106e2dull},
    {"smallworld", "edge-parallel", 0x5ae6f19a8c26c61full},
    {"smallworld", "gpu-fan", 0x7e20922dc29387b3ull},
    {"smallworld", "work-efficient", 0x20af82551541b405ull},
    {"smallworld", "hybrid", 0x3c376851c39ae570ull},
    {"smallworld", "sampling", 0x55460846b89702e3ull},
    {"smallworld", "direction-optimized", 0xa33ba9e2df4b90deull},
    {"smallworld", "we-predecessor-bitmap", 0xd470b856923866d9ull},
    {"smallworld", "sampling-forced-ep", 0x55460846b89702e3ull},
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
      std::uint64_t first = 0;
      for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
        v.config.cpu_threads = threads;
        const kernels::RunResult r = kernels::run_strategy(v.strategy, g, v.config);
        const std::uint64_t d = digest(r);
        if (threads == 1) first = d;
        EXPECT_EQ(d, first) << family << "/" << v.name << " threads=" << threads;
        EXPECT_EQ(d, pinned(kPinnedDigests, family, v.name))
            << family << "/" << v.name << " threads=" << threads << " digest 0x"
            << std::hex << d;
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

}  // namespace
