// Cross-engine consistency sweep: on unstructured Erdős–Rényi controls
// (multiple seeds and densities, including disconnected regimes), every
// BC engine in the library — seven GPU-model kernels, two CPU engines,
// and the weighted engines under unit weights — must produce one answer.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>

#include "core/bc.hpp"
#include "cpu/brandes.hpp"
#include "cpu/weighted_brandes.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/storage/compressed.hpp"
#include "kernels/kernels.hpp"
#include "kernels/weighted.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;

struct SweepCase {
  std::uint64_t seed;
  std::uint32_t n;
  std::uint64_t m;
};

class ConsistencySweep : public testing::TestWithParam<SweepCase> {};

TEST_P(ConsistencySweep, AllEnginesAgree) {
  const auto& c = GetParam();
  const CSRGraph g =
      graph::gen::erdos_renyi({.num_vertices = c.n, .num_edges = c.m, .seed = c.seed});
  const auto oracle = cpu::brandes(g).bc;

  auto check = [&](const std::vector<double>& scores, const char* label) {
    ASSERT_EQ(scores.size(), oracle.size()) << label;
    for (std::size_t v = 0; v < oracle.size(); ++v) {
      EXPECT_NEAR(scores[v], oracle[v], 1e-8 * std::max(1.0, oracle[v]))
          << label << " vertex " << v;
    }
  };

  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.sampling.n_samps = 8;
  config.hybrid.alpha = 16;
  config.hybrid.beta = 16;
  for (const auto strategy :
       {kernels::Strategy::VertexParallel, kernels::Strategy::EdgeParallel,
        kernels::Strategy::GpuFan, kernels::Strategy::WorkEfficient,
        kernels::Strategy::Hybrid, kernels::Strategy::Sampling,
        kernels::Strategy::DirectionOptimized}) {
    check(kernels::run_strategy(strategy, g, config).bc, kernels::to_string(strategy));
  }

  kernels::RunConfig pred = config;
  pred.use_predecessor_bitmap = true;
  check(kernels::run_work_efficient(g, pred).bc, "we+pred-bitmap");

  check(cpu::brandes(g, {.sources = {}, .num_threads = 3}).bc, "cpu-parallel");

  const cpu::WeightArray unit(g.num_directed_edges(), 1.0);
  check(cpu::weighted_brandes(g, unit).bc, "dijkstra-unit");
  kernels::WeightedConfig wc;
  wc.base.device = gpusim::gtx_titan();
  wc.strategy = kernels::WeightedStrategy::BellmanFordEdgeParallel;
  check(kernels::run_weighted_bc(g, unit, wc).bc, "bellman-ford-unit");
  wc.strategy = kernels::WeightedStrategy::NearFarWorkEfficient;
  check(kernels::run_weighted_bc(g, unit, wc).bc, "near-far-unit");
}

std::vector<SweepCase> sweep_cases() {
  std::vector<SweepCase> cases;
  for (std::uint64_t seed : {11ull, 22ull, 33ull}) {
    cases.push_back({seed, 128, 192});    // sparse, disconnected
    cases.push_back({seed, 128, 512});    // connected, sparse
    cases.push_back({seed, 96, 1800});    // dense
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(ErControls, ConsistencySweep, testing::ValuesIn(sweep_cases()),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param.n) + "_m" +
                                  std::to_string(info.param.m) + "_s" +
                                  std::to_string(info.param.seed);
                         });

// ---------------------------------------------------------------------------
// Storage-backing sweep (docs/storage.md acceptance criterion): every
// strategy, at host thread counts {1, 2, 8}, must produce BITWISE-identical
// scores whether the graph lives on the heap, in an mmap'd .hbcg, or behind
// the varint-compressed adjacency (heap- or file-backed). memcmp, not
// EXPECT_NEAR: the backings preserve iteration order exactly, so the
// floating-point association is the same and the doubles must match to the
// last bit.

class StorageBackingSweep : public testing::TestWithParam<core::Strategy> {};

TEST_P(StorageBackingSweep, BitwiseIdenticalAcrossBackingsAndThreads) {
  const core::Strategy strategy = GetParam();
  const CSRGraph heap =
      graph::gen::erdos_renyi({.num_vertices = 128, .num_edges = 512, .seed = 77});

  // Unique per test process: with gtest_discover_tests each parameterized
  // instance is its own ctest entry, and a parallel ctest run would have
  // one instance truncate the file while another still computes from its
  // mapping of it (SIGBUS).
  const std::string stem =
      testing::TempDir() + "sweep-" + std::to_string(static_cast<int>(strategy));
  const std::string raw = stem + ".hbcg";
  const std::string comp = stem + ".hbcgz";
  graph::io::save_binary_v2(heap, raw, /*compress=*/false);
  graph::io::save_binary_v2(heap, comp, /*compress=*/true);

  struct Backing {
    const char* name;
    CSRGraph g;
  };
  const Backing backings[] = {
      {"mapped", graph::io::open_mapped(raw)},
      {"compressed-heap",
       CSRGraph(graph::storage::CompressedStorage::compress(
           heap.row_offsets(), heap.col_indices(), heap.undirected()))},
      {"compressed-mapped", graph::io::open_mapped(comp)},
  };

  for (const std::size_t threads : {1u, 2u, 8u}) {
    core::Options opt;
    opt.strategy = strategy;
    opt.cpu_threads = threads;
    const std::vector<double> base = core::compute(heap, opt).scores;
    for (const Backing& b : backings) {
      const std::vector<double> scores = core::compute(b.g, opt).scores;
      ASSERT_EQ(scores.size(), base.size()) << b.name;
      EXPECT_EQ(0, std::memcmp(scores.data(), base.data(),
                               base.size() * sizeof(double)))
          << b.name << " diverges from heap at threads=" << threads;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllStrategies, StorageBackingSweep,
    testing::Values(core::Strategy::CpuSerial, core::Strategy::CpuParallel,
                    core::Strategy::CpuFineGrained, core::Strategy::VertexParallel,
                    core::Strategy::EdgeParallel, core::Strategy::GpuFan,
                    core::Strategy::WorkEfficient, core::Strategy::Hybrid,
                    core::Strategy::Sampling, core::Strategy::DirectionOptimized),
    [](const auto& info) {
      std::string name = core::to_string(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
