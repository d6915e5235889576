// Public facade: strategy dispatch, approximation scaling, normalization,
// top-k, and TEPS accounting.

#include <gtest/gtest.h>

#include <cstring>
#include <set>
#include <string>

#include "core/bc.hpp"
#include "core/report.hpp"
#include "core/teps.hpp"
#include "cpu/brandes.hpp"
#include "graph/builder.hpp"
#include "graph/generators.hpp"

namespace {

using namespace hbc;
using core::Options;
using core::Strategy;
using graph::CSRGraph;
using graph::VertexId;

TEST(Compute, AllStrategiesAgreeOnFigure1) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto oracle = cpu::brandes(g).bc;
  for (const auto strategy :
       {Strategy::CpuSerial, Strategy::CpuParallel, Strategy::VertexParallel,
        Strategy::EdgeParallel, Strategy::GpuFan, Strategy::WorkEfficient,
        Strategy::Hybrid, Strategy::Sampling, Strategy::DirectionOptimized}) {
    Options opt;
    opt.strategy = strategy;
    const auto r = core::compute(g, opt);
    ASSERT_EQ(r.scores.size(), oracle.size());
    for (std::size_t i = 0; i < oracle.size(); ++i) {
      EXPECT_NEAR(r.scores[i], oracle[i], 1e-9) << core::to_string(strategy);
    }
    EXPECT_EQ(r.roots_processed, g.num_vertices());
    EXPECT_FALSE(r.approximate);
    EXPECT_GT(r.teps, 0.0);
  }
}

TEST(Compute, HalveAndNormalizeOptions) {
  const CSRGraph g = graph::gen::figure1_graph();
  Options raw;
  raw.strategy = Strategy::CpuSerial;
  const auto base = core::compute(g, raw);

  Options halved = raw;
  halved.halve_undirected = true;
  const auto h = core::compute(g, halved);
  for (std::size_t i = 0; i < base.scores.size(); ++i) {
    EXPECT_DOUBLE_EQ(h.scores[i], base.scores[i] / 2.0);
  }

  Options norm = raw;
  norm.normalize = true;
  const auto n = core::compute(g, norm);
  const double denom = (9.0 - 1.0) * (9.0 - 2.0);
  for (std::size_t i = 0; i < base.scores.size(); ++i) {
    EXPECT_NEAR(n.scores[i], base.scores[i] / denom, 1e-12);
  }
}

TEST(Compute, ApproximationIsScaledAndUnbiasedOnAverage) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 400, .k = 4, .seed = 2});
  Options exact_opt;
  exact_opt.strategy = Strategy::CpuSerial;
  const auto exact = core::compute(g, exact_opt);

  Options opt;
  opt.strategy = Strategy::WorkEfficient;
  opt.sample_roots = 100;

  // Average the estimator over several seeds; it should approach exact.
  std::vector<double> avg(g.num_vertices(), 0.0);
  const int trials = 8;
  for (int t = 0; t < trials; ++t) {
    opt.seed = 1000 + t;
    const auto r = core::compute(g, opt);
    EXPECT_TRUE(r.approximate);
    EXPECT_EQ(r.roots_processed, 100u);
    for (std::size_t i = 0; i < avg.size(); ++i) avg[i] += r.scores[i] / trials;
  }
  double total_exact = 0, total_err = 0;
  for (std::size_t i = 0; i < avg.size(); ++i) {
    total_exact += exact.scores[i];
    total_err += std::abs(avg[i] - exact.scores[i]);
  }
  EXPECT_LT(total_err / total_exact, 0.25);
}

TEST(Compute, ExplicitRootsTakePrecedenceOverSampling) {
  const CSRGraph g = graph::gen::figure1_graph();
  Options opt;
  opt.strategy = Strategy::CpuSerial;
  opt.roots = {3};
  opt.sample_roots = 5;  // ignored because roots is set
  const auto r = core::compute(g, opt);
  EXPECT_EQ(r.roots_processed, 1u);
  // Explicit-root partial sums are NOT scaled.
  const auto partial = cpu::brandes(g, {.sources = {3}}).bc;
  for (std::size_t i = 0; i < partial.size(); ++i) {
    EXPECT_DOUBLE_EQ(r.scores[i], partial[i]);
  }
}

TEST(SampleRoots, DistinctAndInRange) {
  const auto roots = core::sample_roots(100, 30, 7);
  ASSERT_EQ(roots.size(), 30u);
  std::set<VertexId> unique(roots.begin(), roots.end());
  EXPECT_EQ(unique.size(), roots.size());
  for (auto r : roots) EXPECT_LT(r, 100u);
}

TEST(SampleRoots, ClampsToN) {
  EXPECT_EQ(core::sample_roots(5, 100, 1).size(), 5u);
}

TEST(SampleRoots, DeterministicInSeed) {
  EXPECT_EQ(core::sample_roots(1000, 10, 3), core::sample_roots(1000, 10, 3));
  EXPECT_NE(core::sample_roots(1000, 10, 3), core::sample_roots(1000, 10, 4));
}

TEST(TopK, OrdersByScoreThenId) {
  const std::vector<double> scores{1.0, 5.0, 5.0, 0.0, 3.0};
  const auto top = core::top_k(scores, 3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].first, 1u);  // tie with 2, smaller id first
  EXPECT_EQ(top[1].first, 2u);
  EXPECT_EQ(top[2].first, 4u);
}

TEST(TopK, KLargerThanNReturnsAll) {
  const std::vector<double> scores{1.0, 2.0};
  EXPECT_EQ(core::top_k(scores, 10).size(), 2u);
}

TEST(Normalized, TinyGraphsAreZero) {
  const auto out = core::normalized(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(out[0], 0.0);
  EXPECT_EQ(out[1], 0.0);
}

TEST(StrategyNames, RoundTrip) {
  for (const auto s : {Strategy::CpuSerial, Strategy::CpuParallel,
                       Strategy::VertexParallel, Strategy::EdgeParallel,
                       Strategy::GpuFan, Strategy::WorkEfficient, Strategy::Hybrid,
                       Strategy::Sampling, Strategy::DirectionOptimized}) {
    EXPECT_EQ(core::strategy_from_string(core::to_string(s)), s);
  }
  EXPECT_THROW(core::strategy_from_string("bogus"), std::invalid_argument);
  // Every alias spelling the doc comment promises.
  EXPECT_EQ(core::strategy_from_string("cpu"), Strategy::CpuSerial);
  EXPECT_EQ(core::strategy_from_string("cpu-fine"), Strategy::CpuParallel);
  EXPECT_EQ(core::strategy_from_string("vertex"), Strategy::VertexParallel);
  EXPECT_EQ(core::strategy_from_string("edge"), Strategy::EdgeParallel);
  EXPECT_EQ(core::strategy_from_string("gpufan"), Strategy::GpuFan);
  EXPECT_EQ(core::strategy_from_string("we"), Strategy::WorkEfficient);
  EXPECT_EQ(core::strategy_from_string("diropt"), Strategy::DirectionOptimized);
}

TEST(Teps, MatchesEquationFour) {
  const CSRGraph g = graph::gen::figure1_graph();  // m = 10, n = 9
  // Full run: TEPS = m*n/t.
  EXPECT_DOUBLE_EQ(core::teps_bc(g, 9, 2.0), 10.0 * 9 / 2.0);
  // Partial run extrapolates linearly in processed roots.
  EXPECT_DOUBLE_EQ(core::teps_bc(g, 3, 2.0), 10.0 * 3 / 2.0);
  EXPECT_EQ(core::teps_bc(g, 0, 2.0), 0.0);
  EXPECT_EQ(core::teps_bc(g, 9, 0.0), 0.0);
}

TEST(Teps, AdjustedScalesByConnectedFraction) {
  // 4 vertices, 1 isolated: adjustment factor 3/4 (§V.D's kron note).
  const CSRGraph g = graph::build_csr(4, std::vector<graph::Edge>{{0, 1}, {1, 2}});
  const double nominal = core::teps_bc(g, 4, 1.0);
  EXPECT_DOUBLE_EQ(core::teps_bc_adjusted(g, 4, 1.0), nominal * 0.75);
}

TEST(Teps, UnitHelpers) {
  EXPECT_DOUBLE_EQ(core::as_mteps(3.5e6), 3.5);
  EXPECT_DOUBLE_EQ(core::as_gteps(2.4e9), 2.4);
}

TEST(Compute, CpuParallelUsesRequestedThreads) {
  const CSRGraph g = graph::gen::scale_free({.num_vertices = 128, .attach = 2, .seed = 1});
  Options opt;
  opt.strategy = Strategy::CpuParallel;
  opt.cpu_threads = 3;
  const auto r = core::compute(g, opt);
  const auto oracle = cpu::brandes(g).bc;
  for (std::size_t i = 0; i < oracle.size(); ++i) {
    EXPECT_NEAR(r.scores[i], oracle[i], 1e-9);
  }
}

TEST(Compute, CpuStrategiesShareBits) {
  // One engine behind all three CPU strategies: threads split the roots
  // and add them in root order, so no strategy or thread count changes a
  // bit, on all roots or on a sampled subset.
  const CSRGraph g = graph::gen::small_world({.num_vertices = 300, .k = 3, .seed = 5});
  for (const std::uint32_t sample : {0u, 40u}) {
    SCOPED_TRACE(sample);
    Options base;
    base.strategy = Strategy::CpuSerial;
    base.sample_roots = sample;
    const auto want = core::compute(g, base);
    for (const auto strategy :
         {Strategy::CpuSerial, Strategy::CpuParallel}) {
      for (const std::size_t threads : {0u, 1u, 3u}) {
        SCOPED_TRACE(std::string(core::to_string(strategy)) + " threads " +
                     std::to_string(threads));
        Options opt = base;
        opt.strategy = strategy;
        opt.cpu_threads = threads;
        const auto got = core::compute(g, opt);
        ASSERT_EQ(got.scores.size(), want.scores.size());
        EXPECT_EQ(0, std::memcmp(got.scores.data(), want.scores.data(),
                                 want.scores.size() * sizeof(double)));
        EXPECT_EQ(got.roots_processed, want.roots_processed);
        Options other = opt;
        other.cpu_threads = 7;
        EXPECT_EQ(core::options_signature(opt), core::options_signature(other));
      }
    }
  }
}

TEST(Compute, KernelMetricsArePopulatedForGpuStrategies) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 256, .k = 3, .seed = 1});
  Options opt;
  opt.strategy = Strategy::Sampling;
  const auto r = core::compute(g, opt);
  EXPECT_GT(r.kernel_metrics.counters.edges_traversed, 0u);
  EXPECT_GT(r.kernel_metrics.elapsed_cycles, 0u);
  EXPECT_GT(r.time_seconds, 0.0);
}

TEST(Report, SummaryMentionsStrategyAndRoots) {
  const CSRGraph g = graph::gen::figure1_graph();
  Options opt;
  opt.strategy = Strategy::WorkEfficient;
  const auto r = core::compute(g, opt);
  const std::string s = core::format_summary(r);
  EXPECT_NE(s.find("work-efficient"), std::string::npos);
  EXPECT_NE(s.find("9 roots"), std::string::npos);
  EXPECT_NE(s.find("MTEPS"), std::string::npos);
}

TEST(Report, FullReportIncludesCountersForGpuModel) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 128, .k = 3, .seed = 1});
  Options opt;
  opt.strategy = Strategy::Sampling;
  const auto r = core::compute(g, opt);
  const std::string s = core::format_report(g, r, {.top_k = 3});
  EXPECT_NE(s.find("traversed"), std::string::npos);
  EXPECT_NE(s.find("device mem"), std::string::npos);
  EXPECT_NE(s.find("sampling   median depth"), std::string::npos);
  EXPECT_NE(s.find("top 3 vertices"), std::string::npos);
}

TEST(Report, CpuReportOmitsDeviceSections) {
  const CSRGraph g = graph::gen::figure1_graph();
  Options opt;
  opt.strategy = Strategy::CpuSerial;
  const auto r = core::compute(g, opt);
  const std::string s = core::format_report(g, r);
  EXPECT_EQ(s.find("device mem"), std::string::npos);
  EXPECT_NE(s.find("wall clock"), std::string::npos);
}

TEST(RootValidation, OutOfRangeRootThrows) {
  const CSRGraph g = graph::gen::figure1_graph();
  Options opt;
  opt.strategy = Strategy::CpuSerial;
  opt.roots = {0, g.num_vertices()};  // one past the end
  EXPECT_THROW(core::compute(g, opt), std::invalid_argument);
  opt.roots = {static_cast<VertexId>(g.num_vertices() + 100)};
  EXPECT_THROW(core::compute(g, opt), std::invalid_argument);
}

TEST(RootValidation, DuplicateRootThrows) {
  const CSRGraph g = graph::gen::figure1_graph();
  for (const Strategy s : {Strategy::CpuSerial, Strategy::WorkEfficient}) {
    Options opt;
    opt.strategy = s;
    opt.roots = {2, 5, 2};
    EXPECT_THROW(core::compute(g, opt), std::invalid_argument) << core::to_string(s);
  }
}

TEST(RootValidation, ValidSubsetStillComputes) {
  const CSRGraph g = graph::gen::figure1_graph();
  Options opt;
  opt.strategy = Strategy::WorkEfficient;
  opt.roots = {5, 0, 3};  // unordered but distinct and in range: fine
  const auto r = core::compute(g, opt);
  EXPECT_EQ(r.roots_processed, 3u);
  EXPECT_TRUE(r.approximate);
}

TEST(RootValidation, RejectionDoesNotCountAsInvocation) {
  const CSRGraph g = graph::gen::figure1_graph();
  const auto before = core::compute_invocations();
  Options opt;
  opt.roots = {0, 0};
  EXPECT_THROW(core::compute(g, opt), std::invalid_argument);
  EXPECT_EQ(core::compute_invocations(), before);
}

TEST(Strategy, UsesGpuModelPartition) {
  EXPECT_FALSE(core::uses_gpu_model(Strategy::CpuSerial));
  EXPECT_FALSE(core::uses_gpu_model(Strategy::CpuParallel));
  EXPECT_TRUE(core::uses_gpu_model(Strategy::VertexParallel));
  EXPECT_TRUE(core::uses_gpu_model(Strategy::WorkEfficient));
  EXPECT_TRUE(core::uses_gpu_model(Strategy::Hybrid));
  EXPECT_TRUE(core::uses_gpu_model(Strategy::Sampling));
  EXPECT_TRUE(core::uses_gpu_model(Strategy::DirectionOptimized));
}

TEST(Report, ApproximateFlagShown) {
  const CSRGraph g = graph::gen::small_world({.num_vertices = 128, .k = 3, .seed = 1});
  core::Options opt;
  opt.strategy = Strategy::WorkEfficient;
  opt.sample_roots = 16;
  const auto r = core::compute(g, opt);
  EXPECT_NE(core::format_summary(r).find("[approximate]"), std::string::npos);
  EXPECT_NE(core::format_report(g, r).find("(approximate)"), std::string::npos);
}

}  // namespace
