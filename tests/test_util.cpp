// Unit tests for util: RNG determinism/uniformity, statistics, prefix
// sums, bit vectors, and the thread pool.

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <vector>

#include "util/bitvector.hpp"
#include "util/prefix_sum.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace hbc::util;

TEST(Rng, SplitMixIsDeterministic) {
  SplitMix64 a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, XoshiroIsDeterministicPerSeed) {
  Xoshiro256 a(7), b(7), c(8);
  bool any_differ = false;
  for (int i = 0; i < 100; ++i) {
    const auto va = a.next();
    EXPECT_EQ(va, b.next());
    if (va != c.next()) any_differ = true;
  }
  EXPECT_TRUE(any_differ);
}

TEST(Rng, NextBelowStaysInRange) {
  Xoshiro256 rng(1);
  for (std::uint64_t bound : {1ull, 2ull, 3ull, 10ull, 1000ull, 1ull << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.next_below(bound), bound);
    }
  }
}

TEST(Rng, NextBelowIsRoughlyUniform) {
  Xoshiro256 rng(99);
  constexpr int kBuckets = 8;
  constexpr int kDraws = 80000;
  int counts[kBuckets] = {};
  for (int i = 0; i < kDraws; ++i) ++counts[rng.next_below(kBuckets)];
  for (int c : counts) {
    EXPECT_NEAR(c, kDraws / kBuckets, kDraws / kBuckets * 0.1);
  }
}

TEST(Rng, NextDoubleInUnitInterval) {
  Xoshiro256 rng(5);
  double sum = 0;
  for (int i = 0; i < 10000; ++i) {
    const double x = rng.next_double();
    ASSERT_GE(x, 0.0);
    ASSERT_LT(x, 1.0);
    sum += x;
  }
  EXPECT_NEAR(sum / 10000, 0.5, 0.02);
}

TEST(Rng, SplitProducesIndependentStream) {
  Xoshiro256 a(11);
  Xoshiro256 b = a.split();
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 3);
}

TEST(Stats, MeanVarianceStddev) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  EXPECT_DOUBLE_EQ(mean(xs), 5.0);
  EXPECT_DOUBLE_EQ(variance(xs), 4.0);
  EXPECT_DOUBLE_EQ(stddev(xs), 2.0);
}

TEST(Stats, EmptyInputsAreZero) {
  EXPECT_EQ(mean({}), 0.0);
  EXPECT_EQ(variance({}), 0.0);
  EXPECT_EQ(median({}), 0.0);
  EXPECT_EQ(median_lower({}), 0.0);
  EXPECT_EQ(pearson({}, {}), 0.0);
  EXPECT_EQ(geometric_mean({}), 0.0);
}

TEST(Stats, MedianLowerMatchesPaperConvention) {
  // Algorithm 5 takes keys[n_samps/2] of the sorted array.
  EXPECT_DOUBLE_EQ(median_lower({5, 1, 3}), 3.0);
  EXPECT_DOUBLE_EQ(median_lower({4, 1, 3, 2}), 3.0);  // index 2 of {1,2,3,4}
  EXPECT_DOUBLE_EQ(median_lower({9}), 9.0);
}

TEST(Stats, MedianAveragesMiddlePair) {
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({5, 1, 3}), 3.0);
}

TEST(Stats, PearsonPerfectCorrelation) {
  const std::vector<double> xs{1, 2, 3, 4, 5};
  const std::vector<double> ys{2, 4, 6, 8, 10};
  EXPECT_NEAR(pearson(xs, ys), 1.0, 1e-12);
  std::vector<double> neg(ys.rbegin(), ys.rend());
  EXPECT_NEAR(pearson(xs, neg), -1.0, 1e-12);
}

TEST(Stats, PearsonConstantSeriesIsZero) {
  const std::vector<double> xs{1, 2, 3};
  const std::vector<double> ys{5, 5, 5};
  EXPECT_EQ(pearson(xs, ys), 0.0);
}

TEST(Stats, GeometricMean) {
  EXPECT_NEAR(geometric_mean(std::vector<double>{1, 4}), 2.0, 1e-12);
  EXPECT_NEAR(geometric_mean(std::vector<double>{2, 2, 2}), 2.0, 1e-12);
  EXPECT_EQ(geometric_mean(std::vector<double>{1, 0}), 0.0);
}

TEST(Stats, RunningStatsMatchesBatch) {
  const std::vector<double> xs{2, 4, 4, 4, 5, 5, 7, 9};
  RunningStats rs;
  for (double x : xs) rs.add(x);
  EXPECT_EQ(rs.count(), xs.size());
  EXPECT_NEAR(rs.mean(), mean(xs), 1e-12);
  EXPECT_NEAR(rs.variance(), variance(xs), 1e-12);
  EXPECT_DOUBLE_EQ(rs.min(), 2.0);
  EXPECT_DOUBLE_EQ(rs.max(), 9.0);
}

TEST(PrefixSum, ExclusiveScanInPlace) {
  std::vector<int> xs{3, 1, 4, 1, 5};
  const int total = exclusive_scan_inplace(std::span<int>(xs));
  EXPECT_EQ(total, 14);
  EXPECT_EQ(xs, (std::vector<int>{0, 3, 4, 8, 9}));
}

TEST(PrefixSum, OffsetsFromCounts) {
  const std::vector<std::uint64_t> counts{2, 0, 3};
  const auto offsets = offsets_from_counts(std::span<const std::uint64_t>(counts));
  EXPECT_EQ(offsets, (std::vector<std::uint64_t>{0, 2, 2, 5}));
}

TEST(PrefixSum, InclusiveScanInPlace) {
  std::vector<int> xs{1, 2, 3};
  EXPECT_EQ(inclusive_scan_inplace(std::span<int>(xs)), 6);
  EXPECT_EQ(xs, (std::vector<int>{1, 3, 6}));
}

TEST(BitVector, SetTestClear) {
  BitVector bv(130);
  EXPECT_EQ(bv.size(), 130u);
  EXPECT_EQ(bv.count(), 0u);
  bv.set(0);
  bv.set(64);
  bv.set(129);
  EXPECT_TRUE(bv.test(0));
  EXPECT_TRUE(bv.test(64));
  EXPECT_TRUE(bv.test(129));
  EXPECT_FALSE(bv.test(1));
  EXPECT_EQ(bv.count(), 3u);
  bv.clear(64);
  EXPECT_FALSE(bv.test(64));
  EXPECT_EQ(bv.count(), 2u);
}

TEST(BitVector, AssignAllTrueTrimsTail) {
  BitVector bv(70, true);
  EXPECT_EQ(bv.count(), 70u);
  bv.reset();
  EXPECT_EQ(bv.count(), 0u);
}

TEST(BitVector, RangeWalkAndResetMatchPerBitLoops) {
  // Ranges that start, end and sit inside word boundaries, against the
  // per-bit test()/clear() loops they replace.
  Xoshiro256 rng(5);
  BitVector bv(300);
  for (std::size_t i = 0; i < 300; ++i) {
    if (rng.next_below(3) == 0) bv.set(i);
  }
  const std::pair<std::size_t, std::size_t> ranges[] = {
      {0, 0}, {0, 1}, {0, 64}, {63, 65}, {64, 128}, {5, 9}, {70, 250}, {1, 300}, {299, 300}};
  for (const auto& [begin, end] : ranges) {
    std::vector<std::size_t> expected;
    for (std::size_t i = begin; i < end; ++i) {
      if (bv.test(i)) expected.push_back(i);
    }
    std::vector<std::size_t> walked;
    bv.for_each_set(begin, end, [&](std::size_t i) { walked.push_back(i); });
    EXPECT_EQ(walked, expected) << begin << ".." << end;

    BitVector cleared = bv;
    BitVector reference = bv;
    cleared.reset_range(begin, end);
    for (std::size_t i = begin; i < end; ++i) reference.clear(i);
    for (std::size_t i = 0; i < 300; ++i) {
      EXPECT_EQ(cleared.test(i), reference.test(i)) << begin << ".." << end << " bit " << i;
    }
  }
}

TEST(BitVector, ByteSizeIsWordGranular) {
  EXPECT_EQ(BitVector(1).byte_size(), 8u);
  EXPECT_EQ(BitVector(64).byte_size(), 8u);
  EXPECT_EQ(BitVector(65).byte_size(), 16u);
}

TEST(ThreadPool, ParallelForCoversAllIndices) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  pool.parallel_for(1000, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SingleThreadDegradesToInline) {
  ThreadPool pool(1);
  int sum = 0;
  pool.parallel_for(100, [&](std::size_t i) { sum += static_cast<int>(i); });
  EXPECT_EQ(sum, 4950);
}

TEST(ThreadPool, WaitIdleWithNoTasksReturns) {
  ThreadPool pool(2);
  pool.wait_idle();  // must not hang
  SUCCEED();
}

// Service-style usage: worker tasks themselves submit follow-up work (the
// coalescing path re-enqueues twins from inside a running job).
TEST(ThreadPool, SubmitFromInsideRunningTask) {
  ThreadPool pool(2);
  std::atomic<int> ran{0};
  pool.submit([&] {
    ran.fetch_add(1);
    pool.submit([&] { ran.fetch_add(1); });
  });
  pool.wait_idle();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ThreadPool, ParallelForEmptyAndSingleton) {
  ThreadPool pool(2);
  int calls = 0;
  pool.parallel_for(0, [&](std::size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  std::size_t seen = 99;
  pool.parallel_for(1, [&](std::size_t i) { seen = i; });
  EXPECT_EQ(seen, 0u);
}

TEST(ThreadPool, WaitIdleRacesNewSubmissions) {
  ThreadPool pool(2);
  std::atomic<int> done{0};
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 8; ++i) {
      pool.submit([&done] { done.fetch_add(1); });
    }
    pool.wait_idle();  // must observe everything submitted before this call
    EXPECT_GE(done.load(), (round + 1) * 8);
  }
  pool.wait_idle();
  EXPECT_EQ(done.load(), 160);
}

}  // namespace

// --- util::Backoff: the shared fleet retry-delay policy -------------------

#include "util/backoff.hpp"

namespace {

using hbc::util::Backoff;
using hbc::util::BackoffConfig;

TEST(Backoff, SameSeedSleepsTheSameSchedule) {
  BackoffConfig cfg;
  cfg.initial = std::chrono::milliseconds(10);
  cfg.max = std::chrono::milliseconds(500);
  cfg.seed = 42;
  Backoff a(cfg), b(cfg);
  for (int i = 0; i < 12; ++i) {
    EXPECT_EQ(a.next().count(), b.next().count()) << "attempt " << i;
  }
}

TEST(Backoff, DifferentSeedsDesynchronize) {
  BackoffConfig cfg;
  cfg.initial = std::chrono::milliseconds(100);
  cfg.max = std::chrono::milliseconds(100000);
  cfg.jitter = 0.5;
  cfg.seed = 1;
  Backoff a(cfg);
  cfg.seed = 2;
  Backoff b(cfg);
  int diverged = 0;
  for (int i = 0; i < 12; ++i) {
    if (a.next().count() != b.next().count()) ++diverged;
  }
  EXPECT_GT(diverged, 6);
}

TEST(Backoff, GrowsExponentiallyAndSaturatesAtMax) {
  BackoffConfig cfg;
  cfg.initial = std::chrono::milliseconds(10);
  cfg.max = std::chrono::milliseconds(200);
  cfg.multiplier = 2.0;
  cfg.jitter = 0.0;
  Backoff backoff(cfg);
  EXPECT_EQ(backoff.next().count(), 10);
  EXPECT_EQ(backoff.next().count(), 20);
  EXPECT_EQ(backoff.next().count(), 40);
  EXPECT_EQ(backoff.next().count(), 80);
  EXPECT_EQ(backoff.next().count(), 160);
  EXPECT_EQ(backoff.next().count(), 200);  // clamped
  EXPECT_EQ(backoff.next().count(), 200);  // stays clamped
  EXPECT_EQ(backoff.attempts(), 7u);
}

TEST(Backoff, JitterStaysWithinConfiguredBand) {
  BackoffConfig cfg;
  cfg.initial = std::chrono::milliseconds(1000);
  cfg.max = std::chrono::milliseconds(1000000);
  cfg.multiplier = 1.0;  // isolate the jitter term
  cfg.jitter = 0.25;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    cfg.seed = seed;
    Backoff backoff(cfg);
    for (int i = 0; i < 8; ++i) {
      const auto d = backoff.next().count();
      EXPECT_GE(d, 750) << "seed " << seed;
      EXPECT_LE(d, 1250) << "seed " << seed;
    }
  }
}

TEST(Backoff, PeekDoesNotConsumeAndResetRestarts) {
  BackoffConfig cfg;
  cfg.initial = std::chrono::milliseconds(10);
  cfg.jitter = 0.0;
  Backoff backoff(cfg);
  EXPECT_EQ(backoff.peek().count(), 10);
  EXPECT_EQ(backoff.attempts(), 0u);
  const auto first = backoff.next();
  backoff.next();
  EXPECT_EQ(backoff.attempts(), 2u);
  backoff.reset();
  EXPECT_EQ(backoff.attempts(), 0u);
  EXPECT_EQ(backoff.next().count(), first.count());
}

TEST(Backoff, HostileConfigIsSanitized) {
  BackoffConfig cfg;
  cfg.initial = std::chrono::milliseconds(100);
  cfg.max = std::chrono::milliseconds(10);  // max < initial
  cfg.multiplier = 0.25;                    // < 1
  cfg.jitter = 5.0;                         // >= 1
  Backoff backoff(cfg);
  for (int i = 0; i < 6; ++i) {
    const auto d = backoff.next().count();
    EXPECT_GE(d, 0);
    EXPECT_LE(d, 100);  // never above the (raised) cap
  }
}

}  // namespace
