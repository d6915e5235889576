// hbc::service tests: cache identity and eviction, in-flight coalescing,
// admission policies (block / reject / shed) and deadlines, the graph
// registry, latency metrics, and the supporting cache-key primitives.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "core/bc.hpp"
#include "graph/generators.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/service.hpp"
#include "util/stats.hpp"

namespace {

using namespace hbc;
using namespace hbc::service;

graph::CSRGraph test_graph(std::uint64_t seed = 1) {
  return graph::gen::small_world({.num_vertices = 256, .k = 3, .seed = seed});
}

core::Options exact_cpu_options() {
  core::Options o;
  o.strategy = core::Strategy::CpuSerial;
  return o;
}

/// Gate that lets a test hold every compute call until released, so
/// "concurrent identical requests" deterministically overlap.
struct ComputeGate {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  std::atomic<int> calls{0};

  void release() { set_open(true); }
  void close() { set_open(false); }

  /// Block until `n` compute calls have reached the gate.
  void wait_calls(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return calls.load() >= n; });
  }

  core::BCResult run(const graph::CSRGraph& g, const core::Options& o) {
    std::unique_lock<std::mutex> lock(mu);
    calls.fetch_add(1);
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
    lock.unlock();
    return core::compute(g, o);
  }

 private:
  void set_open(bool o) {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = o;
    }
    cv.notify_all();
  }
};

// ---------------------------------------------------------------------------
// Cache-key primitives.

TEST(ServiceCacheKey, FingerprintDistinguishesStructures) {
  const auto a = test_graph(1);
  const auto b = test_graph(2);
  EXPECT_EQ(graph_fingerprint(a), graph_fingerprint(test_graph(1)));
  EXPECT_NE(graph_fingerprint(a), graph_fingerprint(b));
}

TEST(ServiceCacheKey, OptionsSignatureCanonicalization) {
  core::Options a = exact_cpu_options();
  core::Options b = exact_cpu_options();
  EXPECT_EQ(core::options_signature(a), core::options_signature(b));

  b.sample_roots = 8;
  EXPECT_NE(core::options_signature(a), core::options_signature(b));

  // cpu_threads never changes a score, so it never changes the key.
  core::Options serial1 = exact_cpu_options(), serial2 = exact_cpu_options();
  serial1.cpu_threads = 1;
  serial2.cpu_threads = 4;
  EXPECT_EQ(core::options_signature(serial1), core::options_signature(serial2));
  serial1.strategy = serial2.strategy = core::Strategy::CpuParallel;
  EXPECT_EQ(core::options_signature(serial1), core::options_signature(serial2));

  // Root order deals roots onto simulated blocks (GPU-model metrics), so
  // it must change the key.
  core::Options r1 = exact_cpu_options(), r2 = exact_cpu_options();
  r1.roots = {1, 2, 3};
  r2.roots = {3, 2, 1};
  EXPECT_NE(core::options_signature(r1), core::options_signature(r2));
}

TEST(ServiceCacheKey, ShedDowngradeMakesRequestsApproximate) {
  core::Options exact = exact_cpu_options();
  const core::Options shed = shed_downgrade(exact, 32);
  EXPECT_EQ(shed.strategy, core::Strategy::Sampling);
  EXPECT_EQ(shed.sample_roots, 32u);
  EXPECT_TRUE(shed.roots.empty());

  // Already-cheaper requests are untouched.
  core::Options tiny = exact_cpu_options();
  tiny.sample_roots = 4;
  EXPECT_EQ(core::options_signature(shed_downgrade(tiny, 32)),
            core::options_signature(tiny));
}

// ---------------------------------------------------------------------------
// ResultCache.

std::shared_ptr<const CachedResult> make_entry(std::size_t score_count) {
  auto e = std::make_shared<CachedResult>();
  e->result.scores.assign(score_count, 1.0);
  e->bytes = estimate_result_bytes(e->result);
  return e;
}

TEST(ResultCacheTest, LruEvictionRespectsByteBudget) {
  // Each entry charges ~ sizeof(BCResult) + 100 doubles; budget fits 3.
  const std::size_t per_entry = estimate_result_bytes(make_entry(100)->result);
  ResultCache cache(3 * per_entry + per_entry / 2);

  cache.put("a", make_entry(100));
  cache.put("b", make_entry(100));
  cache.put("c", make_entry(100));
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_LE(cache.bytes(), cache.budget_bytes());

  ASSERT_TRUE(cache.get("a"));  // promote "a"; "b" is now LRU
  cache.put("d", make_entry(100));
  EXPECT_LE(cache.bytes(), cache.budget_bytes());
  EXPECT_EQ(cache.size(), 3u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.get("a"));
  EXPECT_FALSE(cache.get("b"));
  EXPECT_TRUE(cache.get("c"));
  EXPECT_TRUE(cache.get("d"));
}

TEST(ResultCacheTest, OversizedEntryIsNotCached) {
  ResultCache cache(64);  // smaller than any real entry
  cache.put("huge", make_entry(1000));
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.bytes(), 0u);
}

TEST(ResultCacheTest, EraseIfDropsByPredicate) {
  ResultCache cache(1 << 20);
  cache.put("aa|x", make_entry(10));
  cache.put("aa|y", make_entry(10));
  cache.put("bb|z", make_entry(10));
  EXPECT_EQ(cache.erase_if([](const std::string& k) { return k.rfind("aa|", 0) == 0; }),
            2u);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_TRUE(cache.get("bb|z"));
}

// ---------------------------------------------------------------------------
// Service: cache identity, coalescing, policies, registry, metrics.

TEST(BcServiceTest, CacheHitIsBitIdenticalToFreshCompute) {
  ServiceConfig cfg;
  cfg.workers = 2;
  BcService svc(cfg);
  const auto g = test_graph();
  svc.load_graph("g", g);

  Request req{.graph_id = "g", .options = exact_cpu_options(), .top_k = 5};
  const Response cold = svc.query(req);
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.from_cache);

  const Response warm = svc.query(req);
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.from_cache);

  const core::BCResult fresh = core::compute(g, req.options);
  ASSERT_EQ(warm.result->scores.size(), fresh.scores.size());
  for (std::size_t v = 0; v < fresh.scores.size(); ++v) {
    // Bitwise equality, not EXPECT_DOUBLE_EQ: the cache must return the
    // exact object a fresh deterministic compute produces.
    EXPECT_EQ(std::memcmp(&warm.result->scores[v], &fresh.scores[v], sizeof(double)), 0)
        << "score mismatch at vertex " << v;
  }
  EXPECT_EQ(warm.top.size(), 5u);
  EXPECT_EQ(warm.top, core::top_k(fresh.scores, 5));

  // Both service computations (1) and the fresh one hit the core counter;
  // the warm query must not have.
  EXPECT_GE(core::compute_invocations(), 2u);
}

TEST(BcServiceTest, CacheHitsAreBitIdenticalAcrossThreadCounts) {
  // GPU-model strategies thread through kernels::BlockDriver, but the
  // thread count never changes a bit of the result — so it is excluded
  // from the cache key and a hit computed at one thread count must serve
  // a request made at another, bit-for-bit.
  core::Options one = exact_cpu_options();
  one.strategy = core::Strategy::Hybrid;
  one.cpu_threads = 1;
  core::Options eight = one;
  eight.cpu_threads = 8;
  EXPECT_EQ(core::options_signature(one), core::options_signature(eight));

  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.compute_threads = 2;  // service's own per-request budget
  BcService svc(cfg);
  const auto g = test_graph();
  svc.load_graph("g", g);

  const auto invocations_before = core::compute_invocations();
  const Response cold = svc.query({.graph_id = "g", .options = one});
  ASSERT_TRUE(cold.ok());
  EXPECT_FALSE(cold.from_cache);

  const Response warm = svc.query({.graph_id = "g", .options = eight});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.from_cache);
  EXPECT_EQ(core::compute_invocations(), invocations_before + 1);

  // The cached scores match a fresh compute at BOTH thread counts.
  for (const core::Options& o : {one, eight}) {
    const core::BCResult fresh = core::compute(g, o);
    ASSERT_EQ(warm.result->scores.size(), fresh.scores.size());
    EXPECT_EQ(std::memcmp(warm.result->scores.data(), fresh.scores.data(),
                          fresh.scores.size() * sizeof(double)),
              0)
        << "cpu_threads=" << o.cpu_threads;
  }
}

TEST(BcServiceTest, IdenticalConcurrentRequestsCoalesceToOneCompute) {
  auto gate = std::make_shared<ComputeGate>();
  ServiceConfig cfg;
  cfg.workers = 2;
  cfg.compute_fn = [gate](const graph::CSRGraph& g, const core::Options& o) {
    return gate->run(g, o);
  };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  const Request req{.graph_id = "g", .options = exact_cpu_options()};
  constexpr int kTwins = 8;
  std::vector<Ticket> tickets;
  for (int i = 0; i < kTwins; ++i) tickets.push_back(svc.submit(req));
  // The leader is blocked inside compute_fn; everyone else must have
  // attached to it rather than queued behind it.
  int coalesced = 0;
  for (const auto& t : tickets) coalesced += t.coalesced ? 1 : 0;
  EXPECT_EQ(coalesced, kTwins - 1);

  gate->release();
  for (const auto& t : tickets) {
    const Response r = svc.wait(t);
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.result);
  }
  EXPECT_EQ(gate->calls.load(), 1);

  const MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.computed, 1u);
  EXPECT_EQ(m.coalesced, static_cast<std::uint64_t>(kTwins - 1));
}

TEST(BcService, OnCompleteFiresOncePerPublishedResponse) {
  auto gate = std::make_shared<ComputeGate>();
  auto completions = std::make_shared<std::atomic<int>>(0);
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.compute_fn = [gate](const graph::CSRGraph& g, const core::Options& o) {
    return gate->run(g, o);
  };
  cfg.on_complete = [completions] { completions->fetch_add(1); };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  // The hook runs just after the future turns ready, so a caller that
  // waited on the ticket can still observe the count one call short.
  auto completions_after_settling = [&](int expected) {
    const auto until = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (completions->load() < expected && std::chrono::steady_clock::now() < until) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return completions->load();
  };
  auto request_with_seed = [](std::uint64_t seed) {
    Request r{.graph_id = "g", .options = exact_cpu_options()};
    r.options.sample_roots = 16;
    r.options.seed = seed;
    return r;
  };

  // Three distinct misses: three published responses.
  std::vector<Ticket> misses;
  for (std::uint64_t s = 1; s <= 3; ++s) misses.push_back(svc.submit(request_with_seed(s)));
  gate->wait_calls(1);
  EXPECT_EQ(completions->load(), 0);
  gate->release();
  for (const Ticket& t : misses) ASSERT_TRUE(svc.wait(t).ok());
  EXPECT_EQ(completions_after_settling(3), 3);

  // A coalesced twin pair shares one entry, so one call for two tickets.
  gate->close();
  const Ticket leader = svc.submit(request_with_seed(4));
  const Ticket twin = svc.submit(request_with_seed(4));
  ASSERT_TRUE(twin.coalesced);
  gate->release();
  ASSERT_TRUE(svc.wait(leader).ok());
  ASSERT_TRUE(svc.wait(twin).ok());
  EXPECT_EQ(completions_after_settling(4), 4);

  // A cache hit is ready when submit returns: no call.
  const Ticket hit = svc.submit(request_with_seed(1));
  ASSERT_TRUE(hit.cache_hit);
  ASSERT_TRUE(svc.wait(hit).ok());
  EXPECT_EQ(completions->load(), 4);

  // stop() with one job computing and two queued: one call per entry.
  gate->close();
  std::vector<Ticket> abandoned;
  for (std::uint64_t s = 5; s <= 7; ++s) abandoned.push_back(svc.submit(request_with_seed(s)));
  gate->wait_calls(5);  // the three misses, the twin leader, then seed 5
  std::thread stopper([&] { svc.stop(); });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  gate->release();
  stopper.join();
  for (const Ticket& t : abandoned) {
    ASSERT_EQ(t.future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  }
  // stop() has joined every service thread: the count is final.
  EXPECT_EQ(completions->load(), 7);
}

TEST(BcServiceTest, RejectPolicyReturnsQueueFull) {
  auto gate = std::make_shared<ComputeGate>();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.admission = {.max_queue_depth = 2, .policy = AdmissionPolicy::Reject};
  cfg.compute_fn = [gate](const graph::CSRGraph& g, const core::Options& o) {
    return gate->run(g, o);
  };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  // Distinct requests (different seeds) so nothing coalesces. The worker
  // blocks on the first; the queue bound then caps the rest.
  auto request_with_seed = [](std::uint64_t seed) {
    Request r{.graph_id = "g", .options = exact_cpu_options()};
    r.options.sample_roots = 16;
    r.options.seed = seed;
    return r;
  };
  std::vector<Ticket> tickets;
  std::vector<Response> rejected;
  for (std::uint64_t s = 0; s < 8; ++s) {
    Ticket t = svc.submit(request_with_seed(s));
    if (t.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready &&
        svc.wait(t).status == QueryStatus::QueueFull) {
      rejected.push_back(svc.wait(t));
    } else {
      tickets.push_back(std::move(t));
    }
  }
  EXPECT_FALSE(rejected.empty());
  EXPECT_GE(svc.metrics().rejected_full, rejected.size());

  gate->release();
  for (const auto& t : tickets) EXPECT_TRUE(svc.wait(t).ok());
}

TEST(BcServiceTest, ShedPolicyDowngradesUnderLoad) {
  auto gate = std::make_shared<ComputeGate>();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.admission = {.max_queue_depth = 1,
                   .policy = AdmissionPolicy::Shed,
                   .shed_sample_roots = 8};
  cfg.compute_fn = [gate](const graph::CSRGraph& g, const core::Options& o) {
    return gate->run(g, o);
  };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  auto request_with_seed = [](std::uint64_t seed) {
    Request r{.graph_id = "g", .options = exact_cpu_options()};
    r.options.seed = seed;  // distinct exact requests
    return r;
  };
  std::vector<Ticket> tickets;
  for (std::uint64_t s = 0; s < 6; ++s) tickets.push_back(svc.submit(request_with_seed(s)));
  gate->release();

  bool any_shed = false;
  for (const auto& t : tickets) {
    const Response r = svc.wait(t);
    ASSERT_TRUE(r.ok()) << to_string(r.status);
    if (t.shed) {
      any_shed = true;
      EXPECT_TRUE(r.shed);
      // The shed computation really was the downgraded approximation.
      EXPECT_TRUE(r.result->approximate);
      EXPECT_EQ(r.result->strategy, core::Strategy::Sampling);
    }
  }
  EXPECT_TRUE(any_shed);
  EXPECT_GT(svc.metrics().shed, 0u);
}

TEST(BcServiceTest, DeadlineExpiresWhileQueued) {
  auto gate = std::make_shared<ComputeGate>();
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.compute_fn = [gate](const graph::CSRGraph& g, const core::Options& o) {
    return gate->run(g, o);
  };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  Request blocker{.graph_id = "g", .options = exact_cpu_options()};
  Ticket first = svc.submit(blocker);  // occupies the only worker

  Request hurried{.graph_id = "g", .options = exact_cpu_options()};
  hurried.options.seed = 99;
  hurried.options.sample_roots = 16;
  hurried.budget.deadline = std::chrono::milliseconds(30);
  Ticket doomed = svc.submit(hurried);

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  gate->release();

  EXPECT_TRUE(svc.wait(first).ok());
  EXPECT_EQ(svc.wait(doomed).status, QueryStatus::DeadlineExceeded);
  EXPECT_EQ(svc.metrics().deadline_dropped, 1u);
}

TEST(BcServiceTest, GraphRegistryLoadEvictAndUnknown) {
  ServiceConfig cfg;
  cfg.workers = 1;
  BcService svc(cfg);
  svc.load_graph("a", test_graph(1));
  svc.load_graph("b", test_graph(2));
  EXPECT_EQ(svc.graph_ids(), (std::vector<std::string>{"a", "b"}));
  ASSERT_TRUE(svc.graph("a"));

  Request req{.graph_id = "a", .options = exact_cpu_options()};
  ASSERT_TRUE(svc.query(req).ok());
  EXPECT_EQ(svc.metrics().cache_entries, 1u);

  EXPECT_TRUE(svc.evict_graph("a"));
  EXPECT_FALSE(svc.evict_graph("a"));
  EXPECT_EQ(svc.metrics().cache_entries, 0u);  // cached results dropped too

  EXPECT_EQ(svc.query(req).status, QueryStatus::GraphNotFound);
  Request unknown;
  unknown.graph_id = "nope";
  EXPECT_EQ(svc.query(unknown).status, QueryStatus::GraphNotFound);
}

TEST(BcServiceTest, StopIsIdempotentAndRefusesNewWork) {
  ServiceConfig cfg;
  cfg.workers = 1;
  BcService svc(cfg);
  svc.load_graph("g", test_graph());
  ASSERT_TRUE(svc.query({.graph_id = "g", .options = exact_cpu_options()}).ok());
  svc.stop();
  svc.stop();
  EXPECT_EQ(svc.query({.graph_id = "g", .options = exact_cpu_options()}).status,
            QueryStatus::ServiceStopped);
}

TEST(BcServiceTest, MixedWorkloadProducesMeaningfulMetrics) {
  ServiceConfig cfg;
  cfg.workers = 2;
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  // 4 distinct queries, then 12 repeats drawn from the same set -> ~75%
  // request-level hit rate once the cache is warm.
  std::vector<Request> distinct;
  for (std::uint64_t s = 0; s < 4; ++s) {
    Request r{.graph_id = "g", .options = exact_cpu_options()};
    r.options.sample_roots = 16;
    r.options.seed = s;
    distinct.push_back(r);
  }
  for (const auto& r : distinct) ASSERT_TRUE(svc.query(r).ok());
  for (int i = 0; i < 12; ++i) ASSERT_TRUE(svc.query(distinct[i % 4]).ok());

  const MetricsSnapshot m = svc.metrics();
  EXPECT_EQ(m.submitted, 16u);
  EXPECT_EQ(m.completed, 16u);
  EXPECT_EQ(m.computed, 4u);
  EXPECT_EQ(m.cache_hits, 12u);
  EXPECT_GT(m.cache_hit_rate(), 0.5);
  EXPECT_GT(m.latency_p50_ms, 0.0);
  EXPECT_GE(m.latency_p99_ms, m.latency_p50_ms);
  EXPECT_GT(m.qps, 0.0);

  const std::string report = svc.metrics_report();
  EXPECT_NE(report.find("hit_rate=75.0%"), std::string::npos) << report;
  EXPECT_NE(report.find("p99="), std::string::npos);
}

// ---------------------------------------------------------------------------
// Metrics primitives.

TEST(ServiceMetricsTest, HistogramQuantilesBracketTheData) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(static_cast<double>(i) * 0.1);  // 0.1..100ms
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.quantile(0.50);
  const double p99 = h.quantile(0.99);
  // Log-bucketed estimates: within one bucket ratio (~35%) of truth.
  EXPECT_NEAR(p50, 50.0, 20.0);
  EXPECT_NEAR(p99, 99.0, 35.0);
  EXPECT_LE(p50, p99);
  EXPECT_LE(h.quantile(1.0), h.max_ms() + 1e-9);
  EXPECT_GE(h.quantile(0.0), h.min_ms() - 1e-9);
}

TEST(ServiceMetricsTest, PercentileInterpolatesLinearly) {
  const std::vector<double> xs{10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(hbc::util::percentile(xs, 0), 10.0);
  EXPECT_DOUBLE_EQ(hbc::util::percentile(xs, 100), 40.0);
  EXPECT_DOUBLE_EQ(hbc::util::percentile(xs, 50), 25.0);
  EXPECT_DOUBLE_EQ(hbc::util::percentile({}, 50), 0.0);
}

}  // namespace
