// Accuracy-contract serving (docs/serving.md § Accuracy contracts):
// budget activation, the refinable upgrade path's bitwise identity with
// from-scratch runs (foreground and background), cached-estimate reuse,
// monotone reported error, mutation invalidation (including the
// never-resurrect rule for background refinement), and the degraded-
// never-cached rule on the progressive path.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "core/approx.hpp"
#include "core/bc.hpp"
#include "dyn/versioned_graph.hpp"
#include "gpusim/faults.hpp"
#include "graph/generators.hpp"
#include "service/progressive.hpp"
#include "service/service.hpp"

namespace {

using namespace hbc;
using namespace hbc::service;

graph::CSRGraph test_graph(std::uint64_t seed = 7) {
  return graph::gen::small_world({.num_vertices = 1024, .k = 3, .seed = seed});
}

core::Options gpu_options() {
  core::Options o;
  o.strategy = core::Strategy::WorkEfficient;
  return o;
}

Request budgeted_request(std::uint32_t max_roots, bool refine = false) {
  Request r;
  r.graph_id = "g";
  r.options = gpu_options();
  r.budget.max_roots = max_roots;
  r.budget.allow_refinement = refine;
  return r;
}

// ---------------------------------------------------------------------------
// The budget type and cache-key primitives.

TEST(QueryBudgetTest, DefaultIsInactiveAndTargetsActivate) {
  QueryBudget b;
  EXPECT_FALSE(b.active());
  b.accuracy_target = 0.05;
  EXPECT_TRUE(b.active());
  b = QueryBudget{};
  b.max_roots = 256;
  EXPECT_TRUE(b.active());
  // A pure deadline does not switch paths: the query stays exact.
  b = QueryBudget{};
  b.deadline = std::chrono::milliseconds(50);
  EXPECT_FALSE(b.active());
}

TEST(QueryBudgetTest, ApproxSignatureNeverAliasesExactSignatures) {
  const core::Options o = gpu_options();
  const core::StratumPlan plan;
  const std::string approx = core::approx_signature(o, plan);
  EXPECT_NE(approx, core::options_signature(o));
  EXPECT_NE(approx.find(";stratified="), std::string::npos);

  // Plan geometry is part of the key: different stripes never alias.
  core::StratumPlan wide = plan;
  wide.stripe_roots = 256;
  EXPECT_NE(core::approx_signature(o, wide), approx);

  // Root selection is owned by the budget, so the rung does not leak into
  // the key — every contract refines the same entry.
  core::Options sampled = o;
  sampled.sample_roots = 512;
  EXPECT_EQ(core::approx_signature(sampled, plan), approx);
}

TEST(QueryBudgetTest, BudgetSuffixSeparatesContracts) {
  QueryBudget a, b;
  a.max_roots = 256;
  b.max_roots = 512;
  EXPECT_NE(budget_suffix(a), budget_suffix(b));
  b.max_roots = 256;
  b.allow_refinement = true;
  EXPECT_NE(budget_suffix(a), budget_suffix(b));
}

// ---------------------------------------------------------------------------
// The deprecated shim: exact callers see identical behaviour and bytes.

TEST(ProgressiveService, ExactQueriesCarryNoEstimateAndStillCache) {
  BcService svc({.workers = 2});
  svc.load_graph("g", test_graph());
  Request req;
  req.graph_id = "g";
  req.options = gpu_options();

  const Response first = svc.query(req);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.estimate.has_value());
  const Response second = svc.query(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.from_cache);
  EXPECT_FALSE(second.estimate.has_value());
}

TEST(ProgressiveService, BudgetedQueryRejectsExplicitRoots) {
  BcService svc({.workers = 1});
  svc.load_graph("g", test_graph());
  Request req = budgeted_request(256);
  req.options.roots = {1, 2, 3};
  const Response r = svc.query(req);
  EXPECT_EQ(r.status, QueryStatus::BadRequest);
}

// ---------------------------------------------------------------------------
// The tentpole: upgrading a cached estimate in place is bitwise-identical
// to computing the larger sample from scratch, at every thread count.

TEST(ProgressiveService, UpgradeIsBitwiseIdenticalToFreshRunAcrossThreads) {
  const graph::CSRGraph g = test_graph();
  std::vector<double> golden512;

  for (const std::size_t workers : {std::size_t{1}, std::size_t{2}, std::size_t{8}}) {
    // Service A answers 256 roots, then upgrades the SAME cache entry.
    BcService a({.workers = workers, .compute_threads = workers});
    a.load_graph("g", g);
    const Response r256 = a.query(budgeted_request(256));
    ASSERT_TRUE(r256.ok());
    ASSERT_TRUE(r256.estimate.has_value());
    EXPECT_EQ(r256.estimate->roots_used, 256u);
    EXPECT_EQ(a.metrics().approx_strata, 2u);

    const Response up = a.query(budgeted_request(512));
    ASSERT_TRUE(up.ok());
    EXPECT_EQ(up.estimate->roots_used, 512u);
    // Only the additional strata were computed: 2 more, not 4.
    EXPECT_EQ(a.metrics().approx_strata, 4u);
    EXPECT_GE(up.estimate->rung, 1u);

    // Service B computes 512 roots from scratch.
    BcService b({.workers = workers, .compute_threads = workers});
    b.load_graph("g", g);
    const Response fresh = b.query(budgeted_request(512));
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(b.metrics().approx_strata, 4u);

    ASSERT_EQ(up.result->scores.size(), fresh.result->scores.size());
    EXPECT_EQ(std::memcmp(up.result->scores.data(), fresh.result->scores.data(),
                          up.result->scores.size() * sizeof(double)),
              0)
        << "upgraded 512-root estimate diverged at workers=" << workers;

    if (golden512.empty()) {
      golden512 = fresh.result->scores;
    } else {
      // And the bits agree across thread counts too.
      EXPECT_EQ(std::memcmp(golden512.data(), fresh.result->scores.data(),
                            golden512.size() * sizeof(double)),
                0)
          << "thread count changed the bits at workers=" << workers;
    }
  }
}

TEST(ProgressiveService, BackgroundRefinementIsBitwiseIdenticalToFreshRun) {
  const graph::CSRGraph g = test_graph();
  BcService svc({.workers = 2});
  svc.load_graph("g", g);
  // Answered at rung 0; the other four strata of the contract refine in
  // the background.
  const Response first = svc.query(budgeted_request(768, /*refine=*/true));
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.estimate.has_value());
  EXPECT_EQ(first.estimate->roots_used, 256u);
  svc.drain_refinement();

  const Response refined = svc.query(budgeted_request(768, /*refine=*/true));
  ASSERT_TRUE(refined.ok());
  EXPECT_TRUE(refined.from_cache);
  EXPECT_EQ(refined.estimate->roots_used, 768u);

  BcService b({.workers = 2});
  b.load_graph("g", g);
  const Response fresh = b.query(budgeted_request(768));
  ASSERT_TRUE(fresh.ok());
  ASSERT_EQ(refined.result->scores.size(), fresh.result->scores.size());
  EXPECT_EQ(std::memcmp(refined.result->scores.data(), fresh.result->scores.data(),
                        fresh.result->scores.size() * sizeof(double)),
            0);
}

TEST(ProgressiveService, CachedEstimateIsServedWithoutRecompute) {
  BcService svc({.workers = 2});
  svc.load_graph("g", test_graph());
  const Response first = svc.query(budgeted_request(256));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.from_cache);
  const std::uint64_t strata = svc.metrics().approx_strata;

  const Response again = svc.query(budgeted_request(256));
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.from_cache);
  EXPECT_EQ(svc.metrics().approx_strata, strata);
  EXPECT_EQ(again.estimate->roots_used, 256u);
  EXPECT_EQ(std::memcmp(first.result->scores.data(), again.result->scores.data(),
                        first.result->scores.size() * sizeof(double)),
            0);
}

TEST(ProgressiveService, ReportedErrorIsMonotoneAndSaturationIsExact) {
  BcService svc({.workers = 2});
  const graph::CSRGraph g = test_graph();
  svc.load_graph("g", g);

  double last = std::numeric_limits<double>::infinity();
  for (const std::uint32_t roots : {256u, 512u, 1024u}) {
    const Response r = svc.query(budgeted_request(roots));
    ASSERT_TRUE(r.ok());
    ASSERT_TRUE(r.estimate.has_value());
    EXPECT_LE(r.estimate->stderr_est, last)
        << "reported error regressed at " << roots << " roots";
    last = r.estimate->stderr_est;
  }
  // 1024 roots on a 1024-vertex graph saturates: the estimate is exact.
  const Response full = svc.query(budgeted_request(1024));
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.estimate->stderr_est, 0.0);
  EXPECT_FALSE(full.result->approximate);
  EXPECT_EQ(full.result->roots_processed, g.num_vertices());
}

// ---------------------------------------------------------------------------
// Invalidation: mutation flags entries, and background refinement drops
// flagged entries instead of resurrecting them.

TEST(ProgressiveService, MutationInvalidatesAndRefinementNeverResurrects) {
  // Gate every compute call past the foreground rung: the background
  // refinement's first stratum blocks here, guaranteeing the mutation
  // lands while the refinement job is still alive.
  struct Gate {
    std::mutex mu;
    std::condition_variable cv;
    bool open = false;
    std::atomic<int> calls{0};
  };
  auto gate = std::make_shared<Gate>();

  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.compute_fn = [gate](const graph::CSRGraph& g, const core::Options& o) {
    if (gate->calls.fetch_add(1) >= 2) {
      std::unique_lock<std::mutex> lock(gate->mu);
      gate->cv.wait(lock, [&] { return gate->open; });
    }
    return core::compute(g, o);
  };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  // An unreachable accuracy target with refinement allowed: the service
  // answers at rung 0 and queues background work toward the contract.
  Request req = budgeted_request(0, /*refine=*/true);
  req.budget.accuracy_target = 1e-12;
  req.budget.max_roots = 512;
  const Response r = svc.query(req);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.estimate.has_value());
  EXPECT_TRUE(r.estimate->refining);
  EXPECT_EQ(r.estimate->roots_used, 256u);

  const MutationResult mr = svc.mutate_graph("g", dyn::UpdateBatch{}.insert(0, 500));
  EXPECT_GE(mr.approx_invalidated, 1u);

  {
    std::lock_guard<std::mutex> lock(gate->mu);
    gate->open = true;
  }
  gate->cv.notify_all();
  svc.drain_refinement();
  EXPECT_EQ(svc.metrics().refine_dropped, 1u);
  EXPECT_EQ(svc.metrics().refine_rungs, 0u);
  // The stratum that was running when the mutation landed is dropped too:
  // no background stratum folds into the invalidated estimate.
  EXPECT_EQ(svc.metrics().refine_strata, 0u);

  // The invalidated estimate must never be served again: the same
  // contract on the mutated graph computes a fresh rung 0.
  Request fresh = budgeted_request(256);
  const Response after = svc.query(fresh);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.from_cache);
  EXPECT_EQ(after.estimate->roots_used, 256u);
}

TEST(ProgressiveService, EvictGraphInvalidatesEstimates) {
  const graph::CSRGraph g = test_graph();
  BcService svc({.workers = 1});
  svc.load_graph("g", g);
  ASSERT_TRUE(svc.query(budgeted_request(256)).ok());
  ASSERT_GE(svc.metrics().approx_entries, 1u);

  svc.evict_graph("g");
  // Reloading the SAME structure (same fingerprint) must not revive the
  // unlinked estimate: the next budgeted query recomputes.
  svc.load_graph("g", g);
  const Response r = svc.query(budgeted_request(256));
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.from_cache);
}

// ---------------------------------------------------------------------------
// Resilience: a degraded substitute answer is served but never cached.

TEST(ProgressiveService, DegradedProgressiveAnswersAreNeverCached) {
  // The requested GPU-model engine fails persistently (strata AND the
  // ladder's retry of the original request), so the resilience ladder's
  // CPU-exact substitute answers — degraded, and never cached.
  std::atomic<int> stratum_attempts{0};
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.compute_fn = [&](const graph::CSRGraph& g, const core::Options& o) {
    if (o.strategy == core::Strategy::WorkEfficient) {
      if (!o.roots.empty()) stratum_attempts.fetch_add(1);
      throw gpusim::DeviceFault(gpusim::FaultKind::EccError,
                                gpusim::DeviceFault::kNoRoot, 0,
                                /*transient=*/false);
    }
    return core::compute(g, o);
  };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  const Response first = svc.query(budgeted_request(256));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first.degraded);
  ASSERT_TRUE(first.estimate.has_value());

  const int attempts_after_first = stratum_attempts.load();
  EXPECT_GT(attempts_after_first, 0);

  // Identical request: the degraded answer must NOT have been cached in
  // either cache — the service tries the strata again.
  const Response second = svc.query(budgeted_request(256));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.degraded);
  EXPECT_FALSE(second.from_cache);
  EXPECT_GT(stratum_attempts.load(), attempts_after_first);
}

// ---------------------------------------------------------------------------
// The budgeted submit path: coalescing, admission and lifecycle flags.

/// Holds every compute call until released, counting the calls that
/// reached it.
struct ComputeLatch {
  std::mutex mu;
  std::condition_variable cv;
  bool open = false;
  int calls = 0;

  void release() {
    {
      std::lock_guard<std::mutex> lock(mu);
      open = true;
    }
    cv.notify_all();
  }
  void wait_calls(int n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return calls >= n; });
  }
  core::BCResult run(const graph::CSRGraph& g, const core::Options& o) {
    std::unique_lock<std::mutex> lock(mu);
    ++calls;
    cv.notify_all();
    cv.wait(lock, [this] { return open; });
    lock.unlock();
    return core::compute(g, o);
  }
};

ServiceConfig latched_config(const std::shared_ptr<ComputeLatch>& latch) {
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.compute_fn = [latch](const graph::CSRGraph& g, const core::Options& o) {
    return latch->run(g, o);
  };
  return cfg;
}

TEST(ProgressiveService, ContractTwinsCoalesceIntoOneCompute) {
  auto latch = std::make_shared<ComputeLatch>();
  BcService svc(latched_config(latch));
  svc.load_graph("g", test_graph());

  const Ticket leader = svc.submit(budgeted_request(256));
  const Ticket twin = svc.submit(budgeted_request(256));
  EXPECT_FALSE(leader.coalesced);
  EXPECT_TRUE(twin.coalesced);
  latch->release();

  const Response a = svc.wait(leader);
  const Response b = svc.wait(twin);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_TRUE(b.coalesced);
  EXPECT_EQ(a.estimate->roots_used, 256u);
  EXPECT_EQ(b.estimate->roots_used, 256u);
  EXPECT_EQ(a.result.get(), b.result.get());  // one leader's answer, shared
  EXPECT_EQ(svc.metrics().coalesced, 1u);
  EXPECT_EQ(svc.metrics().approx_strata, 2u);  // rung 0 computed once
}

TEST(ProgressiveService, DifferentContractsOnOneEntryDoNotCoalesce) {
  auto latch = std::make_shared<ComputeLatch>();
  BcService svc(latched_config(latch));
  svc.load_graph("g", test_graph());

  const Ticket t256 = svc.submit(budgeted_request(256));
  const Ticket t512 = svc.submit(budgeted_request(512));
  EXPECT_FALSE(t256.coalesced);
  EXPECT_FALSE(t512.coalesced);
  latch->release();

  const Response r256 = svc.wait(t256);
  const Response r512 = svc.wait(t512);
  ASSERT_TRUE(r256.ok() && r512.ok());
  EXPECT_EQ(r256.estimate->roots_used, 256u);
  EXPECT_EQ(r512.estimate->roots_used, 512u);
  EXPECT_EQ(svc.metrics().coalesced, 0u);
}

TEST(ProgressiveService, BudgetedRejectOnFullQueueIsQueueFull) {
  auto latch = std::make_shared<ComputeLatch>();
  ServiceConfig cfg = latched_config(latch);
  cfg.admission = {.max_queue_depth = 1, .policy = AdmissionPolicy::Reject};
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  // Distinct seeds: distinct estimates, so nothing coalesces.
  auto seeded = [](std::uint64_t seed) {
    Request r = budgeted_request(256);
    r.options.seed = seed;
    return r;
  };
  const Ticket running = svc.submit(seeded(1));
  latch->wait_calls(1);  // the worker holds it; the queue is empty again
  const Ticket queued = svc.submit(seeded(2));
  const Ticket rejected = svc.submit(seeded(3));
  ASSERT_EQ(rejected.future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(svc.wait(rejected).status, QueryStatus::QueueFull);
  EXPECT_EQ(svc.metrics().rejected_full, 1u);

  latch->release();
  EXPECT_TRUE(svc.wait(running).ok());
  EXPECT_TRUE(svc.wait(queued).ok());
}

TEST(ProgressiveService, BudgetedShedOnFullQueueStopsAtRung0AndRefines) {
  auto latch = std::make_shared<ComputeLatch>();
  ServiceConfig cfg = latched_config(latch);
  cfg.admission = {.max_queue_depth = 1, .policy = AdmissionPolicy::Shed};
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  auto seeded = [](std::uint64_t seed) {
    Request r = budgeted_request(768);
    r.options.seed = seed;
    return r;
  };
  const Ticket running = svc.submit(seeded(1));
  latch->wait_calls(1);
  const Ticket queued = svc.submit(seeded(2));
  const Ticket shed = svc.submit(seeded(3));
  EXPECT_FALSE(queued.shed);
  EXPECT_TRUE(shed.shed);
  latch->release();

  const Response r = svc.wait(shed);
  ASSERT_TRUE(r.ok()) << to_string(r.status);
  EXPECT_TRUE(r.shed);
  ASSERT_TRUE(r.estimate.has_value());
  // The quality dial: synchronous work stops at rung 0 and the rest of
  // the contract is left to background refinement.
  EXPECT_EQ(r.estimate->roots_used, 256u);
  EXPECT_TRUE(r.estimate->refining);
  EXPECT_EQ(svc.wait(running).estimate->roots_used, 768u);
  EXPECT_EQ(svc.wait(queued).estimate->roots_used, 768u);
  svc.drain_refinement();
}

TEST(ProgressiveService, BudgetedSubmitAfterStopIsServiceStopped) {
  BcService svc({.workers = 1});
  svc.load_graph("g", test_graph());
  svc.stop();
  const Ticket t = svc.submit(budgeted_request(256));
  ASSERT_EQ(t.future.wait_for(std::chrono::seconds(0)), std::future_status::ready);
  EXPECT_EQ(svc.wait(t).status, QueryStatus::ServiceStopped);
}

// A deadline that passes after rung 0 serves the best published rung
// (docs/serving.md § Accuracy contracts); only before rung 0 is it
// DeadlineExceeded.
TEST(ProgressiveService, DeadlineAfterRung0ServesBestRung) {
  std::atomic<int> calls{0};
  ServiceConfig cfg;
  cfg.workers = 1;
  cfg.compute_fn = [&calls](const graph::CSRGraph& g, const core::Options& o) {
    // Rung 0 is the first two strata; every later stratum blocks until
    // the request's deadline fires (bounded, should it never fire).
    if (calls.fetch_add(1) >= 2) {
      const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (!o.resilience.cancel.cancelled() &&
             std::chrono::steady_clock::now() < give_up) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    }
    return core::compute(g, o);
  };
  BcService svc(cfg);
  svc.load_graph("g", test_graph());

  // Room for rung 0 even under the sanitizers.
  Request req = budgeted_request(768);
  req.budget.deadline = std::chrono::milliseconds(1000);
  const Response r = svc.query(req);
  ASSERT_TRUE(r.ok()) << to_string(r.status) << ": " << r.error;
  ASSERT_TRUE(r.estimate.has_value());
  EXPECT_EQ(r.estimate->roots_used, 256u);
  EXPECT_FALSE(r.estimate->refining);

  BcService fresh({.workers = 1});
  fresh.load_graph("g", test_graph());
  const Response r256 = fresh.query(budgeted_request(256));
  ASSERT_TRUE(r256.ok());
  ASSERT_EQ(r.result->scores.size(), r256.result->scores.size());
  EXPECT_EQ(std::memcmp(r.result->scores.data(), r256.result->scores.data(),
                        r256.result->scores.size() * sizeof(double)),
            0);
}

// ---------------------------------------------------------------------------
// ApproxCache mechanics.

TEST(ApproxCacheTest, InvalidatePrefixUnlinksAndFlags) {
  ApproxCache cache(1 << 20);
  const core::StratumPlan plan;
  bool created = false;
  auto e = cache.get_or_create("fp1:sig", 256, plan, 42, 0xf1, created);
  EXPECT_TRUE(created);
  ASSERT_NE(cache.get("fp1:sig"), nullptr);

  EXPECT_EQ(cache.invalidate_prefix("fp2"), 0u);
  EXPECT_EQ(cache.invalidate_prefix("fp1"), 1u);
  EXPECT_EQ(cache.get("fp1:sig"), nullptr);
  std::lock_guard<std::mutex> lock(e->mu);
  EXPECT_TRUE(e->invalidated);
}

TEST(ApproxCacheTest, ZeroBudgetHandsOutDetachedEntries) {
  ApproxCache cache(0);
  const core::StratumPlan plan;
  bool created = false;
  auto a = cache.get_or_create("k", 256, plan, 42, 1, created);
  EXPECT_TRUE(created);
  auto b = cache.get_or_create("k", 256, plan, 42, 1, created);
  EXPECT_TRUE(created);
  EXPECT_NE(a.get(), b.get());  // never linked, never shared
  EXPECT_EQ(cache.size(), 0u);
}

}  // namespace
