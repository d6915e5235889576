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
