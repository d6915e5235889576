// Fault injection and graceful degradation (docs/resilience.md):
//
//   * gpusim::FaultPlan — grammar round-trip, deterministic seeded
//     targeting, transient clearing;
//   * kernels::BlockDriver — transient faults recover to BITWISE-identical
//     scores at any host-thread count; roots no launch completes run on
//     the host and are listed in FaultReport::host_roots; every GPU-model
//     strategy under persistent faults of every kind gives cpu-serial's
//     bits;
//   * cooperative cancellation — pre-cancelled tokens stop both the
//     GPU-model driver and every CPU engine at a root boundary;
//   * hbc::service — fault-injected answers are exact and cached, the one
//     substitute (CPU engine after a run throws out of compute) is marked
//     degraded and never cached, bad requests map to BadRequest,
//     deadlines cancel mid-compute, and stop() cancels in-flight work.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/bc.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/memory.hpp"
#include "graph/generators.hpp"
#include "kernels/kernels.hpp"
#include "service/service.hpp"
#include "util/cancel.hpp"
#include "util/timer.hpp"

namespace {

using namespace hbc;
using gpusim::FaultKind;
using gpusim::FaultPlan;
using gpusim::FaultSpec;

graph::CSRGraph driver_graph() {
  return graph::gen::small_world({.num_vertices = 300, .k = 4, .seed = 5});
}

kernels::RunConfig driver_config() {
  kernels::RunConfig config;
  config.device = gpusim::gtx_titan();
  config.hybrid.alpha = 24;
  config.hybrid.beta = 16;
  config.sampling.n_samps = 16;
  config.sampling.min_frontier = 16;
  config.cpu_threads = 3;
  return config;
}

std::shared_ptr<const FaultPlan> one_spec_plan(std::uint64_t seed, FaultSpec spec) {
  FaultPlan plan(seed);
  plan.add(std::move(spec));
  return std::make_shared<const FaultPlan>(std::move(plan));
}

void expect_bitwise_equal(const std::vector<double>& a, const std::vector<double>& b,
                          const std::string& what) {
  ASSERT_EQ(a.size(), b.size()) << what;
  if (!a.empty()) {
    EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size() * sizeof(double)), 0) << what;
  }
}

// ---------------------------------------------------------------------------
// FaultPlan: grammar, determinism, transient clearing.

TEST(FaultPlanTest, SignatureRoundTripsThroughParse) {
  const std::string spec =
      "seed=9;launch,rate=0.05;timeout,roots=3:17,persistent,after=20000;"
      "ecc,rate=0.25,attempts=2";
  const FaultPlan plan = FaultPlan::parse(spec);
  EXPECT_EQ(plan.seed(), 9u);
  ASSERT_EQ(plan.specs().size(), 3u);
  const FaultPlan reparsed = FaultPlan::parse(plan.signature());
  EXPECT_EQ(reparsed.signature(), plan.signature());
}

TEST(FaultPlanTest, ParseRejectsMalformedSpecs) {
  EXPECT_THROW(FaultPlan::parse(""), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("meltdown,rate=0.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("launch,rate=1.5"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("launch"), std::invalid_argument);  // targets nothing
  EXPECT_THROW(FaultPlan::parse("seed=1"), std::invalid_argument);  // no fault clause
  EXPECT_THROW(FaultPlan::parse("launch,roots=1:x"), std::invalid_argument);
}

TEST(FaultPlanTest, SeededTargetingIsDeterministicAndProportionate) {
  const auto plan = one_spec_plan(7, {.kind = FaultKind::KernelLaunch, .rate = 0.1});
  const auto again = one_spec_plan(7, {.kind = FaultKind::KernelLaunch, .rate = 0.1});
  int hits = 0;
  for (std::uint32_t r = 0; r < 300; ++r) {
    EXPECT_EQ(plan->targets_root(r), again->targets_root(r)) << "root " << r;
    hits += plan->targets_root(r) ? 1 : 0;
  }
  // 10% nominal over 300 roots; the hash keeps it in a loose band.
  EXPECT_GE(hits, 15);   // >= 5% — the acceptance floor
  EXPECT_LE(hits, 60);   // <= 20%
  const auto reseeded = one_spec_plan(8, {.kind = FaultKind::KernelLaunch, .rate = 0.1});
  bool any_difference = false;
  for (std::uint32_t r = 0; r < 300 && !any_difference; ++r) {
    any_difference = plan->targets_root(r) != reseeded->targets_root(r);
  }
  EXPECT_TRUE(any_difference);
}

TEST(FaultPlanTest, TransientFaultsClearAfterFailAttempts) {
  const auto plan = one_spec_plan(
      1, {.kind = FaultKind::KernelLaunch, .roots = {42}, .fail_attempts = 2});
  EXPECT_TRUE(plan->launch_fault(42, 0).has_value());
  EXPECT_TRUE(plan->launch_fault(42, 1).has_value());
  EXPECT_FALSE(plan->launch_fault(42, 2).has_value());  // cleared
  EXPECT_FALSE(plan->launch_fault(41, 0).has_value());  // untargeted
  const auto persistent = one_spec_plan(
      1, {.kind = FaultKind::KernelLaunch, .transient = false, .roots = {42}});
  EXPECT_TRUE(persistent->launch_fault(42, 10).has_value());  // never clears
}

// ---------------------------------------------------------------------------
// BlockDriver: the recovery matrix.

struct MatrixKind {
  FaultKind kind;
  const char* name;
  std::uint64_t after_cycles;  // execution-stage kinds need a small budget
};

constexpr MatrixKind kMatrixKinds[] = {
    {FaultKind::KernelLaunch, "launch", 0},
    {FaultKind::DeviceAlloc, "alloc", 0},
    {FaultKind::EccError, "ecc", 500},
    {FaultKind::Timeout, "timeout", 800},
};

constexpr kernels::Strategy kMatrixStrategies[] = {
    kernels::Strategy::WorkEfficient,
    kernels::Strategy::Hybrid,
    kernels::Strategy::Sampling,
};

TEST(DriverResilienceTest, TransientFaultsRecoverBitwiseIdentical) {
  const auto g = driver_graph();
  for (const kernels::Strategy strategy : kMatrixStrategies) {
    kernels::RunConfig clean = driver_config();
    const kernels::RunResult baseline = kernels::run_strategy(strategy, g, clean);
    ASSERT_TRUE(baseline.faults.clean());

    for (const MatrixKind& mk : kMatrixKinds) {
      const std::string what =
          std::string(kernels::to_string(strategy)) + "/" + mk.name;
      kernels::RunConfig faulty = driver_config();
      faulty.fault_plan = one_spec_plan(
          7, {.kind = mk.kind, .rate = 0.1, .after_cycles = mk.after_cycles});
      const kernels::RunResult r = kernels::run_strategy(strategy, g, faulty);

      // >= 5% of the 300 roots faulted, every one recovered, and the
      // scores are indistinguishable from the fault-free run.
      EXPECT_GE(r.faults.faults_injected, 15u) << what;
      EXPECT_GE(r.faults.retries, 1u) << what;
      EXPECT_TRUE(r.faults.host_roots.empty()) << what;
      expect_bitwise_equal(r.bc, baseline.bc, what);
    }
  }
}

TEST(DriverResilienceTest, RecoverySweepRescuesRootsThatExhaustInBlockRetries) {
  // fail_attempts=2 with the default budget (3 attempts: 2 in-block + 1
  // sweep) forces every targeted root through the reassignment lane.
  const auto g = driver_graph();
  kernels::RunConfig clean = driver_config();
  const kernels::RunResult baseline =
      kernels::run_strategy(kernels::Strategy::WorkEfficient, g, clean);

  kernels::RunConfig faulty = driver_config();
  faulty.fault_plan = one_spec_plan(
      7, {.kind = FaultKind::KernelLaunch, .rate = 0.1, .fail_attempts = 2});
  const kernels::RunResult r =
      kernels::run_strategy(kernels::Strategy::WorkEfficient, g, faulty);
  EXPECT_GE(r.faults.rescued_roots, 1u);
  EXPECT_TRUE(r.faults.host_roots.empty());
  // A rescued root adds its dependencies exactly, wherever it lands, so
  // sweep rescues give the clean run's bits (as in-block retries do — see
  // TransientFaultsRecoverBitwiseIdentical).
  expect_bitwise_equal(r.bc, baseline.bc, "recovery sweep");
}

TEST(DriverResilienceTest, RecoveryIsIdenticalAcrossHostThreadCounts) {
  const auto g = driver_graph();
  kernels::RunConfig base = driver_config();
  base.fault_plan = one_spec_plan(
      7, {.kind = FaultKind::EccError, .rate = 0.1, .fail_attempts = 2,
          .after_cycles = 500});

  base.cpu_threads = 1;
  const kernels::RunResult serial =
      kernels::run_strategy(kernels::Strategy::Hybrid, g, base);
  ASSERT_TRUE(serial.faults.host_roots.empty());
  ASSERT_GE(serial.faults.faults_injected, 1u);

  for (const std::size_t threads : {std::size_t{2}, std::size_t{5}}) {
    kernels::RunConfig cfg = base;
    cfg.cpu_threads = threads;
    const kernels::RunResult r =
        kernels::run_strategy(kernels::Strategy::Hybrid, g, cfg);
    const std::string what = "threads=" + std::to_string(threads);
    expect_bitwise_equal(r.bc, serial.bc, what);
    EXPECT_EQ(r.faults.faults_injected, serial.faults.faults_injected) << what;
    EXPECT_EQ(r.faults.retries, serial.faults.retries) << what;
    EXPECT_EQ(r.faults.rescued_roots, serial.faults.rescued_roots) << what;
  }
}

TEST(DriverResilienceTest, PersistentFaultsSurfaceAsFailedRoots) {
  const auto g = driver_graph();
  kernels::RunConfig clean = driver_config();
  const kernels::RunResult baseline =
      kernels::run_strategy(kernels::Strategy::WorkEfficient, g, clean);

  kernels::RunConfig faulty = driver_config();
  const auto plan = one_spec_plan(
      7, {.kind = FaultKind::DeviceAlloc, .transient = false, .rate = 0.1});
  faulty.fault_plan = plan;
  const kernels::RunResult r =
      kernels::run_strategy(kernels::Strategy::WorkEfficient, g, faulty);

  // Every targeted root failed its one launch (persistent faults are not
  // relaunched) and the host finished it: host_roots is exactly the
  // plan's targets, ascending.
  std::vector<std::uint32_t> targets;
  for (std::uint32_t v = 0; v < g.num_vertices(); ++v) {
    if (plan->targets_root(v)) targets.push_back(v);
  }
  ASSERT_FALSE(targets.empty());
  std::vector<std::uint32_t> host;
  for (const gpusim::RootFailure& f : r.faults.host_roots) {
    host.push_back(f.root);
    EXPECT_EQ(f.kind, FaultKind::DeviceAlloc);
    EXPECT_FALSE(f.transient);
    EXPECT_EQ(f.attempts, 1u);
  }
  EXPECT_EQ(host, targets);
  EXPECT_EQ(r.faults.faults_injected, targets.size());
  EXPECT_EQ(r.faults.rescued_roots, 0u);
  // The host adds the same exact dependencies, so nothing is missing.
  expect_bitwise_equal(r.bc, baseline.bc, "host rescue");
  EXPECT_EQ(r.metrics.counters.roots_processed,
            static_cast<std::uint64_t>(g.num_vertices()));
}

// A fault that trips mid-root leaves the leased workspace dirty: successor
// bits and marked levels from the forward stage, deltas, host-only S
// entries, a half-filled round. The in-block retry reuses that workspace
// (and, with fewer host threads than blocks, so does the next block), so
// the retry must reproduce the clean run bit for bit. Each targeted root
// trips once at a chosen point of its clean cost C, taken from a
// collect_root_cycles run:
//   * mid forward stage — after about half its levels;
//   * the last dependency level — just before accumulate_bc;
//   * C itself — the final barrier of accumulate_bc, after which a root
//     whose delta had already landed in the partial would count twice.
TEST(DriverResilienceTest, DirtyPooledWorkspacesRetryBitwiseIdentical) {
  const auto g = driver_graph();
  constexpr kernels::Strategy kStrategies[] = {
      kernels::Strategy::WorkEfficient, kernels::Strategy::Hybrid,
      kernels::Strategy::Sampling, kernels::Strategy::EdgeParallel};
  for (const kernels::Strategy strategy : kStrategies) {
    kernels::RunConfig clean = driver_config();
    clean.collect_root_cycles = true;
    clean.collect_per_root_stats = true;
    const kernels::RunResult baseline = kernels::run_strategy(strategy, g, clean);
    const gpusim::DeviceConfig& dev = clean.device;
    const auto rounds = [&](std::uint64_t items) {
      return (items + dev.threads_per_block - 1) / dev.threads_per_block;
    };

    enum Point { kForward, kDependency, kFinalBarrier };
    for (const Point point : {kForward, kDependency, kFinalBarrier}) {
      std::string spec = "seed=1";
      std::size_t targeted = 0;
      for (std::size_t i = 3; i < baseline.per_root.size(); i += 23) {
        const kernels::PerRootStats& stats = baseline.per_root[i];
        ASSERT_GE(stats.max_depth, 2u);  // at least one dependency level
        const std::uint64_t cost = baseline.metrics.per_root_cycles[i];
        std::uint64_t reached = 0;
        for (const kernels::IterationRecord& it : stats.iterations) {
          reached += it.vertex_frontier;
        }
        // accumulate_bc: one round over S (or, queue-less, over all n)
        // and a barrier.
        const std::uint64_t accumulate =
            (strategy == kernels::Strategy::EdgeParallel
                 ? rounds(g.num_vertices()) * dev.cost.scan_seq
                 : rounds(reached) * dev.cost.process_seq) +
            dev.cost.block_barrier;
        std::uint64_t after = cost;
        if (point == kForward) {
          after = 0;
          for (std::size_t k = 0; k <= stats.iterations.size() / 2; ++k) {
            after += stats.iterations[k].cycles;
          }
        } else if (point == kDependency) {
          after = cost - accumulate - 1;
        }
        spec += ";ecc,roots=" + std::to_string(stats.root) +
                ",transient,after=" + std::to_string(after);
        ++targeted;
      }

      for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
        const std::string what = std::string(kernels::to_string(strategy)) + " point " +
                                 std::to_string(point) + " threads " +
                                 std::to_string(threads);
        kernels::RunConfig faulty = clean;
        faulty.cpu_threads = threads;
        faulty.fault_plan = FaultPlan::parse_shared(spec);
        const kernels::RunResult r = kernels::run_strategy(strategy, g, faulty);
        EXPECT_EQ(r.faults.faults_injected, targeted) << what;
        EXPECT_EQ(r.faults.retries, targeted) << what;
        EXPECT_TRUE(r.faults.host_roots.empty()) << what;
        expect_bitwise_equal(r.bc, baseline.bc, what);
        // The completing attempt of every root costs what the clean one did.
        EXPECT_EQ(r.metrics.per_root_cycles, baseline.metrics.per_root_cycles) << what;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Cooperative cancellation: driver and CPU engines.

TEST(CancelTest, PreCancelledTokenStopsEveryEngine) {
  const auto g = graph::gen::small_world({.num_vertices = 128, .k = 3, .seed = 1});
  util::CancelSource src;
  src.cancel();

  kernels::RunConfig kc = driver_config();
  kc.cancel = src.token();
  EXPECT_THROW(kernels::run_strategy(kernels::Strategy::WorkEfficient, g, kc),
               util::Cancelled);

  for (const core::Strategy s : {core::Strategy::CpuSerial, core::Strategy::CpuParallel}) {
    core::Options o;
    o.strategy = s;
    o.resilience.cancel = src.token();
    EXPECT_THROW(core::compute(g, o), util::Cancelled) << core::to_string(s);
  }
}

TEST(CancelTest, DeadlineSourceLatchesAndStampsTimeToCancel) {
  util::CancelSource src = util::CancelSource::with_timeout(std::chrono::milliseconds(1));
  const util::CancelToken token = src.token();
  EXPECT_TRUE(token.can_cancel());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  EXPECT_EQ(token.state(), util::CancelReason::Deadline);
  EXPECT_GT(src.ms_since_cancel(), 0.0);
  EXPECT_THROW(token.check(), util::Cancelled);
}

// ---------------------------------------------------------------------------
// hbc::service: exact answers under faults, cache hygiene, cancellation.

graph::CSRGraph service_graph() {
  return graph::gen::small_world({.num_vertices = 256, .k = 3, .seed = 1});
}

graph::CSRGraph slow_graph() {
  // Big enough that a full exact run takes far longer than the test
  // deadlines below, so cancellation always lands mid-compute.
  return graph::gen::small_world({.num_vertices = 4000, .k = 6, .seed = 2});
}

core::Options gpu_options(core::Strategy strategy = core::Strategy::WorkEfficient) {
  core::Options o;
  o.strategy = strategy;
  o.hybrid.alpha = 24;
  o.hybrid.beta = 16;
  o.sampling.n_samps = 16;
  o.sampling.min_frontier = 16;
  return o;
}

// Every GPU-model strategy × persistent faults of every kind on >= 10% of
// the roots × host threads {1, 4} × {64 sampled roots, all roots}: the
// host finishes each root no launch completed, so every run has
// cpu-serial's bits over the same roots and processes all of them.
TEST(HostRescueTest, EveryStrategyGivesCpuSerialBitsUnderPersistentFaults) {
  const auto g = driver_graph();
  constexpr core::Strategy kGpuStrategies[] = {
      core::Strategy::VertexParallel, core::Strategy::EdgeParallel,
      core::Strategy::GpuFan,         core::Strategy::WorkEfficient,
      core::Strategy::Hybrid,         core::Strategy::Sampling,
      core::Strategy::DirectionOptimized,
  };
  for (const std::uint32_t sample : {64u, 0u}) {
    core::Options serial_opts = gpu_options(core::Strategy::CpuSerial);
    serial_opts.sample_roots = sample;
    const core::BCResult serial = core::compute(g, serial_opts);
    const std::uint64_t roots = serial.roots_processed;
    ASSERT_EQ(roots, sample != 0 ? std::uint64_t{sample} : g.num_vertices());
    for (const core::Strategy strategy : kGpuStrategies) {
      for (const MatrixKind& mk : kMatrixKinds) {
        for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
          const std::string what = std::string(core::to_string(strategy)) + "/" +
                                   mk.name + " threads=" + std::to_string(threads) +
                                   " roots=" + std::to_string(roots);
          core::Options opts = gpu_options(strategy);
          opts.sample_roots = sample;
          opts.cpu_threads = threads;
          // A tenth of the matrix's trip point fires inside every root,
          // even vertex-parallel's cheapest.
          opts.resilience.fault_plan = one_spec_plan(
              13, {.kind = mk.kind, .transient = false, .rate = 0.2,
                   .after_cycles = mk.after_cycles / 10});
          const core::BCResult r = core::compute(g, opts);
          EXPECT_GE(r.faults.host_roots.size() * 10, roots) << what;
          EXPECT_EQ(r.roots_processed, roots) << what;
          expect_bitwise_equal(r.scores, serial.scores, what);
        }
      }
    }
  }
}

TEST(ServiceResilienceTest, TransientFaultsRecoverAndTheResultIsCached) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::BcService svc(cfg);
  const auto g = service_graph();
  svc.load_graph("g", g);

  core::Options opts = gpu_options();
  opts.resilience.fault_plan =
      one_spec_plan(3, {.kind = FaultKind::KernelLaunch, .rate = 0.1});
  const service::Response r = svc.query({.graph_id = "g", .options = opts});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.degraded);
  EXPECT_TRUE(r.result->faults.host_roots.empty());
  EXPECT_GE(svc.metrics().device_faults, 1u);
  EXPECT_EQ(svc.metrics().degraded, 0u);

  // Fully recovered == bitwise-identical to a fault-free run.
  core::Options clean = gpu_options();
  const core::BCResult fresh = core::compute(g, clean);
  expect_bitwise_equal(r.result->scores, fresh.scores, "recovered vs clean");

  const service::Response warm = svc.query({.graph_id = "g", .options = opts});
  ASSERT_TRUE(warm.ok());
  EXPECT_TRUE(warm.from_cache);  // complete recoveries are cacheable
}

TEST(ServiceResilienceTest, StubbornTransientFaultsCompleteExact) {
  // fail_attempts=3 exhausts the driver's whole device budget (2 in-block
  // + 1 sweep), so the host finishes every targeted root: the first
  // answer is already exact, with no whole-run retry.
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::BcService svc(cfg);
  const auto g = service_graph();
  svc.load_graph("g", g);

  core::Options opts = gpu_options();
  opts.resilience.fault_plan = one_spec_plan(
      3, {.kind = FaultKind::KernelLaunch, .rate = 0.1, .fail_attempts = 3});
  const service::Response r = svc.query({.graph_id = "g", .options = opts});
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.degraded);
  EXPECT_FALSE(r.result->faults.host_roots.empty());
  for (const gpusim::RootFailure& f : r.result->faults.host_roots) {
    EXPECT_EQ(f.attempts, 3u);
    EXPECT_TRUE(f.transient);
  }

  const core::BCResult fresh = core::compute(g, gpu_options());
  expect_bitwise_equal(r.result->scores, fresh.scores, "host rescue vs clean");
}

TEST(ServiceResilienceTest, PersistentFaultsAnswerExactAndCached) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::BcService svc(cfg);
  const auto g = service_graph();
  svc.load_graph("g", g);

  core::Options opts = gpu_options(core::Strategy::Hybrid);
  opts.resilience.fault_plan = one_spec_plan(
      11, {.kind = FaultKind::DeviceAlloc, .transient = false, .rate = 0.2});
  const service::Request req{.graph_id = "g", .options = opts};
  const service::Response r = svc.query(req);
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.degraded);
  EXPECT_FALSE(r.from_cache);
  // The requested strategy answered, with the clean run's bits.
  EXPECT_EQ(r.result->strategy, core::Strategy::Hybrid);
  EXPECT_FALSE(r.result->faults.host_roots.empty());
  const core::BCResult fresh = core::compute(g, gpu_options(core::Strategy::Hybrid));
  expect_bitwise_equal(r.result->scores, fresh.scores, "persistent vs clean");
  EXPECT_EQ(svc.metrics().degraded, 0u);

  const service::Response again = svc.query(req);
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again.from_cache);
}

TEST(ServiceResilienceTest, DegradedResultsAreNeverCached) {
  // The device cannot hold the requested run: the CPU engine answers it,
  // marked degraded.
  service::ServiceConfig cfg;
  cfg.workers = 1;
  cfg.compute_fn = [](const graph::CSRGraph& g, const core::Options& o) {
    if (o.strategy == core::Strategy::Hybrid) {
      throw gpusim::DeviceOutOfMemory("bc", 1ull << 40, 1ull << 30);
    }
    return core::compute(g, o);
  };
  service::BcService svc(cfg);
  svc.load_graph("g", service_graph());

  const core::Options opts = gpu_options(core::Strategy::Hybrid);
  const service::Request req{.graph_id = "g", .options = opts};

  const service::Response first = svc.query(req);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(first.degraded);
  EXPECT_EQ(first.result->strategy, core::Strategy::CpuParallel);
  EXPECT_EQ(svc.metrics().degraded, 1u);
  EXPECT_EQ(svc.metrics().cache_entries, 0u);

  // An identical request recomputes — it must get a fresh shot at the
  // real answer, not the substitute.
  const service::Response second = svc.query(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.degraded);
  EXPECT_FALSE(second.from_cache);
  EXPECT_EQ(svc.metrics().computed, 2u);
}

TEST(ServiceResilienceTest, InvalidRootsMapToBadRequest) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::BcService svc(cfg);
  svc.load_graph("g", service_graph());
  core::Options opts;
  opts.strategy = core::Strategy::CpuSerial;
  opts.roots = {9999};  // out of range for 256 vertices
  const service::Response r = svc.query({.graph_id = "g", .options = opts});
  EXPECT_EQ(r.status, service::QueryStatus::BadRequest);
  EXPECT_FALSE(r.error.empty());
  EXPECT_STREQ(service::to_string(r.status), "bad-request");
}

TEST(ServiceResilienceTest, DeadlineCancelsMidCompute) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  service::BcService svc(cfg);
  svc.load_graph("slow", slow_graph());

  core::Options opts;
  opts.strategy = core::Strategy::CpuSerial;  // checks cancel once per root
  service::Request req{.graph_id = "slow", .options = opts};
  req.budget.deadline = std::chrono::milliseconds(50);

  util::Timer timer;
  const service::Response r = svc.query(req);
  EXPECT_EQ(r.status, service::QueryStatus::DeadlineExceeded);
  // Cancellation took effect within a root boundary, not after the full
  // multi-hundred-ms run.
  EXPECT_LT(timer.elapsed_ms(), 2000.0);

  const service::MetricsSnapshot m = svc.metrics();
  EXPECT_GE(m.cancellations, 1u);
  EXPECT_GE(m.time_to_cancel_max_ms, 0.0);
  EXPECT_LT(m.time_to_cancel_max_ms, 1000.0);
}

TEST(ServiceResilienceTest, StopCancelsInflightAndDrainsTheQueue) {
  service::ServiceConfig cfg;
  cfg.workers = 1;
  auto svc = std::make_unique<service::BcService>(cfg);
  svc->load_graph("slow", slow_graph());

  core::Options opts;
  opts.strategy = core::Strategy::CpuSerial;
  service::Ticket inflight = svc->submit({.graph_id = "slow", .options = opts});
  // Let the only worker actually start computing, then queue one more.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  core::Options queued = opts;
  queued.seed = 99;
  queued.sample_roots = 100;
  service::Ticket parked = svc->submit({.graph_id = "slow", .options = queued});

  util::Timer timer;
  svc->stop();
  // stop() joined the workers, so the in-flight run was cancelled at a
  // root boundary rather than running to completion (~seconds).
  EXPECT_LT(timer.elapsed_ms(), 2000.0);

  EXPECT_EQ(svc->wait(inflight).status, service::QueryStatus::ServiceStopped);
  EXPECT_EQ(svc->wait(parked).status, service::QueryStatus::ServiceStopped);
  EXPECT_GE(svc->metrics().cancellations, 1u);
}

}  // namespace
