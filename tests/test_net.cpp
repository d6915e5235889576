// hbc::net integration tests: a real coordinator and real workers over
// Unix-domain sockets (worker loops on std::thread, so one process but N
// independent BcService instances speaking the actual wire protocol).
//
// The load-bearing property is satellite (d) of the distributed design:
// a query sharded across 2..4 workers must be BITWISE identical to the
// standalone core::compute answer — including when a worker is killed
// mid-run and its root range is reassigned. Comparisons use memcmp on the
// raw double arrays: "close" is not a pass.

#include <gtest/gtest.h>

#include <sys/socket.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/approx.hpp"
#include "core/bc.hpp"
#include "dyn/versioned_graph.hpp"
#include "graph/generators.hpp"
#include "net/coordinator.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "net/worker.hpp"
#include "service/service.hpp"

using namespace hbc;
namespace wire = hbc::net::wire;

namespace {

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// A socket path under /tmp: build trees routinely exceed sockaddr_un's
// 108-byte limit, the system tmpdir does not.
class SocketDir {
 public:
  SocketDir() {
    char tmpl[] = "/tmp/hbc-net-XXXXXX";
    dir_ = ::mkdtemp(tmpl);
  }
  ~SocketDir() {
    if (!dir_.empty()) {
      std::remove((dir_ + "/c.sock").c_str());
      ::rmdir(dir_.c_str());
    }
  }
  std::string sock() const { return "unix:" + dir_ + "/c.sock"; }

 private:
  std::string dir_;
};

graph::CSRGraph test_graph() {
  // Small-world at scale 8: 256 vertices, plenty of distinct BC values.
  return graph::gen::family_by_name("smallworld").make(8, 1);
}

/// Coordinator + N in-process workers, wired up and torn down safely.
class Fleet {
 public:
  explicit Fleet(std::size_t n_workers, net::CoordinatorConfig cfg = {},
                 std::vector<net::WorkerConfig> worker_cfgs = {}) {
    cfg.listen = net::Endpoint::parse(dir_.sock());
    coordinator = std::make_unique<net::Coordinator>(std::move(cfg));
    for (std::size_t i = 0; i < n_workers; ++i) {
      net::WorkerConfig wc =
          i < worker_cfgs.size() ? std::move(worker_cfgs[i]) : net::WorkerConfig{};
      wc.connect = net::Endpoint::parse(dir_.sock());
      if (wc.name == "worker") wc.name = "worker-" + std::to_string(i);
      if (wc.service.workers == 0) wc.service.workers = 2;
      workers.push_back(std::make_unique<net::Worker>(std::move(wc)));
    }
    for (auto& w : workers) {
      threads.emplace_back([worker = w.get()] { worker->run(); });
    }
    coordinator->wait_for_workers(n_workers, std::chrono::seconds(20));
  }

  ~Fleet() {
    for (auto& w : workers) w->request_stop();
    if (coordinator) coordinator->drain();
    for (auto& t : threads) {
      if (t.joinable()) t.join();
    }
  }

  SocketDir dir_;
  std::unique_ptr<net::Coordinator> coordinator;
  std::vector<std::unique_ptr<net::Worker>> workers;
  std::vector<std::thread> threads;
};

net::WorkerConfig in_memory_worker(std::shared_ptr<const graph::CSRGraph> g) {
  net::WorkerConfig wc;
  wc.graph_loader = [g](const std::string&) { return *g; };
  return wc;
}

std::vector<net::WorkerConfig> in_memory_workers(
    std::size_t n, std::shared_ptr<const graph::CSRGraph> g) {
  std::vector<net::WorkerConfig> v;
  for (std::size_t i = 0; i < n; ++i) v.push_back(in_memory_worker(g));
  return v;
}

}  // namespace

// --- endpoint parsing and setup errors (satellite c's library half) ------

TEST(NetEndpoint, ParsesUnixAndTcp) {
  const net::Endpoint u = net::Endpoint::parse("unix:/tmp/x.sock");
  EXPECT_EQ(u.kind, net::Endpoint::Kind::Unix);
  EXPECT_EQ(u.path, "/tmp/x.sock");
  EXPECT_EQ(u.str(), "unix:/tmp/x.sock");

  const net::Endpoint t = net::Endpoint::parse("tcp:127.0.0.1:9090");
  EXPECT_EQ(t.kind, net::Endpoint::Kind::Tcp);
  EXPECT_EQ(t.host, "127.0.0.1");
  EXPECT_EQ(t.port, 9090);
}

TEST(NetEndpoint, RejectsMalformedSpecs) {
  EXPECT_THROW(net::Endpoint::parse("unix:"), net::NetError);
  EXPECT_THROW(net::Endpoint::parse("tcp:no-port"), net::NetError);
  EXPECT_THROW(net::Endpoint::parse("tcp:host:not-a-number"), net::NetError);
  EXPECT_THROW(net::Endpoint::parse("tcp:host:70000"), net::NetError);
  EXPECT_THROW(net::Endpoint::parse("http://nope"), net::NetError);
  EXPECT_THROW(net::Endpoint::parse("unix:" + std::string(200, 'a')), net::NetError);
}

TEST(NetEndpoint, BindFailureThrowsWithContext) {
  net::CoordinatorConfig cfg;
  cfg.listen = net::Endpoint::parse("unix:/nonexistent-dir-hbc/x.sock");
  try {
    net::Coordinator c(std::move(cfg));
    FAIL() << "bind into a nonexistent directory must throw";
  } catch (const net::NetError& e) {
    EXPECT_NE(std::string(e.what()).find("bind"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("/nonexistent-dir-hbc/x.sock"),
              std::string::npos);
  }
}

TEST(NetEndpoint, ConnectFailureThrowsAfterBackoff) {
  net::WorkerConfig wc;
  wc.connect = net::Endpoint::parse("unix:/tmp/hbc-no-such-coordinator.sock");
  wc.max_connect_attempts = 2;
  wc.connect_backoff = std::chrono::milliseconds(1);
  net::Worker w(std::move(wc));
  EXPECT_THROW(w.run(), net::NetError);
}

// --- distributed determinism (satellite d) --------------------------------

TEST(NetDistributed, ShardedQueryBitwiseEqualsStandaloneAtEveryWorkerCount) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  for (const core::Strategy strategy :
       {core::Strategy::WorkEfficient, core::Strategy::VertexParallel,
        core::Strategy::Hybrid}) {
    core::Options opt;
    opt.strategy = strategy;
    const core::BCResult standalone = core::compute(*g, opt);

    for (const std::size_t n_workers : {2u, 3u, 4u}) {
      Fleet fleet(n_workers, {}, in_memory_workers(n_workers, g));
      ASSERT_EQ(fleet.coordinator->worker_count(), n_workers);
      ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), n_workers);

      service::Request req;
      req.graph_id = "g0";
      req.options = opt;
      const service::Response resp = fleet.coordinator->query(req);
      ASSERT_TRUE(resp.ok()) << resp.error;
      ASSERT_NE(resp.result, nullptr);
      EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores))
          << core::to_string(strategy) << " @ " << n_workers << " workers";
      EXPECT_EQ(resp.result->roots_processed, standalone.roots_processed);
      EXPECT_FALSE(resp.degraded);
      // Shards actually crossed the wire — this was not a local fallback.
      EXPECT_GT(fleet.coordinator->stats().shards_completed, 0u);
      EXPECT_EQ(fleet.coordinator->stats().local_fallbacks, 0u);
    }
  }
}

TEST(NetDistributed, ShardResultsAreNotHeldForAPollTick) {
  // A worker sends a finished shard when its service thread publishes it,
  // not on the loop's next timer tick. Held for a 10 ms tick, each of
  // these small queries would cost ~10 ms more through the fleet than
  // computing the same roots locally, 200 ms over twenty queries. Woken
  // on completion, the fleet adds well under 1 ms per query (about 3 ms
  // under ThreadSanitizer), so the bound sits at 150 ms, between the two.
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  std::vector<net::WorkerConfig> wcs = in_memory_workers(1, g);
  wcs[0].service.workers = 1;
  Fleet fleet(1, {}, std::move(wcs));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 1u);

  constexpr int kQueries = 20;
  std::vector<core::Options> opts(kQueries);
  std::vector<core::BCResult> standalone;
  const auto local_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    opts[i].strategy = core::Strategy::WorkEfficient;
    opts[i].sample_roots = 4;
    opts[i].seed = 100 + static_cast<std::uint64_t>(i);  // distinct: all cold
    opts[i].cpu_threads = 1;  // as the worker's service runs it
    standalone.push_back(core::compute(*g, opts[i]));
  }
  const double local_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - local_start)
                              .count();

  std::vector<service::Response> answers;
  const auto fleet_start = std::chrono::steady_clock::now();
  for (int i = 0; i < kQueries; ++i) {
    service::Request req;
    req.graph_id = "g0";
    req.options = opts[i];
    answers.push_back(fleet.coordinator->query(req));
  }
  const double fleet_ms = std::chrono::duration<double, std::milli>(
                              std::chrono::steady_clock::now() - fleet_start)
                              .count();

  for (int i = 0; i < kQueries; ++i) {
    ASSERT_TRUE(answers[i].ok()) << answers[i].error;
    EXPECT_FALSE(answers[i].from_cache);
    EXPECT_TRUE(bitwise_equal(answers[i].result->scores, standalone[i].scores))
        << "query " << i;
  }
  EXPECT_EQ(fleet.coordinator->stats().local_fallbacks, 0u);
  EXPECT_LT(fleet_ms - local_ms, 150.0)
      << kQueries << " sequential cold queries: " << fleet_ms << " ms through the fleet, "
      << local_ms << " ms computed locally";
}

TEST(NetDistributed, FinalizationFlagsAndSampledRootsStayBitwise) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  opt.halve_undirected = true;
  opt.normalize = true;
  opt.sample_roots = 64;  // approximate path: scale-up then halve+normalize
  opt.seed = 7;
  const core::BCResult standalone = core::compute(*g, opt);

  Fleet fleet(3, {}, in_memory_workers(3, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 3u);
  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_TRUE(resp.result->approximate);
}

TEST(NetDistributed, ExplicitRootSubsetStaysBitwise) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  opt.roots = {0, 3, 9, 27, 81, 243};
  const core::BCResult standalone = core::compute(*g, opt);

  Fleet fleet(2, {}, in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);
  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_TRUE(resp.result->approximate);  // strict subset of roots
}

TEST(NetDistributed, WorkerWithoutExactSumsIsRefusedAndStaysBitwise) {
  // A worker whose executor keeps no exact sums cannot serve a
  // shard: it refuses each one, and the coordinator computes them itself.
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  opt.roots = {0, 3, 9, 27, 81, 243};
  const core::BCResult standalone = core::compute(*g, opt);

  std::vector<net::WorkerConfig> cfgs = in_memory_workers(1, g);
  cfgs[0].service.compute_fn = [](const graph::CSRGraph& graph, const core::Options& o) {
    core::BCResult r = core::compute(graph, o);
    r.sums = {};
    return r;
  };
  Fleet fleet(1, {}, std::move(cfgs));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 1u);
  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_FALSE(resp.degraded);
  EXPECT_GT(fleet.coordinator->stats().shard_retries, 0u);
  EXPECT_GT(fleet.coordinator->stats().local_fallbacks, 0u);
}

TEST(NetDistributed, WorkerKilledMidRunStillBitwiseIdentical) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  // Worker 0 vanishes the moment its second shard arrives — before
  // replying — so the coordinator holds dispatched shards to a dead peer.
  std::vector<net::WorkerConfig> cfgs = in_memory_workers(2, g);
  cfgs[0].die_after_shards = 2;
  Fleet fleet(2, {}, std::move(cfgs));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_FALSE(resp.degraded);
  EXPECT_GE(fleet.coordinator->stats().worker_deaths, 1u);
  EXPECT_GE(fleet.coordinator->stats().shard_retries, 1u);
}

TEST(NetDistributed, EveryStrategyShardsByRootAndStaysBitwise) {
  // One shard kind: whatever the strategy, resolved root i goes to shard
  // i mod B (B = the device's SM count), every shard returns exact sums,
  // and the coordinator finalizes once.
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  const graph::VertexId n = g->num_vertices();
  struct Case {
    const char* name;
    core::Options options;
    std::size_t roots;  // resolved root count
  };
  std::vector<Case> cases(4);
  cases[0] = {"all roots", {}, n};
  cases[1] = {"explicit roots", {}, 7};
  cases[1].options.roots = {0, 3, 9, 27, 81, 243, 5};
  cases[2] = {"sampled roots", {}, 32};
  cases[2].options.sample_roots = 32;
  cases[2].options.seed = 7;
  cases[3] = {"sampled, halved, normalized", {}, 20};
  cases[3].options.sample_roots = 20;
  cases[3].options.seed = 11;
  cases[3].options.halve_undirected = true;
  cases[3].options.normalize = true;

  const core::Strategy strategies[] = {
      core::Strategy::CpuSerial,      core::Strategy::CpuParallel,
      core::Strategy::VertexParallel, core::Strategy::EdgeParallel,
      core::Strategy::GpuFan,         core::Strategy::WorkEfficient,
      core::Strategy::Hybrid,         core::Strategy::Sampling,
      core::Strategy::DirectionOptimized};
  for (const std::size_t n_workers : {1u, 2u}) {
    Fleet fleet(n_workers, {}, in_memory_workers(n_workers, g));
    ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), n_workers);
    for (const core::Strategy strategy : strategies) {
      for (Case c : cases) {
        c.options.strategy = strategy;
        const core::BCResult standalone = core::compute(*g, c.options);
        const std::uint64_t before = fleet.coordinator->stats().shards_dispatched;
        service::Request req;
        req.graph_id = "g0";
        req.options = c.options;
        const service::Response resp = fleet.coordinator->query(req);
        const std::string where = std::string(core::to_string(strategy)) + ", " + c.name +
                                  " @ " + std::to_string(n_workers) + " workers";
        ASSERT_TRUE(resp.ok()) << resp.error << " (" << where << ")";
        EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores)) << where;
        EXPECT_EQ(resp.result->roots_processed, standalone.roots_processed) << where;
        EXPECT_EQ(resp.result->approximate, standalone.approximate) << where;
        const std::size_t shards =
            std::min<std::size_t>(c.options.device.num_sms, c.roots);
        EXPECT_EQ(fleet.coordinator->stats().shards_dispatched - before, shards) << where;
      }
    }
    EXPECT_EQ(fleet.coordinator->stats().local_fallbacks, 0u);
  }
}

TEST(NetDistributed, LocalFallbackServesWithNoWorkersBitwise) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  SocketDir dir;
  net::CoordinatorConfig cfg;
  cfg.listen = net::Endpoint::parse(dir.sock());
  net::Coordinator coordinator(std::move(cfg));
  coordinator.load_graph("g0", g, "");  // zero confirmations: nobody home

  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = coordinator.query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_GT(coordinator.stats().local_fallbacks, 0u);
}

// --- service semantics over the wire -------------------------------------

TEST(NetDistributed, CacheHitOnRepeatAndGraphNotFound) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  Fleet fleet(2, {}, in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  service::Request req;
  req.graph_id = "g0";
  req.options.strategy = core::Strategy::WorkEfficient;
  const service::Response first = fleet.coordinator->query(req);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.from_cache);
  const service::Response second = fleet.coordinator->query(req);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.from_cache);
  EXPECT_TRUE(bitwise_equal(first.result->scores, second.result->scores));
  EXPECT_EQ(fleet.coordinator->stats().cache_hits, 1u);

  service::Request missing;
  missing.graph_id = "nope";
  missing.options.strategy = core::Strategy::WorkEfficient;
  EXPECT_EQ(fleet.coordinator->query(missing).status,
            service::QueryStatus::GraphNotFound);
}

TEST(NetDistributed, BadRootsAreBadRequest) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  Fleet fleet(2, {}, in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  service::Request req;
  req.graph_id = "g0";
  req.options.strategy = core::Strategy::WorkEfficient;
  req.options.roots = {1, 1};  // duplicate
  EXPECT_EQ(fleet.coordinator->query(req).status, service::QueryStatus::BadRequest);
  req.options.roots = {100000};  // out of range
  EXPECT_EQ(fleet.coordinator->query(req).status, service::QueryStatus::BadRequest);
}

TEST(NetDistributed, DeadlineExceededWithShardsOutstanding) {
  // Big enough that 14 shards cannot complete within 5ms.
  const auto g = std::make_shared<const graph::CSRGraph>(
      graph::gen::family_by_name("smallworld").make(10, 1));
  Fleet fleet(1, {}, in_memory_workers(1, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 1u);

  service::Request req;
  req.graph_id = "g0";
  req.options.strategy = core::Strategy::WorkEfficient;
  req.budget.deadline = std::chrono::milliseconds(5);
  const service::Response resp = fleet.coordinator->query(req);
  EXPECT_EQ(resp.status, service::QueryStatus::DeadlineExceeded);
}

TEST(NetDistributed, MutationPropagatesAndStaysBitwise) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  Fleet fleet(2, {}, in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response before = fleet.coordinator->query(req);
  ASSERT_TRUE(before.ok());

  dyn::UpdateBatch batch;
  batch.insert(0, 100).insert(5, 200).remove(0, 1);
  const service::MutationResult mr = fleet.coordinator->mutate_graph("g0", batch);
  EXPECT_NE(mr.fingerprint_before, mr.fingerprint_after);
  EXPECT_GT(mr.applied, 0u);
  EXPECT_EQ(fleet.coordinator->graph_fingerprint("g0"), mr.fingerprint_after);

  const service::Response after = fleet.coordinator->query(req);
  ASSERT_TRUE(after.ok()) << after.error;
  EXPECT_FALSE(after.from_cache);  // old-epoch cache entries invalidated
  EXPECT_FALSE(bitwise_equal(after.result->scores, before.result->scores));

  // Reference: apply the same batch to a standalone copy and compare bits.
  dyn::VersionedGraph vg(g);
  vg.apply(batch);
  const core::BCResult standalone = core::compute(*vg.current().graph, opt);
  EXPECT_TRUE(bitwise_equal(after.result->scores, standalone.scores));
}

TEST(NetDistributed, LateJoinerCatchesUpViaUpdateReplay) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  Fleet fleet(1, {}, in_memory_workers(1, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 1u);

  dyn::UpdateBatch batch;
  batch.insert(2, 50).insert(7, 99);
  fleet.coordinator->mutate_graph("g0", batch);

  // A worker that joins AFTER the mutation must replay the history and
  // land on the current fingerprint, or it would be refused.
  net::WorkerConfig wc = in_memory_worker(g);  // loads the EPOCH-0 graph
  wc.connect = net::Endpoint::parse(fleet.dir_.sock());
  wc.name = "late";
  auto late = std::make_unique<net::Worker>(std::move(wc));
  std::thread t([&] { late->run(); });
  fleet.coordinator->wait_for_workers(2, std::chrono::seconds(20));
  // Give the load/replay handshake a moment to complete, then verify the
  // late worker serves shards for the mutated graph.
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;

  dyn::VersionedGraph vg(g);
  vg.apply(batch);
  const core::BCResult standalone = core::compute(*vg.current().graph, opt);
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));

  late->request_stop();
  t.join();
  fleet.workers.push_back(std::move(late));  // keep alive through teardown
}

TEST(NetDistributed, FingerprintMismatchRefusesLoadAndCutsWorker) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  const auto wrong = std::make_shared<const graph::CSRGraph>(
      graph::gen::family_by_name("smallworld").make(8, 2));  // different seed
  std::vector<net::WorkerConfig> cfgs = {in_memory_worker(wrong)};
  Fleet fleet(1, {}, std::move(cfgs));
  ASSERT_EQ(fleet.coordinator->worker_count(), 1u);

  // The worker materializes a DIFFERENT graph for the same spec: zero
  // confirmations, and the disagreeing worker is disconnected.
  EXPECT_EQ(fleet.coordinator->load_graph("g0", g, "whatever"), 0u);
  EXPECT_EQ(fleet.coordinator->wait_for_workers(1, std::chrono::milliseconds(200)),
            0u);
}

TEST(NetDistributed, DrainStopsQueriesAndReleasesWorkers) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  Fleet fleet(2, {}, in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  fleet.coordinator->drain();
  EXPECT_EQ(fleet.coordinator->worker_count(), 0u);

  service::Request req;
  req.graph_id = "g0";
  req.options.strategy = core::Strategy::WorkEfficient;
  EXPECT_EQ(fleet.coordinator->query(req).status,
            service::QueryStatus::ServiceStopped);
  // Workers exited their run() loops on Drain; joining must not hang.
  for (auto& t : fleet.threads) {
    if (t.joinable()) t.join();
  }
}

// --- slow-writer culling (fleet self-healing) -----------------------------

TEST(NetDistributed, SlowLorisWriterIsCulledByFrameDeadline) {
  SocketDir dir;
  net::CoordinatorConfig cfg;
  cfg.listen = net::Endpoint::parse(dir.sock());
  cfg.frame_deadline = std::chrono::milliseconds(30);
  net::Coordinator coordinator(std::move(cfg));

  // A client that sends half a Hello frame and then stalls forever: it
  // must be culled by the frame deadline, not allowed to pin the loop's
  // read state while contributing nothing.
  net::Socket raw = net::connect_to(net::Endpoint::parse(dir.sock()));
  ASSERT_TRUE(raw.valid());
  coordinator.run_for(std::chrono::milliseconds(10));  // let accept() land
  const std::vector<std::uint8_t> hello = wire::encode(wire::HelloMsg{}, 1);
  const std::size_t half = hello.size() / 2;
  ASSERT_GT(half, 0u);
  ASSERT_EQ(::send(raw.fd(), hello.data(), half, 0),
            static_cast<ssize_t>(half));
  coordinator.run_for(std::chrono::milliseconds(200));
  EXPECT_GE(coordinator.stats().slow_peer_drops, 1u);
  EXPECT_EQ(coordinator.worker_count(), 0u);
}

TEST(NetDistributed, FrameDeadlineLeavesHealthyWorkersAlone) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  net::CoordinatorConfig cfg;
  cfg.frame_deadline = std::chrono::milliseconds(2000);
  Fleet fleet(2, std::move(cfg), in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);
  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_EQ(fleet.coordinator->stats().slow_peer_drops, 0u);
}

TEST(NetDistributed, ReplicationPlacesGraphOnSubsetAndStillAnswers) {
  const auto g = std::make_shared<const graph::CSRGraph>(test_graph());
  core::Options opt;
  opt.strategy = core::Strategy::WorkEfficient;
  const core::BCResult standalone = core::compute(*g, opt);

  net::CoordinatorConfig cfg;
  cfg.replication = 1;  // consistent-hash ring picks ONE owner
  Fleet fleet(3, std::move(cfg), in_memory_workers(3, g));
  ASSERT_EQ(fleet.coordinator->worker_count(), 3u);
  EXPECT_EQ(fleet.coordinator->load_graph("g0", g, ""), 1u);

  service::Request req;
  req.graph_id = "g0";
  req.options = opt;
  const service::Response resp = fleet.coordinator->query(req);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.scores));
  EXPECT_EQ(fleet.coordinator->stats().local_fallbacks, 0u);
}

// --- accuracy-contract queries through the fleet --------------------------

namespace {

// 1024 vertices: four 128-root strata short of nothing — room for a
// 256 -> 512 -> 768 refinement ladder before saturation.
graph::CSRGraph big_graph() {
  return graph::gen::family_by_name("smallworld").make(10, 1);
}

service::Request budgeted_request(std::uint32_t max_roots,
                                  core::Strategy strategy =
                                      core::Strategy::WorkEfficient) {
  service::Request r;
  r.graph_id = "g0";
  r.options.strategy = strategy;
  r.budget.max_roots = max_roots;
  return r;
}

}  // namespace

// The ISSUE's headline acceptance criterion, fleet half: a cached
// 256-root estimate upgraded to 512 through a 2-worker fleet must be
// memcmp-identical to the standalone service's budgeted answers (which
// test_progressive pins to a fresh single-shot 512-root run).
TEST(NetDistributed, BudgetedUpgradeThroughFleetIsBitwiseIdenticalToStandalone) {
  const auto g = std::make_shared<const graph::CSRGraph>(big_graph());

  service::BcService svc({.workers = 2});
  svc.load_graph("g0", *g);
  const service::Response s256 = svc.query(budgeted_request(256));
  const service::Response s512 = svc.query(budgeted_request(512));  // upgrade
  ASSERT_TRUE(s256.ok() && s512.ok());

  // And a from-scratch 512 with no 256 warm-up, to close the triangle.
  service::BcService fresh_svc({.workers = 2});
  fresh_svc.load_graph("g0", *g);
  const service::Response s512_fresh = fresh_svc.query(budgeted_request(512));
  ASSERT_TRUE(s512_fresh.ok());

  Fleet fleet(2, {}, in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  const service::Response f256 = fleet.coordinator->query(budgeted_request(256));
  ASSERT_TRUE(f256.ok()) << f256.error;
  ASSERT_TRUE(f256.estimate.has_value());
  EXPECT_EQ(f256.estimate->roots_used, 256u);
  EXPECT_TRUE(f256.result->approximate);
  EXPECT_TRUE(bitwise_equal(f256.result->scores, s256.result->scores));

  const service::Response f512 = fleet.coordinator->query(budgeted_request(512));
  ASSERT_TRUE(f512.ok()) << f512.error;
  ASSERT_TRUE(f512.estimate.has_value());
  EXPECT_EQ(f512.estimate->roots_used, 512u);
  EXPECT_LE(f512.estimate->stderr_est, f256.estimate->stderr_est);
  EXPECT_TRUE(bitwise_equal(f512.result->scores, s512.result->scores));
  EXPECT_TRUE(bitwise_equal(f512.result->scores, s512_fresh.result->scores));

  // Both controllers report the same estimate, not only the same scores.
  for (const auto& [fleet_r, standalone_r] :
       {std::pair{&f256, &s256}, std::pair{&f512, &s512}}) {
    ASSERT_TRUE(standalone_r->estimate.has_value());
    const service::Estimate& fe = *fleet_r->estimate;
    const service::Estimate& se = *standalone_r->estimate;
    EXPECT_EQ(fe.roots_used, se.roots_used);
    EXPECT_EQ(fe.rung, se.rung);
    EXPECT_EQ(fe.refining, se.refining);
    EXPECT_EQ(std::memcmp(&fe.stderr_est, &se.stderr_est, sizeof(double)), 0)
        << fe.stderr_est << " vs " << se.stderr_est;
  }

  EXPECT_EQ(fleet.coordinator->stats().budgeted_queries, 2u);
  EXPECT_EQ(fleet.coordinator->stats().local_fallbacks, 0u);
}

// A CPU strategy's budgeted query: the coordinator's service runs the
// stratified controller and shards each stratum by root like any fleet
// run, so the estimate is the standalone service's.
TEST(NetDistributed, BudgetedCpuQueryCarriesEstimate) {
  const auto g = std::make_shared<const graph::CSRGraph>(big_graph());

  service::BcService svc({.workers = 2});
  svc.load_graph("g0", *g);
  const service::Response standalone =
      svc.query(budgeted_request(256, core::Strategy::CpuSerial));
  ASSERT_TRUE(standalone.ok());

  Fleet fleet(2, {}, in_memory_workers(2, g));
  fleet.coordinator->load_graph("g0", g, "");
  const service::Response resp =
      fleet.coordinator->query(budgeted_request(256, core::Strategy::CpuSerial));
  ASSERT_TRUE(resp.ok()) << resp.error;
  ASSERT_TRUE(resp.estimate.has_value());
  EXPECT_EQ(resp.estimate->roots_used, 256u);
  EXPECT_GE(resp.estimate->stderr_est, 0.0);
  EXPECT_TRUE(bitwise_equal(resp.result->scores, standalone.result->scores));
  EXPECT_EQ(fleet.coordinator->stats().budgeted_queries, 1u);
}

// allow_refinement: the coordinator answers at rung 0 and run_for()
// folds the remaining strata in the background; a later identical query
// is served the refined roots from the coordinator's ApproxCache.
TEST(NetDistributed, CoordinatorRefinementUpgradesCachedEstimate) {
  const auto g = std::make_shared<const graph::CSRGraph>(big_graph());
  Fleet fleet(2, {}, in_memory_workers(2, g));
  fleet.coordinator->load_graph("g0", g, "");

  service::Request req = budgeted_request(768);  // 6 strata; rung 0 is 2
  req.budget.allow_refinement = true;
  const service::Response first = fleet.coordinator->query(req);
  ASSERT_TRUE(first.ok()) << first.error;
  ASSERT_TRUE(first.estimate.has_value());
  EXPECT_EQ(first.estimate->roots_used, 256u);
  EXPECT_TRUE(first.estimate->refining);

  for (int i = 0; i < 200 && fleet.coordinator->stats().refine_strata < 4; ++i) {
    fleet.coordinator->run_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(fleet.coordinator->stats().refine_strata, 4u);

  const service::Response again = fleet.coordinator->query(req);
  ASSERT_TRUE(again.ok()) << again.error;
  ASSERT_TRUE(again.estimate.has_value());
  EXPECT_EQ(again.estimate->roots_used, 768u);
  EXPECT_FALSE(again.estimate->refining);
  EXPECT_TRUE(again.from_cache);

  // The refined answer is the same bits a synchronous 768-root budgeted
  // query would have produced.
  service::BcService svc({.workers = 2});
  svc.load_graph("g0", *g);
  const service::Response s768 = svc.query(budgeted_request(768));
  ASSERT_TRUE(s768.ok());
  EXPECT_TRUE(bitwise_equal(again.result->scores, s768.result->scores));
}

// A mutation between the rung-0 answer and the background fold must
// invalidate the cached estimate and drop the queued refinement — stale
// pre-mutation strata are never folded into a post-mutation answer.
TEST(NetDistributed, MutationPurgesPendingRefinement) {
  const auto g = std::make_shared<const graph::CSRGraph>(big_graph());
  Fleet fleet(2, {}, in_memory_workers(2, g));
  fleet.coordinator->load_graph("g0", g, "");

  service::Request req = budgeted_request(768);
  req.budget.allow_refinement = true;
  const service::Response first = fleet.coordinator->query(req);
  ASSERT_TRUE(first.ok()) << first.error;

  dyn::UpdateBatch batch;
  batch.insert(0, 511);
  const service::MutationResult mr = fleet.coordinator->mutate_graph("g0", batch);
  EXPECT_GE(mr.approx_invalidated, 1u);

  for (int i = 0; i < 100 && fleet.coordinator->stats().refine_dropped == 0; ++i) {
    fleet.coordinator->run_for(std::chrono::milliseconds(10));
  }
  EXPECT_GE(fleet.coordinator->stats().refine_dropped, 1u);
  EXPECT_EQ(fleet.coordinator->stats().refine_strata, 0u);

  // The re-query starts a fresh rung 0 on the new epoch, never serving
  // pre-mutation bits.
  const service::Response again = fleet.coordinator->query(req);
  ASSERT_TRUE(again.ok()) << again.error;
  ASSERT_TRUE(again.estimate.has_value());
  EXPECT_EQ(again.estimate->roots_used, 256u);
  EXPECT_FALSE(again.from_cache);
}

namespace {

/// The roots of rung 0 (the first two strata) of the default plan on an
/// n-vertex graph at the default seed — what the contract controller
/// computes before it may publish.
std::vector<graph::VertexId> rung0_roots(std::size_t n) {
  core::RefinableEstimate est(n, core::StratumPlan{}, core::Options{}.seed);
  std::vector<graph::VertexId> roots = est.next_stratum_roots();
  est.fold(std::vector<double>(n, 0.0), roots.size());
  const std::vector<graph::VertexId> second = est.next_stratum_roots();
  roots.insert(roots.end(), second.begin(), second.end());
  return roots;
}

}  // namespace

// A deadline that passes after rung 0 serves the best published rung in
// both controllers: the coordinator sends each stratum with the remaining
// deadline, so it answers on time instead of waiting out slow strata. The
// deadline leaves rung 0 room even under the sanitizers.
TEST(NetDistributed, BudgetedDeadlineMatchesStandalone) {
  const auto g = std::make_shared<const graph::CSRGraph>(big_graph());
  const std::vector<graph::VertexId> rung0 = rung0_roots(g->num_vertices());
  // Every run with a root outside rung 0 blocks until its own deadline
  // fires (bounded, should it carry none), then computes — which the
  // cancelled token turns into util::Cancelled.
  const auto slow_after_rung0 = [rung0](const graph::CSRGraph& graph,
                                        const core::Options& o) {
    const bool outside = std::any_of(o.roots.begin(), o.roots.end(), [&](graph::VertexId r) {
      return std::find(rung0.begin(), rung0.end(), r) == rung0.end();
    });
    const auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (outside && !o.resilience.cancel.cancelled() &&
           std::chrono::steady_clock::now() < give_up) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return core::compute(graph, o);
  };

  service::BcService plain({.workers = 2});
  plain.load_graph("g0", *g);
  const service::Response r256 = plain.query(budgeted_request(256));
  ASSERT_TRUE(r256.ok());

  service::Request req = budgeted_request(768);
  req.budget.deadline = std::chrono::milliseconds(1000);

  service::ServiceConfig slow_cfg{.workers = 1};
  slow_cfg.compute_fn = slow_after_rung0;
  service::BcService slow(slow_cfg);
  slow.load_graph("g0", *g);
  const service::Response standalone = slow.query(req);
  ASSERT_TRUE(standalone.ok()) << standalone.error;
  ASSERT_TRUE(standalone.estimate.has_value());
  EXPECT_EQ(standalone.estimate->roots_used, 256u);
  EXPECT_TRUE(bitwise_equal(standalone.result->scores, r256.result->scores));

  std::vector<net::WorkerConfig> cfgs = in_memory_workers(2, g);
  for (net::WorkerConfig& wc : cfgs) wc.service.compute_fn = slow_after_rung0;
  Fleet fleet(2, {}, std::move(cfgs));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  const auto t0 = std::chrono::steady_clock::now();
  const service::Response resp = fleet.coordinator->query(req);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  ASSERT_TRUE(resp.ok()) << resp.error;
  ASSERT_TRUE(resp.estimate.has_value());
  EXPECT_EQ(resp.estimate->roots_used, 256u);
  EXPECT_TRUE(bitwise_equal(resp.result->scores, r256.result->scores));
  EXPECT_LE(elapsed, std::chrono::seconds(2));
}

// Strata are sub-runs of one budgeted query: they neither count as client
// queries nor leave exact-cache entries that later requests could hit.
TEST(NetDistributed, BudgetedStrataStayOutOfExactCache) {
  const auto g = std::make_shared<const graph::CSRGraph>(big_graph());
  Fleet fleet(2, {}, in_memory_workers(2, g));
  ASSERT_EQ(fleet.coordinator->load_graph("g0", g, ""), 2u);

  const service::Response budgeted = fleet.coordinator->query(budgeted_request(256));
  ASSERT_TRUE(budgeted.ok()) << budgeted.error;
  EXPECT_EQ(fleet.coordinator->stats().queries, 1u);

  // The exact request whose options equal stratum 0's.
  service::Request exact;
  exact.graph_id = "g0";
  exact.options.strategy = core::Strategy::WorkEfficient;
  exact.options.roots =
      core::RefinableEstimate(g->num_vertices(), core::StratumPlan{}, 42)
          .next_stratum_roots();
  exact.options.sample_roots = 0;
  exact.options.halve_undirected = false;
  exact.options.normalize = false;
  const service::Response resp = fleet.coordinator->query(exact);
  ASSERT_TRUE(resp.ok()) << resp.error;
  EXPECT_FALSE(resp.from_cache);
  EXPECT_EQ(fleet.coordinator->stats().queries, 2u);
}
