// fleet: one caller, one query at a time, through a net::Coordinator and
// two in-process net::Workers (one service thread each) over a Unix
// socket. Queries are cold unique-seed work-efficient runs with 8 sampled
// roots on kron-12: 8 one-root block shards, 4 per worker. net (shard
// dispatch, wire, fold) does most of the work.
//
// Why 8 roots: a worker checks finished shards on a 10 ms poll tick, so a
// query costs one tick per 10 ms of per-worker compute. At 32 roots that
// compute sits above 10 ms, and at 16 (about 9 ms) a 15% slower machine
// made a share of queries take two ticks, so latency_p90_ms jumped between
// 12 and 21 ms across seeds. At 8 (about 5 ms) every query fits one tick.

#include <filesystem>
#include <thread>
#include <unistd.h>

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

constexpr std::uint32_t kScale = 12;
constexpr std::uint32_t kRoots = 8;
constexpr std::size_t kWorkers = 2;
constexpr std::size_t kOverheadQueries = 40;
constexpr std::size_t kCacheBytes = 8ull << 20;

struct Query {
  std::uint64_t seed = 0;
  bool ok = false;
  double ms = 0.0;
  std::uint64_t shards = 0;
  std::uint64_t retries = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t digest = 0;  // of the answer's scores
};

class Fleet {
 public:
  Fleet(const Args& args, Canary& canary, Spans& spans)
      : seed_(args.seed), canary_(canary), spans_(spans) {
    static int generation = 0;
    {
      auto span = spans_.scope("graph.gen");
      graph_ = std::make_shared<const graph::CSRGraph>(
          graph::gen::family_by_name("kron").make(kScale, mix(kGraphSeed, 0)));
    }
    sock_ = run_path("fleet-" + std::to_string(::getpid()) + "-" +
                     std::to_string(generation++) + ".sock");
    std::filesystem::remove(sock_);
    try {
      // Result caches are bounded so cold queries cycle through them
      // instead of growing the process for the whole run.
      net::CoordinatorConfig cc;
      cc.listen = net::Endpoint::parse("unix:" + sock_);
      cc.cache_bytes = kCacheBytes;
      coord_ = std::make_unique<net::Coordinator>(cc);
      for (std::size_t i = 0; i < kWorkers; ++i) {
        net::WorkerConfig wc;
        wc.connect = cc.listen;
        wc.name = "perfbench-worker-" + std::to_string(i);
        wc.service.workers = 1;
        wc.service.cache_bytes = kCacheBytes;
        wc.graph_loader = [g = graph_](const std::string&) { return *g; };
        workers_.push_back(std::make_unique<net::Worker>(wc));
        threads_.emplace_back([w = workers_.back().get()] {
          try {
            w->run();
          } catch (const std::exception& e) {
            std::fprintf(stderr, "  worker exited: %s\n", e.what());
          }
        });
      }
      std::size_t ready = 0, loaded = 0;
      {
        auto span = spans_.scope("net.wait_for_workers");
        ready = coord_->wait_for_workers(kWorkers, std::chrono::seconds(20));
      }
      {
        auto span = spans_.scope("net.load_graph");
        loaded = coord_->load_graph("kron", graph_, "kron");
      }
      if (ready < kWorkers || loaded < kWorkers) {
        throw std::runtime_error("fleet did not come up: " + std::to_string(ready) +
                                 " ready, " + std::to_string(loaded) + " loaded");
      }
    } catch (...) {
      teardown();
      throw;
    }
  }

  ~Fleet() { teardown(); }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  Loop run(double seconds) {
    Loop loop;
    const double m = static_cast<double>(graph_->num_undirected_edges());
    const auto t0 = Clock::now();
    while (seconds_since(t0) < seconds) {
      Query q;
      q.seed = mix(seed_, 5000 + queries_.size());
      const net::DistStats before = coord_->stats();
      const auto start = Clock::now();
      service::Response r;
      {
        auto span = spans_.scope("net.query");
        r = coord_->query(request(q.seed));
      }
      q.ms = ms_between(start, Clock::now());
      const net::DistStats& after = coord_->stats();
      q.ok = r.ok() && !r.degraded && r.result != nullptr;
      q.shards = after.shards_dispatched - before.shards_dispatched;
      q.retries = after.shard_retries - before.shard_retries;
      q.fallbacks = after.local_fallbacks - before.local_fallbacks;
      double work = 0.0;
      if (q.ok) {
        q.digest = digest(r.result->scores);
        work = m * static_cast<double>(r.result->roots_processed);
      }
      loop.add(t0, q.ms, work);
      queries_.push_back(std::move(q));
    }
    loop.seconds = seconds_since(t0);
    return loop;
  }

  std::uint64_t check() {
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < queries_.size(); ++i) {
      const Query& q = queries_[i];
      core::Options o = request(q.seed).options;
      o.cpu_threads = nproc();
      const auto t0 = Clock::now();
      const core::BCResult want = core::compute(*graph_, o);
      overhead_ms_.push_back(ms_between(t0, Clock::now()) -
                             want.kernel_metrics.wall_seconds * 1e3);
      std::string key = "q";  // appended, not "q" + ...: GCC 12 -Wrestrict false positive
      key += std::to_string(i);
      canary_.record(key, want.kernel_metrics, q.shards);
      kernels_.add(want.kernel_metrics);
      const bool ok = q.ok && q.digest == digest(want.scores);
      if (!ok) {
        ++failed;
        std::fprintf(stderr, "  WRONG: query %zu (seed %llu)\n", i,
                     static_cast<unsigned long long>(q.seed));
      }
    }
    return failed;
  }

  void layers(Values& v) {
    std::vector<double> ms, shards;
    double retries = 0, fallbacks = 0;
    for (const Query& q : queries_) {
      ms.push_back(q.ms);
      shards.push_back(static_cast<double>(q.shards));
      retries += static_cast<double>(q.retries);
      fallbacks += static_cast<double>(q.fallbacks);
    }
    v["net.query_ms"] = mean(ms);
    v["net.shards_per_query"] = mean(shards);
    v["net.shard_retries"] = retries;
    v["net.local_fallbacks"] = fallbacks;
    const std::size_t bytes = probe_wire(graph_->num_vertices(), v);
    v["net.result_bytes_per_query"] = mean(shards) * static_cast<double>(bytes);

    // The same requests on a standalone BcService with the fleet's total
    // compute threads (2 workers x 1 thread).
    {
      service::ServiceConfig cfg;
      cfg.workers = 1;
      cfg.compute_threads = kWorkers;
      service::BcService svc(cfg);
      svc.load_graph("kron", graph_);
      std::vector<double> local, fleet;
      for (std::size_t i = 0; i < std::min(kOverheadQueries, queries_.size()); ++i) {
        const auto t0 = Clock::now();
        const service::Response r = svc.query(request(queries_[i].seed));
        local.push_back(ms_between(t0, Clock::now()));
        fleet.push_back(queries_[i].ms);
        if (!r.ok()) std::fprintf(stderr, "  standalone query %zu failed\n", i);
      }
      v["net.overhead_ms"] = quantile(fleet, 0.5) - quantile(local, 0.5);
    }

    kernels_.put(v);
    v["core.overhead_ms"] = mean(overhead_ms_);
    const std::vector<ProbeInput> inputs = {
        {"kron", graph_.get(), core::sample_roots(graph_->num_vertices(), kRoots, mix(seed_, 3))}};
    probe_graph(inputs, v, spans_);
    probe_kernel_stages(inputs, v);
    probe_cpu(inputs[0], v, spans_);
    probe_cache(*graph_, v);
  }

 private:
  static service::Request request(std::uint64_t seed) {
    service::Request r;
    r.graph_id = "kron";
    r.options.strategy = core::Strategy::WorkEfficient;
    r.options.sample_roots = kRoots;
    r.options.seed = seed;
    return r;
  }

  void teardown() noexcept {
    try {
      if (coord_) coord_->drain();
    } catch (const std::exception& e) {
      std::fprintf(stderr, "  drain failed: %s\n", e.what());
    }
    for (auto& w : workers_) w->request_stop();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    threads_.clear();
    workers_.clear();
    coord_.reset();
    std::error_code ec;
    std::filesystem::remove(sock_, ec);
  }

  std::uint64_t seed_;
  Canary& canary_;
  Spans& spans_;
  std::shared_ptr<const graph::CSRGraph> graph_;
  std::string sock_;
  std::vector<Query> queries_;
  std::vector<double> overhead_ms_;
  KernelTotals kernels_;
  std::unique_ptr<net::Coordinator> coord_;
  std::vector<std::unique_ptr<net::Worker>> workers_;
  std::vector<std::thread> threads_;
};

}  // namespace

Outcome run_fleet(const Args& args) { return drive<Fleet>(args); }

}  // namespace perfbench
