// serve: one generator thread keeps 4 requests outstanding against a
// BcService (workers = nproc-1, compute_threads = 1, refresher on).
// Reads: 85% Zipf(1.1) over 64 hot keys on kron-13 (sampling or
// work-efficient, 32 roots, top_k 10), 10% unique-seed sampled misses on
// kron-13, 5% exact cpu-serial full BC on a live smallworld-10. Every
// 100th op is a 2-edge mutate_graph on the live graph. service (cache,
// coalescing, admission) and dyn (commit, refresh) do most of the work.

#include <algorithm>
#include <cmath>
#include <cstring>
#include <future>
#include <random>
#include <span>

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

constexpr std::size_t kHotKeys = 64;
constexpr double kZipfExponent = 1.1;
constexpr std::size_t kOutstanding = 4;
constexpr std::uint64_t kWriteEvery = 100;
constexpr std::uint32_t kRoots = 32;

enum class Kind : std::uint8_t { Hot, Miss, Exact };

struct Read {
  Kind kind = Kind::Hot;
  std::uint64_t key = 0;    // hot key id, or miss serial
  std::size_t epoch = 0;    // live-graph epoch index at submit (Exact)
  bool ok = false;
  bool hit = false;
  bool coalesced = false;
  double latency_ms = 0.0;  // client-timed submit -> observed completion
  double submit_us = 0.0;   // the submit() call alone
  double total_ms = 0.0;    // service-reported
  double compute_ms = 0.0;
  /// Hot and Exact answers (hits share the cached object). A unique-seed
  /// miss keeps only its kernel counters, so memory stays flat.
  std::shared_ptr<const core::BCResult> result;
  kernels::RunMetrics metrics;
};

struct EpochStamp {
  std::uint64_t fingerprint = 0;
  double edges = 0.0;  // undirected
};

class Serve {
 public:
  Serve(const Args& args, Canary& canary, Spans& spans)
      : seed_(args.seed), canary_(canary), spans_(spans), rng_(mix(args.seed, 2)) {
    graph::CSRGraph kron, live;
    {
      auto span = spans_.scope("graph.gen");
      kron = graph::gen::family_by_name("kron").make(13, mix(kGraphSeed, 0));
    }
    {
      auto span = spans_.scope("graph.gen");
      live = graph::gen::family_by_name("smallworld").make(10, mix(kGraphSeed, 1));
    }
    service::ServiceConfig cfg;
    cfg.workers = std::max<std::size_t>(1, nproc() - 1);
    cfg.compute_threads = 1;
    cfg.refresh.enabled = true;
    // Bounded so the unique-seed misses cycle through the LRU instead of
    // growing the process for the whole run (the hot set is ~4 MiB).
    cfg.cache_bytes = 16ull << 20;
    svc_ = std::make_unique<service::BcService>(cfg);
    svc_->load_graph("kron", std::make_shared<const graph::CSRGraph>(std::move(kron)));
    svc_->load_graph("live", std::make_shared<const graph::CSRGraph>(std::move(live)));
    kron_ = svc_->graph("kron");
    live0_ = live_ = svc_->graph("live");
    epochs_.push_back(stamp(*live_));

    double total = 0.0;
    for (std::size_t k = 0; k < kHotKeys; ++k) {
      total += 1.0 / std::pow(static_cast<double>(k + 1), kZipfExponent);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  Loop run(double seconds) {
    warm_up();
    Loop loop;
    struct Pending {
      service::Ticket ticket;
      Clock::time_point start;
      std::size_t read = 0;
    };
    std::vector<Pending> pending;
    const auto t0 = Clock::now();
    auto complete = [&](const Pending& p) {
      const double latency = ms_between(p.start, Clock::now());
      const service::Response r = svc_->wait(p.ticket);
      Read& rd = reads_[p.read];
      rd.latency_ms = latency;
      rd.ok = r.ok();
      rd.hit = r.from_cache;
      rd.coalesced = r.coalesced;
      rd.total_ms = r.total_ms;
      rd.compute_ms = r.compute_ms;
      if (r.ok()) {
        rd.metrics = r.result->kernel_metrics;
        if (rd.kind != Kind::Miss) rd.result = r.result;
      }
      double work = 0.0;
      if (r.ok() && !r.from_cache && !r.coalesced) {
        const double m = rd.kind == Kind::Exact
                             ? epochs_[rd.epoch].edges
                             : static_cast<double>(kron_->num_undirected_edges());
        work = m * static_cast<double>(r.result->roots_processed);
      }
      loop.add(t0, latency, work);
    };

    const auto deadline = t0 + std::chrono::duration_cast<Clock::duration>(
                                   std::chrono::duration<double>(seconds));
    for (;;) {
      const bool open = Clock::now() < deadline;
      while (open && pending.size() < kOutstanding) {
        if (++ops_issued_ % kWriteEvery == 0) {
          write();
          loop.add(t0, -1.0, 0.0);
          continue;
        }
        Pending p{{}, Clock::now(), reads_.size()};
        reads_.push_back(next_read());
        service::Request req = request_for(reads_.back());
        {
          auto span = spans_.scope("service.submit");
          p.ticket = svc_->submit(std::move(req));
        }
        reads_.back().submit_us = ms_between(p.start, Clock::now()) * 1e3;
        if (p.ticket.cache_hit) {
          complete(p);
        } else {
          pending.push_back(std::move(p));
        }
      }
      if (pending.empty()) {
        if (!open) break;
        continue;
      }
      // Reap what finished; otherwise wait briefly on the oldest.
      bool reaped = false;
      for (std::size_t i = 0; i < pending.size();) {
        if (pending[i].ticket.future.wait_for(std::chrono::seconds(0)) ==
            std::future_status::ready) {
          complete(pending[i]);
          pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
          reaped = true;
        } else {
          ++i;
        }
      }
      if (!reaped) pending.front().ticket.future.wait_for(std::chrono::microseconds(100));
    }
    loop.seconds = seconds_since(t0);
    return loop;
  }

  std::uint64_t check() {
    std::uint64_t failed = write_failures_;
    std::map<std::uint64_t, const core::BCResult*> first;  // hot key -> first answer
    // Reads are in submit order, so exact reads never go back an epoch and
    // one forward replay of the writes rebuilds each epoch they ask about.
    dyn::VersionedGraph replay(live0_);
    std::size_t replayed = 0, want_epoch = epochs_.size(), epochs_checked = 0;
    std::vector<double> want;  // Brandes of the live graph at want_epoch
    for (const Read& rd : reads_) {
      bool ok = rd.ok && (rd.kind == Kind::Miss || rd.result != nullptr);
      if (ok && rd.kind == Kind::Miss) {
        canary_.record("miss" + std::to_string(rd.key), rd.metrics);
        kernels_.add(rd.metrics);
      } else if (ok && rd.kind == Kind::Exact) {
        if (rd.epoch != want_epoch) {
          while (replayed < rd.epoch) replay.apply(batches_[replayed++]);
          const auto g = replay.current().graph;
          const bool same = replayed == rd.epoch &&
                            g->fingerprint() == epochs_[rd.epoch].fingerprint;
          want = same ? cpu::brandes(*g).bc : std::vector<double>{};
          want_epoch = rd.epoch;
          ++epochs_checked;
        }
        // The refresher may patch an entry forward (value-equal, not
        // bitwise), so live answers are held to its stated 1e-7 bound
        // against a from-scratch Brandes of their epoch.
        ok = !want.empty() && rd.result->scores.size() == want.size();
        for (std::size_t v = 0; ok && v < want.size(); ++v) {
          ok = std::fabs(rd.result->scores[v] - want[v]) <=
               1e-7 * std::max(1.0, std::fabs(want[v]));
        }
      } else if (ok) {
        // kron never mutates: every answer to a hot key, cache hits and
        // coalesced twins included, is memcmp-equal to its first compute.
        const auto [it, fresh] = first.emplace(rd.key, rd.result.get());
        const auto& a = it->second->scores;
        const auto& b = rd.result->scores;
        ok = a.size() == b.size() &&
             std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
        if (fresh) {
          canary_.record("hot" + std::to_string(rd.key), rd.metrics);
          kernels_.add(rd.metrics);
        }
      }
      if (!ok) {
        ++failed;
        std::fprintf(stderr, "  WRONG: read kind %d key %llu epoch %zu\n",
                     static_cast<int>(rd.kind), static_cast<unsigned long long>(rd.key),
                     rd.epoch);
      }
    }
    std::fprintf(stderr, "  checked %zu reads over %zu live epochs\n", reads_.size(),
                 epochs_checked);
    return failed;
  }

  void layers(Values& v) {
    std::vector<double> submit_us, hit_us, queue_ms, compute_ms;
    double hits = 0, coalesced = 0;
    const std::span<const Read> timed(reads_.begin() + kHotKeys, reads_.end());  // no warm-up
    for (const Read& rd : timed) {
      submit_us.push_back(rd.submit_us);
      if (rd.hit) {
        ++hits;
        hit_us.push_back(rd.latency_ms * 1e3);
      } else if (rd.coalesced) {
        ++coalesced;
      } else if (rd.ok) {
        queue_ms.push_back(rd.total_ms - rd.compute_ms);
        compute_ms.push_back(rd.compute_ms);
      }
    }
    v["service.submit_us"] = mean(submit_us);
    v["service.hit_us"] = mean(hit_us);
    v["service.queue_ms"] = mean(queue_ms);
    v["service.compute_ms"] = mean(compute_ms);
    v["service.hit_rate"] = timed.empty() ? 0.0 : hits / static_cast<double>(timed.size());
    v["service.coalesced"] = coalesced;
    v["dyn.mutate_ms"] = mean(write_ms_);
    v["mutate_p50_ms"] = quantile(write_ms_, 0.5);
    const service::MetricsSnapshot m = svc_->metrics();
    v["dyn.affected_fraction"] = m.affected_fraction_mean;
    v["dyn.patched"] = static_cast<double>(m.refresh_patched);
    v["dyn.invalidated"] = static_cast<double>(m.refresh_invalidated);
    kernels_.put(v);

    // dyn.refresh_ms: with the exact answer cached, mutate and wait until
    // the refresher has patched it forward.
    std::vector<double> refresh_ms;
    for (int rep = 0; rep < 5; ++rep) {
      (void)svc_->query(exact_request());
      const auto t0 = Clock::now();
      write();
      svc_->drain_refreshes();
      refresh_ms.push_back(ms_between(t0, Clock::now()));
    }
    v["dyn.refresh_ms"] = mean(refresh_ms);

    const auto roots = core::sample_roots(kron_->num_vertices(), kRoots, mix(seed_, 3));
    const std::vector<ProbeInput> inputs = {
        {"kron", kron_.get(), roots},
        {"live", live0_.get(), core::sample_roots(live0_->num_vertices(), kRoots, mix(seed_, 4))}};
    probe_graph(inputs, v, spans_);
    probe_kernel_stages(inputs, v);
    probe_cpu(inputs[0], v, spans_);
    probe_cache(*kron_, v);
    probe_wire(kron_->num_vertices(), v);
  }

 private:
  // Untimed: compute every hot key once, 16 at a time, so the measured loop
  // starts in the steady state. Cold, its first 2-4 s ran at half the
  // steady ops/s and moved which window was the median. The answers join
  // reads_, so check() still holds every later hit to a key's first compute.
  void warm_up() {
    for (std::uint64_t base = 0; base < kHotKeys; base += 4 * kOutstanding) {
      std::vector<std::pair<std::size_t, service::Ticket>> wave;
      for (std::uint64_t k = base; k < std::min(kHotKeys, base + 4 * kOutstanding); ++k) {
        Read rd;
        rd.key = k;
        wave.emplace_back(reads_.size(), svc_->submit(request_for(rd)));
        reads_.push_back(std::move(rd));
      }
      for (auto& [i, ticket] : wave) {
        const service::Response r = svc_->wait(ticket);
        reads_[i].ok = r.ok();
        if (r.ok()) {
          reads_[i].metrics = r.result->kernel_metrics;
          reads_[i].result = r.result;
        }
      }
    }
  }

  // The mix is stratified: each block of 20 reads holds exactly 17 hot,
  // 2 miss and 1 exact read in a seeded shuffle, so the shares hold in
  // every window instead of only on average.
  Read next_read() {
    if (block_.empty()) {
      block_.assign(17, Kind::Hot);
      block_.insert(block_.end(), 2, Kind::Miss);
      block_.push_back(Kind::Exact);
      std::shuffle(block_.begin(), block_.end(), rng_);
    }
    Read rd;
    rd.kind = block_.back();
    block_.pop_back();
    if (rd.kind == Kind::Hot) {
      const double z = std::uniform_real_distribution<double>(0.0, 1.0)(rng_);
      rd.key = static_cast<std::uint64_t>(
          std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end() - 1, z) - zipf_cdf_.begin());
    } else if (rd.kind == Kind::Miss) {
      rd.key = misses_++;
    } else {
      rd.epoch = epochs_.size() - 1;
    }
    return rd;
  }

  service::Request exact_request() const {
    service::Request r;
    r.graph_id = "live";
    r.options.strategy = core::Strategy::CpuSerial;
    r.top_k = 10;
    return r;
  }

  service::Request request_for(const Read& rd) const {
    if (rd.kind == Kind::Exact) return exact_request();
    service::Request r;
    r.graph_id = "kron";
    r.options.sample_roots = kRoots;
    r.top_k = 10;
    if (rd.kind == Kind::Hot) {
      r.options.strategy =
          rd.key % 2 == 0 ? core::Strategy::Sampling : core::Strategy::WorkEfficient;
      r.options.seed = mix(seed_, 1000 + rd.key);
    } else {
      r.options.strategy = core::Strategy::Sampling;
      r.options.seed = mix(seed_, 1'000'000 + rd.key);
    }
    return r;
  }

  // One 2-edge batch on the live graph: insert a random pair, remove a
  // random existing edge. Synchronous in the generator thread.
  void write() {
    const graph::CSRGraph& g = *live_;
    const graph::VertexId n = g.num_vertices();
    std::uniform_int_distribution<graph::VertexId> pick(0, n - 1);
    dyn::UpdateBatch batch;
    const graph::VertexId a = pick(rng_);
    batch.insert(a, (a + 1 + pick(rng_) % (n - 1)) % n);
    graph::VertexId w = pick(rng_);
    while (g.degree(w) == 0) w = (w + 1) % n;
    const auto nb = g.neighbors(w);
    batch.remove(w, nb[pick(rng_) % nb.size()]);
    const auto t0 = Clock::now();
    try {
      auto span = spans_.scope("service.mutate_graph");
      (void)svc_->mutate_graph("live", batch);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "  mutate_graph threw: %s\n", e.what());
      ++write_failures_;
      batch = {};
    }
    write_ms_.push_back(ms_between(t0, Clock::now()));
    batches_.push_back(std::move(batch));
    live_ = svc_->graph("live");
    epochs_.push_back(stamp(*live_));
  }

  static EpochStamp stamp(const graph::CSRGraph& g) {
    return {g.fingerprint(), static_cast<double>(g.num_undirected_edges())};
  }

  std::uint64_t seed_;
  Canary& canary_;
  Spans& spans_;
  std::mt19937_64 rng_;
  std::vector<double> zipf_cdf_;
  std::vector<Kind> block_;  // kinds left in the current block of 20 reads
  std::uint64_t ops_issued_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t write_failures_ = 0;
  std::vector<double> write_ms_;
  std::vector<Read> reads_;
  KernelTotals kernels_;
  std::shared_ptr<const graph::CSRGraph> kron_;
  // The live graph is not kept per epoch, which would grow the process with
  // every write and tie peak_rss_mb to ops/s: check() replays the batches
  // on the first epoch and matches each replayed epoch's fingerprint.
  std::shared_ptr<const graph::CSRGraph> live0_, live_;  // first and current epoch
  std::vector<EpochStamp> epochs_;        // per epoch; epoch i follows write i
  std::vector<dyn::UpdateBatch> batches_;  // per write; empty when it threw
  std::unique_ptr<service::BcService> svc_;  // last: stops before the rest goes
};

}  // namespace

Outcome run_serve(const Args& args) { return drive<Serve>(args); }

}  // namespace perfbench
