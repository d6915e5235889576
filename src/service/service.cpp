#include "service/service.hpp"

#if defined(__linux__)
#include <sys/resource.h>
#include <sys/syscall.h>
#include <unistd.h>
#endif

#include <algorithm>
#include <cstdio>
#include <exception>
#include <thread>

#include "gpusim/faults.hpp"
#include "gpusim/memory.hpp"
#include "graph/io.hpp"
#include "util/backoff.hpp"
#include "util/timer.hpp"

namespace hbc::service {

namespace {

using Clock = std::chrono::steady_clock;

Response failed(QueryStatus status, std::string error = {}) {
  Response r;
  r.status = status;
  r.error = std::move(error);
  return r;
}

Response cached_response(std::shared_ptr<const CachedResult> hit) {
  Response r;
  r.status = QueryStatus::Ok;
  r.result = std::shared_ptr<const core::BCResult>(hit, &hit->result);
  r.from_cache = true;
  return r;
}

/// The exact-cache insert rule: answer `resp` with `result` and keep it
/// under `key` — unless the answer is degraded (a substitute or partial)
/// or budgeted (`resp.estimate` set): keyed by the exact options
/// signature, either would later be served to an exact request.
void store_result(ResultCache& cache, const std::string& key, core::BCResult result,
                  bool refreshable, Response& resp) {
  if (resp.degraded || resp.estimate) {
    resp.result = std::make_shared<const core::BCResult>(std::move(result));
    return;
  }
  auto cached = std::make_shared<CachedResult>();
  cached->result = std::move(result);
  cached->bytes = estimate_result_bytes(cached->result);
  cached->refreshable = refreshable;
  cache.put(key, cached);
  resp.result = std::shared_ptr<const core::BCResult>(cached, &cached->result);
}

}  // namespace

const char* to_string(QueryStatus status) noexcept {
  switch (status) {
    case QueryStatus::Ok: return "ok";
    case QueryStatus::QueueFull: return "queue-full";
    case QueryStatus::DeadlineExceeded: return "deadline-exceeded";
    case QueryStatus::GraphNotFound: return "graph-not-found";
    case QueryStatus::ServiceStopped: return "service-stopped";
    case QueryStatus::BadRequest: return "bad-request";
    case QueryStatus::Failed: return "failed";
  }
  return "?";
}

BcService::BcService(ServiceConfig config)
    : cfg_(std::move(config)),
      cache_(cfg_.cache_bytes),
      approx_cache_(cfg_.approx.cache_bytes),
      queue_(cfg_.admission),
      workers_(cfg_.workers != 0
                   ? cfg_.workers
                   : std::max<std::size_t>(1, std::thread::hardware_concurrency())),
      pool_(std::make_unique<util::ThreadPool>(workers_)) {
  for (std::size_t i = 0; i < workers_; ++i) {
    pool_->submit([this] { worker_loop(); });
  }
  if (cfg_.refresh.enabled) {
    refresh_pool_ = std::make_unique<util::ThreadPool>(
        std::max<std::size_t>(1, cfg_.refresh.threads));
    refresher_ = std::thread([this] { refresher_loop(); });
  }
}

BcService::~BcService() { stop(); }

void BcService::load_graph(const std::string& id, graph::CSRGraph g) {
  load_graph(id, std::make_shared<const graph::CSRGraph>(std::move(g)));
}

void BcService::load_graph(const std::string& id,
                           std::shared_ptr<const graph::CSRGraph> g) {
  if (!g) throw std::invalid_argument("load_graph: null graph");
  GraphEntry entry;
  entry.graph = std::move(g);
  entry.fingerprint = graph_fingerprint(*entry.graph);  // O(n+m), outside the lock
  std::lock_guard<std::mutex> lock(mu_);
  graphs_[id] = std::move(entry);
}

std::uint64_t BcService::load_graph_file(const std::string& id,
                                         const std::string& path) {
  const auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  // .hbcg/.hbcgz open zero-copy (register-by-path → mmap); everything
  // else goes through the format loaders into heap. read_auto would make
  // the same choice, but dispatching here keeps the intent explicit.
  graph::CSRGraph g = (ends_with(".hbcg") || ends_with(".hbcgz"))
                          ? graph::io::open_mapped(path)
                          : graph::io::read_auto(path);
  const std::uint64_t fingerprint = g.fingerprint();
  load_graph(id, std::make_shared<const graph::CSRGraph>(std::move(g)));
  return fingerprint;
}

bool BcService::evict_graph(const std::string& id) {
  std::uint64_t fingerprint = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = graphs_.find(id);
    if (it == graphs_.end()) return false;
    fingerprint = it->second.fingerprint;
    graphs_.erase(it);
    // Another id registered over the same structure keeps the cache warm.
    for (const auto& [other_id, entry] : graphs_) {
      if (entry.fingerprint == fingerprint) return true;
    }
  }
  const std::string prefix = fingerprint_prefix(fingerprint);
  cache_.erase_if([&prefix](const std::string& key) {
    return key.compare(0, prefix.size(), prefix) == 0;
  });
  approx_cache_.invalidate_prefix(prefix);
  return true;
}

std::vector<std::string> BcService::graph_ids() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> ids;
  ids.reserve(graphs_.size());
  for (const auto& [id, entry] : graphs_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

std::shared_ptr<const graph::CSRGraph> BcService::graph(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(id);
  return it == graphs_.end() ? nullptr : it->second.graph;
}

std::optional<BcService::GraphInfo> BcService::graph_info(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(id);
  if (it == graphs_.end()) return std::nullopt;
  const GraphEntry& entry = it->second;
  const auto& storage = *entry.graph->storage();
  GraphInfo info;
  info.fingerprint = entry.fingerprint;
  info.epoch = entry.epoch;
  info.residency = storage.residency();
  info.num_vertices = entry.graph->num_vertices();
  info.num_directed_edges = entry.graph->num_directed_edges();
  info.resident_bytes = storage.resident_bytes();
  info.mapped_bytes = storage.mapped_bytes();
  info.adjacency_bytes = storage.adjacency_bytes();
  info.decoded_bytes = storage.decoded_row_bytes() + storage.decoded_adjacency_bytes();
  return info;
}

std::uint64_t BcService::graph_epoch(const std::string& id) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = graphs_.find(id);
  return it == graphs_.end() ? 0 : it->second.epoch;
}

MutationResult BcService::mutate_graph(const std::string& id,
                                       const dyn::UpdateBatch& batch) {
  std::shared_ptr<dyn::VersionedGraph> vg;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) throw std::runtime_error("mutate_graph: service is stopped");
    const auto it = graphs_.find(id);
    if (it == graphs_.end()) {
      throw std::invalid_argument("mutate_graph: no graph registered as '" + id + "'");
    }
    // Created on the first mutation; throws for a directed graph.
    if (!it->second.versioned) {
      it->second.versioned =
          std::make_shared<dyn::VersionedGraph>(it->second.graph, cfg_.tracer);
    }
    vg = it->second.versioned;
  }

  // Stage + commit outside mu_: the copy-on-write CSR rebuild is O(n + m)
  // and must not block submits. Mutations of the same graph serialize on
  // the VersionedGraph's own mutex.
  const dyn::CommitResult cr = vg->apply(batch);

  MutationResult out;
  out.epoch = cr.after.id;
  out.fingerprint_before = cr.before.fingerprint;
  out.fingerprint_after = cr.after.fingerprint;
  out.applied = cr.applied.size();
  out.noops = cr.noops;
  if (cr.applied.empty()) return out;  // all-no-op batch: same epoch

  bool fingerprint_shared = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = graphs_.find(id);
    // Skip the registry update if the id was evicted or reloaded while we
    // were rebuilding — the commit still happened on `vg`, but that chain
    // no longer backs the registered id.
    if (it != graphs_.end() && it->second.versioned == vg) {
      it->second.graph = cr.after.graph;
      it->second.fingerprint = cr.after.fingerprint;
      it->second.epoch = cr.after.id;
    }
    for (const auto& [other_id, entry] : graphs_) {
      if (other_id != id && entry.fingerprint == cr.before.fingerprint) {
        fingerprint_shared = true;
      }
    }
  }
  metrics_.on_mutation(out.applied, out.noops);
  trace_instant("mutate", cr.after.id);

  // Old-fingerprint cache entries can never answer queries against the
  // mutated graph (the fingerprint is part of the key), so they are dead
  // weight: drop them, or hand them to the refresher to patch forward —
  // unless another registered graph still has the old structure.
  if (fingerprint_shared) return out;
  const std::string prefix = fingerprint_prefix(cr.before.fingerprint);
  const auto is_stale = [&prefix](const std::string& key) {
    return key.compare(0, prefix.size(), prefix) == 0;
  };
  // Refinable estimates are partial folds over the old structure: they
  // cannot be patched forward, so invalidate (background refinement then
  // drops them — the never-resurrect rule — and they re-form on demand).
  out.approx_invalidated = approx_cache_.invalidate_prefix(prefix);
  if (cfg_.refresh.enabled) {
    RefreshJob job;
    job.old_fingerprint = cr.before.fingerprint;
    job.new_fingerprint = cr.after.fingerprint;
    job.before = cr.before.graph;
    job.after = cr.after.graph;
    job.applied = cr.applied;
    job.entries = cache_.extract_if(is_stale);
    out.cache_refresh_queued = job.entries.size();
    if (!job.entries.empty()) {
      std::lock_guard<std::mutex> lock(refresh_mu_);
      refresh_queue_.push_back(std::move(job));
      refresh_cv_.notify_one();
    }
  } else {
    out.cache_invalidated = cache_.erase_if(is_stale);
    metrics_.on_refresh_invalidated(out.cache_invalidated);
  }
  return out;
}

void BcService::drain_refreshes() {
  std::unique_lock<std::mutex> lock(refresh_mu_);
  refresh_idle_cv_.wait(lock,
                        [this] { return refresh_queue_.empty() && !refresh_active_; });
}

void BcService::refresher_loop() {
  for (;;) {
    RefreshJob job;
    {
      std::unique_lock<std::mutex> lock(refresh_mu_);
      refresh_cv_.wait(lock,
                       [this] { return refresh_stop_ || !refresh_queue_.empty(); });
      if (refresh_stop_) {
        // Pending jobs die with the service; their entries were already
        // out of the cache, so nothing stale can ever be served.
        refresh_queue_.clear();
        refresh_idle_cv_.notify_all();
        return;
      }
      job = std::move(refresh_queue_.front());
      refresh_queue_.pop_front();
      refresh_active_ = true;
    }

    // A later mutation may have superseded this epoch already; patching
    // toward a fingerprint no registered graph has would only create
    // unreachable cache entries.
    bool target_live = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      for (const auto& [gid, entry] : graphs_) {
        if (entry.fingerprint == job.new_fingerprint) {
          target_live = true;
          break;
        }
      }
    }
    const std::string old_prefix = fingerprint_prefix(job.old_fingerprint);
    const std::string new_prefix = fingerprint_prefix(job.new_fingerprint);

    std::size_t patched = 0;
    std::uint64_t dropped = 0;
    for (auto& [key, cached] : job.entries) {
      if (!target_live || !cached->refreshable ||
          patched >= cfg_.refresh.budget_entries) {
        ++dropped;
        continue;
      }
      try {
        // Never patch in place: responses still share the old entry.
        auto next = std::make_shared<CachedResult>();
        next->result = cached->result;
        next->result.sums = {};  // patched scores no longer match them
        next->refreshable = true;
        dyn::IncrementalConfig icfg;
        icfg.churn_threshold = cfg_.refresh.churn_threshold;
        icfg.tracer = cfg_.tracer;
        const dyn::BatchStats stats =
            dyn::refresh_scores(*job.before, *job.after, job.applied,
                                next->result.scores, *refresh_pool_, icfg);
        next->bytes = estimate_result_bytes(next->result);
        cache_.put(new_prefix + key.substr(old_prefix.size()), std::move(next));
        ++patched;
        metrics_.on_refresh_patched(stats.affected_fraction);
        trace_instant("refresh-patch", job.new_fingerprint);
      } catch (const std::exception&) {
        ++dropped;  // a failed patch degrades to an invalidation
      }
    }
    metrics_.on_refresh_invalidated(dropped);

    {
      std::lock_guard<std::mutex> lock(refresh_mu_);
      refresh_active_ = false;
      if (refresh_queue_.empty()) refresh_idle_cv_.notify_all();
    }
  }
}

trace::Sink* BcService::trace_sink() const {
  return cfg_.tracer != nullptr ? cfg_.tracer->thread_sink() : nullptr;
}

void BcService::trace_instant(const char* name, std::uint64_t id) const {
  if (cfg_.tracer == nullptr) return;
  trace::Sink* sink = cfg_.tracer->thread_sink();
  if (sink == nullptr || !sink->wants(trace::kService)) return;
  sink->instant(name, trace::kService, cfg_.tracer->now_ns(), {{"id", id}});
}

Ticket BcService::ready_ticket(std::uint64_t id, std::size_t top_k, Response response) {
  std::promise<Response> promise;
  Ticket ticket;
  ticket.id = id;
  ticket.top_k = top_k;
  ticket.cache_hit = response.from_cache;
  ticket.shed = response.shed;
  promise.set_value(std::move(response));
  ticket.future = promise.get_future().share();
  return ticket;
}

std::optional<Response> BcService::cached_answer(const Job& job, const std::string& key) {
  if (!job.budgeted) {
    if (auto hit = cache_.get(key)) return cached_response(std::move(hit));
    return std::nullopt;
  }
  const std::shared_ptr<ApproxEntry> entry = approx_cache_.get(job.approx_key);
  if (!entry) return std::nullopt;
  std::lock_guard<std::mutex> entry_lock(entry->mu);
  if (entry->invalidated || !entry->published ||
      !contract_met(entry->info, job.budget, job.graph->num_vertices())) {
    return std::nullopt;
  }
  Response r;
  r.status = QueryStatus::Ok;
  r.result = entry->published;
  r.estimate = entry->info;
  r.estimate->refining = entry->refine_pending > 0;
  r.from_cache = true;
  return r;
}

Ticket BcService::submit(Request request) {
  metrics_.on_submitted();
  const std::uint64_t id = next_id_.fetch_add(1, std::memory_order_relaxed);
  trace_instant("submit", id);
  util::Timer turnaround;
  Job job;
  job.submitted = Clock::now();
  job.deadline = request.budget.expires(job.submitted);
  job.budgeted = request.budget.active();
  if (job.budgeted) {
    if (!request.options.roots.empty()) {
      metrics_.on_error();
      return ready_ticket(id, request.top_k,
                          failed(QueryStatus::BadRequest,
                                 "budgeted queries must not pin options.roots — the "
                                 "accuracy contract owns the root schedule"));
    }
    // The controller owns the sample schedule; the legacy knob is ignored
    // so "same contract, different sample_roots" requests share one entry.
    request.options.sample_roots = 0;
    job.budget = request.budget;
  }

  // The in-flight key; for exact requests also the cache key.
  std::string key;
  const auto attach = [&](const Inflight& leader, bool coalesced) {
    Ticket t;
    t.future = leader.future;
    t.id = id;
    t.top_k = request.top_k;
    t.coalesced = coalesced;
    t.shed = leader.shed;
    return t;
  };
  // A cache hit or an in-flight twin answers the request; probed under mu_
  // before admission and again after it.
  const auto answered = [&](bool shed) -> std::optional<Ticket> {
    if (std::optional<Response> hit = cached_answer(job, key)) {
      trace_instant(job.budgeted ? "approx-cache-hit" : "cache-hit", id);
      hit->shed = shed;
      hit->total_ms = turnaround.elapsed_ms();
      metrics_.on_cache_hit(hit->total_ms);
      if (job.budgeted) metrics_.on_approx_served();
      return ready_ticket(id, request.top_k, std::move(*hit));
    }
    const auto inflight = inflight_.find(key);
    if (inflight == inflight_.end()) return std::nullopt;
    metrics_.on_coalesced();
    trace_instant("coalesced", id);
    return attach(*inflight->second, /*coalesced=*/true);
  };

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return ready_ticket(id, request.top_k, failed(QueryStatus::ServiceStopped));
    const auto it = graphs_.find(request.graph_id);
    if (it == graphs_.end()) {
      metrics_.on_graph_not_found();
      trace_instant("graph-missing", id);
      return ready_ticket(id, request.top_k,
                          failed(QueryStatus::GraphNotFound,
                                 "no graph registered as '" + request.graph_id + "'"));
    }
    job.graph = it->second.graph;
    job.fingerprint = it->second.fingerprint;
    if (job.budgeted) {
      // The approx-cache key is contract-free; the in-flight key is not:
      // twins must agree on the whole budget or the leader's early exit
      // would break the stricter twin.
      job.approx_key = approx_key(job.fingerprint, request.options, stratum_plan());
      key = job.approx_key + budget_suffix(request.budget);
    } else {
      key = cache_key(job.fingerprint, request.options);
    }
    if (std::optional<Ticket> t = answered(false)) return std::move(*t);
  }

  // Admission (blocking for Block policy) happens OUTSIDE mu_ so a waiting
  // submitter never wedges workers that need the lock to publish results.
  const Admit admit = queue_.admit(job.deadline);
  switch (admit) {
    case Admit::RejectedFull:
      metrics_.on_rejected_full();
      trace_instant("reject-full", id);
      return ready_ticket(id, request.top_k, failed(QueryStatus::QueueFull));
    case Admit::RejectedDeadline:
      metrics_.on_rejected_deadline();
      trace_instant("reject-deadline", id);
      return ready_ticket(id, request.top_k, failed(QueryStatus::DeadlineExceeded));
    case Admit::RejectedClosed:
      return ready_ticket(id, request.top_k, failed(QueryStatus::ServiceStopped));
    case Admit::Admitted:
      break;
    case Admit::Shed:
      metrics_.on_shed();
      trace_instant("shed", id);
      // An exact request is downgraded to a cheap approximation, which
      // re-keys it. A budgeted one keeps its options: the quality dial caps
      // synchronous work at rung 0 and the contract's remainder refines in
      // the background.
      if (job.budgeted) {
        job.rung0_cap = true;
      } else {
        request.options = shed_downgrade(std::move(request.options),
                                         queue_.config().shed_sample_roots);
        key = cache_key(job.fingerprint, request.options);
      }
      break;
  }
  const bool shed = admit == Admit::Shed;

  // Re-probe under the lock before becoming the leader: the shed downgrade
  // may have changed the key, and a twin may have won the race meanwhile.
  std::shared_ptr<Inflight> entry;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) {
      queue_.cancel();
      return ready_ticket(id, request.top_k, failed(QueryStatus::ServiceStopped));
    }
    if (std::optional<Ticket> t = answered(shed)) {
      queue_.cancel();
      return std::move(*t);
    }
    entry = std::make_shared<Inflight>();
    entry->future = entry->promise.get_future().share();
    entry->key = key;
    entry->shed = shed;
    inflight_[key] = entry;
    metrics_.on_cache_miss();

    // Push while still holding mu_: stop() flips stopped_ under the same
    // lock before draining, so a job is either visible to that drain or
    // the submit above already bailed with ServiceStopped — a leader can
    // never enqueue into a queue nobody will ever pop again.
    job.entry = entry;
    job.options = std::move(request.options);
    queue_.push(std::move(job));
    trace_instant("enqueue", id);
  }
  return attach(*entry, /*coalesced=*/false);
}

Response BcService::wait(const Ticket& ticket) const {
  Response r = ticket.future.get();
  r.coalesced = ticket.coalesced;
  if (ticket.cache_hit) r.from_cache = true;
  if (ticket.top_k > 0 && r.result) {
    r.top = core::top_k(r.result->scores, ticket.top_k);
  }
  return r;
}

Response BcService::query(Request request) {
  const Ticket ticket = submit(std::move(request));
  return wait(ticket);
}

core::BCResult BcService::run_compute(const graph::CSRGraph& g, const core::Options& o) {
  // Apply the service's per-request thread budget. The cache key was
  // computed from the request's options at submit time — that stays
  // correct because options_signature excludes cpu_threads and every
  // strategy's bits are thread-invariant.
  core::Options budgeted = o;
  if (cfg_.compute_threads != 0) budgeted.cpu_threads = cfg_.compute_threads;
  if (cfg_.compute_fn) return cfg_.compute_fn(g, budgeted);
  // A hook's result is served as it comes (net::Worker's keeps the exact
  // sums its coordinator merges); the service's own answers do not hold
  // them.
  core::BCResult r = core::compute(g, budgeted);
  r.sums = {};
  return r;
}

namespace {

/// Deadline- and cancel-aware backoff sleep: never sleeps past the
/// moment the token would fire, and wakes promptly on stop().
void backoff_sleep(std::chrono::milliseconds budget, const util::CancelToken& cancel) {
  const Clock::time_point until = Clock::now() + budget;
  while (Clock::now() < until) {
    if (cancel.cancelled()) return;  // the next check() will throw
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

}  // namespace

core::BCResult BcService::compute_resilient(const graph::CSRGraph& g,
                                            const core::Options& requested,
                                            const util::CancelSource& cancel,
                                            bool& degraded) {
  degraded = false;
  core::Options opts = requested;
  opts.resilience.cancel = cancel.token();

  // Shared fleet retry policy: exponential from retry_backoff up to
  // retry_backoff_max, deterministically jittered per attempt.
  util::BackoffConfig backoff_cfg;
  backoff_cfg.initial = cfg_.retry_backoff;
  backoff_cfg.max = cfg_.retry_backoff_max;
  util::Backoff retry_backoff(backoff_cfg);

  // Rung 0: the requested strategy, with whole-run retries while failures
  // are transient. Each retry bumps fault_retry_epoch, so a seeded
  // FaultPlan's transient faults deterministically clear. Returns false
  // once the retries are spent.
  const auto retry = [&](std::uint32_t attempt) {
    if (attempt >= cfg_.max_compute_retries) return false;
    metrics_.on_compute_retry();
    trace_instant("compute-retry", attempt + 1);
    backoff_sleep(retry_backoff.next(), opts.resilience.cancel);
    opts.resilience.fault_retry_epoch = requested.resilience.fault_retry_epoch + attempt + 1;
    return true;
  };
  core::BCResult partial;
  bool have_partial = false;
  for (std::uint32_t attempt = 0;; ++attempt) {
    opts.resilience.cancel.check();
    try {
      core::BCResult r = run_compute(g, opts);
      metrics_.on_faults(r.faults.faults_injected);
      if (r.faults.complete()) return r;  // clean or fully recovered
      if (r.faults.all_failures_transient() && retry(attempt)) continue;
      partial = std::move(r);  // persistent failures (or retries exhausted)
      have_partial = true;
    } catch (const util::Cancelled&) {
      throw;
    } catch (const std::invalid_argument&) {
      throw;  // client error — never worth a fallback
    } catch (const hbc::DeviceFault& f) {
      // A fault escaped compute (e.g. an injecting compute_fn hook).
      metrics_.on_faults(1);
      if (f.transient() && retry(attempt)) continue;
      if (!cfg_.enable_fallback || !core::uses_gpu_model(requested.strategy)) throw;
    } catch (const gpusim::DeviceOutOfMemory&) {
      // Resource exhaustion never clears by retrying — descend directly.
      if (!cfg_.enable_fallback || !core::uses_gpu_model(requested.strategy)) throw;
    }
    break;
  }

  if (!cfg_.enable_fallback || !core::uses_gpu_model(requested.strategy)) {
    // No ladder: surface the partial result, marked degraded (failed
    // roots are listed in result.faults; the cache never sees it).
    if (have_partial) {
      degraded = true;
      metrics_.on_degraded();
      trace_instant("degraded-partial", 0);
      return partial;
    }
    throw std::runtime_error("compute failed with no result");
  }

  // Rung 1: exact scores on the CPU — slower, but immune to device faults.
  degraded = true;
  metrics_.on_fallback();
  trace_instant("fallback-cpu-exact", 0);
  try {
    core::Options cpu = requested;
    cpu.strategy = core::Strategy::CpuParallel;
    cpu.resilience.fault_plan.reset();
    cpu.resilience.cancel = cancel.token();
    core::BCResult r = run_compute(g, cpu);
    metrics_.on_degraded();
    return r;
  } catch (const util::Cancelled&) {
    throw;
  } catch (const std::exception&) {
    // fall through to the approximation rung
  }

  // Rung 2: McLaughlin & Bader Algorithm-5 style approximation — a
  // principled partial answer when the exact one can't be afforded.
  metrics_.on_fallback();
  trace_instant("fallback-sampling", 0);
  core::Options approx = requested;
  approx.strategy = core::Strategy::Sampling;
  approx.resilience.fault_plan.reset();
  approx.resilience.cancel = cancel.token();
  approx.roots.clear();
  approx.sample_roots = std::max<std::uint32_t>(1, cfg_.fallback_sample_roots);
  core::BCResult r = run_compute(g, approx);
  metrics_.on_degraded();
  return r;
}

core::StratumPlan BcService::stratum_plan() const {
  core::StratumPlan plan;
  plan.stripe_roots = std::max<std::uint32_t>(cfg_.approx.stripe_roots, 1);
  plan.base_strata = std::max<std::uint32_t>(cfg_.approx.base_strata, 2);
  return plan;
}

StratumFn BcService::stratum_runner(const graph::CSRGraph& g, util::CancelToken cancel) {
  return [this, &g, cancel](core::Options stratum) {
    stratum.resilience.cancel = cancel;
    core::BCResult r = run_compute(g, stratum);
    metrics_.on_faults(r.faults.faults_injected);
    if (!r.faults.complete()) throw std::runtime_error("stratum compute incomplete");
    metrics_.on_approx_stratum();
    return StratumRun{std::move(r.scores), r.time_seconds};
  };
}

void BcService::compute_progressive(const Job& job,
                                    const util::CancelSource& cancel,
                                    Response& resp) {
  const graph::CSRGraph& g = *job.graph;
  bool created = false;
  const std::shared_ptr<ApproxEntry> entry =
      approx_cache_.get_or_create(job.approx_key, g.num_vertices(), stratum_plan(),
                                  job.options.seed, job.fingerprint, created);

  ContractRun run;
  try {
    // One upgrader at a time per entry; strata are computed under this
    // lock (coalescing keeps contract-twins out, but two different
    // contracts may race toward the same entry).
    std::unique_lock<std::mutex> work(entry->work_mu);
    run = advance_contract(
        approx_cache_, entry, job.options, job.budget,
        job.budget.allow_refinement || job.rung0_cap, stratum_runner(g, cancel.token()),
        cancel.token(),
        [&] { return enqueue_refinement({entry, job.graph, job.options, job.budget}); });
  } catch (const util::Cancelled&) {
    throw;
  } catch (const std::invalid_argument&) {
    throw;
  } catch (const std::exception&) {
    // A stratum failed persistently: abandon the progressive path and
    // answer through the resilience ladder on the original request. The
    // substitute NEVER touches either cache.
    bool degraded = false;
    core::BCResult computed =
        compute_resilient(g, job.options, cancel, degraded);
    resp.degraded = degraded;
    resp.estimate = Estimate{.roots_used = computed.roots_processed};
    resp.result = std::make_shared<const core::BCResult>(std::move(computed));
    trace_instant("approx-fallback", 0);
    return;
  }

  resp.result = std::move(run.result);
  resp.estimate = run.estimate;
  resp.from_cache = !run.computed;
}

bool BcService::enqueue_refinement(RefineJob job) {
  if (!cfg_.approx.refinement) return false;
  {
    std::lock_guard<std::mutex> lock(job.entry->mu);
    if (job.entry->invalidated) return false;
    ++job.entry->refine_pending;
  }
  const std::shared_ptr<ApproxEntry> entry = job.entry;
  {
    std::lock_guard<std::mutex> lock(refine_mu_);
    if (!refine_stop_) {
      if (!refine_thread_.joinable()) {
        refine_thread_ = std::thread([this] { refine_loop(); });
      }
      refine_queue_.push_back(std::move(job));
      metrics_.on_refine_queued();
      refine_cv_.notify_one();
      return true;
    }
  }
  std::lock_guard<std::mutex> lock(entry->mu);
  if (entry->refine_pending > 0) --entry->refine_pending;
  return false;
}

void BcService::refine_loop() {
#if defined(__linux__)
  // Yielding on queue depth is not enough on a loaded host: once a
  // stratum compute starts it runs for tens of milliseconds, stealing
  // core time from foreground workers. Niceness 19 makes the kernel
  // schedule this thread only into cycles the workers leave idle —
  // that is the <5%-of-exact-QPS promise the throughput bench gates.
  ::setpriority(PRIO_PROCESS, static_cast<id_t>(::syscall(SYS_gettid)), 19);
#endif
  for (;;) {
    RefineJob job;
    {
      std::unique_lock<std::mutex> lock(refine_mu_);
      refine_cv_.wait(lock,
                      [this] { return refine_stop_ || !refine_queue_.empty(); });
      if (refine_stop_) {
        std::deque<RefineJob> leftovers;
        leftovers.swap(refine_queue_);
        refine_idle_cv_.notify_all();
        lock.unlock();
        for (RefineJob& j : leftovers) {
          std::lock_guard<std::mutex> entry_lock(j.entry->mu);
          if (j.entry->refine_pending > 0) --j.entry->refine_pending;
        }
        return;
      }
      job = std::move(refine_queue_.front());
      refine_queue_.pop_front();
      refine_active_ = true;
    }

    const util::CancelToken cancel = refine_cancel_.token();
    const StratumFn run = stratum_runner(*job.graph, cancel);
    for (bool done = false; !done;) {
      // Low priority: foreground queries own the service; refinement only
      // runs while no job is queued or computing.
      while ((queue_.depth() > 0 || computing_ > 0) && !cancel.cancelled()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      RefineStep step;  // Met and done: cancelled, or a stratum failed
      if (!cancel.cancelled()) {
        try {
          std::lock_guard<std::mutex> work(job.entry->work_mu);
          trace::ScopedSpan stratum_span(trace_sink(), cfg_.tracer, "refine-stratum",
                                         trace::kService);
          step = refine_step(approx_cache_, job.entry, job.options, job.budget, run);
        } catch (...) {
          // background work is best-effort; the entry stays valid
        }
      }
      done = step.done;
      if (done) {
        // Retire before counting the last stratum: whoever sees it counted
        // also sees Estimate::refining drop.
        std::lock_guard<std::mutex> lock(job.entry->mu);
        if (job.entry->refine_pending > 0) --job.entry->refine_pending;
      }
      if (step.outcome == RefineOutcome::Folded) metrics_.on_refine_stratum();
      if (step.outcome == RefineOutcome::Dropped) {
        // The never-resurrect guarantee: a mutation or eviction beat
        // us here, so this estimate must not be advanced or re-served.
        metrics_.on_refine_dropped();
        trace_instant("refine-dropped", job.entry->fingerprint);
      }
      if (step.new_rung) {
        metrics_.on_refine_rung();
        if (cfg_.tracer != nullptr) {
          if (trace::Sink* sink = trace_sink();
              sink != nullptr && sink->wants(trace::kService)) {
            sink->instant("refine-rung", trace::kService, cfg_.tracer->now_ns(),
                          {{"rung", static_cast<std::uint64_t>(step.after.rung)},
                           {"roots", static_cast<std::uint64_t>(step.after.roots_used)}});
          }
        }
      }
    }
    {
      std::lock_guard<std::mutex> lock(refine_mu_);
      refine_active_ = false;
      if (refine_queue_.empty()) refine_idle_cv_.notify_all();
    }
  }
}

std::size_t BcService::refine_backlog() const {
  std::lock_guard<std::mutex> lock(refine_mu_);
  return refine_queue_.size() + (refine_active_ ? 1 : 0);
}

void BcService::drain_refinement() {
  std::unique_lock<std::mutex> lock(refine_mu_);
  refine_idle_cv_.wait(lock, [this] {
    return refine_stop_ || (refine_queue_.empty() && !refine_active_);
  });
}

void BcService::worker_loop() {
  for (;;) {
    std::optional<Job> job = queue_.pop();
    if (!job) return;
    ++computing_;
    const std::shared_ptr<Inflight>& entry = job->entry;
    trace::ScopedSpan request_span(trace_sink(), cfg_.tracer, "request",
                                   trace::kService);

    Response resp;
    resp.shed = entry->shed;

    // Register this job's cancel source under mu_ while re-checking
    // stopped_: either stop() already ran (fast-complete, no compute) or
    // the source is visible in inflight_ for stop() to cancel — a compute
    // can never start unnoticed by a concurrent stop().
    util::CancelSource cancel = util::CancelSource::with_deadline(job->deadline);
    bool stopped = false;
    {
      std::lock_guard<std::mutex> lock(mu_);
      stopped = stopped_;
      if (!stopped) entry->cancel = cancel;
    }

    if (stopped) {
      resp.status = QueryStatus::ServiceStopped;
    } else if (Clock::now() > job->deadline) {
      metrics_.on_deadline_dropped();
      resp.status = QueryStatus::DeadlineExceeded;
    } else {
      util::Timer timer;
      try {
        if (job->budgeted) {
          trace::ScopedSpan compute_span(trace_sink(), cfg_.tracer,
                                         "service-approx", trace::kCompute);
          compute_progressive(*job, cancel, resp);
          resp.compute_ms = timer.elapsed_ms();
          metrics_.on_approx_served();
        } else {
          bool degraded = false;
          trace::ScopedSpan compute_span(trace_sink(), cfg_.tracer,
                                         "service-compute", trace::kCompute);
          core::BCResult computed = compute_resilient(*job->graph, job->options,
                                                      cancel, degraded);
          resp.compute_ms = timer.elapsed_ms();
          resp.degraded = degraded;
          // Patchable on mutation: exact full BC with raw scores (the
          // refresher's dyn::refresh_scores contract). Decided here — the
          // result alone can't reveal the request's score scaling.
          const bool refreshable =
              !computed.approximate &&
              computed.roots_processed == job->graph->num_vertices() &&
              job->options.roots.empty() && !job->options.halve_undirected &&
              !job->options.normalize;
          store_result(cache_, entry->key, std::move(computed), refreshable, resp);
        }

        resp.status = QueryStatus::Ok;
        resp.total_ms =
            std::chrono::duration<double, std::milli>(Clock::now() - job->submitted)
                .count();
        metrics_.on_computed(resp.compute_ms, resp.total_ms);
      } catch (const util::Cancelled& c) {
        metrics_.on_cancelled(cancel.ms_since_cancel());
        resp.status = c.reason() == util::CancelReason::Deadline
                          ? QueryStatus::DeadlineExceeded
                          : QueryStatus::ServiceStopped;
        resp.error = c.what();
      } catch (const std::invalid_argument& e) {
        metrics_.on_error();
        resp.status = QueryStatus::BadRequest;
        resp.error = e.what();
      } catch (const std::exception& e) {
        metrics_.on_error();
        resp.status = QueryStatus::Failed;
        resp.error = e.what();
      } catch (...) {
        metrics_.on_error();
        resp.status = QueryStatus::Failed;
        resp.error = "unknown exception in compute";
      }
    }

    complete(entry, std::move(resp));
    --computing_;
  }
}

void BcService::complete(const std::shared_ptr<Inflight>& entry, Response resp) {
  // Unregister before completing: once the promise is set the result is
  // in the cache (or failed), so later twins must go through the cache,
  // not attach to a dead entry.
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = inflight_.find(entry->key);
    if (it != inflight_.end() && it->second == entry) inflight_.erase(it);
  }
  entry->promise.set_value(std::move(resp));
  if (cfg_.on_complete) cfg_.on_complete();
}

void BcService::stop() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
    // Cancel every in-flight computation under the same lock the workers
    // register their sources with: a worker either saw stopped_ (and
    // won't compute) or its source is here and gets cancelled. Running
    // computes unwind with util::Cancelled at their next root boundary
    // and complete their futures with ServiceStopped.
    for (auto& [key, entry] : inflight_) entry->cancel.cancel();
  }
  queue_.close();
  pool_.reset();  // workers fast-complete queued jobs, then join

  if (refresher_.joinable()) {
    {
      std::lock_guard<std::mutex> lock(refresh_mu_);
      refresh_stop_ = true;
    }
    refresh_cv_.notify_all();
    refresher_.join();
    refresh_pool_.reset();
  }

  {
    std::lock_guard<std::mutex> lock(refine_mu_);
    refine_stop_ = true;
  }
  refine_cancel_.cancel();
  refine_cv_.notify_all();
  refine_idle_cv_.notify_all();
  if (refine_thread_.joinable()) refine_thread_.join();

  // A submitter that was admitted before close() may have pushed after the
  // workers drained; answer anything left so no future is abandoned.
  while (std::optional<Job> job = queue_.pop()) {
    complete(job->entry, failed(QueryStatus::ServiceStopped));
  }
}

std::size_t BcService::worker_count() const noexcept { return workers_; }

MetricsSnapshot BcService::metrics() const {
  MetricsSnapshot s = metrics_.snapshot();
  s.cache_evictions = cache_.evictions();
  s.cache_entries = cache_.size();
  s.cache_bytes = cache_.bytes();
  s.cache_budget_bytes = cache_.budget_bytes();
  s.queue_depth = queue_.depth();
  s.queue_peak_depth = queue_.peak_depth();
  s.workers = workers_;
  s.approx_entries = approx_cache_.size();
  s.approx_bytes = approx_cache_.bytes();
  s.approx_evictions = approx_cache_.evictions();
  return s;
}

std::string BcService::metrics_report() const {
  std::string out = format_report(metrics());
  for (const std::string& id : graph_ids()) {
    const auto info = graph_info(id);
    if (!info) continue;  // evicted between the two calls
    char line[256];
    std::snprintf(line, sizeof(line),
                  "graph %-12s residency=%-17s n=%u m=%llu resident=%.1fMiB "
                  "mapped=%.1fMiB adjacency=%.1fMiB epoch=%llu\n",
                  id.c_str(), graph::storage::to_string(info->residency),
                  info->num_vertices,
                  static_cast<unsigned long long>(info->num_directed_edges),
                  static_cast<double>(info->resident_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(info->mapped_bytes) / (1024.0 * 1024.0),
                  static_cast<double>(info->adjacency_bytes) / (1024.0 * 1024.0),
                  static_cast<unsigned long long>(info->epoch));
    out += line;
  }
  return out;
}

}  // namespace hbc::service
