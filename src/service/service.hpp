#pragma once

// hbc::service — an in-process concurrent BC query service.
//
// The serving pipeline (docs/serving.md has the full walkthrough):
//
//   submit ──► cache lookup ──► in-flight coalescing ──► admission ──►
//        bounded queue ──► worker pool (util::ThreadPool) ──►
//        core::compute ──► cache insert ──► future completion ──► metrics
//
// A request names a registered graph plus a full core::Options, so every
// strategy in the library (CPU engines and the paper's GPU-model kernels)
// is servable. Identical concurrent requests — same graph fingerprint and
// canonical options signature — share one computation: the first becomes
// the in-flight leader, later twins attach to its shared future and the
// queue never sees them. Completed results land in a byte-budgeted LRU
// cache; a full queue blocks, rejects, or sheds load per AdmissionPolicy.
//
// Usage:
//
//   hbc::service::BcService svc({.workers = 4});
//   svc.load_graph("web", hbc::graph::gen::web_crawl({.num_vertices = 1 << 16}));
//   auto t = svc.submit({.graph_id = "web", .options = {...}, .top_k = 10});
//   hbc::service::Response r = svc.wait(t);
//   for (auto [v, score] : r.top) { ... }

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/bc.hpp"
#include "dyn/incremental_bc.hpp"
#include "graph/csr.hpp"
#include "service/admission.hpp"
#include "service/cache.hpp"
#include "service/metrics.hpp"
#include "service/progressive.hpp"
#include "trace/trace.hpp"
#include "util/cancel.hpp"
#include "util/thread_pool.hpp"

namespace hbc::service {

enum class QueryStatus {
  Ok,
  QueueFull,         // Reject policy and the queue was full
  DeadlineExceeded,  // deadline passed — queued, blocked, or MID-COMPUTE
                     // (the worker cancels the run at a root boundary)
  GraphNotFound,     // graph_id not registered (or already evicted)
  ServiceStopped,    // submitted during/after stop(), or cancelled by it
  BadRequest,        // invalid options (bad roots etc.); error has details
  Failed,            // compute threw; Response::error has the message
};

const char* to_string(QueryStatus status) noexcept;

struct Request {
  std::string graph_id;
  core::Options options;
  /// The accuracy/latency contract (docs/serving.md § Accuracy
  /// contracts). Inactive by default: requests behave exactly as before,
  /// with byte-identical options signatures. An active budget routes the
  /// request onto the progressive-approximation path — options.roots
  /// must then be empty (BadRequest otherwise) and options.sample_roots
  /// is ignored in favor of the controller's stratified schedule.
  QueryBudget budget;
  /// When > 0, wait() fills Response::top with the top-k (vertex, score)
  /// pairs. Per-request: coalesced twins may ask for different k.
  std::size_t top_k = 0;
};

struct Response {
  QueryStatus status = QueryStatus::Ok;
  std::string error;
  /// Shared with the cache and with every coalesced twin; null unless Ok.
  std::shared_ptr<const core::BCResult> result;
  /// Top-k view (only filled by wait() when the ticket asked for it).
  std::vector<std::pair<graph::VertexId, double>> top;
  bool from_cache = false;
  bool coalesced = false;
  bool shed = false;        // served from a shed (downgraded) computation
  /// The answer is not what was asked for: the requested GPU-model run
  /// threw out of compute (the simulated device ran out of memory, or a
  /// compute_fn hook raised a DeviceFault) and the CPU engine answered
  /// instead (result->strategy says CpuParallel). Degraded results are
  /// NEVER cached; a later identical request recomputes.
  bool degraded = false;
  /// Present on every budgeted (progressive) response: what the sampled
  /// estimate actually delivered. nullopt on classic exact responses.
  std::optional<Estimate> estimate;
  double compute_ms = 0.0;  // 0 for cache hits
  double total_ms = 0.0;    // submit -> response
  bool ok() const noexcept { return status == QueryStatus::Ok; }
};

/// Handle returned by submit(). Cheap to copy; wait() may be called from
/// any thread, multiple times.
struct Ticket {
  std::shared_future<Response> future;
  std::uint64_t id = 0;
  std::size_t top_k = 0;
  bool cache_hit = false;   // answered synchronously from the cache
  bool coalesced = false;   // attached to an identical in-flight request
  bool shed = false;        // admitted with a downgraded configuration
  bool valid() const noexcept { return future.valid(); }
};

struct ServiceConfig {
  /// Worker threads draining the queue; 0 = hardware concurrency.
  std::size_t workers = 0;
  /// Result-cache budget; 0 disables caching (coalescing still applies).
  std::size_t cache_bytes = 256ull << 20;
  AdmissionConfig admission;
  /// Host-thread budget handed to every compute run, whatever its
  /// strategy (overrides the request's Options::cpu_threads). Keeps
  /// `workers` concurrent runs from oversubscribing the machine: the
  /// default of 1 keeps all parallelism at the request level. 0 leaves the
  /// request's own cpu_threads alone. Responses are unaffected either way
  /// — every strategy is bitwise-deterministic in the thread count, and
  /// the cache key excludes it.
  std::size_t compute_threads = 1;
  /// The executor: replaces core::compute for every job (a test hook, or
  /// net::Coordinator's fleet). Must be thread-safe; default (empty) calls
  /// core::compute. Receives the job's full Options including `cancel`
  /// and any `fault_plan`.
  std::function<core::BCResult(const graph::CSRGraph&, const core::Options&)> compute_fn;
  /// Completion hook: called once per queued request's response, on the
  /// thread that published it (a service worker, or stop() answering jobs
  /// left in the queue), after the ticket's future is ready and outside
  /// every service lock. A coalesced entry completes once, so twins share
  /// one call. Responses that are ready when submit() returns (cache hits,
  /// rejects, bad requests) get no call. The hook must be cheap, must not
  /// block and must not throw. Empty (default) = no call.
  std::function<void()> on_complete;

  // --- dynamic graphs (docs/dynamic.md) ---

  /// Background cache refresher for mutated graphs. Off by default: a
  /// mutation then simply drops the old epoch's cache entries (they could
  /// never serve the new fingerprint anyway — the key contains it — so
  /// this only reclaims bytes). When enabled, a dedicated refresher
  /// thread instead patches the hottest *refreshable* entries (exact
  /// full-BC, raw scores — see CachedResult::refreshable) forward across
  /// the epoch transition with dyn::refresh_scores and re-inserts them
  /// under the new fingerprint, so a hot graph stays cache-warm through
  /// mutations. Patched scores are value-equal to a fresh compute (1e-7
  /// relative) but not bitwise-identical — the trade the refresher opts
  /// into; entries beyond the budget, non-refreshable ones, and epochs
  /// superseded before their turn are invalidated as usual.
  struct RefreshConfig {
    bool enabled = false;
    /// Max entries patched per mutation (MRU first); the rest drop.
    std::size_t budget_entries = 4;
    /// Affected-source fraction above which a patch recomputes from
    /// scratch instead (dyn::IncrementalConfig::churn_threshold).
    double churn_threshold = 0.25;
    /// Worker threads of the refresher's private pool.
    std::size_t threads = 1;
  };
  RefreshConfig refresh;

  // --- progressive approximation (docs/serving.md § Accuracy contracts) ---

  /// Accuracy-contract serving: stratified-sample geometry, the refinable
  /// estimate cache, and the background refinement worker.
  struct ApproxConfig {
    /// Refinable-estimate cache budget; 0 disables retention (budgeted
    /// queries still work, each from scratch, and nothing refines).
    std::size_t cache_bytes = 64ull << 20;
    /// Stratified-sample geometry (core::StratumPlan): roots per stratum
    /// and strata in rung 0. Part of the approx cache key.
    std::uint32_t stripe_roots = 128;
    std::uint32_t base_strata = 2;
    /// Permit background refinement (allow_refinement requests). The
    /// refinement thread starts lazily on the first queued job and runs
    /// at low priority: it yields whenever foreground work is queued or
    /// computing.
    bool refinement = true;
  };
  ApproxConfig approx;

  /// Request-lifecycle tracing (docs/tracing.md): submit / cache-hit /
  /// coalesced / shed / reject instants and per-job request+compute spans,
  /// recorded wall-clock on per-thread host sinks (category kService /
  /// kCompute). The tracer is NOT propagated into kernel runs — concurrent
  /// computes would share the simulated-device timeline rows and break the
  /// per-row timestamp ordering the exporter guarantees; use hbc --trace
  /// for kernel-level captures. Non-owning: the Tracer must outlive the
  /// service. nullptr = off (one pointer test per instrumentation point).
  trace::Tracer* tracer = nullptr;
};

/// What one mutate_graph() call did (docs/dynamic.md).
struct MutationResult {
  std::uint64_t epoch = 0;  // graph's epoch id after the commit
  std::uint64_t fingerprint_before = 0;
  std::uint64_t fingerprint_after = 0;  // == before for all-no-op batches
  std::size_t applied = 0;              // updates that changed the graph
  std::size_t noops = 0;
  /// Old-epoch cache entries dropped by this mutation (refresher off, or
  /// shared-fingerprint entries kept: then 0).
  std::size_t cache_invalidated = 0;
  /// Old-epoch cache entries handed to the background refresher. The
  /// refresher may still drop some (budget, non-refreshable, superseded);
  /// those surface as MetricsSnapshot::refresh_invalidated.
  std::size_t cache_refresh_queued = 0;
  /// Refinable (approx) estimates invalidated by this mutation. Never
  /// refreshed forward: partial folds cannot be patched across epochs.
  std::size_t approx_invalidated = 0;
};

class BcService {
 public:
  explicit BcService(ServiceConfig config = {});
  ~BcService();

  BcService(const BcService&) = delete;
  BcService& operator=(const BcService&) = delete;

  // -- Graph registry -----------------------------------------------------

  /// Register (or replace) a graph under `id`. The fingerprint is hashed
  /// here, once, so submits are O(options) not O(graph).
  void load_graph(const std::string& id, graph::CSRGraph g);
  void load_graph(const std::string& id, std::shared_ptr<const graph::CSRGraph> g);

  /// Register a graph from a file path. ".hbcg"/".hbcgz" files are
  /// mmap'd and served zero-copy in place (residency `mapped` — N
  /// processes loading the same path share one page-cache copy); any
  /// other format loads to heap via graph::io::read_auto. The embedded
  /// fingerprint of mapped files is re-verified against the data before
  /// the graph is servable; corrupt files throw storage::FormatError.
  /// Returns the registered graph's fingerprint.
  std::uint64_t load_graph_file(const std::string& id, const std::string& path);

  /// Unregister `id` and drop its cached results. In-flight jobs keep a
  /// reference and finish normally. Returns false if `id` was unknown.
  bool evict_graph(const std::string& id);

  std::vector<std::string> graph_ids() const;
  std::shared_ptr<const graph::CSRGraph> graph(const std::string& id) const;

  /// Storage-level facts about a registered graph (docs/storage.md).
  struct GraphInfo {
    std::uint64_t fingerprint = 0;
    std::uint64_t epoch = 0;
    graph::storage::Residency residency = graph::storage::Residency::kHeap;
    graph::VertexId num_vertices = 0;
    graph::EdgeOffset num_directed_edges = 0;
    std::size_t resident_bytes = 0;   ///< heap bytes held right now
    std::size_t mapped_bytes = 0;     ///< bytes referenced via mmap
    std::size_t adjacency_bytes = 0;  ///< adjacency as stored (encoded if compressed)
    std::size_t decoded_bytes = 0;    ///< rows+cols once decoded/uploaded
  };
  std::optional<GraphInfo> graph_info(const std::string& id) const;

  /// Apply a batch of edge updates to a registered graph, committing a new
  /// epoch (dyn::VersionedGraph copy-on-write: in-flight queries keep
  /// computing on the snapshot they already hold; queries submitted after
  /// the call see the new epoch — and can never be answered from
  /// pre-mutation cache entries, whose keys carry the old fingerprint).
  /// Old-epoch cache entries are invalidated, or handed to the background
  /// refresher when ServiceConfig::refresh.enabled.
  ///
  /// Throws std::invalid_argument for an unknown id or a directed graph,
  /// std::out_of_range for updates naming vertices >= n, and
  /// std::runtime_error after stop(); the graph is unchanged in all cases.
  /// Concurrent mutations of one graph serialize; mutations of different
  /// graphs run concurrently.
  MutationResult mutate_graph(const std::string& id, const dyn::UpdateBatch& batch);

  /// Epochs committed for `id` (0 = never mutated or unknown id).
  std::uint64_t graph_epoch(const std::string& id) const;

  /// Block until every queued refresher job has been processed (including
  /// the one in flight). Returns immediately when the refresher is off.
  void drain_refreshes();

  /// Block until the background refinement queue is empty and the
  /// in-flight refinement (if any) finished. Immediate when idle.
  void drain_refinement();

  /// Refinement jobs queued or running; never blocks.
  std::size_t refine_backlog() const;

  // -- Query path ---------------------------------------------------------

  /// Non-blocking under Reject/Shed; blocks for queue space under Block.
  /// Always returns a valid ticket — rejections come back as an already-
  /// completed future with the corresponding status.
  Ticket submit(Request request);

  /// Block for the response; fills Response::top per the ticket's top_k.
  Response wait(const Ticket& ticket) const;

  /// submit + wait convenience.
  Response query(Request request);

  // -- Lifecycle & observability ------------------------------------------

  /// Stop the service. Idempotent; the destructor calls it. Guarantees:
  ///  * new submits complete immediately with ServiceStopped;
  ///  * queued-but-unstarted jobs complete with ServiceStopped — they are
  ///    never computed and never hang their futures;
  ///  * in-flight computations are cancelled cooperatively (CancelToken)
  ///    and complete with ServiceStopped within one root boundary;
  ///  * workers are joined before stop() returns.
  void stop();

  std::size_t worker_count() const noexcept;
  std::size_t queue_depth() const { return queue_.depth(); }
  MetricsSnapshot metrics() const;
  /// format_report(metrics()) plus one storage line per registered graph
  /// (residency kind, resident/mapped bytes) — how an operator confirms a
  /// fleet is actually serving a graph mapped rather than from heap.
  std::string metrics_report() const;

  /// The exact result cache, for a host that persists and restores it
  /// (net::Coordinator's snapshots).
  ResultCache& result_cache() noexcept { return cache_; }

 private:
  struct GraphEntry {
    std::shared_ptr<const graph::CSRGraph> graph;
    std::uint64_t fingerprint = 0;
    /// Epoch id of `graph` (0 until the first mutation).
    std::uint64_t epoch = 0;
    /// Created lazily by the first mutate_graph(); load_graph over the
    /// same id starts fresh. `graph`/`fingerprint` mirror its current
    /// epoch so the submit path stays one map lookup.
    std::shared_ptr<dyn::VersionedGraph> versioned;
  };

  /// One mutation's worth of extracted cache entries for the refresher.
  struct RefreshJob {
    std::uint64_t old_fingerprint = 0;
    std::uint64_t new_fingerprint = 0;
    std::shared_ptr<const graph::CSRGraph> before;
    std::shared_ptr<const graph::CSRGraph> after;
    std::vector<dyn::EdgeUpdate> applied;
    std::vector<std::pair<std::string, std::shared_ptr<const CachedResult>>> entries;
  };

  /// One leader computation plus everyone awaiting it.
  struct Inflight {
    std::promise<Response> promise;
    std::shared_future<Response> future;
    std::string key;
    bool shed = false;
    /// Replaced (under mu_) by the worker's deadline-bearing source when
    /// compute starts; stop() cancels it so in-flight work aborts within
    /// one root boundary.
    util::CancelSource cancel;
  };

  struct Job {
    std::shared_ptr<Inflight> entry;
    std::shared_ptr<const graph::CSRGraph> graph;
    core::Options options;
    std::chrono::steady_clock::time_point submitted;
    std::chrono::steady_clock::time_point deadline;
    /// The graph's fingerprint at submit time.
    std::uint64_t fingerprint = 0;
    /// Progressive-approximation jobs (budget.active()): the contract and
    /// the contract-free approx-cache key. rung0_cap is the quality dial —
    /// set when admission shed the request, capping synchronous work at
    /// rung 0 with the rest of the contract refined in the background.
    bool budgeted = false;
    bool rung0_cap = false;
    QueryBudget budget;
    std::string approx_key;
  };

  /// One queued background-refinement task: upgrade `entry` toward
  /// `budget`'s contract on the pinned graph snapshot.
  struct RefineJob {
    std::shared_ptr<ApproxEntry> entry;
    std::shared_ptr<const graph::CSRGraph> graph;
    core::Options options;
    QueryBudget budget;
  };

  static Ticket ready_ticket(std::uint64_t id, std::size_t top_k, Response response);
  /// The cache probe of `job`'s request kind: the exact ResultCache under
  /// `key`, or the ApproxCache estimate when it meets the contract. Call
  /// under mu_; metrics and timing are the caller's.
  std::optional<Response> cached_answer(const Job& job, const std::string& key);
  /// Worker-side progressive path: advance_contract on the job's entry,
  /// queueing refinement when it pauses. Fills resp; throws like compute
  /// paths do.
  void compute_progressive(const Job& job, const util::CancelSource& cancel,
                           Response& resp);
  /// Queue a background upgrade of `entry` toward `budget`; starts the
  /// refinement thread lazily. Returns false when refinement is off.
  bool enqueue_refinement(RefineJob job);
  void refine_loop();
  /// This thread's host trace sink, or nullptr when tracing is off.
  trace::Sink* trace_sink() const;
  /// One kService instant tagged with the request id; no-op when off.
  void trace_instant(const char* name, std::uint64_t id) const;
  void worker_loop();
  /// Answer a leader and everyone attached to it: unregister it from
  /// inflight_, set its promise, run on_complete.
  void complete(const std::shared_ptr<Inflight>& entry, Response resp);
  void refresher_loop();
  core::BCResult run_compute(const graph::CSRGraph& g, const core::Options& o);
  /// The stratified-sample geometry of cfg_.approx, clamped to valid values.
  core::StratumPlan stratum_plan() const;
  /// The service's stratum executor: run_compute under `cancel`, with fault
  /// accounting. `g` must outlive the returned function.
  StratumFn stratum_runner(const graph::CSRGraph& g, util::CancelToken cancel);
  /// run_compute, or — when a GPU-model run throws DeviceOutOfMemory or a
  /// DeviceFault out of compute — CpuParallel's exact answer with
  /// `degraded` set. Any other error (util::Cancelled,
  /// std::invalid_argument, ...) propagates.
  core::BCResult compute_resilient(const graph::CSRGraph& g,
                                   const core::Options& requested,
                                   const util::CancelSource& cancel,
                                   bool& degraded);

  ServiceConfig cfg_;
  ResultCache cache_;
  ApproxCache approx_cache_;
  AdmissionQueue<Job> queue_;
  ServiceMetrics metrics_;

  // mu_ guards graphs_, inflight_, and stopped_.
  mutable std::mutex mu_;
  std::unordered_map<std::string, GraphEntry> graphs_;
  std::unordered_map<std::string, std::shared_ptr<Inflight>> inflight_;
  bool stopped_ = false;

  std::atomic<std::uint64_t> next_id_{1};
  /// Jobs a worker popped and has not completed; refinement waits for 0.
  std::atomic<std::size_t> computing_{0};

  // Refresher state (all guarded by refresh_mu_ except the pool/thread,
  // which only the ctor and stop() touch).
  std::mutex refresh_mu_;
  std::condition_variable refresh_cv_;       // wakes the refresher
  std::condition_variable refresh_idle_cv_;  // wakes drain_refreshes()
  std::deque<RefreshJob> refresh_queue_;
  bool refresh_active_ = false;  // a job is being processed right now
  bool refresh_stop_ = false;
  std::unique_ptr<util::ThreadPool> refresh_pool_;
  std::thread refresher_;

  // Background-refinement state (guarded by refine_mu_ except the thread
  // handle, which only enqueue_refinement's lazy start and stop() touch,
  // both under refine_mu_ for the started_ decision).
  mutable std::mutex refine_mu_;
  std::condition_variable refine_cv_;       // wakes the refinement worker
  std::condition_variable refine_idle_cv_;  // wakes drain_refinement()
  std::deque<RefineJob> refine_queue_;
  bool refine_active_ = false;
  bool refine_stop_ = false;
  std::thread refine_thread_;  // lazily started on the first queued job
  /// Shared cancel for all background strata; stop() fires it so a
  /// mid-stratum refinement unwinds at the next root boundary.
  util::CancelSource refine_cancel_;

  std::size_t workers_ = 0;
  std::unique_ptr<util::ThreadPool> pool_;  // last member: joins first
};

}  // namespace hbc::service
