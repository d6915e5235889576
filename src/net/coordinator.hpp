#pragma once

// net::Coordinator — the front of a sharded multi-process BC fleet.
//
// The coordinator fronts the hbc::service request/response surface
// (service::Request in, service::Response out) while farming the actual
// computation out to net::Worker processes over the wire protocol
// (net/wire.hpp). It shards work two ways, echoing ROADMAP item 2:
//
//  * **By root range within one query** — at simulated-*block*
//    granularity, which is what makes the distributed reduction
//    bitwise-deterministic. kernels::BlockDriver deals global root index
//    i to block i mod B (B = the grid size the standalone run would use)
//    and folds per-block partial BC vectors in ascending block order.
//    The coordinator therefore builds shard b from exactly the roots
//    block b would own, has a worker compute it as a single-block run
//    (Options::grid_blocks = 1 — bit-identical to that block's partial),
//    and folds the shards in ascending block order, then applies the
//    same finalization core::compute would (sampling scale-up → halve →
//    normalize, all elementwise). The reassembled scores equal a
//    standalone run bit for bit at ANY worker count — the paper's
//    MPI_Reduce shape, made reproducible. The sampling kernel (whose
//    probe phase inspects the whole root list) and the CPU engines
//    (flat left-fold over roots) are not block-shardable and route to
//    one worker as a Whole query instead.
//
//  * **By graph across the fleet** — consistent hashing over a ring of
//    worker vnodes places each named graph on `replication` workers
//    (0 = every worker, the right call for hot graphs); queries for a
//    graph only dispatch to its owners.
//
// Resilience reuses the PR 4 machinery's shape at the fleet level: a dead
// worker's outstanding shards are reassigned (the root-range reassignment
// path), stragglers are re-dispatched after a timeout (first result
// wins), a shard that exhausts its attempts falls back to a
// coordinator-local compute of the same sub-run (bit-identical, since it
// executes the identical single-block options), and with local fallback
// disabled the query degrades to the completed shards (degraded results
// are never cached) or fails. Request deadlines bound the whole exchange.
//
// Results are cached in the same ResultCache the in-process service uses,
// keyed (graph fingerprint, options signature) — the fingerprint is
// verified against every worker at load/mutate time, so the cross-process
// cache key cannot diverge. Mutations (dyn::UpdateBatch) commit locally
// through dyn::VersionedGraph, invalidate the old epoch's entries, and
// broadcast to owning workers with fingerprint agreement checked on ack.
//
// Threading: the coordinator is single-threaded by design — every public
// call pumps the poll loop itself until its condition is met. One query
// is in flight at a time (shard-level parallelism across the fleet is
// where the concurrency lives); hbc-serve's coordinator role replays
// workloads through it sequentially.

#include <chrono>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "core/approx.hpp"
#include "dyn/versioned_graph.hpp"
#include "graph/csr.hpp"
#include "net/chaos.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/cache.hpp"
#include "service/progressive.hpp"
#include "service/service.hpp"
#include "trace/trace.hpp"
#include "util/backoff.hpp"

namespace hbc::net {

struct CoordinatorConfig {
  /// Endpoint to bind ("unix:/path" default shape, "tcp:host:port" opt-in).
  Endpoint listen;
  std::string name = "coordinator";
  /// Result-cache budget (same semantics as ServiceConfig::cache_bytes).
  std::size_t cache_bytes = 64ull << 20;
  /// Workers each graph is placed on; 0 = replicate to every worker.
  std::uint32_t replication = 0;
  /// Vnodes per worker on the consistent-hash ring.
  std::uint32_t virtual_nodes = 16;
  /// Re-dispatch a shard still unanswered after this long to a second
  /// worker (first result wins). 0 = off.
  std::chrono::milliseconds straggler_timeout{0};
  /// Dispatch attempts per shard before escalating to local fallback (or
  /// degradation). Minimum 1.
  std::uint32_t max_shard_attempts = 3;
  /// Compute shards locally when no worker can serve them (bit-identical:
  /// the same single-block sub-run). Off = degrade/fail instead.
  bool local_fallback = true;
  /// Budget for control handshakes (graph load acks, mutate acks, drain).
  std::chrono::milliseconds control_timeout{10'000};
  /// Request-lifecycle tracing; spans/instants carry the propagated
  /// request id so per-process captures stitch. Non-owning; may be null.
  trace::Tracer* tracer = nullptr;

  // --- fleet self-healing --------------------------------------------------

  /// Heartbeat failure detection: a ready worker silent (no frame of any
  /// kind) this long is Quarantined — its dispatched shards are
  /// proactively reassigned and it gets no new work until it earns
  /// readmission (docs/resilience.md has the state machine). 0 = off.
  std::chrono::milliseconds heartbeat_timeout{0};
  /// Heartbeats a quarantined-then-heard-from worker must deliver on
  /// probation before it is readmitted to the dispatch pool.
  std::uint32_t probation_heartbeats = 2;
  /// Slow-writer cull: a worker that keeps a frame incomplete at the head
  /// of its stream this long (e.g. dribbling one byte per tick) is
  /// disconnected with a typed drop, not allowed to pin the loop. 0 = off.
  std::chrono::milliseconds frame_deadline{0};
  /// Seeded fault injection armed on every accepted connection
  /// (stream_id = worker slot). Null = inert (one pointer test per send).
  std::shared_ptr<const ChaosPlan> chaos;
  /// Delay policy for re-dispatching a failed shard (util::Backoff; the
  /// per-shard seed mixes the query id and shard index so a fleet of
  /// retries de-synchronizes deterministically). Defaults are small —
  /// shard retries race a request deadline, not a reconnect.
  util::BackoffConfig redispatch_backoff{std::chrono::milliseconds(2),
                                         std::chrono::milliseconds(250)};
  /// Durable warm restart: when set, the named-graph registry (specs,
  /// fingerprints, mutation history, graph structure) and the result-cache
  /// index are snapshotted here on every registry change, and a new
  /// Coordinator restores from it before accepting workers. Empty = off.
  std::string snapshot_dir;
};

struct DistStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t shards_dispatched = 0;
  std::uint64_t shards_completed = 0;  // completed remotely
  std::uint64_t shard_retries = 0;     // failure/death reassignments
  std::uint64_t straggler_redispatches = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t local_fallbacks = 0;  // shards computed on the coordinator
  std::uint64_t whole_queries = 0;    // routed unsharded (CPU / sampling)
  std::uint64_t degraded = 0;
  std::uint64_t mutations = 0;
  std::uint64_t budgeted_queries = 0;  // accuracy-contract queries served
  std::uint64_t refine_strata = 0;     // background strata folded fleet-wide
  std::uint64_t refine_dropped = 0;    // refinements dropped (invalidated)
  std::uint64_t heartbeat_misses = 0;  // detector deadline expiries
  std::uint64_t quarantines = 0;
  std::uint64_t readmissions = 0;
  std::uint64_t slow_peer_drops = 0;  // frame-deadline culls
  std::uint64_t snapshot_saves = 0;
};

/// Outcome of the constructor's snapshot restore attempt (queryable so
/// hbc-serve and tests can tell a warm restart from a fresh start).
struct SnapshotInfo {
  bool attempted = false;
  bool ok = false;
  std::string error;  // restore failure (coordinator started fresh)
  std::size_t graphs = 0;
  std::size_t cache_entries = 0;
};

class Coordinator {
 public:
  /// Binds and listens immediately; throws NetError with syscall +
  /// endpoint context on failure (hbc-serve turns that into a clean
  /// nonzero exit).
  explicit Coordinator(CoordinatorConfig config);
  ~Coordinator();

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// Pump until at least `count` workers have completed the handshake (or
  /// the timeout passes). Returns the ready-worker count.
  std::size_t wait_for_workers(std::size_t count, std::chrono::milliseconds timeout);

  std::size_t worker_count() const;

  /// Register a graph and broadcast it to its ring owners. `spec` is how
  /// workers materialize it (a path or gen: spec; workers verify the
  /// fingerprint, so a divergent load is refused, not silently wrong).
  /// Returns the number of workers that confirmed the load; a worker that
  /// *disagrees on the fingerprint* is disconnected — better one worker
  /// down than a fleet serving two different graphs under one cache key.
  std::size_t load_graph(const std::string& id, graph::CSRGraph g, std::string spec);
  std::size_t load_graph(const std::string& id,
                         std::shared_ptr<const graph::CSRGraph> g, std::string spec);

  std::uint64_t graph_fingerprint(const std::string& id) const;

  /// Apply an edge-update batch: commit locally (dyn::VersionedGraph),
  /// invalidate the old epoch's cache entries, broadcast to every worker
  /// holding the graph, and verify fingerprint agreement on each ack.
  /// Throws like BcService::mutate_graph for unknown ids / bad updates.
  service::MutationResult mutate_graph(const std::string& id,
                                       const dyn::UpdateBatch& batch);

  /// The service surface: shard, dispatch, reduce, finalize. Synchronous;
  /// respects request.budget.deadline end to end. Response::result is
  /// bitwise-identical to standalone hbc::service for the same request.
  service::Response query(service::Request request);

  /// Graceful shutdown: ask every worker to drain, wait for goodbyes (or
  /// the control timeout), close everything. Idempotent.
  void drain();

  const DistStats& stats() const noexcept { return stats_; }
  const Endpoint& endpoint() const noexcept { return cfg_.listen; }

  /// Detector state of a connected worker (nullopt for unknown slots).
  /// Tests drive the quarantine -> probation -> readmission machine
  /// through this.
  std::optional<wire::HealthState> worker_health(std::uint32_t slot) const;

  /// Pump the event loop (accepts, heartbeats, detector) for `duration`
  /// with no query in flight — how tests and idle serving loops let the
  /// failure detector observe the fleet. Also advances the background
  /// refinement queue one stratum at a time.
  void run_for(std::chrono::milliseconds duration);

  /// Refinement jobs still queued. The coordinator has no background
  /// thread: callers loop run_for() until this reaches zero to let
  /// allow_refinement contracts finish.
  std::size_t refine_backlog() const { return refine_queue_.size(); }

  /// Snapshot the registry + cache to CoordinatorConfig::snapshot_dir now.
  /// Throws SnapshotError (no-op without a snapshot_dir). The registry-
  /// changing paths (load_graph, mutate_graph, drain) already snapshot
  /// automatically, best-effort.
  void save_snapshot();

  /// The constructor's restore outcome.
  const SnapshotInfo& snapshot_info() const noexcept { return snapshot_info_; }

  /// Human-readable fleet health: DistStats counters, chaos injection
  /// counts when armed, and one line per worker with its detector state.
  std::string metrics_report() const;

 private:
  struct WorkerState {
    std::unique_ptr<Conn> conn;
    std::uint32_t slot = 0;
    std::string name;
    std::uint32_t shard_slots = 1;
    /// Negotiated wire version: min(worker's Hello.protocol, ours). v1
    /// workers never receive budgeted (v2) shards.
    std::uint16_t protocol = wire::kProtocolVersion;
    bool ready = false;
    bool goodbye = false;
    std::uint32_t inflight = 0;  // load-balance hint, clamped at 0
    /// Graph ids confirmed loaded at the coordinator's fingerprint.
    std::set<std::string> graphs;
    /// Failure-detector state; only Healthy workers receive dispatches.
    wire::HealthState health = wire::HealthState::Healthy;
    /// Last frame of any kind (heartbeats included), from when the worker
    /// became ready. The detector compares this against heartbeat_timeout.
    std::chrono::steady_clock::time_point last_seen{};
    /// Heartbeats delivered since entering probation.
    std::uint32_t probation_seen = 0;
  };

  struct GraphEntry {
    std::shared_ptr<const graph::CSRGraph> graph;
    std::uint64_t fingerprint = 0;       // current epoch
    std::uint64_t base_fingerprint = 0;  // epoch 0 (what `spec` loads)
    std::string spec;
    std::uint64_t epoch = 0;
    std::shared_ptr<dyn::VersionedGraph> versioned;  // lazy, first mutate
    /// Applied updates since epoch 0, replayed to late-joining workers.
    std::vector<wire::WireUpdate> history;
  };

  struct Shard {
    std::uint32_t index = 0;  // block id in the standalone grid
    enum class State : std::uint8_t { Pending, Dispatched, Done, Abandoned };
    State state = State::Pending;
    std::uint32_t attempts = 0;
    wire::SubmitShardMsg msg;  // built once; local fallback replays it
    std::vector<std::uint32_t> dispatched_to;  // slots still expected
    std::set<std::uint32_t> tried;
    std::chrono::steady_clock::time_point last_dispatch{};
    std::vector<double> partial;
    std::uint64_t roots_processed = 0;
    double compute_ms = 0.0;
    std::uint8_t degraded = 0;
    /// v2 estimate block echoed by a budgeted Whole worker (see wire.hpp).
    std::uint8_t has_estimate = 0;
    std::uint64_t est_roots_used = 0;
    double est_stderr = 0.0;
    std::uint32_t est_rung = 0;
    std::uint8_t est_refining = 0;
    /// Re-dispatch pacing after a failure: the shard stays Pending but is
    /// not offered to a worker before this instant.
    std::chrono::steady_clock::time_point not_before{};
    util::Backoff backoff;  // seeded per (query, shard) in query()
  };

  struct ActiveQuery {
    std::uint64_t id = 0;
    std::string graph_id;
    std::shared_ptr<const graph::CSRGraph> graph;
    std::uint64_t fingerprint = 0;  // the graph's, when the query started
    core::Options options;  // as requested (finalization mirrors these)
    bool whole = false;
    /// Accuracy-contract Whole delegation: the response carries the
    /// worker's estimate.
    bool budgeted = false;
    /// Exact-cache slot for the answer; empty = never cached.
    std::string cache_key;
    bool approximate = false;      // sampled-roots scale-up applies
    std::size_t resolved_roots = 0;  // |resolved root list|
    std::vector<Shard> shards;
    std::size_t remaining = 0;
    std::size_t abandoned = 0;
    /// time_point::max() = none.
    std::chrono::steady_clock::time_point deadline;
    bool failed = false;
    service::QueryStatus fail_status = service::QueryStatus::Failed;
    std::string fail_error;
  };

  /// One poll-loop pass: accept, read, dispatch frames, flush writes,
  /// then run the failure detector.
  void pump(int timeout_ms);
  void handle_frame(WorkerState& w, const wire::Frame& frame);
  void worker_dead(std::uint32_t slot);
  void send_graph_to(WorkerState& w, const std::string& id, const GraphEntry& e);

  /// Timeout-based heartbeat failure detection: quarantine silent
  /// workers, reassigning their dispatched shards proactively.
  void detect_failures();
  /// Transition `w` to `state`, notify it with a QuarantineMsg, trace.
  void set_health(WorkerState& w, wire::HealthState state, const std::string& reason);
  /// Return every shard dispatched to `slot` to Pending, without touching
  /// the connection (a dead or quarantined worker). Returns the count.
  std::uint64_t reassign_dispatched(std::uint32_t slot);

  /// Best-effort snapshot after a registry change (records the error in
  /// snapshot_info_ instead of throwing).
  void persist_snapshot() noexcept;
  void restore_from_snapshot();

  /// Ring owners of `id` among ready workers (ascending slot for
  /// replication 0 / >= fleet; ring walk otherwise).
  std::vector<std::uint32_t> owners(const std::string& id) const;

  /// Accuracy-contract queries (request.budget active). GPU-model
  /// block-shardable strategies run service::advance_contract HERE —
  /// each stratum is an explicit-root Partial-sharded sub-run through
  /// execute(), so every stratum (and therefore the folded estimate) is
  /// bitwise-identical to a standalone budgeted run. CPU/Sampling
  /// strategies delegate the whole budgeted query to one v2 worker.
  service::Response query_budgeted(service::Request request,
                                   std::chrono::steady_clock::time_point t0);
  /// Advance the oldest pending background refinement by one stratum.
  /// Returns false when there is nothing to do. Called from run_for()
  /// between pump passes and drained fully by drain().
  bool refine_step();
  /// The fleet's stratum executor for the contract controller: each
  /// stratum runs through execute() with the time left before `deadline`
  /// (time_point::max() = none), and a deadline surfaces as
  /// util::Cancelled. Strata never touch the exact cache.
  service::StratumFn stratum_runner(const std::string& graph_id,
                                    std::chrono::steady_clock::time_point deadline);

  /// A query's shared state before sharding: ids, graph snapshot,
  /// options, shardability and deadline.
  std::unique_ptr<ActiveQuery> start_query(const service::Request& request,
                                           const GraphEntry& entry,
                                           std::chrono::steady_clock::time_point t0);
  /// Shard, dispatch and fold one exact request: start_query, the shard
  /// build, run_query. The answer is stored under `cache_key` unless it is
  /// empty (strata). Client bookkeeping (stats_.queries, the cache probe)
  /// is query()'s.
  service::Response execute(const service::Request& request, const GraphEntry& entry,
                            std::chrono::steady_clock::time_point t0,
                            std::string cache_key);
  /// The one dispatch/pump loop: send `q`'s shards, heal failures until
  /// every shard is done (or the query failed), then assemble.
  service::Response run_query(std::unique_ptr<ActiveQuery> q, std::size_t top_k,
                              std::chrono::steady_clock::time_point t0);

  void dispatch_pending(ActiveQuery& q);
  void check_stragglers(ActiveQuery& q);
  /// Whether `w` may receive shard `s` of `q` at all.
  bool eligible(const WorkerState& w, const ActiveQuery& q, const Shard& s) const;
  /// Send `s` to `w` with the time left on `q`, and record the attempt
  /// (`event` names the trace instant).
  void send_shard(ActiveQuery& q, Shard& s, WorkerState& w, const char* event);
  /// Escalation for a shard out of remote options: local fallback
  /// (bit-identical) or abandon/fail.
  void escalate(ActiveQuery& q, Shard& s);
  void finish_shard_local(ActiveQuery& q, Shard& s);
  service::Response assemble(ActiveQuery& q, std::size_t top_k,
                             std::chrono::steady_clock::time_point t0);

  trace::Sink* sink() const;
  void trace_instant(const char* name, std::uint64_t req,
                     std::initializer_list<trace::Arg> extra = {}) const;

  CoordinatorConfig cfg_;
  Socket listener_;
  service::ResultCache cache_;
  /// Refinable estimates for locally-stratified budgeted queries (same
  /// byte budget as the exact cache).
  service::ApproxCache approx_cache_;
  /// Deferred refinement toward stricter contracts; single-threaded —
  /// advanced stratum-at-a-time by run_for() / drained by drain().
  struct PendingRefine {
    std::string graph_id;
    std::shared_ptr<service::ApproxEntry> entry;
    core::Options options;
    service::QueryBudget budget;
  };
  std::deque<PendingRefine> refine_queue_;
  DistStats stats_;

  std::map<std::uint32_t, WorkerState> workers_;  // slot -> state
  std::uint32_t next_slot_ = 1;
  std::uint64_t next_request_id_ = 1;

  std::map<std::string, GraphEntry> graphs_;

  std::unique_ptr<ActiveQuery> active_;

  /// Control-plane ack bookkeeping (one control op in flight at a time).
  struct PendingControl {
    std::uint64_t request_id = 0;
    std::set<std::uint32_t> waiting;  // slots yet to ack
    std::size_t confirmed = 0;
    std::vector<std::string> errors;
  };
  std::optional<PendingControl> control_;

  bool drained_ = false;
  SnapshotInfo snapshot_info_;
};

}  // namespace hbc::net
