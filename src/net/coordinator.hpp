#pragma once

// net::Coordinator — the front of a sharded multi-process BC fleet.
//
// The coordinator answers the hbc::service request/response surface
// (service::Request in, service::Response out) through one
// service::BcService whose compute hook (ServiceConfig::compute_fn) is the
// fleet. Cache probe and insert, coalescing, admission, the accuracy
// contract, background refinement, mutation commit and invalidation all run
// once, in that service. The coordinator keeps the fleet: workers, ring
// placement, shard build, dispatch and healing, the fold, the graph specs
// and update history late joiners replay, and snapshots. A fleet run
// shards work two ways:
//
//  * **By root within one run** — the paper's static partition (§V.D),
//    for every strategy: resolved root i goes to shard i mod B, with
//    B = max(device.num_sms, 1), one shard per SM of the modelled device
//    (shard b holds what block b of a block-parallel grid owns). A worker
//    runs a shard as a raw run of exactly its roots (for Sampling, the
//    probe runs per shard, as it does per GPU in dist::run_cluster_bc)
//    and returns the nonzero cells of its exact sums (util::ExactSum).
//    The coordinator merges the cells in arrival order — integer
//    addition, so any order gives the same cells — converts once and
//    applies core::finalize (sampling scale-up → halve → normalize, all
//    elementwise). Finalization happens only here. The reassembled
//    scores equal a standalone run bit for bit at ANY worker count — the
//    paper's MPI_Reduce shape, made reproducible.
//
//  * **By graph across the fleet** — consistent hashing over a ring of
//    worker vnodes places each named graph on `replication` workers
//    (0 = every worker, the right call for hot graphs); runs on a graph
//    only dispatch to its owners.
//
// Budgets: every accuracy contract runs the service's controller here, on
// the coordinator. Each stratum is an exact explicit-root fleet run, so
// the folded estimate has the bits a standalone budgeted query computes.
// No wire frame carries a budget or an estimate.
//
// Resilience at the fleet level: a dead worker's outstanding shards are
// reassigned (the root-range reassignment path), stragglers are
// re-dispatched after a timeout (first result wins), and a shard that
// exhausts its attempts, or finds no eligible worker, is computed on the
// coordinator (bit-identical, since it executes the identical shard
// options). A local compute that throws fails the run. The request
// deadline bounds the whole exchange.
//
// Threading: only the thread that calls the coordinator pumps the poll
// loop. The service's worker and refinement threads put each fleet run
// into an inbox and wait; the calling thread executes the runs one at a
// time, in FIFO order, inside query(), run_for(), wait_for_workers(),
// load_graph(), mutate_graph() and drain(). Background refinement
// therefore advances only inside those calls. query() submits to the
// service, then pumps until the ticket is ready.

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "dyn/versioned_graph.hpp"
#include "graph/csr.hpp"
#include "net/chaos.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "service/service.hpp"
#include "trace/trace.hpp"
#include "util/backoff.hpp"
#include "util/cancel.hpp"

namespace hbc::net {

struct CoordinatorConfig {
  /// Endpoint to bind ("unix:/path" default shape, "tcp:host:port" opt-in).
  Endpoint listen;
  std::string name = "coordinator";
  /// Budget of the exact result cache and of the refinable-estimate cache
  /// (same semantics as ServiceConfig::cache_bytes).
  std::size_t cache_bytes = 64ull << 20;
  /// Workers each graph is placed on; 0 = replicate to every worker.
  std::uint32_t replication = 0;
  /// Re-dispatch a shard still unanswered after this long to a second
  /// worker (first result wins). 0 = off.
  std::chrono::milliseconds straggler_timeout{0};
  /// Dispatch attempts per shard before the coordinator computes it
  /// itself (bit-identical: the same shard run). Minimum 1.
  std::uint32_t max_shard_attempts = 3;
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

/// Fleet counters. queries, cache_hits, degraded, budgeted_queries,
/// refine_strata and refine_dropped are the coordinator's service metrics.
struct DistStats {
  std::uint64_t queries = 0;
  std::uint64_t cache_hits = 0;
  std::uint64_t shards_dispatched = 0;
  std::uint64_t shards_completed = 0;  // completed remotely
  std::uint64_t shard_retries = 0;     // failure/death reassignments
  std::uint64_t straggler_redispatches = 0;
  std::uint64_t worker_deaths = 0;
  std::uint64_t local_fallbacks = 0;  // shards computed on the coordinator
  std::uint64_t degraded = 0;
  std::uint64_t mutations = 0;
  std::uint64_t budgeted_queries = 0;  // accuracy-contract queries served
  std::uint64_t refine_strata = 0;     // background strata folded
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

  /// Apply an edge-update batch: commit it in the service (which
  /// invalidates the old epoch's cache entries and estimates), broadcast it
  /// to every worker holding the graph, and verify fingerprint agreement on
  /// each ack. Throws like BcService::mutate_graph for unknown ids / bad
  /// updates.
  service::MutationResult mutate_graph(const std::string& id,
                                       const dyn::UpdateBatch& batch);

  /// The service surface: submit to the service, then pump until the
  /// ticket is ready. Respects request.budget.deadline end to end.
  /// Response::result is bitwise-identical to standalone hbc::service for
  /// the same request.
  service::Response query(service::Request request);

  /// Graceful shutdown: finish background refinement, stop the service,
  /// ask every worker to drain, wait for goodbyes (or the control
  /// timeout), close everything. Idempotent.
  void drain();

  DistStats stats() const;
  const Endpoint& endpoint() const noexcept { return cfg_.listen; }

  /// Detector state of a connected worker (nullopt for unknown slots).
  /// Tests drive the quarantine -> probation -> readmission machine
  /// through this.
  std::optional<wire::HealthState> worker_health(std::uint32_t slot) const;

  /// Pump the event loop (accepts, heartbeats, detector) for `duration`
  /// with no query in flight — how tests and idle serving loops let the
  /// failure detector observe the fleet. Also executes the strata that
  /// background refinement hands over.
  void run_for(std::chrono::milliseconds duration);

  /// Refinement jobs queued or running in the service. Their strata run
  /// only while this thread pumps: callers loop run_for() until this
  /// reaches zero to let allow_refinement contracts finish.
  std::size_t refine_backlog() const { return svc_.refine_backlog(); }

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

  /// What workers need to materialize a registered graph; the graph itself
  /// lives in the service.
  struct GraphEntry {
    std::uint64_t fingerprint = 0;       // current epoch
    std::uint64_t base_fingerprint = 0;  // epoch 0 (what `spec` loads)
    std::string spec;
    std::uint64_t epoch = 0;
    /// Updates since epoch 0, replayed to late-joining workers.
    std::vector<wire::WireUpdate> history;
  };

  struct Shard {
    std::uint32_t index = 0;  // root i of the query is in shard i mod shards
    enum class State : std::uint8_t { Pending, Dispatched, Done };
    State state = State::Pending;
    std::uint32_t attempts = 0;
    wire::SubmitShardMsg msg;  // built once; local fallback replays it
    std::vector<std::uint32_t> dispatched_to;  // slots still expected
    std::set<std::uint32_t> tried;
    std::chrono::steady_clock::time_point last_dispatch{};
    std::uint64_t roots_processed = 0;
    double compute_ms = 0.0;
    /// Re-dispatch pacing after a failure: the shard stays Pending but is
    /// not offered to a worker before this instant.
    std::chrono::steady_clock::time_point not_before{};
    util::Backoff backoff;  // seeded per (run, shard) in run_query()
  };

  /// The fleet run in flight.
  struct ActiveQuery {
    std::uint64_t id = 0;
    std::string graph_id;
    const graph::CSRGraph* graph = nullptr;  // the service's snapshot
    std::uint64_t fingerprint = 0;
    core::Options options;  // as the service asked (finalization mirrors these)
    bool approximate = false;      // sampled-roots scale-up applies
    std::size_t resolved_roots = 0;  // |resolved root list|
    std::vector<Shard> shards;
    util::ExactSum sums;  // the done shards' sums, merged on arrival
    std::size_t remaining = 0;
    std::chrono::steady_clock::time_point start;
    /// The service's cancel token; its deadline (time_point::max() = none)
    /// bounds every shard.
    util::CancelToken cancel;
    std::chrono::steady_clock::time_point deadline;
  };

  /// One compute call the service handed to the calling thread.
  struct FleetRun {
    const graph::CSRGraph* graph = nullptr;
    core::Options options;
    core::BCResult result;
    std::exception_ptr error;
    bool done = false;  // guarded by inbox_mu_
  };

  /// The service's compute hook (any service thread): queue a fleet run,
  /// wake the poll loop and wait for it. A run still queued when `o`'s
  /// cancel token fires is withdrawn and throws util::Cancelled.
  core::BCResult fleet_compute(const graph::CSRGraph& g, const core::Options& o);
  /// Pump the loop and execute queued fleet runs until `done()` holds or
  /// `until` passes. `done()` is checked under the inbox lock before each
  /// run is taken, so a run queued after it became true waits for the
  /// next call.
  void serve_until(const std::function<bool()>& done,
                   std::chrono::steady_clock::time_point until =
                       std::chrono::steady_clock::time_point::max());
  /// Execute one fleet run on this thread and hand its outcome back.
  void execute(std::shared_ptr<FleetRun> run);

  /// One poll-loop pass: accept, read, dispatch frames, flush writes,
  /// then run the failure detector.
  void pump(int timeout_ms);
  void handle_frame(WorkerState& w, const wire::Frame& frame);
  void worker_dead(std::uint32_t slot);
  void send_graph_to(WorkerState& w, const std::string& id, const GraphEntry& e);
  /// Pump until every worker in control_ acked (or the control timeout).
  void await_control();

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

  /// Shard, dispatch and fold one compute call of the service: the graph
  /// id is the registered one with `g`'s fingerprint (a snapshot a
  /// mutation made stale throws), root i goes to shard i mod B, and the
  /// result is finalized as core::compute would.
  core::BCResult run_on_fleet(const graph::CSRGraph& g, const core::Options& o);
  /// The one dispatch/pump loop: send `q`'s shards and heal failures until
  /// every shard is done, then assemble. Throws when the run fails.
  core::BCResult run_query(std::unique_ptr<ActiveQuery> q);

  void dispatch_pending(ActiveQuery& q);
  void check_stragglers(ActiveQuery& q);
  /// Whether `w` may receive shards of `q` at all.
  bool eligible(const WorkerState& w, const ActiveQuery& q) const;
  /// Send `s` to `w` with the time left on `q`, and record the attempt
  /// (`event` names the trace instant).
  void send_shard(ActiveQuery& q, Shard& s, WorkerState& w, const char* event);
  /// A shard out of remote options is computed on this thread
  /// (bit-identical: the same shard run); a throw fails the run.
  void finish_shard_local(ActiveQuery& q, Shard& s);
  core::BCResult assemble(ActiveQuery& q);

  trace::Sink* sink() const;
  void trace_instant(const char* name, std::uint64_t req,
                     std::initializer_list<trace::Arg> extra = {}) const;

  CoordinatorConfig cfg_;
  Socket listener_;
  DistStats stats_;  // the fleet's counters; stats() adds the service's

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

  // The inbox: fleet runs queued by the service's threads, executed by the
  // calling thread. wake_ interrupts its poll() on a push and on every
  // completed ticket.
  std::mutex inbox_mu_;
  std::condition_variable inbox_cv_;  // a run finished
  std::deque<std::shared_ptr<FleetRun>> inbox_;
  Wakeup wake_;
  /// Declared last: destroyed first, so its threads are joined while
  /// everything fleet_compute touches is still alive.
  service::BcService svc_;
};

}  // namespace hbc::net
