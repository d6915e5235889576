#pragma once

// net::Worker — one member of a sharded BC fleet.
//
// A worker is a thin wire adapter around hbc::service::BcService: it
// connects to the coordinator (with exponential backoff, since fleets
// start in any order), introduces itself, materializes the graphs it is
// told to hold — verifying each fingerprint against the coordinator's, so
// a divergent load is refused rather than silently wrong — and serves
// SubmitShard messages by forwarding them to the service and streaming
// results back as they complete. Shard execution is asynchronous: the
// poll loop keeps reading new shards while earlier ones compute, so one
// worker can overlap as many shards as its service has worker threads.
// Completion wakes the loop: the service's on_complete hook writes to a
// self-pipe (net::Wakeup) that the loop polls next to the socket, so a
// finished shard is sent as soon as its service thread publishes it —
// there is no timer on the result path. request_stop() uses the same
// pipe, so a stopped worker leaves run() at once.
//
// Determinism contract: every shard is a raw run of explicit roots, and it
// answers with the exact sums of those roots or not at all. A shard the
// local service answered *degraded* (strategy substituted by the
// resilience ladder), or without exact sums, is refused — sent back with
// ok = 0 — because such bits would corrupt the coordinator's reduction.
// The coordinator retries elsewhere or computes the shard itself; either
// path produces the exact bits.
//
// Lifecycle: Drain finishes in-flight shards, says Goodbye, and returns.
// `die_after_shards` is the chaos hook for the distributed kill tests:
// the worker drops the connection the instant the Nth shard ARRIVES —
// before replying — so the coordinator sees a death with work
// outstanding, exactly the failure the reassignment path exists for.
//
// Self-healing: with `rejoin_attempts` > 0 a lost connection (peer gone,
// poisoned stream, missed heartbeat acks) is not the end — the worker
// reconnects under util::Backoff, re-Hellos, and the coordinator's
// late-joiner replay hands it its graphs back, fingerprint-verified.
// Results for shards submitted in a previous session are still reported
// and absorbed by the coordinator's stale/duplicate checks.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "graph/csr.hpp"
#include "net/socket.hpp"
#include "service/service.hpp"
#include "trace/trace.hpp"

namespace hbc::net {

struct WorkerConfig {
  /// Coordinator endpoint to connect to.
  Endpoint connect;
  std::string name = "worker";
  /// Configuration for the wrapped BcService. Its on_complete is replaced
  /// by the worker's own wakeup hook.
  service::ServiceConfig service;
  /// Materialize a graph from the coordinator's spec (a path, or
  /// "gen:family:scale[:seed]"). Default handles both; tests override it
  /// to return in-memory graphs.
  std::function<graph::CSRGraph(const std::string& spec)> graph_loader;
  /// Connection attempts before giving up (NetError propagates out of
  /// run()); delays follow util::Backoff (exponential, jittered, capped)
  /// from `connect_backoff` up to `max_backoff`.
  std::uint32_t max_connect_attempts = 60;
  std::chrono::milliseconds connect_backoff{50};
  std::chrono::milliseconds max_backoff{2000};
  /// Heartbeat cadence; 0 disables.
  std::chrono::milliseconds heartbeat_interval{1000};
  /// Sessions after the first: when the connection is LOST (coordinator
  /// gone, poisoned stream, missed heartbeat acks) the worker reconnects
  /// and re-Hellos up to this many times. 0 (default) = the pre-rejoin
  /// behaviour: run() returns on the first loss. Clean exits (drain,
  /// goodbye, die_after_shards) never rejoin.
  std::uint32_t rejoin_attempts = 0;
  /// Consecutive heartbeats sent without the previous one being acked
  /// before the worker declares the link dead and reconnects proactively
  /// (its half of the failure detector). Minimum 1.
  std::uint32_t max_heartbeat_misses = 3;
  /// Seeded fault injection on the worker's outbound stream
  /// (stream_id derived from `name`). Null = inert.
  std::shared_ptr<const ChaosPlan> chaos;
  /// Cull a coordinator that keeps a frame incomplete this long (slow
  /// writer); counts as a lost connection. 0 = off.
  std::chrono::milliseconds frame_deadline{0};
  /// Chaos hook: abruptly close the connection when the Nth SubmitShard
  /// arrives (1-based), before computing or replying. 0 = never.
  std::uint32_t die_after_shards = 0;
  /// Non-owning; may be null.
  trace::Tracer* tracer = nullptr;
};

struct WorkerStats {
  std::uint64_t shards_received = 0;
  std::uint64_t shards_served = 0;
  std::uint64_t shards_refused = 0;  // answers without exact bits sent back as errors
  std::uint64_t graphs_loaded = 0;
  std::uint64_t mutations = 0;
  std::uint64_t heartbeats = 0;
  std::uint64_t heartbeat_misses = 0;   // sent while the previous was unacked
  std::uint64_t reconnects = 0;         // rejoin sessions entered
  std::uint64_t quarantine_notices = 0; // coordinator health notices received
};

class Worker {
 public:
  explicit Worker(WorkerConfig config);
  ~Worker();

  Worker(const Worker&) = delete;
  Worker& operator=(const Worker&) = delete;

  /// Connect (with backoff) and serve until drained, told to die, stopped,
  /// or the coordinator goes away. Throws NetError when every connection
  /// attempt fails.
  void run();

  /// Ask run() to return at its next loop iteration (thread-safe; the
  /// in-process tests run workers on std::thread).
  void request_stop() noexcept {
    stop_.store(true, std::memory_order_relaxed);
    wake_.notify();
  }

  const WorkerStats& stats() const noexcept { return stats_; }

 private:
  struct PendingShard {
    std::uint64_t request_id = 0;
    std::uint32_t shard_index = 0;
    service::Ticket ticket;
  };

  /// How one connection's serving loop ended — the rejoin decision.
  enum class SessionEnd : std::uint8_t {
    Clean,     // drained / goodbye / deliberate death / stop: never rejoin
    ConnLost,  // peer gone, poisoned stream, missed acks: rejoin-eligible
  };

  Socket connect_with_backoff();
  SessionEnd run_session();
  void handle_frame(Conn& conn, const wire::Frame& frame, bool& draining, bool& done);
  void poll_tickets(Conn& conn);
  void trace_instant(const char* name, std::uint64_t req, std::uint64_t shard) const;

  WorkerConfig cfg_;
  // Declared before svc_: the service's threads call wake_.notify() until
  // svc_ is destroyed (joined), so the pipe must outlive it.
  Wakeup wake_;
  service::BcService svc_;
  WorkerStats stats_;
  std::vector<PendingShard> pending_;
  std::atomic<bool> stop_{false};
  std::uint32_t shards_seen_ = 0;  // for die_after_shards
  std::uint64_t heartbeat_seq_ = 0;
  std::uint64_t last_acked_seq_ = 0;    // highest HeartbeatAck seen
  std::uint32_t misses_in_row_ = 0;     // consecutive unacked heartbeats
};

}  // namespace hbc::net
