#include "net/worker.hpp"

#include <exception>
#include <functional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "net/shard.hpp"
#include "util/backoff.hpp"

namespace hbc::net {

using Clock = std::chrono::steady_clock;

namespace {

// "gen:family:scale[:seed]" → generated graph; anything else is a path.
// Paths ending in .hbcg/.hbcgz open mmap'd (graph::io::read_auto), so a
// whole worker fleet pointed at one file shares a single page-cache copy
// of the adjacency — and the coordinator's fingerprint check below
// compares against a value recomputed from the mapped bytes, never the
// file header's own claim.
graph::CSRGraph default_loader(const std::string& spec) {
  if (spec.rfind("gen:", 0) != 0) return graph::io::read_auto(spec);
  const std::string rest = spec.substr(4);
  const std::size_t c1 = rest.find(':');
  if (c1 == std::string::npos) {
    throw std::invalid_argument("graph spec '" + spec +
                                "': expected gen:family:scale[:seed]");
  }
  const std::string family = rest.substr(0, c1);
  const std::size_t c2 = rest.find(':', c1 + 1);
  const std::string scale_s =
      c2 == std::string::npos ? rest.substr(c1 + 1) : rest.substr(c1 + 1, c2 - c1 - 1);
  const std::uint32_t scale = static_cast<std::uint32_t>(std::stoul(scale_s));
  const std::uint64_t seed =
      c2 == std::string::npos ? 1 : std::stoull(rest.substr(c2 + 1));
  return graph::gen::family_by_name(family).make(scale, seed);
}

// The worker's service config: `base` with a completion hook that wakes
// the serving loop, and core::compute as the executor when `base` names
// none, so results keep the exact sums a shard returns (the cache charges
// their bytes).
service::ServiceConfig waking(service::ServiceConfig base, Wakeup& wake) {
  base.on_complete = [&wake] { wake.notify(); };
  if (!base.compute_fn) {
    base.compute_fn = [](const graph::CSRGraph& g, const core::Options& o) {
      return core::compute(g, o);
    };
  }
  return base;
}

}  // namespace

Worker::Worker(WorkerConfig config)
    : cfg_(std::move(config)), svc_(waking(cfg_.service, wake_)) {
  if (!cfg_.graph_loader) cfg_.graph_loader = default_loader;
}

Worker::~Worker() = default;

void Worker::trace_instant(const char* name, std::uint64_t req,
                           std::uint64_t shard) const {
  if (!cfg_.tracer) return;
  trace::Sink* s = cfg_.tracer->thread_sink("worker");
  if (!s || !s->wants(trace::kService)) return;
  s->instant(name, trace::kService, cfg_.tracer->now_ns(),
             {{"req", req}, {"shard", shard}});
}

Socket Worker::connect_with_backoff() {
  util::BackoffConfig bc;
  bc.initial = cfg_.connect_backoff;
  bc.max = cfg_.max_backoff;
  bc.seed = std::hash<std::string>{}(cfg_.name);
  util::Backoff backoff(bc);
  for (std::uint32_t attempt = 1;; ++attempt) {
    try {
      return connect_to(cfg_.connect);
    } catch (const NetError&) {
      if (attempt >= std::max<std::uint32_t>(cfg_.max_connect_attempts, 1) ||
          stop_.load(std::memory_order_relaxed)) {
        throw;
      }
    }
    std::this_thread::sleep_for(backoff.next());
  }
}

void Worker::run() {
  // Rejoin pacing shares the reconnect policy but keeps its own attempt
  // counter — a long-lived worker that loses the coordinator twice an
  // hour should not escalate to max_backoff forever.
  util::BackoffConfig bc;
  bc.initial = cfg_.connect_backoff;
  bc.max = cfg_.max_backoff;
  bc.seed = std::hash<std::string>{}(cfg_.name) ^ 0x5265'6A6F'696Eull;  // "Rejoin"
  util::Backoff rejoin(bc);
  for (std::uint32_t session = 0;; ++session) {
    const SessionEnd end = run_session();
    if (end == SessionEnd::Clean) return;
    if (stop_.load(std::memory_order_relaxed)) return;
    if (session >= cfg_.rejoin_attempts) return;
    ++stats_.reconnects;
    svc_.note_reconnect();
    std::this_thread::sleep_for(rejoin.next());
  }
}

Worker::SessionEnd Worker::run_session() {
  Conn conn(connect_with_backoff(), cfg_.connect.str());
  if (cfg_.chaos) {
    // High bit keeps worker streams disjoint from coordinator slot ids.
    conn.arm_chaos(cfg_.chaos,
                   std::hash<std::string>{}(cfg_.name) | 0x8000'0000'0000'0000ull);
  }
  conn.set_frame_deadline(cfg_.frame_deadline);
  {
    wire::HelloMsg hello;
    hello.protocol = wire::kProtocolVersion;
    hello.worker_name = cfg_.name;
    const std::size_t slots = cfg_.service.workers != 0
                                  ? cfg_.service.workers
                                  : std::thread::hardware_concurrency();
    hello.shard_slots = static_cast<std::uint32_t>(std::max<std::size_t>(slots, 1));
    conn.send(wire::encode(hello, 0));
  }

  bool draining = false;
  bool done = false;
  auto last_heartbeat = Clock::now();
  misses_in_row_ = 0;
  // Heartbeats from a previous session are moot on a fresh link.
  last_acked_seq_ = heartbeat_seq_;

  while (!done && !stop_.load(std::memory_order_relaxed)) {
    conn.pump_chaos();
    std::vector<pollfd> fds;
    short events = POLLIN;
    if (conn.wants_write()) events |= POLLOUT;
    fds.push_back(pollfd{conn.fd(), events, 0});
    // Pending tickets complete on service threads, whose on_complete hook
    // writes to wake_, so a finished shard ends the wait. The timeout only
    // paces heartbeats, and chaos-held frames that come due.
    fds.push_back(pollfd{wake_.fd(), POLLIN, 0});
    poll_wait(fds, conn.chaos_pending() ? 5 : 50);
    if (fds[1].revents & POLLIN) wake_.drain();

    if (fds[0].revents & (POLLIN | POLLHUP | POLLERR)) {
      const Conn::Io io = conn.pump_read();
      wire::Frame frame;
      for (;;) {
        const wire::DecodeStatus s = conn.next_frame(frame);
        if (s == wire::DecodeStatus::Ok) {
          handle_frame(conn, frame, draining, done);
          if (done) break;
          continue;
        }
        if (s != wire::DecodeStatus::NeedMore) {
          // Poisoned stream (e.g. a chaos-flipped header): the link is
          // unusable, but the worker itself is fine — rejoin-eligible.
          return SessionEnd::ConnLost;
        }
        break;
      }
      if (io != Conn::Io::Ok) {
        // Coordinator is gone. Finish nothing — results have nowhere to
        // go on THIS connection; pending tickets survive for the next.
        return SessionEnd::ConnLost;
      }
    }
    if (done) break;

    if (conn.frame_overdue()) {
      // The coordinator is dribbling a frame — treat it as gone.
      return SessionEnd::ConnLost;
    }

    poll_tickets(conn);

    if (draining && pending_.empty()) {
      wire::GoodbyeMsg bye;
      bye.reason = "drained";
      conn.send(wire::encode(bye, 0));
      // Best-effort flush of everything still queued, then leave.
      while (conn.wants_write() && conn.pump_write() == Conn::Io::Ok) {
        if (!conn.wants_write()) break;
        std::vector<pollfd> w{pollfd{conn.fd(), POLLOUT, 0}};
        poll_wait(w, 100);
      }
      break;
    }

    if (cfg_.heartbeat_interval.count() > 0 &&
        Clock::now() - last_heartbeat >= cfg_.heartbeat_interval) {
      // The worker's half of the failure detector: emitting while the
      // previous heartbeat is still unacked is a miss; enough in a row
      // and the link is declared dead without waiting for a socket error.
      if (heartbeat_seq_ > last_acked_seq_) {
        ++misses_in_row_;
        ++stats_.heartbeat_misses;
        svc_.note_heartbeat_miss();
        if (misses_in_row_ >=
            std::max<std::uint32_t>(cfg_.max_heartbeat_misses, 1)) {
          return SessionEnd::ConnLost;
        }
      }
      wire::HeartbeatMsg hb;
      hb.seq = ++heartbeat_seq_;
      hb.inflight = static_cast<std::uint32_t>(pending_.size());
      conn.send(wire::encode(hb, 0));
      last_heartbeat = Clock::now();
      ++stats_.heartbeats;
    }

    if (conn.wants_write() && conn.pump_write() != Conn::Io::Ok) {
      return SessionEnd::ConnLost;
    }
  }
  return SessionEnd::Clean;
}

void Worker::handle_frame(Conn& conn, const wire::Frame& frame, bool& draining,
                          bool& done) {
  switch (frame.type) {
    case wire::MsgType::HelloAck:
      return;  // nothing to record — the coordinator addresses us by slot
    case wire::MsgType::LoadGraph: {
      wire::LoadGraphMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      wire::GraphLoadedMsg reply;
      reply.graph_id = m.graph_id;
      try {
        graph::CSRGraph g = cfg_.graph_loader(m.spec);
        const std::uint64_t fp = service::graph_fingerprint(g);
        if (fp != m.fingerprint) {
          reply.ok = 0;
          reply.fingerprint = fp;
          reply.error = "fingerprint mismatch: spec '" + m.spec + "' loads a "
                        "different graph than the coordinator registered";
        } else {
          svc_.load_graph(m.graph_id, std::move(g));
          std::uint64_t final_fp = fp;
          if (!m.updates.empty()) {
            // Replay the coordinator's applied-update history so a late
            // joiner catches up to the current epoch in one round trip.
            dyn::UpdateBatch batch;
            for (const wire::WireUpdate& u : m.updates) {
              batch.edges.push_back({u.u, u.v, u.insert != 0});
            }
            final_fp = svc_.mutate_graph(m.graph_id, batch).fingerprint_after;
          }
          if (final_fp != m.fingerprint_after) {
            reply.ok = 0;
            reply.fingerprint = final_fp;
            reply.error = "fingerprint mismatch after update replay";
          } else {
            reply.ok = 1;
            reply.fingerprint = final_fp;
            ++stats_.graphs_loaded;
          }
        }
      } catch (const std::exception& ex) {
        reply.ok = 0;
        reply.error = ex.what();
      }
      conn.send(wire::encode(reply, frame.request_id));
      return;
    }
    case wire::MsgType::SubmitShard: {
      wire::SubmitShardMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      ++shards_seen_;
      ++stats_.shards_received;
      if (cfg_.die_after_shards != 0 && shards_seen_ >= cfg_.die_after_shards) {
        // Chaos: vanish with this shard unanswered. The coordinator's
        // death path must reassign it.
        conn.close();
        done = true;
        return;
      }
      trace_instant("shard-recv", frame.request_id, m.shard_index);
      service::Request req;
      req.graph_id = m.graph_id;
      req.options = options_from_shard(m);
      req.budget.deadline = std::chrono::milliseconds(m.deadline_ms);
      PendingShard p;
      p.request_id = frame.request_id;
      p.shard_index = m.shard_index;
      p.ticket = svc_.submit(std::move(req));
      pending_.push_back(std::move(p));
      return;
    }
    case wire::MsgType::Mutate: {
      wire::MutateMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      wire::MutateDoneMsg reply;
      reply.graph_id = m.graph_id;
      try {
        dyn::UpdateBatch batch;
        for (const wire::WireUpdate& u : m.updates) {
          batch.edges.push_back({u.u, u.v, u.insert != 0});
        }
        const service::MutationResult mr = svc_.mutate_graph(m.graph_id, batch);
        reply.fingerprint = mr.fingerprint_after;
        reply.ok = mr.fingerprint_after == m.fingerprint_after ? 1 : 0;
        if (reply.ok == 0) reply.error = "fingerprint mismatch after mutation";
        ++stats_.mutations;
      } catch (const std::exception& ex) {
        reply.ok = 0;
        reply.error = ex.what();
      }
      conn.send(wire::encode(reply, frame.request_id));
      return;
    }
    case wire::MsgType::Heartbeat: {
      wire::HeartbeatMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      wire::HeartbeatAckMsg ack;
      ack.seq = m.seq;
      conn.send(wire::encode(ack, frame.request_id));
      return;
    }
    case wire::MsgType::HeartbeatAck: {
      wire::HeartbeatAckMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      if (m.seq > last_acked_seq_) last_acked_seq_ = m.seq;
      misses_in_row_ = 0;  // the link round-trips again
      return;
    }
    case wire::MsgType::Quarantine: {
      wire::QuarantineMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      // Informational: the coordinator's dispatch gate is authoritative.
      // The worker records the notice (and keeps heartbeating — that IS
      // the readmission path).
      ++stats_.quarantine_notices;
      trace_instant("quarantine-notice", frame.request_id,
                    static_cast<std::uint64_t>(m.state));
      return;
    }
    case wire::MsgType::Drain:
      draining = true;
      return;
    case wire::MsgType::Goodbye:
      done = true;
      return;
    default:
      return;  // unknown-but-valid type: ignore for forward compatibility
  }
}

void Worker::poll_tickets(Conn& conn) {
  for (std::size_t i = 0; i < pending_.size();) {
    PendingShard& p = pending_[i];
    if (p.ticket.future.wait_for(std::chrono::seconds(0)) !=
        std::future_status::ready) {
      ++i;
      continue;
    }
    const service::Response r = svc_.wait(p.ticket);
    wire::ShardResultMsg out;
    out.shard_index = p.shard_index;
    // A shard must return exact sums: a degraded one (the service
    // substituted a strategy) or one whose executor kept none would
    // corrupt the coordinator's exact fold, so it is refused.
    const bool exact =
        r.ok() && !r.degraded && r.result->sums.size() == r.result->scores.size();
    if (exact) {
      out.roots_processed = r.result->roots_processed;
      out.compute_ms = r.compute_ms;
      const std::span<const util::ExactSum::Cell> cells = r.result->sums.cells();
      for (std::size_t v = 0; v < cells.size(); ++v) {
        if (cells[v] == 0) continue;
        out.sum_vertices.push_back(static_cast<graph::VertexId>(v));
        out.sum_cells.push_back(cells[v]);
      }
      ++stats_.shards_served;
    } else {
      out.ok = 0;
      out.error = !r.ok()      ? (r.error.empty() ? "compute failed" : r.error)
                  : r.degraded ? "degraded: strategy substituted, bits not exact"
                               : "no exact sums";
      if (r.ok()) ++stats_.shards_refused;
    }
    trace_instant("shard-sent", p.request_id, p.shard_index);
    conn.send(wire::encode(out, p.request_id));
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

}  // namespace hbc::net
