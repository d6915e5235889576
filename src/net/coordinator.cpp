#include "net/coordinator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>

#include "core/teps.hpp"
#include "net/shard.hpp"
#include "util/timer.hpp"

namespace hbc::net {

using Clock = std::chrono::steady_clock;
using service::QueryStatus;

namespace {

std::uint64_t mix64(std::uint64_t x) {
  // splitmix64 finalizer — enough spread for ring placement.
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::uint32_t remaining_ms(const Clock::time_point& deadline) {
  if (deadline == Clock::time_point::max()) return 0;
  const auto left = deadline - Clock::now();
  if (left <= Clock::duration::zero()) return 1;  // expired: smallest budget
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(left).count();
  return static_cast<std::uint32_t>(std::min<long long>(ms + 1, 0xffffffffll));
}

service::Response failure(QueryStatus status, std::string error,
                          Clock::time_point t0) {
  service::Response resp;
  resp.status = status;
  resp.error = std::move(error);
  resp.total_ms = ms_between(t0, Clock::now());
  return resp;
}

/// Every GPU-model strategy except Sampling, whose probe phase ranks the
/// whole root list (only correct on one node), shards at block granularity.
bool block_shardable(core::Strategy s) {
  return core::uses_gpu_model(s) && s != core::Strategy::Sampling;
}

std::vector<wire::WireUpdate> to_wire(const std::vector<dyn::EdgeUpdate>& updates) {
  std::vector<wire::WireUpdate> out;
  out.reserve(updates.size());
  for (const dyn::EdgeUpdate& e : updates) {
    out.push_back({e.u, e.v, static_cast<std::uint8_t>(e.insert ? 1 : 0)});
  }
  return out;
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : cfg_(std::move(config)),
      listener_(listen_on(cfg_.listen)),
      cache_(cfg_.cache_bytes),
      approx_cache_(cfg_.cache_bytes) {
  cfg_.max_shard_attempts = std::max<std::uint32_t>(cfg_.max_shard_attempts, 1);
  restore_from_snapshot();
}

Coordinator::~Coordinator() = default;

trace::Sink* Coordinator::sink() const {
  return cfg_.tracer ? cfg_.tracer->thread_sink("coordinator") : nullptr;
}

void Coordinator::trace_instant(const char* name, std::uint64_t req,
                                std::initializer_list<trace::Arg> extra) const {
  trace::Sink* s = sink();
  if (!s || !s->wants(trace::kService)) return;
  // One fixed slot for the request id plus the caller's args.
  std::array<trace::Arg, trace::Event::kMaxArgs> args;
  args[0] = {"req", req};
  const std::size_t n = 1 + std::min(extra.size(), args.size() - 1);
  std::copy_n(extra.begin(), n - 1, args.begin() + 1);
  s->instant(name, trace::kService, cfg_.tracer->now_ns(),
             std::span<const trace::Arg>(args.data(), n));
}

std::size_t Coordinator::worker_count() const {
  std::size_t n = 0;
  for (const auto& [slot, w] : workers_) {
    if (w.ready) ++n;
  }
  return n;
}

std::size_t Coordinator::wait_for_workers(std::size_t count,
                                          std::chrono::milliseconds timeout) {
  const auto deadline = Clock::now() + timeout;
  while (worker_count() < count && Clock::now() < deadline) {
    pump(20);
  }
  return worker_count();
}

std::vector<std::uint32_t> Coordinator::owners(const std::string& id) const {
  std::vector<std::uint32_t> ready;
  for (const auto& [slot, w] : workers_) {
    if (w.ready) ready.push_back(slot);
  }
  const std::uint32_t r = cfg_.replication;
  if (r == 0 || r >= ready.size()) return ready;

  std::map<std::uint64_t, std::uint32_t> ring;
  for (const std::uint32_t slot : ready) {
    for (std::uint32_t v = 0; v < std::max<std::uint32_t>(cfg_.virtual_nodes, 1); ++v) {
      ring.emplace(mix64((static_cast<std::uint64_t>(slot) << 32) | v), slot);
    }
  }
  const std::uint64_t h = mix64(std::hash<std::string>{}(id));
  std::vector<std::uint32_t> out;
  auto it = ring.lower_bound(h);
  while (out.size() < r) {
    if (it == ring.end()) it = ring.begin();
    if (std::find(out.begin(), out.end(), it->second) == out.end()) {
      out.push_back(it->second);
    }
    ++it;
  }
  std::sort(out.begin(), out.end());
  return out;
}

void Coordinator::send_graph_to(WorkerState& w, const std::string& id,
                                const GraphEntry& e) {
  wire::LoadGraphMsg m;
  m.graph_id = id;
  m.spec = e.spec;
  m.fingerprint = e.base_fingerprint;
  m.updates = e.history;
  m.fingerprint_after = e.fingerprint;
  w.conn->send(wire::encode(m, next_request_id_++));
}

std::size_t Coordinator::load_graph(const std::string& id, graph::CSRGraph g,
                                    std::string spec) {
  return load_graph(id, std::make_shared<const graph::CSRGraph>(std::move(g)),
                    std::move(spec));
}

std::size_t Coordinator::load_graph(const std::string& id,
                                    std::shared_ptr<const graph::CSRGraph> g,
                                    std::string spec) {
  GraphEntry e;
  e.graph = std::move(g);
  e.fingerprint = service::graph_fingerprint(*e.graph);
  e.base_fingerprint = e.fingerprint;
  e.spec = std::move(spec);
  graphs_[id] = e;
  persist_snapshot();

  const std::vector<std::uint32_t> owner_slots = owners(id);
  if (owner_slots.empty()) return 0;

  control_.emplace();
  control_->request_id = next_request_id_++;
  for (const std::uint32_t slot : owner_slots) {
    auto it = workers_.find(slot);
    if (it == workers_.end()) continue;
    send_graph_to(it->second, id, graphs_[id]);
    control_->waiting.insert(slot);
  }
  const auto deadline = Clock::now() + cfg_.control_timeout;
  while (!control_->waiting.empty() && Clock::now() < deadline) {
    pump(20);
  }
  const std::size_t confirmed = control_->confirmed;
  control_.reset();
  return confirmed;
}

std::uint64_t Coordinator::graph_fingerprint(const std::string& id) const {
  auto it = graphs_.find(id);
  return it == graphs_.end() ? 0 : it->second.fingerprint;
}

service::MutationResult Coordinator::mutate_graph(const std::string& id,
                                                  const dyn::UpdateBatch& batch) {
  auto it = graphs_.find(id);
  if (it == graphs_.end()) {
    throw std::invalid_argument("net::Coordinator::mutate_graph: unknown graph id '" +
                                id + "'");
  }
  GraphEntry& e = it->second;
  const dyn::CommitResult cr =
      service::versioned_graph(e.versioned, e.graph, cfg_.tracer)->apply(batch);
  e.graph = cr.after.graph;
  e.fingerprint = cr.after.fingerprint;
  e.epoch = cr.after.id;
  const std::vector<wire::WireUpdate> applied = to_wire(cr.applied);
  e.history.insert(e.history.end(), applied.begin(), applied.end());

  service::MutationResult out = service::mutation_result(cr);
  ++stats_.mutations;
  if (cr.applied.empty()) return out;  // no-op batch: nothing changed anywhere

  // The old epoch's cache entries can never serve the new fingerprint —
  // their keys carry it — so dropping them only reclaims bytes.
  const std::string old_prefix = service::fingerprint_prefix(cr.before.fingerprint);
  out.cache_invalidated = cache_.erase_if([&](const std::string& key) {
    return key.rfind(old_prefix, 0) == 0;
  });
  // Partial folds cannot be patched forward across epochs: invalidate the
  // refinable estimates too. refine_step drops their queued refinements
  // when it reaches them, so a stale estimate is never advanced or
  // re-served (the never-resurrect rule).
  out.approx_invalidated = approx_cache_.invalidate_prefix(old_prefix);

  // Broadcast to every worker that holds the graph; fingerprint agreement
  // is checked on each ack (a disagreeing worker is cut loose).
  wire::MutateMsg m;
  m.graph_id = id;
  m.updates = applied;
  m.fingerprint_after = e.fingerprint;
  control_.emplace();
  control_->request_id = next_request_id_++;
  const std::vector<std::uint8_t> frame = wire::encode(m, control_->request_id);
  for (auto& [slot, w] : workers_) {
    if (!w.ready || w.graphs.count(id) == 0) continue;
    w.conn->send(frame);
    control_->waiting.insert(slot);
  }
  const auto deadline = Clock::now() + cfg_.control_timeout;
  while (!control_->waiting.empty() && Clock::now() < deadline) {
    pump(20);
  }
  control_.reset();
  persist_snapshot();  // new epoch + history durable (after cache invalidation)
  return out;
}

// --- the event pump ------------------------------------------------------

void Coordinator::pump(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> slots;
  fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
  bool chaos_held = false;
  for (auto& [slot, w] : workers_) {
    // Chaos-delayed frames whose hold time has passed enter the write
    // buffer before we decide whether to poll for POLLOUT.
    w.conn->pump_chaos();
    if (w.conn->chaos_pending()) chaos_held = true;
    short events = POLLIN;
    if (w.conn->wants_write()) events |= POLLOUT;
    fds.push_back(pollfd{w.conn->fd(), events, 0});
    slots.push_back(slot);
  }
  // Held frames need the loop to come back promptly even when the fleet
  // is otherwise idle.
  if (chaos_held) timeout_ms = std::min(timeout_ms, 5);
  poll_wait(fds, timeout_ms);

  if (fds[0].revents & POLLIN) {
    for (;;) {
      Socket s = accept_on(listener_);
      if (!s.valid()) break;
      const std::uint32_t slot = next_slot_++;
      WorkerState w;
      w.slot = slot;
      w.conn = std::make_unique<Conn>(std::move(s), "worker#" + std::to_string(slot));
      if (cfg_.chaos) w.conn->arm_chaos(cfg_.chaos, slot);
      w.conn->set_frame_deadline(cfg_.frame_deadline);
      workers_.emplace(slot, std::move(w));
    }
  }

  std::vector<std::uint32_t> dead;
  for (std::size_t i = 0; i < slots.size(); ++i) {
    const std::uint32_t slot = slots[i];
    auto it = workers_.find(slot);
    if (it == workers_.end()) continue;
    WorkerState& w = *&it->second;
    const short revents = fds[i + 1].revents;
    bool failed = false;
    if (revents & (POLLIN | POLLHUP | POLLERR)) {
      const Conn::Io io = w.conn->pump_read();
      // Handle buffered frames even when the peer already closed — a
      // drained worker's final results and Goodbye arrive exactly so.
      wire::Frame frame;
      for (;;) {
        const wire::DecodeStatus s = w.conn->next_frame(frame);
        if (s == wire::DecodeStatus::Ok) {
          handle_frame(w, frame);
          // A refused graph load or mutation cuts the worker loose inside
          // handle_frame, destroying `w`.
          if (!workers_.contains(slot)) break;
          continue;
        }
        if (s != wire::DecodeStatus::NeedMore) failed = true;  // poisoned stream
        break;
      }
      if (!workers_.contains(slot)) continue;
      if (io != Conn::Io::Ok) failed = true;
    }
    if (!failed && w.conn->frame_overdue()) {
      // Slow-loris: a frame has been incomplete at the head of this
      // worker's stream past the deadline. Cull it — one dribbling peer
      // must not pin a slot (its shards reassign like any dead worker's).
      ++stats_.slow_peer_drops;
      trace_instant("slow-peer-drop", 0, {{"worker", std::uint64_t{slot}}});
      failed = true;
    }
    if (!failed && (revents & POLLOUT)) {
      if (w.conn->pump_write() != Conn::Io::Ok) failed = true;
    }
    if (!failed && w.conn->wants_write()) {
      // Opportunistic flush of replies queued by handle_frame.
      if (w.conn->pump_write() != Conn::Io::Ok) failed = true;
    }
    if (failed) dead.push_back(slot);
  }
  for (const std::uint32_t slot : dead) worker_dead(slot);

  detect_failures();
}

void Coordinator::handle_frame(WorkerState& w, const wire::Frame& frame) {
  // Any frame is proof of life. A quarantined worker that speaks again
  // moves to probation; `probation_heartbeats` heartbeats there earn
  // readmission (a heartbeat that triggers the probation transition also
  // counts as the first one).
  w.last_seen = Clock::now();
  if (w.health == wire::HealthState::Quarantined) {
    set_health(w, wire::HealthState::Probation, "heard from after quarantine");
    w.probation_seen = 0;
  }
  if (w.health == wire::HealthState::Probation &&
      frame.type == wire::MsgType::Heartbeat) {
    if (++w.probation_seen >= cfg_.probation_heartbeats) {
      ++stats_.readmissions;
      set_health(w, wire::HealthState::Healthy, "readmitted");
    }
  }
  switch (frame.type) {
    case wire::MsgType::Hello: {
      wire::HelloMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      w.name = m.worker_name;
      w.shard_slots = std::max<std::uint32_t>(m.shard_slots, 1);
      // Negotiate down to what both sides speak; a v1 worker stays on
      // exact-only shards (dispatch_pending filters budgeted work).
      w.protocol = std::min<std::uint16_t>(
          std::max(m.protocol, wire::kMinProtocolVersion), wire::kProtocolVersion);
      w.ready = true;
      wire::HelloAckMsg ack;
      ack.worker_slot = w.slot;
      ack.coordinator_name = cfg_.name;
      w.conn->send(wire::encode(ack, frame.request_id));
      // Late joiner: hand it every graph it now owns (history included, so
      // a mutated graph catches up to the current epoch in one message).
      for (const auto& [id, entry] : graphs_) {
        const std::vector<std::uint32_t> own = owners(id);
        if (std::find(own.begin(), own.end(), w.slot) != own.end()) {
          send_graph_to(w, id, entry);
        }
      }
      return;
    }
    case wire::MsgType::GraphLoaded: {
      wire::GraphLoadedMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      auto git = graphs_.find(m.graph_id);
      const bool agrees = git != graphs_.end() && m.ok != 0 &&
                          m.fingerprint == git->second.fingerprint;
      if (agrees) {
        w.graphs.insert(m.graph_id);
        if (control_ && control_->waiting.erase(w.slot) != 0) ++control_->confirmed;
      } else {
        // Fingerprint disagreement means this worker would compute (and
        // cache) answers for a different graph under our key: cut it loose.
        if (control_ && control_->waiting.erase(w.slot) != 0) {
          control_->errors.push_back("worker " + std::to_string(w.slot) + " (" +
                                     w.name + "): " +
                                     (m.error.empty() ? "fingerprint mismatch"
                                                      : m.error));
        }
        trace_instant("graph-load-refused", frame.request_id,
                      {{"worker", std::uint64_t{w.slot}}});
        worker_dead(w.slot);
      }
      return;
    }
    case wire::MsgType::ShardResult: {
      wire::ShardResultMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      if (w.inflight > 0) --w.inflight;
      if (!active_ || active_->id != frame.request_id) return;  // stale
      ActiveQuery& q = *active_;
      if (m.shard_index >= q.shards.size()) return;
      Shard& s = q.shards[m.shard_index];
      auto dit = std::find(s.dispatched_to.begin(), s.dispatched_to.end(), w.slot);
      if (dit != s.dispatched_to.end()) s.dispatched_to.erase(dit);
      if (s.state == Shard::State::Done || s.state == Shard::State::Abandoned) {
        return;  // straggler duplicate: first result won
      }
      const bool partial_mode = s.msg.mode == wire::ShardMode::Partial;
      const bool usable =
          m.ok != 0 && (!partial_mode || m.degraded == 0) &&
          m.scores.size() == q.graph->num_vertices();
      if (!usable) {
        ++stats_.shard_retries;
        trace_instant("shard-failed", q.id,
                      {{"shard", std::uint64_t{m.shard_index}},
                       {"worker", std::uint64_t{w.slot}}});
        if (s.dispatched_to.empty()) {
          s.state = Shard::State::Pending;
          // Pace the re-dispatch: an immediately-failing shard should not
          // hammer the fleet in a tight loop.
          s.not_before = Clock::now() + s.backoff.next();
        }
        return;
      }
      s.partial = std::move(m.scores);
      s.roots_processed = m.roots_processed;
      s.compute_ms = m.compute_ms;
      s.degraded = m.degraded;
      s.has_estimate = m.has_estimate;
      s.est_roots_used = m.est_roots_used;
      s.est_stderr = m.est_stderr;
      s.est_rung = m.est_rung;
      s.est_refining = m.est_refining;
      s.state = Shard::State::Done;
      --q.remaining;
      ++stats_.shards_completed;
      trace_instant("shard-done", q.id,
                    {{"shard", std::uint64_t{m.shard_index}},
                     {"worker", std::uint64_t{w.slot}}});
      return;
    }
    case wire::MsgType::MutateDone: {
      wire::MutateDoneMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      auto git = graphs_.find(m.graph_id);
      const bool agrees = git != graphs_.end() && m.ok != 0 &&
                          m.fingerprint == git->second.fingerprint;
      if (agrees) {
        if (control_ && control_->waiting.erase(w.slot) != 0) ++control_->confirmed;
      } else {
        if (control_ && control_->waiting.erase(w.slot) != 0) {
          control_->errors.push_back(
              "worker " + std::to_string(w.slot) + " mutate: " +
              (m.error.empty() ? "fingerprint mismatch" : m.error));
        }
        worker_dead(w.slot);
      }
      return;
    }
    case wire::MsgType::Heartbeat: {
      wire::HeartbeatMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      wire::HeartbeatAckMsg ack;
      ack.seq = m.seq;
      w.conn->send(wire::encode(ack, frame.request_id));
      return;
    }
    case wire::MsgType::Goodbye: {
      w.goodbye = true;
      return;
    }
    case wire::MsgType::Error: {
      wire::ErrorMsg m;
      if (wire::decode(frame, m) != wire::DecodeStatus::Ok) return;
      if (control_ && control_->waiting.erase(w.slot) != 0) {
        control_->errors.push_back("worker " + std::to_string(w.slot) + ": " +
                                   m.message);
      }
      return;
    }
    default:
      // Coordinator-bound streams should not carry coordinator->worker
      // message types; ignore rather than kill (forward compatibility).
      return;
  }
}

void Coordinator::worker_dead(std::uint32_t slot) {
  auto it = workers_.find(slot);
  if (it == workers_.end()) return;
  WorkerState& w = it->second;
  if (w.ready && !w.goodbye) {
    ++stats_.worker_deaths;
    trace_instant("worker-dead", 0, {{"worker", std::uint64_t{slot}}});
  }
  if (control_) {
    if (control_->waiting.erase(slot) != 0) {
      control_->errors.push_back("worker " + std::to_string(slot) + " disconnected");
    }
  }
  // Root-range reassignment: every shard this worker still owed goes back
  // to Pending; the dispatch loop finds it a new home (or the local-fallback
  // lane computes it — bit-identical either way).
  reassign_dispatched(slot);
  workers_.erase(it);
}

// --- failure detection ---------------------------------------------------

void Coordinator::set_health(WorkerState& w, wire::HealthState state,
                             const std::string& reason) {
  if (w.health == state) return;
  w.health = state;
  wire::QuarantineMsg m;
  m.state = state;
  m.reason = reason;
  w.conn->send(wire::encode(m, next_request_id_++));
  trace_instant("worker-health", 0,
                {{"worker", std::uint64_t{w.slot}},
                 {"state", std::uint64_t{static_cast<std::uint8_t>(state)}}});
}

std::uint64_t Coordinator::reassign_dispatched(std::uint32_t slot) {
  std::uint64_t reassigned = 0;
  if (!active_) return reassigned;
  for (Shard& s : active_->shards) {
    auto dit = std::find(s.dispatched_to.begin(), s.dispatched_to.end(), slot);
    if (dit == s.dispatched_to.end()) continue;
    s.dispatched_to.erase(dit);
    if (s.state == Shard::State::Dispatched && s.dispatched_to.empty()) {
      s.state = Shard::State::Pending;
      ++reassigned;
      trace_instant("shard-reassign", active_->id,
                    {{"shard", std::uint64_t{s.index}},
                     {"worker", std::uint64_t{slot}}});
    }
  }
  return reassigned;
}

void Coordinator::detect_failures() {
  if (cfg_.heartbeat_timeout.count() <= 0) return;
  const auto now = Clock::now();
  for (auto& [slot, w] : workers_) {
    if (!w.ready || w.health != wire::HealthState::Healthy) continue;
    if (now - w.last_seen <= cfg_.heartbeat_timeout) continue;
    // Silent past the deadline: quarantine. The connection stays open —
    // the worker may only be partitioned, and keeping the conn is what
    // lets it talk its way back in — but its outstanding shards are
    // reassigned NOW instead of waiting for a dispatch error.
    ++stats_.heartbeat_misses;
    ++stats_.quarantines;
    set_health(w, wire::HealthState::Quarantined, "missed heartbeat deadline");
    w.inflight = 0;
    stats_.shard_retries += reassign_dispatched(slot);
  }
}

std::optional<wire::HealthState> Coordinator::worker_health(std::uint32_t slot) const {
  auto it = workers_.find(slot);
  if (it == workers_.end()) return std::nullopt;
  return it->second.health;
}

void Coordinator::run_for(std::chrono::milliseconds duration) {
  const auto deadline = Clock::now() + duration;
  while (Clock::now() < deadline) {
    pump(10);
    // Idle time is refinement time: advance pending upgrades one stratum
    // per pass so foreground calls interleave at stratum granularity.
    refine_step();
  }
}

// --- durable warm restart ------------------------------------------------

void Coordinator::save_snapshot() {
  if (cfg_.snapshot_dir.empty()) return;
  Snapshot snap;
  for (const auto& [id, e] : graphs_) {
    SnapshotGraph g;
    g.id = id;
    g.spec = e.spec;
    g.base_fingerprint = e.base_fingerprint;
    g.fingerprint = e.fingerprint;
    g.epoch = e.epoch;
    g.history = e.history;
    g.graph = e.graph;
    snap.graphs.push_back(std::move(g));
  }
  // Drain the cache into the manifest (MRU first, extract_if's order) and
  // reinsert LRU-first so put()'s MRU promotion restores the original
  // recency order.
  auto entries = cache_.extract_if([](const std::string&) { return true; });
  for (const auto& [key, value] : entries) {
    SnapshotCacheEntry e;
    e.key = key;
    e.scores = value->result.scores;
    e.strategy = static_cast<std::uint8_t>(value->result.strategy);
    e.roots_processed = value->result.roots_processed;
    e.approximate = value->result.approximate ? 1 : 0;
    e.time_seconds = value->result.time_seconds;
    e.wall_seconds = value->result.wall_seconds;
    e.teps = value->result.teps;
    snap.cache.push_back(std::move(e));
  }
  for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
    cache_.put(it->first, it->second);
  }
  net::save_snapshot(cfg_.snapshot_dir, snap);
  ++stats_.snapshot_saves;
  trace_instant("snapshot-save", 0,
                {{"graphs", static_cast<std::uint64_t>(snap.graphs.size())},
                 {"cache", static_cast<std::uint64_t>(snap.cache.size())}});
}

void Coordinator::persist_snapshot() noexcept {
  if (cfg_.snapshot_dir.empty()) return;
  try {
    save_snapshot();
  } catch (const std::exception& ex) {
    // Durability is best-effort on the hot paths: a failing disk must not
    // take queries down with it. The error is visible via snapshot_info().
    snapshot_info_.error = ex.what();
    trace_instant("snapshot-save-failed", 0);
  }
}

void Coordinator::restore_from_snapshot() {
  if (cfg_.snapshot_dir.empty() || !snapshot_exists(cfg_.snapshot_dir)) return;
  snapshot_info_.attempted = true;
  try {
    Snapshot snap = load_snapshot(cfg_.snapshot_dir);
    for (SnapshotGraph& g : snap.graphs) {
      // Belt and braces: the container verified its own fingerprint, but
      // the *registry* entry must match too, or workers would verify
      // against a stamp the graph no longer carries.
      if (service::graph_fingerprint(*g.graph) != g.fingerprint) {
        throw SnapshotError("snapshot: graph '" + g.id +
                            "' fingerprint does not match its manifest entry");
      }
      GraphEntry e;
      e.graph = g.graph;
      e.fingerprint = g.fingerprint;
      e.base_fingerprint = g.base_fingerprint;
      e.spec = g.spec;
      e.epoch = g.epoch;
      e.history = std::move(g.history);
      graphs_[g.id] = std::move(e);
    }
    for (const SnapshotCacheEntry& e : snap.cache) {
      if (e.strategy > static_cast<std::uint8_t>(core::Strategy::DirectionOptimized)) {
        continue;  // unknown strategy tag: skip the entry, keep the rest
      }
      auto cached = std::make_shared<service::CachedResult>();
      cached->result.scores = e.scores;
      cached->result.strategy = static_cast<core::Strategy>(e.strategy);
      cached->result.roots_processed = e.roots_processed;
      cached->result.approximate = e.approximate != 0;
      cached->result.time_seconds = e.time_seconds;
      cached->result.wall_seconds = e.wall_seconds;
      cached->result.teps = e.teps;
      cached->bytes = service::estimate_result_bytes(cached->result);
      cached->refreshable = false;
      cache_.put(e.key, cached);
    }
    // Entries were saved MRU-first; the loop above put() them in that
    // order, inverting recency — walk the keys once more, LRU to MRU, to
    // restore it.
    for (auto it = snap.cache.rbegin(); it != snap.cache.rend(); ++it) {
      (void)cache_.get(it->key);
    }
    snapshot_info_.ok = true;
    snapshot_info_.graphs = snap.graphs.size();
    snapshot_info_.cache_entries = snap.cache.size();
  } catch (const std::exception& ex) {
    // A corrupt snapshot is a typed, reported condition — the coordinator
    // starts fresh rather than serving doubtful state.
    snapshot_info_.ok = false;
    snapshot_info_.error = ex.what();
    graphs_.clear();
  }
}

std::string Coordinator::metrics_report() const {
  char buf[2048];
  const ChaosStats cs = cfg_.chaos ? cfg_.chaos->stats() : ChaosStats{};
  int n = std::snprintf(
      buf, sizeof(buf),
      "coordinator %s\n"
      "  queries %llu (cache hits %llu, whole %llu, degraded %llu)\n"
      "  approx: budgeted %llu refine-strata %llu refine-dropped %llu "
      "entries %zu\n"
      "  shards: dispatched %llu completed %llu retries %llu stragglers %llu "
      "local %llu\n"
      "  fleet: workers %zu deaths %llu heartbeat-misses %llu quarantines "
      "%llu readmissions %llu slow-peer-drops %llu\n"
      "  durability: snapshot saves %llu restored %s\n"
      "  chaos: frames %llu injected %llu (drop %llu delay %llu dup %llu "
      "trunc %llu flip %llu partition %llu)\n",
      cfg_.name.c_str(), static_cast<unsigned long long>(stats_.queries),
      static_cast<unsigned long long>(stats_.cache_hits),
      static_cast<unsigned long long>(stats_.whole_queries),
      static_cast<unsigned long long>(stats_.degraded),
      static_cast<unsigned long long>(stats_.budgeted_queries),
      static_cast<unsigned long long>(stats_.refine_strata),
      static_cast<unsigned long long>(stats_.refine_dropped),
      approx_cache_.size(),
      static_cast<unsigned long long>(stats_.shards_dispatched),
      static_cast<unsigned long long>(stats_.shards_completed),
      static_cast<unsigned long long>(stats_.shard_retries),
      static_cast<unsigned long long>(stats_.straggler_redispatches),
      static_cast<unsigned long long>(stats_.local_fallbacks),
      worker_count(), static_cast<unsigned long long>(stats_.worker_deaths),
      static_cast<unsigned long long>(stats_.heartbeat_misses),
      static_cast<unsigned long long>(stats_.quarantines),
      static_cast<unsigned long long>(stats_.readmissions),
      static_cast<unsigned long long>(stats_.slow_peer_drops),
      static_cast<unsigned long long>(stats_.snapshot_saves),
      snapshot_info_.attempted ? (snapshot_info_.ok ? "yes" : "failed") : "no",
      static_cast<unsigned long long>(cs.frames),
      static_cast<unsigned long long>(cs.injected()),
      static_cast<unsigned long long>(cs.dropped),
      static_cast<unsigned long long>(cs.delayed),
      static_cast<unsigned long long>(cs.duplicated),
      static_cast<unsigned long long>(cs.truncated),
      static_cast<unsigned long long>(cs.flipped),
      static_cast<unsigned long long>(cs.partitioned));
  std::string out(buf, n > 0 ? std::min<std::size_t>(static_cast<std::size_t>(n),
                                                     sizeof(buf) - 1)
                             : 0);
  for (const auto& [slot, w] : workers_) {
    if (!w.ready) continue;
    out += "  worker#" + std::to_string(slot) + " (" + w.name +
           "): " + wire::to_string(w.health) + ", inflight " +
           std::to_string(w.inflight) + "\n";
  }
  return out;
}

// --- query path ----------------------------------------------------------

void Coordinator::finish_shard_local(ActiveQuery& q, Shard& s) {
  try {
    // Same message → same options → same bits as a remote worker. The
    // shard runs on the coordinator thread; this is the last rung, used
    // only when the fleet cannot serve the shard.
    util::Timer t;
    core::BCResult r = core::compute(*q.graph, options_from_shard(s.msg));
    s.partial = std::move(r.scores);
    s.roots_processed = r.roots_processed;
    s.compute_ms = t.elapsed_seconds() * 1e3;
    s.degraded = 0;
    s.state = Shard::State::Done;
    --q.remaining;
    ++stats_.local_fallbacks;
    trace_instant("shard-local", q.id, {{"shard", std::uint64_t{s.index}}});
  } catch (const std::invalid_argument& ex) {
    q.failed = true;
    q.fail_status = QueryStatus::BadRequest;
    q.fail_error = ex.what();
  } catch (const std::exception& ex) {
    q.failed = true;
    q.fail_status = QueryStatus::Failed;
    q.fail_error = ex.what();
  }
}

void Coordinator::escalate(ActiveQuery& q, Shard& s) {
  if (cfg_.local_fallback) {
    finish_shard_local(q, s);
    return;
  }
  // Degradation: serve what completed (marked degraded, never cached) —
  // unless nothing can complete at all.
  s.state = Shard::State::Abandoned;
  --q.remaining;
  ++q.abandoned;
  trace_instant("shard-abandoned", q.id, {{"shard", std::uint64_t{s.index}}});
  if (q.abandoned == q.shards.size()) {
    q.failed = true;
    q.fail_status = QueryStatus::Failed;
    q.fail_error = "no worker could serve any shard (local fallback disabled)";
  }
}

void Coordinator::dispatch_pending(ActiveQuery& q) {
  const auto now = Clock::now();
  for (Shard& s : q.shards) {
    if (q.failed) return;
    if (s.state != Shard::State::Pending) continue;
    if (s.attempts >= cfg_.max_shard_attempts) {
      escalate(q, s);
      continue;
    }
    // Backoff window after a failed attempt: leave the shard Pending.
    if (s.attempts > 0 && now < s.not_before) continue;
    // Candidates: eligible workers, preferring ones this shard has not
    // tried, then least in-flight (load balance).
    WorkerState* best = nullptr;
    bool best_untried = false;
    for (auto& [slot, w] : workers_) {
      if (!eligible(w, q, s)) continue;
      const bool untried = s.tried.count(slot) == 0;
      if (best == nullptr || (untried && !best_untried) ||
          (untried == best_untried && w.inflight < best->inflight)) {
        best = &w;
        best_untried = untried;
      }
    }
    if (best == nullptr) {
      escalate(q, s);
      continue;
    }
    s.state = Shard::State::Dispatched;
    send_shard(q, s, *best, "shard-dispatch");
    if (s.attempts > 1) ++stats_.shard_retries;
  }
}

void Coordinator::check_stragglers(ActiveQuery& q) {
  if (cfg_.straggler_timeout.count() <= 0) return;
  const auto now = Clock::now();
  for (Shard& s : q.shards) {
    if (s.state != Shard::State::Dispatched) continue;
    if (now - s.last_dispatch < cfg_.straggler_timeout) continue;
    if (s.attempts >= cfg_.max_shard_attempts) {
      // Out of remote attempts and still no result. Under chaos the
      // outstanding request or reply may simply be gone, and a
      // deadline-less query must not wait forever for a frame that will
      // never arrive — escalate now. If a straggler result does land
      // later, the Done/Abandoned guard in handle_frame discards it.
      escalate(q, s);
      continue;
    }
    // Second opinion: dispatch to an untried healthy worker, first
    // result wins.
    WorkerState* best = nullptr;
    for (auto& [slot, w] : workers_) {
      if (!eligible(w, q, s) || s.tried.count(slot) != 0) continue;
      if (best == nullptr || w.inflight < best->inflight) best = &w;
    }
    if (best == nullptr) {
      // Nobody new to ask: every eligible worker has already been tried
      // and the timeout passed anyway. Same liveness argument as above —
      // waiting can only help if one of the outstanding frames is merely
      // slow, but it hangs forever if they were dropped.
      escalate(q, s);
      continue;
    }
    send_shard(q, s, *best, "shard-straggler");
    ++stats_.straggler_redispatches;
  }
}

bool Coordinator::eligible(const WorkerState& w, const ActiveQuery& q,
                           const Shard& s) const {
  // Healthy ready owners of the graph. Budgeted shards only travel to
  // workers that negotiated v2 — a v1 worker would silently run the query
  // exact (no budget on the wire).
  return w.ready && w.health == wire::HealthState::Healthy &&
         w.graphs.count(q.graph_id) != 0 && (s.msg.has_budget == 0 || w.protocol >= 2);
}

void Coordinator::send_shard(ActiveQuery& q, Shard& s, WorkerState& w, const char* event) {
  s.msg.deadline_ms = remaining_ms(q.deadline);
  w.conn->send(wire::encode(s.msg, q.id, w.protocol));
  ++w.inflight;
  ++s.attempts;
  s.dispatched_to.push_back(w.slot);
  s.tried.insert(w.slot);
  s.last_dispatch = Clock::now();
  ++stats_.shards_dispatched;
  trace_instant(event, q.id,
                {{"shard", std::uint64_t{s.index}}, {"worker", std::uint64_t{w.slot}}});
}

std::unique_ptr<Coordinator::ActiveQuery> Coordinator::start_query(
    const service::Request& request, const GraphEntry& entry, Clock::time_point t0) {
  auto q = std::make_unique<ActiveQuery>();
  q->id = next_request_id_++;
  q->graph_id = request.graph_id;
  q->graph = entry.graph;
  q->fingerprint = entry.fingerprint;
  q->options = request.options;
  q->whole = !block_shardable(request.options.strategy);
  q->deadline = request.budget.expires(t0);
  return q;
}

service::Response Coordinator::run_query(std::unique_ptr<ActiveQuery> q,
                                         std::size_t top_k, Clock::time_point t0) {
  q->remaining = q->shards.size();
  for (Shard& s : q->shards) {
    s.msg.graph_id = q->graph_id;
    s.msg.fingerprint = q->fingerprint;
    // Per-shard deterministic jitter stream: same query, same schedule.
    util::BackoffConfig bc = cfg_.redispatch_backoff;
    bc.seed = mix64(bc.seed ^ (q->id << 16) ^ s.index);
    s.backoff = util::Backoff(bc);
  }

  trace::ScopedSpan span(sink(), cfg_.tracer, "dist-request", trace::kService,
                         {{"req", q->id},
                          {"shards", static_cast<std::uint64_t>(q->shards.size())},
                          {"workers", static_cast<std::uint64_t>(worker_count())}});

  active_ = std::move(q);
  ActiveQuery& aq = *active_;
  while (!aq.failed && aq.remaining > 0) {
    if (Clock::now() >= aq.deadline) {
      aq.failed = true;
      aq.fail_status = QueryStatus::DeadlineExceeded;
      aq.fail_error = "deadline exceeded with " + std::to_string(aq.remaining) +
                      " shard(s) outstanding";
      break;
    }
    dispatch_pending(aq);
    if (aq.failed || aq.remaining == 0) break;
    check_stragglers(aq);
    const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                          aq.deadline - Clock::now())
                          .count();
    pump(static_cast<int>(std::clamp<long long>(left, 0, 20)));
  }

  service::Response resp = assemble(aq, top_k, t0);
  active_.reset();
  return resp;
}

service::Response Coordinator::query(service::Request request) {
  const auto t0 = Clock::now();
  ++stats_.queries;

  if (drained_) return failure(QueryStatus::ServiceStopped, "coordinator drained", t0);
  auto git = graphs_.find(request.graph_id);
  if (git == graphs_.end()) {
    return failure(QueryStatus::GraphNotFound,
                   "graph '" + request.graph_id + "' is not registered", t0);
  }
  const GraphEntry& entry = git->second;
  try {
    core::validate_roots(entry.graph->num_vertices(), request.options.roots);
  } catch (const std::invalid_argument& ex) {
    return failure(QueryStatus::BadRequest, ex.what(), t0);
  }

  if (request.budget.active()) return query_budgeted(std::move(request), t0);

  std::string key = service::cache_key(entry.fingerprint, request.options);
  if (std::shared_ptr<const service::CachedResult> hit = cache_.get(key)) {
    ++stats_.cache_hits;
    service::Response resp = service::cached_response(std::move(hit));
    if (request.top_k > 0) resp.top = core::top_k(resp.result->scores, request.top_k);
    resp.total_ms = ms_between(t0, Clock::now());
    trace_instant("dist-cache-hit", 0);
    return resp;
  }
  return execute(request, entry, t0, std::move(key));
}

service::Response Coordinator::execute(const service::Request& request,
                                       const GraphEntry& entry, Clock::time_point t0,
                                       std::string cache_key) {
  const core::Options& o = request.options;
  const graph::VertexId n = entry.graph->num_vertices();
  auto q = start_query(request, entry, t0);
  q->cache_key = std::move(cache_key);
  const core::RootPlan plan = core::resolve_roots(n, o);
  q->approximate = plan.approximate;
  q->resolved_roots = plan.roots.size();
  if (q->whole) {
    ++stats_.whole_queries;
    Shard s;
    s.msg = shard_from_options(o);
    s.msg.mode = wire::ShardMode::Whole;
    q->shards.push_back(std::move(s));
  } else {
    // Deal resolved root i to block i mod B — kernels::BlockDriver's
    // schedule. Each block is one raw grid_blocks=1 sub-run.
    core::Options block = o;
    block.sample_roots = 0;
    block.halve_undirected = false;
    block.normalize = false;
    block.grid_blocks = 1;
    std::uint32_t blocks = o.strategy == core::Strategy::GpuFan ? 1
                           : o.grid_blocks != 0                ? o.grid_blocks
                                                               : o.device.num_sms;
    blocks = std::max<std::uint32_t>(blocks, 1);
    for (std::uint32_t b = 0; b < blocks; ++b) {
      block.roots.clear();
      for (std::size_t i = b; i < plan.roots.size(); i += blocks) {
        block.roots.push_back(plan.roots[i]);
      }
      if (block.roots.empty()) continue;  // k < B: zero partial, zero fold
      Shard s;
      s.index = b;
      s.msg = shard_from_options(block);
      s.msg.shard_index = b;
      s.msg.mode = wire::ShardMode::Partial;
      q->shards.push_back(std::move(s));
    }
  }
  return run_query(std::move(q), request.top_k, t0);
}

service::Response Coordinator::assemble(ActiveQuery& q, std::size_t top_k,
                                        Clock::time_point t0) {
  if (q.failed) return failure(q.fail_status, q.fail_error, t0);

  service::Response resp;
  const graph::VertexId n = q.graph->num_vertices();
  core::BCResult result;
  result.strategy = q.options.strategy;
  double compute_ms = 0.0;

  if (q.whole) {
    Shard& s = q.shards.front();
    result.scores = std::move(s.partial);
    result.roots_processed = s.roots_processed;
    result.approximate = s.has_estimate != 0
                              ? s.est_roots_used < n
                              : q.approximate || (q.resolved_roots < n);
    resp.degraded = s.degraded != 0;
    compute_ms = s.compute_ms;
    if (q.budgeted) {
      // What the worker's progressive controller delivered; a local
      // fallback ran exact, so its estimate is the saturated truth.
      resp.estimate = s.has_estimate != 0
                          ? service::Estimate{.roots_used = s.est_roots_used,
                                              .stderr_est = s.est_stderr,
                                              .rung = s.est_rung,
                                              .refining = s.est_refining != 0}
                          : service::Estimate{.roots_used = s.roots_processed};
    }
  } else {
    // The paper's MPI_Reduce, made bitwise-deterministic: fold partials in
    // ascending block order (the exact association BlockDriver::finish
    // uses), then finalize exactly as core::compute does.
    result.scores.assign(n, 0.0);
    for (const Shard& s : q.shards) {
      if (s.state != Shard::State::Done) continue;  // abandoned (degraded)
      for (std::size_t v = 0; v < s.partial.size(); ++v) {
        result.scores[v] += s.partial[v];
      }
      result.roots_processed += s.roots_processed;
      compute_ms = std::max(compute_ms, s.compute_ms);
    }
    resp.degraded = q.abandoned > 0;
    core::finalize(result.scores, n, q.approximate ? result.roots_processed : 0,
                   q.options.halve_undirected, q.options.normalize);
    result.approximate = q.approximate || (q.resolved_roots < n);
  }

  result.time_seconds = compute_ms / 1e3;
  result.wall_seconds = ms_between(t0, Clock::now()) / 1e3;
  result.teps = core::teps_bc(*q.graph, result.roots_processed, result.time_seconds);

  resp.status = QueryStatus::Ok;
  resp.compute_ms = compute_ms;
  resp.total_ms = ms_between(t0, Clock::now());
  if (resp.degraded) ++stats_.degraded;
  if (q.cache_key.empty()) {
    resp.result = std::make_shared<const core::BCResult>(std::move(result));
  } else {
    service::store_result(cache_, q.cache_key, std::move(result), /*refreshable=*/false,
                          resp);
  }
  if (top_k > 0) resp.top = core::top_k(resp.result->scores, top_k);
  return resp;
}

// --- accuracy contracts --------------------------------------------------

service::StratumFn Coordinator::stratum_runner(const std::string& graph_id,
                                               Clock::time_point deadline) {
  // The stratum is an ordinary exact explicit-root sub-run: Partial-sharded
  // across the fleet and folded in block order, so its raw sums are
  // bitwise-identical to the stratum a standalone service would compute.
  // It carries the remaining deadline and bypasses the exact cache.
  return [this, graph_id, deadline](core::Options stratum) {
    const auto t0 = Clock::now();
    if (t0 >= deadline) throw util::Cancelled(util::CancelReason::Deadline);
    const auto git = graphs_.find(graph_id);
    if (git == graphs_.end()) {
      throw std::runtime_error("stratum sub-query: graph '" + graph_id +
                               "' is not registered");
    }
    service::Request sub;
    sub.graph_id = graph_id;
    sub.options = std::move(stratum);
    if (deadline != Clock::time_point::max()) {
      sub.budget.deadline = std::chrono::ceil<std::chrono::milliseconds>(deadline - t0);
    }
    const service::Response r = execute(sub, git->second, t0, "");
    if (r.status == QueryStatus::DeadlineExceeded) {
      throw util::Cancelled(util::CancelReason::Deadline);
    }
    if (!r.ok() || r.degraded || !r.result) {
      throw std::runtime_error("stratum sub-query failed: " + r.error);
    }
    return service::StratumRun{r.result->scores, r.result->time_seconds};
  };
}

bool Coordinator::refine_step() {
  if (drained_ || refine_queue_.empty()) return false;
  const PendingRefine job = refine_queue_.front();
  service::RefineStep step;  // a failed stratum leaves it Met and done
  try {
    step = service::refine_step(approx_cache_, job.entry, job.options, job.budget,
                                stratum_runner(job.graph_id, Clock::time_point::max()));
  } catch (const std::exception&) {
    // Best-effort: a failed stratum drops the refinement, not the entry.
  }
  if (step.outcome == service::RefineOutcome::Dropped) {
    ++stats_.refine_dropped;  // never-resurrect: a mutation beat this refinement
  } else if (step.outcome == service::RefineOutcome::Folded) {
    ++stats_.refine_strata;
  }
  if (step.new_rung) trace_instant("refine-rung", 0, {{"rung", step.after.rung}});
  // Retire a finished job now so Estimate::refining drops the moment the
  // last stratum lands, not one refine_step later.
  if (step.done) {
    refine_queue_.pop_front();
    std::lock_guard<std::mutex> lock(job.entry->mu);
    if (job.entry->refine_pending > 0) --job.entry->refine_pending;
  }
  return true;
}

service::Response Coordinator::query_budgeted(service::Request request,
                                              const Clock::time_point t0) {
  if (!request.options.roots.empty()) {
    return failure(QueryStatus::BadRequest,
                   "budgeted query must not carry explicit roots", t0);
  }
  request.options.sample_roots = 0;  // the budget owns the sampling plan
  const GraphEntry& entry = graphs_.find(request.graph_id)->second;  // caller checked
  const graph::VertexId n = entry.graph->num_vertices();
  ++stats_.budgeted_queries;
  const bool whole = !block_shardable(request.options.strategy);
  trace::ScopedSpan span(sink(), cfg_.tracer, "dist-budgeted", trace::kService,
                         {{"whole", whole ? 1 : 0}});

  if (whole) {
    // CPU engines and the sampling kernel are not block-shardable: hand
    // the whole budgeted query to one v2 worker, whose local progressive
    // controller computes (and caches) the estimate.
    ++stats_.whole_queries;
    auto q = start_query(request, entry, t0);
    q->budgeted = true;
    q->approximate = true;
    q->resolved_roots = n;
    Shard s;
    s.msg = shard_from_options(request.options);
    s.msg.mode = wire::ShardMode::Whole;
    s.msg.has_budget = 1;
    s.msg.accuracy_target = request.budget.accuracy_target;
    s.msg.budget_max_roots = request.budget.max_roots;
    s.msg.allow_refinement = request.budget.allow_refinement ? 1 : 0;
    q->shards.push_back(std::move(s));
    return run_query(std::move(q), request.top_k, t0);
  }

  // Block-shardable GPU-model strategy: run the contract controller here,
  // each stratum an exact explicit-root sub-run across the fleet.
  const core::StratumPlan plan;
  bool created = false;
  const std::shared_ptr<service::ApproxEntry> e = approx_cache_.get_or_create(
      service::approx_key(entry.fingerprint, request.options, plan), n, plan,
      request.options.seed, entry.fingerprint, created);
  const Clock::time_point deadline = request.budget.expires(t0);
  const auto queue_refinement = [&] {
    {
      std::lock_guard<std::mutex> lock(e->mu);
      ++e->refine_pending;
    }
    refine_queue_.push_back(
        PendingRefine{request.graph_id, e, request.options, request.budget});
    return true;
  };
  service::ContractRun run;
  try {
    run = service::advance_contract(approx_cache_, e, request.options, request.budget,
                                    request.budget.allow_refinement,
                                    stratum_runner(request.graph_id, deadline),
                                    util::CancelSource::with_deadline(deadline).token(),
                                    queue_refinement);
  } catch (const util::Cancelled&) {
    return failure(QueryStatus::DeadlineExceeded,
                   "deadline exceeded before the first publishable rung", t0);
  } catch (const std::exception&) {
    return failure(QueryStatus::Failed, "budgeted query: stratum sub-query failed", t0);
  }

  service::Response resp;
  resp.status = QueryStatus::Ok;
  resp.result = std::move(run.result);
  resp.estimate = run.estimate;
  resp.from_cache = !run.computed;
  resp.total_ms = ms_between(t0, Clock::now());
  if (request.top_k > 0) resp.top = core::top_k(resp.result->scores, request.top_k);
  return resp;
}

void Coordinator::drain() {
  if (drained_) return;
  // Finish (or drop) pending refinements while the fleet can still serve
  // strata; each step is bounded by the contract it refines toward.
  while (refine_step()) {
  }
  drained_ = true;
  persist_snapshot();  // final state durable before the fleet disbands
  const std::vector<std::uint8_t> frame =
      wire::encode(wire::DrainMsg{}, next_request_id_++);
  for (auto& [slot, w] : workers_) {
    if (w.ready) w.conn->send(frame);
  }
  const auto deadline = Clock::now() + cfg_.control_timeout;
  while (!workers_.empty() && Clock::now() < deadline) {
    pump(20);
    // A worker that said goodbye and whose socket has drained can go.
    std::vector<std::uint32_t> done;
    for (auto& [slot, w] : workers_) {
      if (w.goodbye && !w.conn->wants_write()) done.push_back(slot);
    }
    for (const std::uint32_t slot : done) worker_dead(slot);
  }
  workers_.clear();
}

}  // namespace hbc::net
