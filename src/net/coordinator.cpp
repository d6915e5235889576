#include "net/coordinator.hpp"

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdio>
#include <functional>
#include <future>
#include <stdexcept>

#include "core/teps.hpp"
#include "net/shard.hpp"
#include "util/timer.hpp"

namespace hbc::net {

using Clock = std::chrono::steady_clock;

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

/// Vnodes per worker on the consistent-hash ring.
constexpr std::uint32_t kVirtualNodes = 16;

std::vector<wire::WireUpdate> to_wire(const std::vector<dyn::EdgeUpdate>& updates) {
  std::vector<wire::WireUpdate> out;
  out.reserve(updates.size());
  for (const dyn::EdgeUpdate& e : updates) {
    out.push_back({e.u, e.v, static_cast<std::uint8_t>(e.insert ? 1 : 0)});
  }
  return out;
}

/// The coordinator's service: one worker (fleet runs execute one at a time
/// anyway), no retries or fallback ladder of its own (the fleet heals
/// itself), the coordinator's budget for both caches, and `compute` as the
/// executor. Every completed ticket wakes the poll loop.
service::ServiceConfig fleet_service(const CoordinatorConfig& c,
                                     decltype(service::ServiceConfig::compute_fn) compute,
                                     Wakeup& wake) {
  service::ServiceConfig s;
  s.workers = 1;
  s.cache_bytes = c.cache_bytes;
  s.approx.cache_bytes = c.cache_bytes;
  s.enable_fallback = false;
  s.max_compute_retries = 0;
  s.tracer = c.tracer;
  s.compute_fn = std::move(compute);
  s.on_complete = [&wake] { wake.notify(); };
  return s;
}

}  // namespace

Coordinator::Coordinator(CoordinatorConfig config)
    : cfg_(std::move(config)),
      listener_(listen_on(cfg_.listen)),
      svc_(fleet_service(
          cfg_,
          [this](const graph::CSRGraph& g, const core::Options& o) {
            return fleet_compute(g, o);
          },
          wake_)) {
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
  serve_until([&] { return worker_count() >= count; }, Clock::now() + timeout);
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
    for (std::uint32_t v = 0; v < kVirtualNodes; ++v) {
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
  e.fingerprint = service::graph_fingerprint(*g);
  e.base_fingerprint = e.fingerprint;
  e.spec = std::move(spec);
  svc_.load_graph(id, std::move(g));
  graphs_[id] = std::move(e);
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
  await_control();
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
  // The service commits the epoch and invalidates the old one's cache
  // entries and estimates (a refinement of a stale estimate is dropped,
  // never folded: the never-resurrect rule).
  const service::MutationResult out = svc_.mutate_graph(id, batch);
  ++stats_.mutations;
  if (out.applied == 0) return out;  // no-op batch: nothing changed anywhere

  // The batch as sent is the update record: a commit keeps the last
  // operation on each edge, so replaying every batch since epoch 0 as one
  // reproduces the current epoch.
  GraphEntry& e = it->second;
  e.fingerprint = out.fingerprint_after;
  e.epoch = out.epoch;
  const std::vector<wire::WireUpdate> updates = to_wire(batch.edges);
  e.history.insert(e.history.end(), updates.begin(), updates.end());

  // Broadcast to every worker that holds the graph; fingerprint agreement
  // is checked on each ack (a disagreeing worker is cut loose).
  wire::MutateMsg m;
  m.graph_id = id;
  m.updates = updates;
  m.fingerprint_after = e.fingerprint;
  control_.emplace();
  control_->request_id = next_request_id_++;
  const std::vector<std::uint8_t> frame = wire::encode(m, control_->request_id);
  for (auto& [slot, w] : workers_) {
    if (!w.ready || w.graphs.count(id) == 0) continue;
    w.conn->send(frame);
    control_->waiting.insert(slot);
  }
  await_control();
  control_.reset();
  persist_snapshot();  // new epoch + history durable (after cache invalidation)
  return out;
}

void Coordinator::await_control() {
  serve_until([&] { return control_->waiting.empty(); },
              Clock::now() + cfg_.control_timeout);
}

// --- the inbox: fleet runs for the service -------------------------------

core::BCResult Coordinator::fleet_compute(const graph::CSRGraph& g,
                                          const core::Options& o) {
  const auto run = std::make_shared<FleetRun>();
  run->graph = &g;
  run->options = o;
  std::unique_lock<std::mutex> lock(inbox_mu_);
  inbox_.push_back(run);
  wake_.notify();
  while (!run->done) {
    if (const util::CancelReason r = o.resilience.cancel.state();
        r != util::CancelReason::None) {
      // Not started: withdraw it. Started: the fleet loop polls the same
      // token and ends the run.
      const auto it = std::find(inbox_.begin(), inbox_.end(), run);
      if (it != inbox_.end()) {
        inbox_.erase(it);
        throw util::Cancelled(r);
      }
    }
    inbox_cv_.wait_for(lock, std::chrono::milliseconds(2));
  }
  if (run->error) std::rethrow_exception(run->error);
  return std::move(run->result);
}

void Coordinator::serve_until(const std::function<bool()>& done,
                              Clock::time_point until) {
  for (;;) {
    std::shared_ptr<FleetRun> run;
    {
      std::lock_guard<std::mutex> lock(inbox_mu_);
      if (done() || Clock::now() >= until) return;
      if (!inbox_.empty()) {
        run = std::move(inbox_.front());
        inbox_.pop_front();
      }
    }
    if (run) {
      execute(std::move(run));
    } else {
      const auto left =
          std::chrono::duration_cast<std::chrono::milliseconds>(until - Clock::now());
      pump(static_cast<int>(std::clamp<long long>(left.count(), 0, 20)));
    }
  }
}

void Coordinator::execute(std::shared_ptr<FleetRun> run) {
  try {
    run->result = run_on_fleet(*run->graph, run->options);
  } catch (...) {
    run->error = std::current_exception();
  }
  {
    // Drop this thread's reference before the waiter can see `done`: the
    // waiter then frees the run, and the exception in it, on its thread.
    std::lock_guard<std::mutex> lock(inbox_mu_);
    run->done = true;
    run.reset();
  }
  inbox_cv_.notify_all();
}

// --- the event pump ------------------------------------------------------

void Coordinator::pump(int timeout_ms) {
  std::vector<pollfd> fds;
  std::vector<std::uint32_t> slots;
  fds.push_back(pollfd{listener_.fd(), POLLIN, 0});
  // The inbox and completed tickets write here to end the wait early.
  fds.push_back(pollfd{wake_.fd(), POLLIN, 0});
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
  if (fds[1].revents & POLLIN) wake_.drain();

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
    const short revents = fds[i + 2].revents;
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
      if (s.state == Shard::State::Done) return;  // straggler duplicate: first result won
      // A refused shard (failed, degraded or without exact sums) is
      // retried like a failure.
      const bool usable = m.ok != 0 && (m.sum_vertices.empty() ||
                                        m.sum_vertices.back() < q.graph->num_vertices());
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
      for (std::size_t k = 0; k < m.sum_vertices.size(); ++k) {
        q.sums.add_cell(m.sum_vertices[k], m.sum_cells[k]);
      }
      s.roots_processed = m.roots_processed;
      s.compute_ms = m.compute_ms;
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
  // to Pending; the dispatch loop finds it a new home (or the coordinator
  // computes it — bit-identical either way).
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
  serve_until([] { return false; }, Clock::now() + duration);
}

DistStats Coordinator::stats() const {
  const service::MetricsSnapshot m = svc_.metrics();
  DistStats s = stats_;
  s.queries = m.submitted;
  s.cache_hits = m.cache_hits;
  s.degraded = m.degraded;
  s.budgeted_queries = m.approx_served;
  s.refine_strata = m.refine_strata;
  s.refine_dropped = m.refine_dropped;
  return s;
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
    g.graph = svc_.graph(id);
    snap.graphs.push_back(std::move(g));
  }
  // Drain the cache into the manifest (MRU first, extract_if's order) and
  // reinsert LRU-first so put()'s MRU promotion restores the original
  // recency order.
  service::ResultCache& cache = svc_.result_cache();
  auto entries = cache.extract_if([](const std::string&) { return true; });
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
    cache.put(it->first, it->second);
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
    for (const SnapshotGraph& g : snap.graphs) {
      // Belt and braces: the container verified its own fingerprint, but
      // the *registry* entry must match too, or workers would verify
      // against a stamp the graph no longer carries.
      if (service::graph_fingerprint(*g.graph) != g.fingerprint) {
        throw SnapshotError("snapshot: graph '" + g.id +
                            "' fingerprint does not match its manifest entry");
      }
    }
    // Every check passed: register, so a failed restore leaves nothing.
    for (SnapshotGraph& g : snap.graphs) {
      svc_.load_graph(g.id, g.graph);
      graphs_[g.id] = GraphEntry{.fingerprint = g.fingerprint,
                                 .base_fingerprint = g.base_fingerprint,
                                 .spec = std::move(g.spec),
                                 .epoch = g.epoch,
                                 .history = std::move(g.history)};
    }
    service::ResultCache& cache = svc_.result_cache();
    for (const SnapshotCacheEntry& e : snap.cache) {
      const std::optional<core::Strategy> strategy = core::strategy_from_wire(e.strategy);
      if (!strategy) continue;  // unknown strategy tag: skip the entry, keep the rest
      auto cached = std::make_shared<service::CachedResult>();
      cached->result.scores = e.scores;
      cached->result.strategy = *strategy;
      cached->result.roots_processed = e.roots_processed;
      cached->result.approximate = e.approximate != 0;
      cached->result.time_seconds = e.time_seconds;
      cached->result.wall_seconds = e.wall_seconds;
      cached->result.teps = e.teps;
      cached->bytes = service::estimate_result_bytes(cached->result);
      cached->refreshable = false;
      cache.put(e.key, cached);
    }
    // Entries were saved MRU-first; the loop above put() them in that
    // order, inverting recency — walk the keys once more, LRU to MRU, to
    // restore it.
    for (auto it = snap.cache.rbegin(); it != snap.cache.rend(); ++it) {
      (void)cache.get(it->key);
    }
    snapshot_info_.ok = true;
    snapshot_info_.graphs = snap.graphs.size();
    snapshot_info_.cache_entries = snap.cache.size();
  } catch (const std::exception& ex) {
    // A corrupt snapshot is a typed, reported condition — the coordinator
    // starts fresh rather than serving doubtful state.
    snapshot_info_.ok = false;
    snapshot_info_.error = ex.what();
  }
}

std::string Coordinator::metrics_report() const {
  char buf[2048];
  const DistStats st = stats();
  const ChaosStats cs = cfg_.chaos ? cfg_.chaos->stats() : ChaosStats{};
  int n = std::snprintf(
      buf, sizeof(buf),
      "coordinator %s\n"
      "  queries %llu (cache hits %llu, degraded %llu)\n"
      "  approx: budgeted %llu refine-strata %llu refine-dropped %llu "
      "entries %zu\n"
      "  shards: dispatched %llu completed %llu retries %llu stragglers %llu "
      "local %llu\n"
      "  fleet: workers %zu deaths %llu heartbeat-misses %llu quarantines "
      "%llu readmissions %llu slow-peer-drops %llu\n"
      "  durability: snapshot saves %llu restored %s\n"
      "  chaos: frames %llu injected %llu (drop %llu delay %llu dup %llu "
      "trunc %llu flip %llu partition %llu)\n",
      cfg_.name.c_str(), static_cast<unsigned long long>(st.queries),
      static_cast<unsigned long long>(st.cache_hits),
      static_cast<unsigned long long>(st.degraded),
      static_cast<unsigned long long>(st.budgeted_queries),
      static_cast<unsigned long long>(st.refine_strata),
      static_cast<unsigned long long>(st.refine_dropped),
      svc_.metrics().approx_entries,
      static_cast<unsigned long long>(st.shards_dispatched),
      static_cast<unsigned long long>(st.shards_completed),
      static_cast<unsigned long long>(st.shard_retries),
      static_cast<unsigned long long>(st.straggler_redispatches),
      static_cast<unsigned long long>(st.local_fallbacks),
      worker_count(), static_cast<unsigned long long>(st.worker_deaths),
      static_cast<unsigned long long>(st.heartbeat_misses),
      static_cast<unsigned long long>(st.quarantines),
      static_cast<unsigned long long>(st.readmissions),
      static_cast<unsigned long long>(st.slow_peer_drops),
      static_cast<unsigned long long>(st.snapshot_saves),
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

service::Response Coordinator::query(service::Request request) {
  const service::Ticket ticket = svc_.submit(std::move(request));
  serve_until([&] {
    return ticket.future.wait_for(std::chrono::seconds(0)) == std::future_status::ready;
  });
  return svc_.wait(ticket);
}

void Coordinator::finish_shard_local(ActiveQuery& q, Shard& s) {
  // Same message → same options → same bits as a remote worker. The shard
  // runs on the coordinator thread; this is the last rung, used only when
  // the fleet cannot serve the shard. A throw ends the run.
  util::Timer t;
  core::BCResult r = core::compute(*q.graph, options_from_shard(s.msg));
  q.sums.merge(r.sums);
  s.roots_processed = r.roots_processed;
  s.compute_ms = t.elapsed_seconds() * 1e3;
  s.state = Shard::State::Done;
  --q.remaining;
  ++stats_.local_fallbacks;
  trace_instant("shard-local", q.id, {{"shard", std::uint64_t{s.index}}});
}

void Coordinator::dispatch_pending(ActiveQuery& q) {
  const auto now = Clock::now();
  for (Shard& s : q.shards) {
    if (s.state != Shard::State::Pending) continue;
    if (s.attempts >= cfg_.max_shard_attempts) {
      finish_shard_local(q, s);
      continue;
    }
    // Backoff window after a failed attempt: leave the shard Pending.
    if (s.attempts > 0 && now < s.not_before) continue;
    // Candidates: eligible workers, preferring ones this shard has not
    // tried, then least in-flight (load balance).
    WorkerState* best = nullptr;
    bool best_untried = false;
    for (auto& [slot, w] : workers_) {
      if (!eligible(w, q)) continue;
      const bool untried = s.tried.count(slot) == 0;
      if (best == nullptr || (untried && !best_untried) ||
          (untried == best_untried && w.inflight < best->inflight)) {
        best = &w;
        best_untried = untried;
      }
    }
    if (best == nullptr) {
      finish_shard_local(q, s);
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
      // deadline-less run must not wait forever for a frame that will
      // never arrive — compute it here now. If a straggler result does
      // land later, the Done guard in handle_frame discards it.
      finish_shard_local(q, s);
      continue;
    }
    // Second opinion: dispatch to an untried healthy worker, first
    // result wins.
    WorkerState* best = nullptr;
    for (auto& [slot, w] : workers_) {
      if (!eligible(w, q) || s.tried.count(slot) != 0) continue;
      if (best == nullptr || w.inflight < best->inflight) best = &w;
    }
    if (best == nullptr) {
      // Nobody new to ask: every eligible worker has already been tried
      // and the timeout passed anyway. Same liveness argument as above —
      // waiting can only help if one of the outstanding frames is merely
      // slow, but it hangs forever if they were dropped.
      finish_shard_local(q, s);
      continue;
    }
    send_shard(q, s, *best, "shard-straggler");
    ++stats_.straggler_redispatches;
  }
}

bool Coordinator::eligible(const WorkerState& w, const ActiveQuery& q) const {
  return w.ready && w.health == wire::HealthState::Healthy &&
         w.graphs.count(q.graph_id) != 0;
}

void Coordinator::send_shard(ActiveQuery& q, Shard& s, WorkerState& w, const char* event) {
  s.msg.deadline_ms = remaining_ms(q.deadline);
  w.conn->send(wire::encode(s.msg, q.id));
  ++w.inflight;
  ++s.attempts;
  s.dispatched_to.push_back(w.slot);
  s.tried.insert(w.slot);
  s.last_dispatch = Clock::now();
  ++stats_.shards_dispatched;
  trace_instant(event, q.id,
                {{"shard", std::uint64_t{s.index}}, {"worker", std::uint64_t{w.slot}}});
}

core::BCResult Coordinator::run_on_fleet(const graph::CSRGraph& g, const core::Options& o) {
  const std::uint64_t fingerprint = g.fingerprint();
  const auto git = std::find_if(graphs_.begin(), graphs_.end(), [&](const auto& entry) {
    return entry.second.fingerprint == fingerprint;
  });
  if (git == graphs_.end()) {
    throw std::runtime_error(
        "fleet run: no registered graph has this snapshot's fingerprint "
        "(a mutation made it stale)");
  }
  const graph::VertexId n = g.num_vertices();
  core::validate_roots(n, o.roots);
  const core::RootPlan plan = core::resolve_roots(n, o);

  auto q = std::make_unique<ActiveQuery>();
  q->id = next_request_id_++;
  q->graph_id = git->first;
  q->graph = &g;
  q->fingerprint = fingerprint;
  q->options = o;
  q->approximate = plan.approximate;
  q->resolved_roots = plan.roots.size();
  q->start = Clock::now();
  q->cancel = o.resilience.cancel;
  q->deadline = q->cancel.deadline();
  q->sums = util::ExactSum(n);
  // Deal resolved root i to shard i mod B, one shard per SM of the
  // modelled device, whatever the strategy; each shard is a raw run of
  // exactly its roots.
  core::Options shard = o;
  const std::uint32_t shards = std::max<std::uint32_t>(o.device.num_sms, 1);
  for (std::uint32_t b = 0; b < shards && b < plan.roots.size(); ++b) {
    shard.roots.clear();
    for (std::size_t i = b; i < plan.roots.size(); i += shards) {
      shard.roots.push_back(plan.roots[i]);
    }
    Shard s;
    s.index = b;
    s.msg = shard_from_options(shard);
    s.msg.shard_index = b;
    q->shards.push_back(std::move(s));
  }
  return run_query(std::move(q));
}

core::BCResult Coordinator::run_query(std::unique_ptr<ActiveQuery> q) {
  q->remaining = q->shards.size();
  for (Shard& s : q->shards) {
    s.msg.graph_id = q->graph_id;
    s.msg.fingerprint = q->fingerprint;
    // Per-shard deterministic jitter stream: same run, same schedule.
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
  try {
    while (aq.remaining > 0) {
      // The service's token carries its deadline and stop(): either ends
      // the run as util::Cancelled.
      aq.cancel.check();
      dispatch_pending(aq);
      if (aq.remaining == 0) break;
      check_stragglers(aq);
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                            aq.deadline - Clock::now())
                            .count();
      pump(static_cast<int>(std::clamp<long long>(left, 0, 20)));
    }
  } catch (...) {
    active_.reset();  // late results for this run are ignored as stale
    throw;
  }
  const std::unique_ptr<ActiveQuery> done = std::move(active_);
  return assemble(*done);
}

core::BCResult Coordinator::assemble(ActiveQuery& q) {
  const graph::VertexId n = q.graph->num_vertices();
  core::BCResult result;
  result.strategy = q.options.strategy;
  double compute_ms = 0.0;
  for (const Shard& s : q.shards) {
    result.roots_processed += s.roots_processed;
    compute_ms = std::max(compute_ms, s.compute_ms);
  }
  // The paper's MPI_Reduce, made bitwise-deterministic: the shards' exact
  // sums were added as they arrived (any order gives the same cells);
  // convert once, then finalize exactly as core::compute does.
  result.scores = q.sums.to_doubles();
  core::finalize(result.scores, n, q.approximate ? result.roots_processed : 0,
                 q.options.halve_undirected, q.options.normalize);
  result.approximate = q.approximate || (q.resolved_roots < n);
  result.time_seconds = compute_ms / 1e3;
  result.wall_seconds = ms_between(q.start, Clock::now()) / 1e3;
  result.teps = core::teps_bc(*q.graph, result.roots_processed, result.time_seconds);
  return result;
}

void Coordinator::drain() {
  if (drained_) return;
  // Finish (or drop) background refinement while the fleet can still serve
  // strata; each job is bounded by the contract it refines toward.
  serve_until([&] { return svc_.refine_backlog() == 0; });
  svc_.stop();
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
