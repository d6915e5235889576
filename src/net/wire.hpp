#pragma once

// hbc::net wire protocol — the length-prefixed, versioned binary frame
// codec spoken between the coordinator and its workers (docs/distributed.md
// has the full frame-layout table and message walkthrough).
//
// Every frame is a fixed 20-byte little-endian header followed by a typed
// payload:
//
//   offset  size  field
//   0       4     magic        "HBCN" (0x48 0x42 0x43 0x4E on the wire)
//   4       2     version      kProtocolVersion; mismatch is a typed error
//   6       2     type         MsgType; unknown values are a typed error
//   8       8     request_id   propagated end-to-end so per-process trace
//                              captures stitch into one timeline
//   16      4     payload_len  <= kMaxPayload (oversize is a typed error)
//
// Decoding is defensive by construction: extract_frame never reads past
// the supplied buffer (NeedMore for incomplete input), every payload field
// read is bounds-checked, array lengths are validated against the bytes
// actually present before any allocation, and enum fields are range-checked
// (BadValue). Malformed input yields a DecodeStatus — never an exception,
// never an out-of-bounds read (tests/test_net_codec.cpp fuzzes this under
// ASan in CI).
//
// Doubles travel as raw IEEE-754 bit patterns (u64), so a partial BC
// vector arrives at the coordinator bit-exact — the property the fixed-
// order distributed reduction depends on.

#include <bit>
#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace hbc::net::wire {

/// One edge mutation on the wire (mirrors dyn::EdgeUpdate).
struct WireUpdate {
  std::uint32_t u = 0;
  std::uint32_t v = 0;
  std::uint8_t insert = 1;
};

// Bounds-checked little-endian primitives shared by the frame codec and
// the coordinator's snapshot manifest (net/snapshot.cpp). The writer never
// fails; the reader records the first out-of-bounds access and turns every
// later read into a no-op, so decoders can read a whole message straight
// through and check ok() once.

class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(&out) {}

  void u8(std::uint8_t v) { out_->push_back(v); }
  void u16(std::uint16_t v) {
    out_->push_back(static_cast<std::uint8_t>(v));
    out_->push_back(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) out_->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }
  void str(const std::string& s) {
    u32(static_cast<std::uint32_t>(s.size()));
    out_->insert(out_->end(), s.begin(), s.end());
  }
  void u32s(const std::vector<std::uint32_t>& v) { array(v); }
  void f64s(const std::vector<double>& v) { array(v); }
  void updates(const std::vector<WireUpdate>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    for (const WireUpdate& e : v) {
      u32(e.u);
      u32(e.v);
      u8(e.insert);
    }
  }

 private:
  // Count, then the elements little-endian: on a little-endian host that
  // is their memory image, moved in one copy.
  template <class T>
  void array(const std::vector<T>& v) {
    u32(static_cast<std::uint32_t>(v.size()));
    if constexpr (std::endian::native == std::endian::little) {
      const std::size_t at = out_->size();
      out_->resize(at + v.size() * sizeof(T));
      if (!v.empty()) std::memcpy(out_->data() + at, v.data(), v.size() * sizeof(T));
    } else {
      for (const T x : v) {
        if constexpr (sizeof(T) == 4) {
          u32(x);
        } else {
          f64(x);
        }
      }
    }
  }

  std::vector<std::uint8_t>* out_;
};

class Reader {
 public:
  explicit Reader(std::span<const std::uint8_t> in) : in_(in) {}

  bool ok() const noexcept { return !failed_; }
  bool at_end() const noexcept { return pos_ == in_.size(); }

  std::uint8_t u8() {
    if (!need(1)) return 0;
    return in_[pos_++];
  }
  std::uint16_t u16() {
    if (!need(2)) return 0;
    std::uint16_t v = static_cast<std::uint16_t>(in_[pos_] | (in_[pos_ + 1] << 8));
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    if (!need(4)) return 0;
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(in_[pos_ + i]) << (8 * i);
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    if (!need(8)) return 0;
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(in_[pos_ + i]) << (8 * i);
    pos_ += 8;
    return v;
  }
  double f64() { return std::bit_cast<double>(u64()); }

  std::string str() {
    const std::uint32_t len = u32();
    // Validate against the bytes actually present BEFORE allocating, so a
    // hostile length prefix cannot demand memory the frame doesn't carry.
    if (!need(len)) return {};
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), len);
    pos_ += len;
    return s;
  }
  std::vector<std::uint32_t> u32s() { return array<std::uint32_t>(); }
  std::vector<double> f64s() { return array<double>(); }
  std::vector<WireUpdate> updates() {
    const std::uint32_t count = u32();
    if (!need(static_cast<std::size_t>(count) * 9)) return {};
    std::vector<WireUpdate> v(count);
    for (std::uint32_t i = 0; i < count; ++i) {
      v[i].u = u32();
      v[i].v = u32();
      v[i].insert = u8();
    }
    return v;
  }

 private:
  bool need(std::size_t n) {
    if (failed_ || n > in_.size() - pos_) {
      failed_ = true;
      return false;
    }
    return true;
  }

  template <class T>
  std::vector<T> array() {
    const std::uint32_t count = u32();
    const std::size_t bytes = static_cast<std::size_t>(count) * sizeof(T);
    if (!need(bytes)) return {};
    std::vector<T> v(count);
    if constexpr (std::endian::native == std::endian::little) {
      if (count != 0) std::memcpy(v.data(), in_.data() + pos_, bytes);
      pos_ += bytes;
    } else {
      for (T& x : v) {
        if constexpr (sizeof(T) == 4) {
          x = u32();
        } else {
          x = f64();
        }
      }
    }
    return v;
  }

  std::span<const std::uint8_t> in_;
  std::size_t pos_ = 0;
  bool failed_ = false;
};

inline constexpr std::uint32_t kMagic = 0x4E434248u;  // "HBCN" little-endian
/// v1: the original fleet protocol. v2 appends accuracy-budget fields to
/// SubmitShard and estimate fields to ShardResult (required in a v2
/// frame, forbidden in a v1 frame — the header's version byte decides);
/// a v1 frame decodes under v2 with the fields at their defaults, so
/// peers negotiate min(theirs, ours) at Hello and the coordinator keeps
/// v1 workers on exact-only queries.
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::uint16_t kMinProtocolVersion = 1;
inline constexpr std::size_t kHeaderSize = 20;
/// Payload cap: a hostile length prefix can demand at most 64 MiB.
inline constexpr std::uint32_t kMaxPayload = 1u << 26;

enum class MsgType : std::uint16_t {
  Hello = 1,         // worker -> coordinator: join the fleet
  HelloAck = 2,      // coordinator -> worker: slot assignment
  LoadGraph = 3,     // coordinator -> worker: load a named graph
  GraphLoaded = 4,   // worker -> coordinator: load outcome + fingerprint
  SubmitShard = 5,   // coordinator -> worker: compute a root shard / query
  ShardResult = 6,   // worker -> coordinator: partial or final BC vector
  Heartbeat = 7,     // worker -> coordinator: liveness + load
  HeartbeatAck = 8,  // coordinator -> worker
  Mutate = 9,        // coordinator -> worker: apply an edge-update batch
  MutateDone = 10,   // worker -> coordinator: new fingerprint
  Drain = 11,        // coordinator -> worker: finish in-flight, then leave
  Goodbye = 12,      // worker -> coordinator: clean departure
  Error = 13,        // either direction: request-scoped failure
  Quarantine = 14,   // coordinator -> worker: health-state transition notice
};

const char* to_string(MsgType type) noexcept;

enum class DecodeStatus : std::uint8_t {
  Ok = 0,
  NeedMore,       // incomplete frame — not an error, wait for more bytes
  BadMagic,       // stream corruption / not our protocol
  BadVersion,     // peer speaks a different protocol revision
  UnknownType,    // type field outside the MsgType range
  Oversize,       // length prefix exceeds kMaxPayload
  Truncated,      // payload ended mid-field
  TrailingBytes,  // payload longer than the message it encodes
  BadValue,       // enum/range-checked field out of domain
};

const char* to_string(DecodeStatus status) noexcept;

/// A decoded frame: type + request id + raw payload bytes. `version` is
/// the header version the peer stamped (1..kProtocolVersion) — versioned
/// decoders use it to decide whether appended fields may be present.
struct Frame {
  MsgType type = MsgType::Error;
  std::uint16_t version = kProtocolVersion;
  std::uint64_t request_id = 0;
  std::vector<std::uint8_t> payload;
};

/// Append one whole frame (header + payload) to `out`.
void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint64_t request_id, std::span<const std::uint8_t> payload,
                  std::uint16_t version = kProtocolVersion);

/// Try to extract one frame from the head of `in`. Ok sets `frame` and
/// `consumed` (header + payload bytes to drop from the stream); NeedMore
/// means the buffer holds a valid prefix of a frame; every other status is
/// a protocol error at the head of the stream (consumed is 0 — the caller
/// should poison the connection, not resynchronize).
DecodeStatus extract_frame(std::span<const std::uint8_t> in, Frame& frame,
                           std::size_t& consumed);

// --- messages ------------------------------------------------------------

struct HelloMsg {
  std::uint16_t protocol = kProtocolVersion;
  std::string worker_name;
  /// Concurrent shard computations the worker is provisioned for
  /// (its service worker-pool size) — a load-balance hint.
  std::uint32_t shard_slots = 1;
};

struct HelloAckMsg {
  std::uint32_t worker_slot = 0;
  std::string coordinator_name;
};

struct LoadGraphMsg {
  std::string graph_id;
  /// How the worker materializes the graph: a path or "gen:family:scale
  /// [:seed]" spec, resolved by WorkerConfig::graph_loader. May be empty
  /// when the deployment pre-arranges graphs out of band.
  std::string spec;
  /// Expected fingerprint of the freshly loaded (epoch-0) graph; the
  /// worker refuses on mismatch, so coordinator and worker can never
  /// disagree on the cross-process cache key.
  std::uint64_t fingerprint = 0;
  /// Update history to replay after loading (late-joining worker catching
  /// up with a mutated graph). Empty for never-mutated graphs.
  std::vector<WireUpdate> updates;
  /// Expected fingerprint after replaying `updates` (== fingerprint when
  /// there are none).
  std::uint64_t fingerprint_after = 0;
};

struct GraphLoadedMsg {
  std::string graph_id;
  std::uint8_t ok = 1;
  std::uint64_t fingerprint = 0;  // actual fingerprint after any replay
  std::string error;
};

/// Shard execution mode.
enum class ShardMode : std::uint8_t {
  /// Compute the RAW per-block partial BC vector for the given roots as a
  /// single simulated block (grid_blocks=1): no sampling scale-up, no
  /// halving, no normalization — the coordinator folds partials in block
  /// order and finalizes, reproducing a standalone run bit for bit.
  Partial = 0,
  /// Run the whole query on one worker with full core::compute semantics
  /// (CPU engines and the sampling kernel, whose probe phase depends on
  /// the complete root list, are not block-shardable).
  Whole = 1,
};

struct SubmitShardMsg {
  std::string graph_id;
  std::uint64_t fingerprint = 0;  // expected current graph fingerprint
  std::uint32_t shard_index = 0;  // block id in the standalone grid
  ShardMode mode = ShardMode::Partial;
  std::uint8_t strategy = 0;  // core::Strategy, range-checked on decode
  std::uint8_t halve_undirected = 0;  // Whole mode only
  std::uint8_t normalize = 0;         // Whole mode only
  std::uint32_t grid_blocks = 0;      // worker-side grid override (1 = Partial)
  std::uint32_t sample_roots = 0;     // Whole mode only
  std::uint64_t seed = 0;
  std::uint32_t cpu_threads = 0;
  std::uint32_t max_root_attempts = 3;
  std::uint32_t device_num_sms = 0;  // 0 = worker default device
  std::uint32_t hybrid_alpha = 0;
  std::uint32_t hybrid_beta = 0;
  std::uint32_t sampling_n_samps = 0;
  double sampling_gamma = 0.0;
  std::uint32_t sampling_min_frontier = 0;
  std::uint32_t deadline_ms = 0;  // remaining budget; 0 = none
  /// Partial: exactly this shard's roots (ascending standalone order).
  /// Whole: the query's explicit roots (may be empty = all / sampled).
  std::vector<graph::VertexId> roots;

  // --- v2 append: accuracy budget (absent on v1 frames; decode leaves the
  // defaults, i.e. an inactive budget = exact query). Whole mode only.
  std::uint8_t has_budget = 0;
  double accuracy_target = 0.0;  // must be finite, in [0, 1]
  std::uint32_t budget_max_roots = 0;
  std::uint8_t allow_refinement = 0;
};

struct ShardResultMsg {
  std::uint32_t shard_index = 0;
  std::uint8_t ok = 1;
  /// Whole mode: the worker's service degraded the result (substituted
  /// strategy / partial roots). Partial-mode shards are never accepted
  /// degraded — the coordinator retries them instead.
  std::uint8_t degraded = 0;
  std::string error;
  std::uint64_t roots_processed = 0;
  double compute_ms = 0.0;
  /// Raw partial (Partial) or finalized (Whole) scores, bit-exact.
  std::vector<double> scores;

  // --- v2 append: what a budgeted (Whole) query actually delivered
  // (mirrors service::Estimate; absent on v1 frames and exact results).
  std::uint8_t has_estimate = 0;
  std::uint64_t est_roots_used = 0;
  double est_stderr = 0.0;
  std::uint32_t est_rung = 0;
  std::uint8_t est_refining = 0;
};

struct HeartbeatMsg {
  std::uint64_t seq = 0;
  std::uint32_t inflight = 0;
};

struct HeartbeatAckMsg {
  std::uint64_t seq = 0;
};

struct MutateMsg {
  std::string graph_id;
  std::vector<WireUpdate> updates;
  /// Fingerprint the coordinator observed after applying the batch
  /// locally; the worker's MutateDone must agree.
  std::uint64_t fingerprint_after = 0;
};

struct MutateDoneMsg {
  std::string graph_id;
  std::uint8_t ok = 1;
  std::uint64_t fingerprint = 0;
  std::string error;
};

struct DrainMsg {};

struct GoodbyeMsg {
  std::string reason;
};

struct ErrorMsg {
  std::uint32_t code = 0;  // service::QueryStatus value when request-scoped
  std::string message;
};

/// Worker liveness as the coordinator's failure detector sees it
/// (net::Coordinator; docs/resilience.md has the state machine).
enum class HealthState : std::uint8_t {
  Healthy = 0,
  /// Missed the heartbeat deadline: dispatched shards were proactively
  /// reassigned, no new work until it proves itself.
  Quarantined = 1,
  /// Heard from again after quarantine; earning readmission.
  Probation = 2,
};

const char* to_string(HealthState state) noexcept;

/// Coordinator -> worker: your detector state changed (informational —
/// the worker notes it; the coordinator's dispatch gate is authoritative).
struct QuarantineMsg {
  /// The worker's new state. `Healthy` here means readmitted.
  HealthState state = HealthState::Quarantined;
  std::string reason;
};

// Each encode_* returns a complete frame (header + payload) ready to queue
// on a connection; each decode_* validates and fills the message from a
// frame of the matching type (BadValue if the frame type disagrees).

std::vector<std::uint8_t> encode(const HelloMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const HelloAckMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const LoadGraphMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const GraphLoadedMsg& m, std::uint64_t request_id);
/// Versioned encodes: at version 1 the v2-appended fields are dropped
/// from the wire image (the budget/estimate simply does not travel —
/// callers negotiate down before dispatching budgeted work). Default is
/// the current protocol.
std::vector<std::uint8_t> encode(const SubmitShardMsg& m, std::uint64_t request_id,
                                 std::uint16_t version = kProtocolVersion);
std::vector<std::uint8_t> encode(const ShardResultMsg& m, std::uint64_t request_id,
                                 std::uint16_t version = kProtocolVersion);
std::vector<std::uint8_t> encode(const HeartbeatMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const HeartbeatAckMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const MutateMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const MutateDoneMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const DrainMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const GoodbyeMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const ErrorMsg& m, std::uint64_t request_id);
std::vector<std::uint8_t> encode(const QuarantineMsg& m, std::uint64_t request_id);

DecodeStatus decode(const Frame& f, HelloMsg& out);
DecodeStatus decode(const Frame& f, HelloAckMsg& out);
DecodeStatus decode(const Frame& f, LoadGraphMsg& out);
DecodeStatus decode(const Frame& f, GraphLoadedMsg& out);
DecodeStatus decode(const Frame& f, SubmitShardMsg& out);
DecodeStatus decode(const Frame& f, ShardResultMsg& out);
DecodeStatus decode(const Frame& f, HeartbeatMsg& out);
DecodeStatus decode(const Frame& f, HeartbeatAckMsg& out);
DecodeStatus decode(const Frame& f, MutateMsg& out);
DecodeStatus decode(const Frame& f, MutateDoneMsg& out);
DecodeStatus decode(const Frame& f, DrainMsg& out);
DecodeStatus decode(const Frame& f, GoodbyeMsg& out);
DecodeStatus decode(const Frame& f, ErrorMsg& out);
DecodeStatus decode(const Frame& f, QuarantineMsg& out);

}  // namespace hbc::net::wire
