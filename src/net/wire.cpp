#include "net/wire.hpp"

#include <algorithm>
#include <bit>
#include <functional>
#include <cstring>
#include <optional>

#include "core/bc.hpp"

namespace hbc::net::wire {

namespace {

std::vector<std::uint8_t> finish_frame(MsgType type, std::uint64_t request_id,
                                       const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  append_frame(out, type, request_id, payload);
  return out;
}

/// Shared decode epilogue: every field read must have had bytes, and every
/// payload byte must have been consumed.
DecodeStatus seal(const Reader& r) {
  if (!r.ok()) return DecodeStatus::Truncated;
  if (!r.at_end()) return DecodeStatus::TrailingBytes;
  return DecodeStatus::Ok;
}

bool check_type(const Frame& f, MsgType want) { return f.type == want; }

}  // namespace

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::Hello: return "hello";
    case MsgType::HelloAck: return "hello-ack";
    case MsgType::LoadGraph: return "load-graph";
    case MsgType::GraphLoaded: return "graph-loaded";
    case MsgType::SubmitShard: return "submit-shard";
    case MsgType::ShardResult: return "shard-result";
    case MsgType::Heartbeat: return "heartbeat";
    case MsgType::HeartbeatAck: return "heartbeat-ack";
    case MsgType::Mutate: return "mutate";
    case MsgType::MutateDone: return "mutate-done";
    case MsgType::Drain: return "drain";
    case MsgType::Goodbye: return "goodbye";
    case MsgType::Error: return "error";
    case MsgType::Quarantine: return "quarantine";
  }
  return "?";
}

const char* to_string(HealthState state) noexcept {
  switch (state) {
    case HealthState::Healthy: return "healthy";
    case HealthState::Quarantined: return "quarantined";
    case HealthState::Probation: return "probation";
  }
  return "?";
}

const char* to_string(DecodeStatus status) noexcept {
  switch (status) {
    case DecodeStatus::Ok: return "ok";
    case DecodeStatus::NeedMore: return "need-more";
    case DecodeStatus::BadMagic: return "bad-magic";
    case DecodeStatus::BadVersion: return "bad-version";
    case DecodeStatus::UnknownType: return "unknown-type";
    case DecodeStatus::Oversize: return "oversize";
    case DecodeStatus::Truncated: return "truncated";
    case DecodeStatus::TrailingBytes: return "trailing-bytes";
    case DecodeStatus::BadValue: return "bad-value";
  }
  return "?";
}

void append_frame(std::vector<std::uint8_t>& out, MsgType type,
                  std::uint64_t request_id, std::span<const std::uint8_t> payload) {
  Writer w(out);
  w.u32(kMagic);
  w.u16(kProtocolVersion);
  w.u16(static_cast<std::uint16_t>(type));
  w.u64(request_id);
  w.u32(static_cast<std::uint32_t>(payload.size()));
  out.insert(out.end(), payload.begin(), payload.end());
}

DecodeStatus extract_frame(std::span<const std::uint8_t> in, Frame& frame,
                           std::size_t& consumed) {
  consumed = 0;
  if (in.size() < kHeaderSize) return DecodeStatus::NeedMore;
  Reader r(in.subspan(0, kHeaderSize));
  const std::uint32_t magic = r.u32();
  const std::uint16_t version = r.u16();
  const std::uint16_t type = r.u16();
  const std::uint64_t request_id = r.u64();
  const std::uint32_t payload_len = r.u32();
  // Validate the header before demanding payload bytes: a corrupt length
  // prefix must not make the caller wait for (or allocate) garbage.
  if (magic != kMagic) return DecodeStatus::BadMagic;
  if (version != kProtocolVersion) return DecodeStatus::BadVersion;
  if (type < static_cast<std::uint16_t>(MsgType::Hello) ||
      type > static_cast<std::uint16_t>(MsgType::Quarantine)) {
    return DecodeStatus::UnknownType;
  }
  if (payload_len > kMaxPayload) return DecodeStatus::Oversize;
  if (in.size() - kHeaderSize < payload_len) return DecodeStatus::NeedMore;
  frame.type = static_cast<MsgType>(type);
  frame.request_id = request_id;
  frame.payload.assign(in.begin() + kHeaderSize, in.begin() + kHeaderSize + payload_len);
  consumed = kHeaderSize + payload_len;
  return DecodeStatus::Ok;
}

// --- Hello ---------------------------------------------------------------

std::vector<std::uint8_t> encode(const HelloMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.u16(m.protocol);
  w.str(m.worker_name);
  w.u32(m.shard_slots);
  return finish_frame(MsgType::Hello, request_id, p);
}

DecodeStatus decode(const Frame& f, HelloMsg& out) {
  if (!check_type(f, MsgType::Hello)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.protocol = r.u16();
  out.worker_name = r.str();
  out.shard_slots = r.u32();
  return seal(r);
}

std::vector<std::uint8_t> encode(const HelloAckMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.u32(m.worker_slot);
  w.str(m.coordinator_name);
  return finish_frame(MsgType::HelloAck, request_id, p);
}

DecodeStatus decode(const Frame& f, HelloAckMsg& out) {
  if (!check_type(f, MsgType::HelloAck)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.worker_slot = r.u32();
  out.coordinator_name = r.str();
  return seal(r);
}

// --- graph loading -------------------------------------------------------

std::vector<std::uint8_t> encode(const LoadGraphMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.str(m.graph_id);
  w.str(m.spec);
  w.u64(m.fingerprint);
  w.updates(m.updates);
  w.u64(m.fingerprint_after);
  return finish_frame(MsgType::LoadGraph, request_id, p);
}

DecodeStatus decode(const Frame& f, LoadGraphMsg& out) {
  if (!check_type(f, MsgType::LoadGraph)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.graph_id = r.str();
  out.spec = r.str();
  out.fingerprint = r.u64();
  out.updates = r.updates();
  out.fingerprint_after = r.u64();
  return seal(r);
}

std::vector<std::uint8_t> encode(const GraphLoadedMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.str(m.graph_id);
  w.u8(m.ok);
  w.u64(m.fingerprint);
  w.str(m.error);
  return finish_frame(MsgType::GraphLoaded, request_id, p);
}

DecodeStatus decode(const Frame& f, GraphLoadedMsg& out) {
  if (!check_type(f, MsgType::GraphLoaded)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.graph_id = r.str();
  out.ok = r.u8();
  out.fingerprint = r.u64();
  out.error = r.str();
  if (out.ok > 1) return DecodeStatus::BadValue;
  return seal(r);
}

// --- shards --------------------------------------------------------------

std::vector<std::uint8_t> encode(const SubmitShardMsg& m, std::uint64_t request_id) {
  static_assert(sizeof(graph::VertexId) == sizeof(std::uint32_t),
                "roots travel as u32");
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.str(m.graph_id);
  w.u64(m.fingerprint);
  w.u32(m.shard_index);
  w.u8(m.strategy);
  w.u32(m.cpu_threads);
  w.u32(m.max_root_attempts);
  w.u32(m.device_num_sms);
  w.u32(m.hybrid_alpha);
  w.u32(m.hybrid_beta);
  w.u32(m.sampling_n_samps);
  w.f64(m.sampling_gamma);
  w.u32(m.sampling_min_frontier);
  w.u32(m.deadline_ms);
  w.u32s(m.roots);
  return finish_frame(MsgType::SubmitShard, request_id, p);
}

DecodeStatus decode(const Frame& f, SubmitShardMsg& out) {
  if (!check_type(f, MsgType::SubmitShard)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.graph_id = r.str();
  out.fingerprint = r.u64();
  out.shard_index = r.u32();
  out.strategy = r.u8();
  out.cpu_threads = r.u32();
  out.max_root_attempts = r.u32();
  out.device_num_sms = r.u32();
  out.hybrid_alpha = r.u32();
  out.hybrid_beta = r.u32();
  out.sampling_n_samps = r.u32();
  out.sampling_gamma = r.f64();
  out.sampling_min_frontier = r.u32();
  out.deadline_ms = r.u32();
  out.roots = r.u32s();
  const DecodeStatus s = seal(r);
  if (s != DecodeStatus::Ok) return s;
  const std::optional<core::Strategy> strategy = core::strategy_from_wire(out.strategy);
  if (!strategy) return DecodeStatus::BadValue;
  out.strategy = static_cast<std::uint8_t>(*strategy);  // the retired 2 reads as 1
  return DecodeStatus::Ok;
}

std::vector<std::uint8_t> encode(const ShardResultMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.u32(m.shard_index);
  w.u8(m.ok);
  w.str(m.error);
  w.u64(m.roots_processed);
  w.f64(m.compute_ms);
  w.f64s(m.scores);
  w.u32s(m.sum_vertices);
  w.cells(m.sum_cells);
  return finish_frame(MsgType::ShardResult, request_id, p);
}

DecodeStatus decode(const Frame& f, ShardResultMsg& out) {
  if (!check_type(f, MsgType::ShardResult)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.shard_index = r.u32();
  out.ok = r.u8();
  out.error = r.str();
  out.roots_processed = r.u64();
  out.compute_ms = r.f64();
  out.scores = r.f64s();
  out.sum_vertices = r.u32s();
  out.sum_cells = r.cells();
  const DecodeStatus s = seal(r);
  if (s != DecodeStatus::Ok) return s;
  if (out.ok > 1 || out.sum_cells.size() != out.sum_vertices.size() ||
      std::adjacent_find(out.sum_vertices.begin(), out.sum_vertices.end(),
                         std::greater_equal<>()) != out.sum_vertices.end()) {
    return DecodeStatus::BadValue;
  }
  return DecodeStatus::Ok;
}

// --- liveness ------------------------------------------------------------

std::vector<std::uint8_t> encode(const HeartbeatMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.u64(m.seq);
  w.u32(m.inflight);
  return finish_frame(MsgType::Heartbeat, request_id, p);
}

DecodeStatus decode(const Frame& f, HeartbeatMsg& out) {
  if (!check_type(f, MsgType::Heartbeat)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.seq = r.u64();
  out.inflight = r.u32();
  return seal(r);
}

std::vector<std::uint8_t> encode(const HeartbeatAckMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.u64(m.seq);
  return finish_frame(MsgType::HeartbeatAck, request_id, p);
}

DecodeStatus decode(const Frame& f, HeartbeatAckMsg& out) {
  if (!check_type(f, MsgType::HeartbeatAck)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.seq = r.u64();
  return seal(r);
}

// --- mutation ------------------------------------------------------------

std::vector<std::uint8_t> encode(const MutateMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.str(m.graph_id);
  w.updates(m.updates);
  w.u64(m.fingerprint_after);
  return finish_frame(MsgType::Mutate, request_id, p);
}

DecodeStatus decode(const Frame& f, MutateMsg& out) {
  if (!check_type(f, MsgType::Mutate)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.graph_id = r.str();
  out.updates = r.updates();
  out.fingerprint_after = r.u64();
  const DecodeStatus s = seal(r);
  if (s != DecodeStatus::Ok) return s;
  for (const WireUpdate& e : out.updates) {
    if (e.insert > 1) return DecodeStatus::BadValue;
  }
  return DecodeStatus::Ok;
}

std::vector<std::uint8_t> encode(const MutateDoneMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.str(m.graph_id);
  w.u8(m.ok);
  w.u64(m.fingerprint);
  w.str(m.error);
  return finish_frame(MsgType::MutateDone, request_id, p);
}

DecodeStatus decode(const Frame& f, MutateDoneMsg& out) {
  if (!check_type(f, MsgType::MutateDone)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.graph_id = r.str();
  out.ok = r.u8();
  out.fingerprint = r.u64();
  out.error = r.str();
  if (out.ok > 1) return DecodeStatus::BadValue;
  return seal(r);
}

// --- control -------------------------------------------------------------

std::vector<std::uint8_t> encode(const DrainMsg&, std::uint64_t request_id) {
  return finish_frame(MsgType::Drain, request_id, {});
}

DecodeStatus decode(const Frame& f, DrainMsg&) {
  if (!check_type(f, MsgType::Drain)) return DecodeStatus::BadValue;
  return f.payload.empty() ? DecodeStatus::Ok : DecodeStatus::TrailingBytes;
}

std::vector<std::uint8_t> encode(const GoodbyeMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.str(m.reason);
  return finish_frame(MsgType::Goodbye, request_id, p);
}

DecodeStatus decode(const Frame& f, GoodbyeMsg& out) {
  if (!check_type(f, MsgType::Goodbye)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.reason = r.str();
  return seal(r);
}

std::vector<std::uint8_t> encode(const ErrorMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.u32(m.code);
  w.str(m.message);
  return finish_frame(MsgType::Error, request_id, p);
}

DecodeStatus decode(const Frame& f, ErrorMsg& out) {
  if (!check_type(f, MsgType::Error)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  out.code = r.u32();
  out.message = r.str();
  return seal(r);
}

std::vector<std::uint8_t> encode(const QuarantineMsg& m, std::uint64_t request_id) {
  std::vector<std::uint8_t> p;
  Writer w(p);
  w.u8(static_cast<std::uint8_t>(m.state));
  w.str(m.reason);
  return finish_frame(MsgType::Quarantine, request_id, p);
}

DecodeStatus decode(const Frame& f, QuarantineMsg& out) {
  if (!check_type(f, MsgType::Quarantine)) return DecodeStatus::BadValue;
  Reader r(f.payload);
  const std::uint8_t state = r.u8();
  out.reason = r.str();
  const DecodeStatus s = seal(r);
  if (s != DecodeStatus::Ok) return s;
  if (state > static_cast<std::uint8_t>(HealthState::Probation)) {
    return DecodeStatus::BadValue;
  }
  out.state = static_cast<HealthState>(state);
  return DecodeStatus::Ok;
}

}  // namespace hbc::net::wire
