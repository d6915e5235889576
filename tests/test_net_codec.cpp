// Wire-codec tests: round-trips for every message type, the malformed-frame
// property suite (truncation at every prefix length, oversize length
// prefixes, bad magic/version/type, trailing bytes, out-of-domain enums),
// and a deterministic mutation fuzzer. The malformed cases assert the
// typed-DecodeStatus contract — never an exception, never an out-of-bounds
// read — and CI runs this binary under ASan so "never OOB" is checked by
// the sanitizer, not by faith.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "net/shard.hpp"
#include "net/wire.hpp"
#include "util/rng.hpp"

namespace wire = hbc::net::wire;
using wire::DecodeStatus;
using wire::Frame;
using wire::MsgType;

namespace {

// Decode one frame from `bytes` and, if it parses, the typed payload too.
// Returns the frame-level status; payload statuses are checked by callers.
DecodeStatus extract(const std::vector<std::uint8_t>& bytes, Frame& f) {
  std::size_t consumed = 0;
  return wire::extract_frame(std::span<const std::uint8_t>(bytes), f, consumed);
}

wire::SubmitShardMsg sample_shard() {
  wire::SubmitShardMsg m;
  m.graph_id = "g0";
  m.fingerprint = 0x0123456789abcdefull;
  m.shard_index = 7;
  m.mode = wire::ShardMode::Partial;
  m.strategy = 6;  // WorkEfficient
  m.grid_blocks = 1;
  m.seed = 42;
  m.cpu_threads = 3;
  m.max_root_attempts = 2;
  m.device_num_sms = 14;
  m.hybrid_alpha = 768;
  m.hybrid_beta = 512;
  m.sampling_n_samps = 256;
  m.sampling_gamma = 3.5;
  m.sampling_min_frontier = 128;
  m.deadline_ms = 1234;
  m.roots = {0, 14, 28, 42};
  return m;
}

}  // namespace

TEST(NetCodec, HeaderLayoutIsExactlyTwentyBytes) {
  const std::vector<std::uint8_t> bytes = wire::encode(wire::DrainMsg{}, 0x1122334455667788ull);
  ASSERT_EQ(bytes.size(), wire::kHeaderSize);
  // magic "HBCN" little-endian, version, type, request id, zero length.
  EXPECT_EQ(bytes[0], 'H');
  EXPECT_EQ(bytes[1], 'B');
  EXPECT_EQ(bytes[2], 'C');
  EXPECT_EQ(bytes[3], 'N');
  EXPECT_EQ(bytes[4], wire::kProtocolVersion & 0xff);
  EXPECT_EQ(bytes[6], static_cast<std::uint8_t>(MsgType::Drain));
  EXPECT_EQ(bytes[8], 0x88);   // request id, little-endian low byte first
  EXPECT_EQ(bytes[15], 0x11);
  EXPECT_EQ(bytes[16] | bytes[17] | bytes[18] | bytes[19], 0);
}

TEST(NetCodec, HelloRoundTrip) {
  wire::HelloMsg in;
  in.worker_name = "worker-a";
  in.shard_slots = 8;
  Frame f;
  ASSERT_EQ(extract(wire::encode(in, 5), f), DecodeStatus::Ok);
  EXPECT_EQ(f.type, MsgType::Hello);
  EXPECT_EQ(f.request_id, 5u);
  wire::HelloMsg out;
  ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  EXPECT_EQ(out.protocol, wire::kProtocolVersion);
  EXPECT_EQ(out.worker_name, "worker-a");
  EXPECT_EQ(out.shard_slots, 8u);
}

TEST(NetCodec, LoadGraphRoundTripWithHistory) {
  wire::LoadGraphMsg in;
  in.graph_id = "web";
  in.spec = "gen:scalefree:12:7";
  in.fingerprint = 0xdeadbeefcafef00dull;
  in.updates = {{1, 2, 1}, {3, 4, 0}, {5, 6, 1}};
  in.fingerprint_after = 0x1111222233334444ull;
  Frame f;
  ASSERT_EQ(extract(wire::encode(in, 9), f), DecodeStatus::Ok);
  wire::LoadGraphMsg out;
  ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  EXPECT_EQ(out.graph_id, in.graph_id);
  EXPECT_EQ(out.spec, in.spec);
  EXPECT_EQ(out.fingerprint, in.fingerprint);
  ASSERT_EQ(out.updates.size(), 3u);
  EXPECT_EQ(out.updates[1].u, 3u);
  EXPECT_EQ(out.updates[1].insert, 0u);
  EXPECT_EQ(out.fingerprint_after, in.fingerprint_after);
}

TEST(NetCodec, SubmitShardRoundTrip) {
  const wire::SubmitShardMsg in = sample_shard();
  Frame f;
  ASSERT_EQ(extract(wire::encode(in, 77), f), DecodeStatus::Ok);
  wire::SubmitShardMsg out;
  ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  EXPECT_EQ(out.graph_id, in.graph_id);
  EXPECT_EQ(out.fingerprint, in.fingerprint);
  EXPECT_EQ(out.shard_index, in.shard_index);
  EXPECT_EQ(out.mode, in.mode);
  EXPECT_EQ(out.strategy, in.strategy);
  EXPECT_EQ(out.grid_blocks, in.grid_blocks);
  EXPECT_EQ(out.seed, in.seed);
  EXPECT_EQ(out.cpu_threads, in.cpu_threads);
  EXPECT_EQ(out.max_root_attempts, in.max_root_attempts);
  EXPECT_EQ(out.device_num_sms, in.device_num_sms);
  EXPECT_EQ(out.hybrid_alpha, in.hybrid_alpha);
  EXPECT_EQ(out.hybrid_beta, in.hybrid_beta);
  EXPECT_EQ(out.sampling_n_samps, in.sampling_n_samps);
  EXPECT_DOUBLE_EQ(out.sampling_gamma, in.sampling_gamma);
  EXPECT_EQ(out.sampling_min_frontier, in.sampling_min_frontier);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.roots, in.roots);
}

TEST(NetCodec, StrategyWireValuesAreStable) {
  // The strategy travels as a u8 in SubmitShard frames and coordinator
  // snapshots, so every enum value is frozen: a reordered member would
  // make old snapshots and mixed-version fleets run the wrong engine.
  using hbc::core::Strategy;
  const std::pair<Strategy, std::uint8_t> frozen[] = {
      {Strategy::CpuSerial, 0},      {Strategy::CpuParallel, 1},
      {Strategy::CpuFineGrained, 2}, {Strategy::VertexParallel, 3},
      {Strategy::EdgeParallel, 4},   {Strategy::GpuFan, 5},
      {Strategy::WorkEfficient, 6},  {Strategy::Hybrid, 7},
      {Strategy::Sampling, 8},       {Strategy::DirectionOptimized, 9},
  };
  // Payload layout before the strategy byte: graph_id (u32 length +
  // bytes), fingerprint u64, shard_index u32, mode u8.
  const std::string graph_id = "g0";
  const std::size_t at = wire::kHeaderSize + 4 + graph_id.size() + 8 + 4 + 1;
  for (const auto& [strategy, value] : frozen) {
    hbc::core::Options options;
    options.strategy = strategy;
    wire::SubmitShardMsg in = hbc::net::shard_from_options(options);
    in.graph_id = graph_id;
    const std::vector<std::uint8_t> bytes = wire::encode(in, 1);
    ASSERT_GT(bytes.size(), at);
    EXPECT_EQ(bytes[at], value) << hbc::core::to_string(strategy);
    Frame f;
    ASSERT_EQ(extract(bytes, f), DecodeStatus::Ok);
    wire::SubmitShardMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(hbc::net::options_from_shard(out).strategy, strategy);
  }
  wire::SubmitShardMsg past_end = sample_shard();
  past_end.strategy = 10;
  Frame f;
  ASSERT_EQ(extract(wire::encode(past_end, 1), f), DecodeStatus::Ok);
  wire::SubmitShardMsg out;
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::BadValue);
}

TEST(NetCodec, SubmitShardBudgetRoundTripV2) {
  wire::SubmitShardMsg in = sample_shard();
  in.mode = wire::ShardMode::Whole;
  in.roots.clear();
  in.has_budget = 1;
  in.accuracy_target = 0.05;
  in.budget_max_roots = 512;
  in.allow_refinement = 1;
  Frame f;
  ASSERT_EQ(extract(wire::encode(in, 21), f), DecodeStatus::Ok);
  EXPECT_EQ(f.version, 2u);
  wire::SubmitShardMsg out;
  ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  EXPECT_EQ(out.has_budget, 1u);
  EXPECT_DOUBLE_EQ(out.accuracy_target, 0.05);
  EXPECT_EQ(out.budget_max_roots, 512u);
  EXPECT_EQ(out.allow_refinement, 1u);
}

TEST(NetCodec, SubmitShardEncodedAtV1DropsTheBudget) {
  // Version negotiation: a coordinator talking to a v1 worker encodes at
  // v1 — the budget block is not written, and a v2 decoder reading the
  // v1 frame leaves the budget inactive (exact query).
  wire::SubmitShardMsg in = sample_shard();
  in.has_budget = 1;
  in.accuracy_target = 0.25;
  in.budget_max_roots = 256;
  const std::vector<std::uint8_t> v1 = wire::encode(in, 22, 1);
  const std::vector<std::uint8_t> v2 = wire::encode(in, 22, 2);
  EXPECT_EQ(v2.size(), v1.size() + 14);  // u8 + f64 + u32 + u8
  Frame f;
  ASSERT_EQ(extract(v1, f), DecodeStatus::Ok);
  EXPECT_EQ(f.version, 1u);
  wire::SubmitShardMsg out;
  ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  EXPECT_EQ(out.has_budget, 0u);
  EXPECT_EQ(out.accuracy_target, 0.0);
  EXPECT_EQ(out.budget_max_roots, 0u);
}

TEST(NetCodec, MalformedBudgetBytesAreBadValue) {
  wire::SubmitShardMsg in = sample_shard();
  in.has_budget = 1;

  const auto decode_with_target = [&](double target) {
    wire::SubmitShardMsg m = in;
    m.accuracy_target = target;
    Frame f;
    EXPECT_EQ(extract(wire::encode(m, 23), f), DecodeStatus::Ok);
    wire::SubmitShardMsg out;
    return wire::decode(f, out);
  };
  EXPECT_EQ(decode_with_target(std::numeric_limits<double>::quiet_NaN()),
            DecodeStatus::BadValue);
  EXPECT_EQ(decode_with_target(std::numeric_limits<double>::infinity()),
            DecodeStatus::BadValue);
  EXPECT_EQ(decode_with_target(-0.25), DecodeStatus::BadValue);
  EXPECT_EQ(decode_with_target(1.5), DecodeStatus::BadValue);
  EXPECT_EQ(decode_with_target(1.0), DecodeStatus::Ok);

  // Non-boolean flag bytes are out of domain.
  wire::SubmitShardMsg flags = in;
  flags.has_budget = 2;
  Frame f;
  ASSERT_EQ(extract(wire::encode(flags, 24), f), DecodeStatus::Ok);
  wire::SubmitShardMsg out;
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::BadValue);

  // A v2 frame truncated mid-budget is Truncated, never silently v1.
  std::vector<std::uint8_t> bytes = wire::encode(in, 25);
  bytes.resize(bytes.size() - 6);
  const std::uint32_t new_len =
      static_cast<std::uint32_t>(bytes.size() - wire::kHeaderSize);
  bytes[16] = static_cast<std::uint8_t>(new_len);
  bytes[17] = static_cast<std::uint8_t>(new_len >> 8);
  bytes[18] = static_cast<std::uint8_t>(new_len >> 16);
  bytes[19] = static_cast<std::uint8_t>(new_len >> 24);
  ASSERT_EQ(extract(bytes, f), DecodeStatus::Ok);
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::Truncated);
}

TEST(NetCodec, ShardResultEstimateRoundTripV2) {
  wire::ShardResultMsg in;
  in.shard_index = 1;
  in.ok = 1;
  in.roots_processed = 512;
  in.scores = {1.0, 2.0};
  in.has_estimate = 1;
  in.est_roots_used = 512;
  in.est_stderr = 0.014;
  in.est_rung = 1;
  in.est_refining = 1;
  Frame f;
  ASSERT_EQ(extract(wire::encode(in, 26), f), DecodeStatus::Ok);
  wire::ShardResultMsg out;
  ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  EXPECT_EQ(out.has_estimate, 1u);
  EXPECT_EQ(out.est_roots_used, 512u);
  EXPECT_DOUBLE_EQ(out.est_stderr, 0.014);
  EXPECT_EQ(out.est_rung, 1u);
  EXPECT_EQ(out.est_refining, 1u);

  // v1 encoding omits the estimate; the decoder leaves the defaults.
  ASSERT_EQ(extract(wire::encode(in, 27, 1), f), DecodeStatus::Ok);
  wire::ShardResultMsg v1;
  ASSERT_EQ(wire::decode(f, v1), DecodeStatus::Ok);
  EXPECT_EQ(v1.has_estimate, 0u);

  // A negative (or NaN) stderr is out of domain.
  wire::ShardResultMsg bad = in;
  bad.est_stderr = -1.0;
  ASSERT_EQ(extract(wire::encode(bad, 28), f), DecodeStatus::Ok);
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::BadValue);
}

TEST(NetCodec, ShardResultScoresAreBitExact) {
  wire::ShardResultMsg in;
  in.shard_index = 3;
  in.roots_processed = 999;
  in.compute_ms = 12.25;
  // Adversarial doubles: the codec must move raw bit patterns, not values.
  in.scores = {0.0, -0.0, 1.0 / 3.0, std::numeric_limits<double>::infinity(),
               -std::numeric_limits<double>::infinity(),
               std::numeric_limits<double>::quiet_NaN(),
               std::numeric_limits<double>::denorm_min(),
               std::numeric_limits<double>::max()};
  Frame f;
  ASSERT_EQ(extract(wire::encode(in, 1), f), DecodeStatus::Ok);
  wire::ShardResultMsg out;
  ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  ASSERT_EQ(out.scores.size(), in.scores.size());
  for (std::size_t i = 0; i < in.scores.size(); ++i) {
    std::uint64_t a = 0, b = 0;
    std::memcpy(&a, &in.scores[i], sizeof(a));
    std::memcpy(&b, &out.scores[i], sizeof(b));
    EXPECT_EQ(a, b) << "score " << i << " bit pattern changed in transit";
  }
  EXPECT_EQ(out.roots_processed, 999u);
}

TEST(NetCodec, ArrayBytesAreLittleEndian) {
  // The exact wire image of a u32 and an f64 array, whatever the host's
  // byte order: a u32 count, then each element least significant byte
  // first, doubles as their IEEE-754 bit patterns (-0.0, a NaN payload and
  // a denormal included).
  const std::vector<std::uint32_t> ids{0x01020304u, 0xA0B0C0D0u};
  const std::vector<double> scores{-0.0, std::bit_cast<double>(0x7FF800000000ABCDull),
                                   std::bit_cast<double>(0x0000000000000001ull), 1.5};
  std::vector<std::uint8_t> bytes;
  wire::Writer w(bytes);
  w.u32s(ids);
  w.f64s(scores);
  const std::vector<std::uint8_t> want{
      0x02, 0x00, 0x00, 0x00,                          // count
      0x04, 0x03, 0x02, 0x01, 0xD0, 0xC0, 0xB0, 0xA0,  // ids
      0x04, 0x00, 0x00, 0x00,                          // count
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0xCD, 0xAB, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x7F,  // NaN payload
      0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // smallest denormal
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF8, 0x3F,  // 1.5
  };
  EXPECT_EQ(bytes, want);

  wire::Reader r(bytes);
  EXPECT_EQ(r.u32s(), ids);
  const std::vector<double> back = r.f64s();
  EXPECT_TRUE(r.ok());
  EXPECT_TRUE(r.at_end());
  ASSERT_EQ(back.size(), scores.size());
  EXPECT_EQ(0, std::memcmp(back.data(), scores.data(), scores.size() * sizeof(double)));

  // An empty array is its count alone; a short one is a typed failure.
  std::vector<std::uint8_t> empty;
  wire::Writer(empty).f64s({});
  EXPECT_EQ(empty, (std::vector<std::uint8_t>{0, 0, 0, 0}));
  wire::Reader short_read(std::span<const std::uint8_t>(want.data(), 10));
  EXPECT_TRUE(short_read.u32s().empty());
  EXPECT_FALSE(short_read.ok());
}

TEST(NetCodec, RemainingMessagesRoundTrip) {
  Frame f;
  {
    wire::HelloAckMsg in{42, "coord"};
    ASSERT_EQ(extract(wire::encode(in, 2), f), DecodeStatus::Ok);
    wire::HelloAckMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.worker_slot, 42u);
    EXPECT_EQ(out.coordinator_name, "coord");
  }
  {
    wire::GraphLoadedMsg in;
    in.graph_id = "g";
    in.ok = 0;
    in.fingerprint = 0xfeedull;
    in.error = "fingerprint mismatch";
    ASSERT_EQ(extract(wire::encode(in, 3), f), DecodeStatus::Ok);
    wire::GraphLoadedMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.ok, 0u);
    EXPECT_EQ(out.error, "fingerprint mismatch");
  }
  {
    wire::HeartbeatMsg in{123456789ull, 4};
    ASSERT_EQ(extract(wire::encode(in, 4), f), DecodeStatus::Ok);
    wire::HeartbeatMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.seq, 123456789ull);
    EXPECT_EQ(out.inflight, 4u);
  }
  {
    wire::HeartbeatAckMsg in{55};
    ASSERT_EQ(extract(wire::encode(in, 5), f), DecodeStatus::Ok);
    wire::HeartbeatAckMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.seq, 55u);
  }
  {
    wire::QuarantineMsg in{wire::HealthState::Probation, "silent 250ms"};
    ASSERT_EQ(extract(wire::encode(in, 21), f), DecodeStatus::Ok);
    EXPECT_EQ(f.type, MsgType::Quarantine);
    wire::QuarantineMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.state, wire::HealthState::Probation);
    EXPECT_EQ(out.reason, "silent 250ms");
  }
  {
    wire::MutateMsg in;
    in.graph_id = "g";
    in.updates = {{9, 8, 0}};
    in.fingerprint_after = 0xabcull;
    ASSERT_EQ(extract(wire::encode(in, 6), f), DecodeStatus::Ok);
    wire::MutateMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    ASSERT_EQ(out.updates.size(), 1u);
    EXPECT_EQ(out.updates[0].v, 8u);
    EXPECT_EQ(out.fingerprint_after, 0xabcull);
  }
  {
    wire::MutateDoneMsg in;
    in.graph_id = "g";
    in.fingerprint = 0x42ull;
    ASSERT_EQ(extract(wire::encode(in, 7), f), DecodeStatus::Ok);
    wire::MutateDoneMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.fingerprint, 0x42ull);
  }
  {
    ASSERT_EQ(extract(wire::encode(wire::DrainMsg{}, 8), f), DecodeStatus::Ok);
    wire::DrainMsg out;
    EXPECT_EQ(wire::decode(f, out), DecodeStatus::Ok);
  }
  {
    wire::GoodbyeMsg in{"drained"};
    ASSERT_EQ(extract(wire::encode(in, 9), f), DecodeStatus::Ok);
    wire::GoodbyeMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.reason, "drained");
  }
  {
    wire::ErrorMsg in{7, "boom"};
    ASSERT_EQ(extract(wire::encode(in, 10), f), DecodeStatus::Ok);
    wire::ErrorMsg out;
    ASSERT_EQ(wire::decode(f, out), DecodeStatus::Ok);
    EXPECT_EQ(out.code, 7u);
    EXPECT_EQ(out.message, "boom");
  }
}

// --- malformed input: the typed-error contract ---------------------------

TEST(NetCodec, EveryPrefixOfAValidFrameNeedsMore) {
  const std::vector<std::uint8_t> full = wire::encode(sample_shard(), 11);
  Frame f;
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> prefix(full.begin(),
                                     full.begin() + static_cast<std::ptrdiff_t>(len));
    std::size_t consumed = 0;
    EXPECT_EQ(wire::extract_frame(prefix, f, consumed), DecodeStatus::NeedMore)
        << "prefix length " << len;
    EXPECT_EQ(consumed, 0u);
  }
  EXPECT_EQ(extract(full, f), DecodeStatus::Ok);
}

TEST(NetCodec, TruncatedPayloadIsTypedNotUB) {
  // Valid frame, then shave bytes off the payload AND fix the length
  // prefix so extract succeeds but the typed decode hits the wall.
  const std::vector<std::uint8_t> full = wire::encode(sample_shard(), 12);
  for (std::size_t cut = 1; cut < full.size() - wire::kHeaderSize; ++cut) {
    std::vector<std::uint8_t> bytes(full.begin(),
                                    full.end() - static_cast<std::ptrdiff_t>(cut));
    const std::uint32_t new_len =
        static_cast<std::uint32_t>(bytes.size() - wire::kHeaderSize);
    bytes[16] = static_cast<std::uint8_t>(new_len);
    bytes[17] = static_cast<std::uint8_t>(new_len >> 8);
    bytes[18] = static_cast<std::uint8_t>(new_len >> 16);
    bytes[19] = static_cast<std::uint8_t>(new_len >> 24);
    Frame f;
    ASSERT_EQ(extract(bytes, f), DecodeStatus::Ok) << "cut " << cut;
    wire::SubmitShardMsg out;
    const DecodeStatus s = wire::decode(f, out);
    EXPECT_TRUE(s == DecodeStatus::Truncated || s == DecodeStatus::BadValue ||
                s == DecodeStatus::TrailingBytes)
        << "cut " << cut << " -> status " << static_cast<int>(s);
    EXPECT_NE(s, DecodeStatus::Ok) << "cut " << cut;
  }
}

TEST(NetCodec, OversizeLengthPrefixIsRejectedWithoutAllocation) {
  std::vector<std::uint8_t> bytes = wire::encode(wire::DrainMsg{}, 13);
  // Claim a payload just over the cap; no such bytes follow. The codec
  // must reject on the prefix alone — not wait for 64 MiB that never comes.
  const std::uint32_t huge = wire::kMaxPayload + 1;
  bytes[16] = static_cast<std::uint8_t>(huge);
  bytes[17] = static_cast<std::uint8_t>(huge >> 8);
  bytes[18] = static_cast<std::uint8_t>(huge >> 16);
  bytes[19] = static_cast<std::uint8_t>(huge >> 24);
  Frame f;
  EXPECT_EQ(extract(bytes, f), DecodeStatus::Oversize);
}

TEST(NetCodec, HostileArrayCountIsValidatedBeforeAllocating) {
  // A ShardResult whose score *count* claims 2^29 doubles but whose
  // payload holds none: the decoder must fail typed, not allocate 4 GiB.
  // Encode at v1, where the u32 count of the empty scores array is the
  // payload's last 4 bytes (v2 appends the estimate block after it).
  std::vector<std::uint8_t> bytes = wire::encode(wire::ShardResultMsg{}, 14, 1);
  ASSERT_GE(bytes.size(), 4u);
  bytes[bytes.size() - 4] = 0x00;
  bytes[bytes.size() - 3] = 0x00;
  bytes[bytes.size() - 2] = 0x00;
  bytes[bytes.size() - 1] = 0x20;  // 0x20000000 = 2^29 elements
  Frame f;
  ASSERT_EQ(extract(bytes, f), DecodeStatus::Ok);
  wire::ShardResultMsg out;
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::Truncated);
  EXPECT_TRUE(out.scores.empty());
}

TEST(NetCodec, BadMagicBadVersionUnknownType) {
  const std::vector<std::uint8_t> good = wire::encode(wire::DrainMsg{}, 15);
  Frame f;
  {
    std::vector<std::uint8_t> bytes = good;
    bytes[0] = 'X';
    EXPECT_EQ(extract(bytes, f), DecodeStatus::BadMagic);
  }
  {
    std::vector<std::uint8_t> bytes = good;
    bytes[4] = static_cast<std::uint8_t>(wire::kProtocolVersion + 1);
    EXPECT_EQ(extract(bytes, f), DecodeStatus::BadVersion);
  }
  {
    std::vector<std::uint8_t> bytes = good;
    bytes[6] = 200;  // no MsgType lives here
    bytes[7] = 0;
    EXPECT_EQ(extract(bytes, f), DecodeStatus::UnknownType);
  }
  {
    std::vector<std::uint8_t> bytes = good;
    bytes[6] = 0;  // type 0 is reserved / invalid
    bytes[7] = 0;
    EXPECT_EQ(extract(bytes, f), DecodeStatus::UnknownType);
  }
}

TEST(NetCodec, TrailingBytesInPayloadAreTyped) {
  wire::GoodbyeMsg in{"bye"};
  std::vector<std::uint8_t> bytes = wire::encode(in, 16);
  // Append junk to the payload and patch the length prefix to cover it.
  bytes.push_back(0xAA);
  bytes.push_back(0xBB);
  const std::uint32_t new_len =
      static_cast<std::uint32_t>(bytes.size() - wire::kHeaderSize);
  bytes[16] = static_cast<std::uint8_t>(new_len);
  bytes[17] = static_cast<std::uint8_t>(new_len >> 8);
  Frame f;
  ASSERT_EQ(extract(bytes, f), DecodeStatus::Ok);
  wire::GoodbyeMsg out;
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::TrailingBytes);
}

TEST(NetCodec, OutOfDomainEnumsAreBadValue) {
  wire::SubmitShardMsg in = sample_shard();
  const std::vector<std::uint8_t> good = wire::encode(in, 17);
  // Find the mode byte by brute force: flip each payload byte to 0xFF and
  // require that NO single-byte corruption ever crashes; specifically the
  // mode/strategy corruptions must surface BadValue.
  std::size_t bad_value_seen = 0;
  for (std::size_t i = wire::kHeaderSize; i < good.size(); ++i) {
    std::vector<std::uint8_t> bytes = good;
    bytes[i] = 0xFF;
    Frame f;
    if (extract(bytes, f) != DecodeStatus::Ok) continue;
    wire::SubmitShardMsg out;
    const DecodeStatus s = wire::decode(f, out);
    if (s == DecodeStatus::BadValue) ++bad_value_seen;
  }
  // mode, strategy, halve, normalize are all range-checked single bytes.
  EXPECT_GE(bad_value_seen, 4u);
}

TEST(NetCodec, QuarantineStateOutOfDomainIsBadValue) {
  // HealthState is a range-checked u8 (the first payload byte): 3 names no
  // state and must surface typed, not be cast into the enum.
  std::vector<std::uint8_t> bytes =
      wire::encode(wire::QuarantineMsg{wire::HealthState::Healthy, "ok"}, 22);
  bytes[wire::kHeaderSize] = 3;
  Frame f;
  ASSERT_EQ(extract(bytes, f), DecodeStatus::Ok);
  wire::QuarantineMsg out;
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::BadValue);
}

TEST(NetCodec, WrongFrameTypeForDecodeIsBadValue) {
  Frame f;
  ASSERT_EQ(extract(wire::encode(wire::DrainMsg{}, 18), f), DecodeStatus::Ok);
  wire::HelloMsg out;
  EXPECT_EQ(wire::decode(f, out), DecodeStatus::BadValue);
}

// --- deterministic mutation fuzz ----------------------------------------

TEST(NetCodec, MutationFuzzNeverCrashesAndStatusesAreTyped) {
  // Seeded Xoshiro mutations over every message type: random byte flips,
  // truncations, and splices. The property is "total function": every
  // input yields a DecodeStatus, and under ASan, no read strays.
  hbc::util::Xoshiro256 rng(20260809);
  std::vector<std::vector<std::uint8_t>> corpus;
  corpus.push_back(wire::encode(sample_shard(), 1));
  {
    wire::HelloMsg m;
    m.worker_name = "fuzz";
    corpus.push_back(wire::encode(m, 2));
  }
  {
    wire::LoadGraphMsg m;
    m.graph_id = "g";
    m.spec = "gen:rgg:10";
    m.updates = {{1, 2, 1}, {2, 3, 0}};
    corpus.push_back(wire::encode(m, 3));
  }
  {
    wire::ShardResultMsg m;
    m.scores = {1.0, 2.0, 3.0, 4.0};
    corpus.push_back(wire::encode(m, 4));
  }
  // Both protocol versions of the versioned messages: the mutations must
  // exercise the v1 (no trailing block) and v2 (required block) decoders.
  corpus.push_back(wire::encode(sample_shard(), 9, 1));
  {
    wire::ShardResultMsg m;
    m.scores = {5.0, 6.0};
    m.has_estimate = 1;
    m.est_roots_used = 256;
    corpus.push_back(wire::encode(m, 10, 1));
    corpus.push_back(wire::encode(m, 11, 2));
  }
  corpus.push_back(wire::encode(wire::ErrorMsg{1, "x"}, 5));
  corpus.push_back(wire::encode(wire::HeartbeatMsg{99, 2}, 6));
  corpus.push_back(wire::encode(wire::HeartbeatAckMsg{99}, 7));
  corpus.push_back(
      wire::encode(wire::QuarantineMsg{wire::HealthState::Quarantined, "chaos"}, 8));

  int ok_count = 0;
  for (int iter = 0; iter < 20000; ++iter) {
    std::vector<std::uint8_t> bytes = corpus[rng.next() % corpus.size()];
    const int mutations = 1 + static_cast<int>(rng.next() % 8);
    for (int k = 0; k < mutations; ++k) {
      switch (rng.next() % 4) {
        case 0:  // flip a byte
          if (!bytes.empty()) {
            bytes[rng.next() % bytes.size()] =
                static_cast<std::uint8_t>(rng.next());
          }
          break;
        case 1:  // truncate
          if (!bytes.empty()) bytes.resize(rng.next() % bytes.size());
          break;
        case 2:  // append junk
          bytes.push_back(static_cast<std::uint8_t>(rng.next()));
          break;
        case 3:  // splice another corpus entry's tail on
          if (!bytes.empty()) {
            const auto& other = corpus[rng.next() % corpus.size()];
            const std::size_t at = rng.next() % other.size();
            bytes.insert(bytes.end(), other.begin() + static_cast<std::ptrdiff_t>(at),
                         other.end());
          }
          break;
      }
    }
    Frame f;
    std::size_t consumed = 0;
    const DecodeStatus s =
        wire::extract_frame(std::span<const std::uint8_t>(bytes), f, consumed);
    ASSERT_LE(static_cast<int>(s), static_cast<int>(DecodeStatus::BadValue));
    if (s != DecodeStatus::Ok) continue;
    ++ok_count;
    ASSERT_LE(consumed, bytes.size());
    // Whatever type the mutated header claims: decode as that type AND as
    // a mismatched type; both must return a typed status.
    wire::SubmitShardMsg shard;
    wire::ShardResultMsg result;
    wire::LoadGraphMsg load;
    wire::HelloMsg hello;
    wire::ErrorMsg err;
    wire::HeartbeatMsg hb;
    wire::HeartbeatAckMsg hba;
    wire::QuarantineMsg quarantine;
    (void)wire::decode(f, shard);
    (void)wire::decode(f, result);
    (void)wire::decode(f, load);
    (void)wire::decode(f, hello);
    (void)wire::decode(f, err);
    (void)wire::decode(f, hb);
    (void)wire::decode(f, hba);
    (void)wire::decode(f, quarantine);
  }
  // The corpus is valid frames, so un-truncating mutations often survive
  // frame extraction — the fuzz must actually reach the payload decoders.
  EXPECT_GT(ok_count, 100);
}

TEST(NetCodec, StreamReassemblyAcrossArbitrarySplits) {
  // Concatenate several frames and feed the stream one byte at a time —
  // the receive-loop shape Conn::next_frame relies on.
  std::vector<std::uint8_t> stream;
  const std::vector<std::uint8_t> f1 = wire::encode(sample_shard(), 100);
  wire::ShardResultMsg r;
  r.scores = {0.5, 1.5};
  const std::vector<std::uint8_t> f2 = wire::encode(r, 101);
  const std::vector<std::uint8_t> f3 = wire::encode(wire::GoodbyeMsg{"eof"}, 102);
  stream.insert(stream.end(), f1.begin(), f1.end());
  stream.insert(stream.end(), f2.begin(), f2.end());
  stream.insert(stream.end(), f3.begin(), f3.end());

  std::vector<std::uint8_t> buf;
  std::vector<MsgType> seen;
  for (const std::uint8_t b : stream) {
    buf.push_back(b);
    for (;;) {
      Frame f;
      std::size_t consumed = 0;
      const DecodeStatus s =
          wire::extract_frame(std::span<const std::uint8_t>(buf), f, consumed);
      if (s == DecodeStatus::NeedMore) break;
      ASSERT_EQ(s, DecodeStatus::Ok);
      seen.push_back(f.type);
      buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
  }
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen[0], MsgType::SubmitShard);
  EXPECT_EQ(seen[1], MsgType::ShardResult);
  EXPECT_EQ(seen[2], MsgType::Goodbye);
  EXPECT_TRUE(buf.empty());
}
