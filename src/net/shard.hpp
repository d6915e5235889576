#pragma once

// Shared shard-message ↔ core::Options translation. The coordinator
// builds every SubmitShard with shard_from_options; the worker executes it
// with options_from_shard, and so does the coordinator's local-fallback
// path — one translation each way, so a shard computed locally is
// bit-identical to the same shard computed remotely by construction. A
// shard is a raw run of exactly its roots: the options it yields never
// sample, halve or normalize (finalization happens on the coordinator).

#include "core/bc.hpp"
#include "net/wire.hpp"

namespace hbc::net {

inline core::Options options_from_shard(const wire::SubmitShardMsg& m) {
  core::Options o;
  o.strategy = static_cast<core::Strategy>(m.strategy);
  o.roots.assign(m.roots.begin(), m.roots.end());
  o.cpu_threads = m.cpu_threads;
  o.resilience.max_root_attempts = m.max_root_attempts;
  // 0 = "use the worker's default device"; the tuning params are copied
  // verbatim (the coordinator always fills them from the request, and they
  // steer score-affecting decisions like the hybrid's mode switches).
  if (m.device_num_sms != 0) o.device.num_sms = m.device_num_sms;
  o.hybrid.alpha = m.hybrid_alpha;
  o.hybrid.beta = m.hybrid_beta;
  o.sampling.n_samps = m.sampling_n_samps;
  o.sampling.gamma = m.sampling_gamma;
  o.sampling.min_frontier = m.sampling_min_frontier;
  return o;
}

/// The options half of a SubmitShard: `o.roots` and every field of `o`
/// that steers a raw run of them. The caller fills the routing fields
/// (graph id, fingerprint, shard index, deadline).
inline wire::SubmitShardMsg shard_from_options(const core::Options& o) {
  wire::SubmitShardMsg m;
  m.strategy = static_cast<std::uint8_t>(o.strategy);
  m.roots.assign(o.roots.begin(), o.roots.end());
  m.cpu_threads = static_cast<std::uint32_t>(o.cpu_threads);
  m.max_root_attempts = o.resilience.max_root_attempts;
  m.device_num_sms = o.device.num_sms;
  m.hybrid_alpha = o.hybrid.alpha;
  m.hybrid_beta = o.hybrid.beta;
  m.sampling_n_samps = o.sampling.n_samps;
  m.sampling_gamma = o.sampling.gamma;
  m.sampling_min_frontier = o.sampling.min_frontier;
  return m;
}

}  // namespace hbc::net
