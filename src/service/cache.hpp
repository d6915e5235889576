#pragma once

// LRU result cache for the BC query service.
//
// Results are keyed on (graph fingerprint, core::options_signature) — see
// docs/serving.md for the canonicalization rules — and evicted least-
// recently-used under a byte budget sized from the dominant cost of a
// cached entry: the n-element double score vector (plus any per-root
// diagnostics the computation recorded).
//
// The cache stores shared_ptr<const CachedResult> so a hit shares the
// score vector with every concurrent reader instead of copying it; an
// entry evicted while responses still reference it stays alive until the
// last reader drops it.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include <unordered_map>

#include "core/bc.hpp"
#include "graph/csr.hpp"

namespace hbc::service {

/// Structural graph identity for cache keys: forwards to
/// graph::CSRGraph::fingerprint() (64-bit FNV-1a over the CSR arrays plus
/// vertex/edge counts and the undirected flag — the same stamp
/// dyn::VersionedGraph puts on epochs). Computed once per loaded graph
/// (O(n + m)) and reused in every cache key, so two graphs with identical
/// structure share cached results even when registered under different
/// names.
std::uint64_t graph_fingerprint(const graph::CSRGraph& g) noexcept;

/// Leading component of every cache key for this graph ("<hex fp>|").
/// Exposed so the service can drop a graph's entries by prefix on evict.
std::string fingerprint_prefix(std::uint64_t fingerprint);

/// The exact-cache key of `options` on the graph with `fingerprint`.
std::string cache_key(std::uint64_t fingerprint, const core::Options& options);

struct CachedResult {
  core::BCResult result;
  std::size_t bytes = 0;  // budget charge, from estimate_result_bytes
  /// Eligible for incremental patching when the graph mutates: an exact
  /// full-BC result with raw (unhalved, unnormalized) scores, so
  /// dyn::refresh_scores can advance it across an epoch transition. Set by
  /// the service worker at insert time (it knows the request's Options;
  /// the result alone can't reveal score scaling). Entries that are
  /// approximate, root-restricted, or rescaled are invalidated instead.
  bool refreshable = false;
};

/// Approximate heap footprint of a BCResult: scores + exact sums (when it
/// holds them) + per-root diagnostics + fixed overhead. Used to charge entries against the cache byte budget.
std::size_t estimate_result_bytes(const core::BCResult& r) noexcept;

class ResultCache {
 public:
  /// budget_bytes == 0 disables caching entirely (every get misses, every
  /// put is dropped) — useful for benchmarking the cold path.
  explicit ResultCache(std::size_t budget_bytes);

  /// Lookup; a hit promotes the entry to most-recently-used.
  std::shared_ptr<const CachedResult> get(const std::string& key);

  /// Insert (or replace) and evict least-recently-used entries until the
  /// total charge fits the budget. An entry larger than the whole budget
  /// is not cached at all.
  void put(const std::string& key, std::shared_ptr<const CachedResult> value);

  /// Drop every entry whose key satisfies the predicate (e.g. all results
  /// of an evicted graph, matched by fingerprint prefix). Returns the
  /// number of entries removed. Not counted as budget evictions.
  std::size_t erase_if(const std::function<bool(const std::string&)>& pred);

  /// Remove and return every entry whose key satisfies the predicate, in
  /// LRU order (most recently used first — the mutation refresher patches
  /// the hottest entries inside its budget and drops the tail). Not
  /// counted as budget evictions.
  std::vector<std::pair<std::string, std::shared_ptr<const CachedResult>>> extract_if(
      const std::function<bool(const std::string&)>& pred);

  std::size_t size() const;
  std::size_t bytes() const;
  std::size_t budget_bytes() const noexcept { return budget_; }

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  std::uint64_t evictions() const;

 private:
  using Entry = std::pair<std::string, std::shared_ptr<const CachedResult>>;

  // mu_ guards everything below. front() of lru_ is most recently used.
  mutable std::mutex mu_;
  std::list<Entry> lru_;
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
  std::size_t budget_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::uint64_t evictions_ = 0;
};

}  // namespace hbc::service
