#include "service/cache.hpp"

#include <cstdio>

namespace hbc::service {

std::uint64_t graph_fingerprint(const graph::CSRGraph& g) noexcept {
  return g.fingerprint();
}

std::string fingerprint_prefix(std::uint64_t fingerprint) {
  char buf[2 + 16 + 2];
  std::snprintf(buf, sizeof(buf), "%016llx|", static_cast<unsigned long long>(fingerprint));
  return buf;
}

std::string cache_key(std::uint64_t fingerprint, const core::Options& options) {
  return fingerprint_prefix(fingerprint) + core::options_signature(options);
}

std::size_t estimate_result_bytes(const core::BCResult& r) noexcept {
  std::size_t bytes = sizeof(core::BCResult);
  bytes += r.scores.capacity() * sizeof(double);
  bytes += r.sums.bytes();
  bytes += r.per_root.capacity() * sizeof(kernels::PerRootStats);
  bytes += r.kernel_metrics.per_root_cycles.capacity() * sizeof(std::uint64_t);
  return bytes;
}

ResultCache::ResultCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

std::shared_ptr<const CachedResult> ResultCache::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) {
    ++misses_;
    return nullptr;
  }
  lru_.splice(lru_.begin(), lru_, it->second);  // promote to MRU
  ++hits_;
  return it->second->second;
}

void ResultCache::put(const std::string& key, std::shared_ptr<const CachedResult> value) {
  if (!value) return;
  std::lock_guard<std::mutex> lock(mu_);
  if (value->bytes > budget_) return;  // can never fit; don't thrash the rest

  if (const auto it = index_.find(key); it != index_.end()) {
    bytes_ -= it->second->second->bytes;
    lru_.erase(it->second);
    index_.erase(it);
  }

  bytes_ += value->bytes;
  lru_.emplace_front(key, std::move(value));
  index_[key] = lru_.begin();

  while (bytes_ > budget_ && !lru_.empty()) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.second->bytes;
    index_.erase(victim.first);
    lru_.pop_back();
    ++evictions_;
  }
}

std::size_t ResultCache::erase_if(const std::function<bool(const std::string&)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  std::size_t removed = 0;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (pred(it->first)) {
      bytes_ -= it->second->bytes;
      index_.erase(it->first);
      it = lru_.erase(it);
      ++removed;
    } else {
      ++it;
    }
  }
  return removed;
}

std::vector<std::pair<std::string, std::shared_ptr<const CachedResult>>>
ResultCache::extract_if(const std::function<bool(const std::string&)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<std::string, std::shared_ptr<const CachedResult>>> out;
  for (auto it = lru_.begin(); it != lru_.end();) {
    if (pred(it->first)) {
      bytes_ -= it->second->bytes;
      index_.erase(it->first);
      out.emplace_back(std::move(it->first), std::move(it->second));
      it = lru_.erase(it);
    } else {
      ++it;
    }
  }
  return out;
}

std::size_t ResultCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return lru_.size();
}

std::size_t ResultCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t ResultCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

std::uint64_t ResultCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace hbc::service
