#include "service/progressive.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>
#include <stdexcept>
#include <vector>

#include "service/cache.hpp"

namespace hbc::service {

std::size_t effective_root_cap(const QueryBudget& budget, std::size_t n) {
  if (budget.max_roots == 0) return n;
  return std::min<std::size_t>(budget.max_roots, n);
}

bool contract_met(const Estimate& estimate, const QueryBudget& budget,
                  std::size_t n) {
  if (estimate.roots_used >= n) return true;  // saturated: exact
  if (estimate.roots_used >= effective_root_cap(budget, n)) return true;
  return budget.accuracy_target > 0.0 &&
         estimate.stderr_est <= budget.accuracy_target;
}

std::string approx_key(std::uint64_t fingerprint, const core::Options& options,
                       const core::StratumPlan& plan) {
  return fingerprint_prefix(fingerprint) + core::approx_signature(options, plan);
}

std::string budget_suffix(const QueryBudget& budget) {
  char buf[96];
  std::snprintf(buf, sizeof(buf), ";target=%.17g;cap=%u;refine=%d",
                budget.accuracy_target, budget.max_roots,
                budget.allow_refinement ? 1 : 0);
  return buf;
}

namespace {

/// Rebuild the published result and estimate from the fold (caller holds
/// entry.mu), unless they already reflect it.
void publish_locked(ApproxEntry& entry, const core::Options& options) {
  const core::RefinableEstimate& est = entry.est;
  if (entry.published && entry.info.roots_used == est.roots_used()) return;
  auto result = std::make_shared<core::BCResult>();
  result->strategy = options.strategy;
  result->scores = est.scores(options.halve_undirected, options.normalize);
  result->roots_processed = est.roots_used();
  result->approximate = !est.saturated();
  result->time_seconds = entry.accum_seconds;
  result->wall_seconds = entry.accum_seconds;
  entry.published = std::move(result);
  entry.info.roots_used = est.roots_used();
  entry.info.stderr_est = est.reported_error();
  entry.info.rung = est.rung();
  entry.info.refining = false;  // response-scoped; set by the serving path
}

/// Rung 0 is the plan's base strata (at least 2), capped by saturation.
/// Estimates publish from here on; before it they have no variance and
/// therefore no error to report.
bool rung0_done_locked(const core::RefinableEstimate& est) {
  const core::StratumPlan& plan = est.plan();
  const std::uint32_t rung0_strata =
      std::min(std::max<std::uint32_t>(plan.base_strata, 2),
               std::max<std::uint32_t>(core::total_strata(est.num_vertices(), plan), 1));
  return est.strata_folded() >= rung0_strata || est.saturated();
}

Estimate estimate_locked(const core::RefinableEstimate& est) {
  Estimate e;
  e.roots_used = est.roots_used();
  e.stderr_est = est.reported_error();
  e.rung = est.rung();
  return e;
}

/// An entry's contract state, read in one critical section.
struct Progress {
  /// roots_used, stderr_est and rung of the fold so far (refining false).
  Estimate estimate;
  /// Rung 0 (the plan's base strata, capped by saturation) is folded: the
  /// estimate has a variance, so it may be published and served.
  bool rung0_done = false;
  bool invalidated = false;
};

Progress progress(ApproxEntry& entry) {
  std::lock_guard<std::mutex> lock(entry.mu);
  Progress p;
  p.estimate = estimate_locked(entry.est);
  p.rung0_done = rung0_done_locked(entry.est);
  p.invalidated = entry.invalidated;
  return p;
}

/// One stratum: take the next stratum's roots, compute them through `run`,
/// fold the sums, publish once rung 0 is folded, and re-account the entry
/// in `cache`. Returns the estimate after the fold, or nullopt without
/// folding when `keep_valid` and the entry was invalidated while the
/// stratum ran. Call with the entry unsaturated; propagates whatever `run`
/// throws (the entry is then untouched).
std::optional<Estimate> fold_next_stratum(ApproxCache& cache,
                                          const std::shared_ptr<ApproxEntry>& entry,
                                          const core::Options& options,
                                          const StratumFn& run, bool keep_valid) {
  core::Options stratum = options;
  std::size_t n = 0;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    n = entry->est.num_vertices();
    stratum.roots = entry->est.next_stratum_roots();
  }
  // Empty roots would mean "every vertex" to the executor.
  if (stratum.roots.empty()) {
    throw std::logic_error("fold_next_stratum: estimate is already saturated");
  }
  const std::size_t stratum_roots = stratum.roots.size();
  stratum.sample_roots = 0;
  stratum.halve_undirected = false;
  stratum.normalize = false;
  const StratumRun r = run(std::move(stratum));
  if (r.scores.size() != n) throw std::runtime_error("stratum compute incomplete");

  Estimate after;
  {
    std::lock_guard<std::mutex> lock(entry->mu);
    if (keep_valid && entry->invalidated) return std::nullopt;
    entry->est.fold(r.scores, stratum_roots);
    entry->accum_seconds += r.seconds;
    if (rung0_done_locked(entry->est)) publish_locked(*entry, options);
    after = estimate_locked(entry->est);
  }
  cache.note_growth(entry);
  return after;
}

}  // namespace

ContractRun advance_contract(ApproxCache& cache, const std::shared_ptr<ApproxEntry>& entry,
                             const core::Options& options, const QueryBudget& budget,
                             bool pause_at_rung0, const StratumFn& run,
                             const util::CancelToken& cancel,
                             const std::function<bool()>& queue_refinement) {
  const std::size_t n = entry->est.num_vertices();
  ContractRun out;
  bool queued = false;
  for (;;) {
    const util::CancelReason cancelled = cancel.state();
    if (cancelled == util::CancelReason::Manual) throw util::Cancelled(cancelled);
    const Progress now = progress(*entry);
    const bool met = contract_met(now.estimate, budget, n);
    if (met || (now.rung0_done && (pause_at_rung0 || cancelled != util::CancelReason::None))) {
      queued = !met && pause_at_rung0 && queue_refinement();
      break;
    }
    if (cancelled != util::CancelReason::None) throw util::Cancelled(cancelled);
    try {
      fold_next_stratum(cache, entry, options, run, /*keep_valid=*/false);
    } catch (const util::Cancelled& c) {
      if (c.reason() != util::CancelReason::Deadline || !now.rung0_done) throw;
      break;  // the stratum ran out of time: serve what is published
    }
    out.computed = true;
  }
  // Bring the published result up to date with the fold (a no-op when no
  // stratum landed since the last publication).
  std::lock_guard<std::mutex> lock(entry->mu);
  publish_locked(*entry, options);
  out.result = entry->published;
  out.estimate = entry->info;
  out.estimate.refining = queued || entry->refine_pending > 0;
  return out;
}

RefineStep refine_step(ApproxCache& cache, const std::shared_ptr<ApproxEntry>& entry,
                       const core::Options& options, const QueryBudget& budget,
                       const StratumFn& run) {
  const std::size_t n = entry->est.num_vertices();
  const Progress before = progress(*entry);
  RefineStep step;
  if (before.invalidated) {
    step.outcome = RefineOutcome::Dropped;
    return step;
  }
  if (contract_met(before.estimate, budget, n)) return step;
  // Invalidation is checked after the stratum too: one that ran while its
  // entry was invalidated is dropped, whether it returned or threw.
  std::optional<Estimate> after;
  try {
    after = fold_next_stratum(cache, entry, options, run, /*keep_valid=*/true);
  } catch (...) {
    if (!progress(*entry).invalidated) throw;
  }
  if (!after) {
    step.outcome = RefineOutcome::Dropped;
    return step;
  }
  step.outcome = RefineOutcome::Folded;
  step.after = *after;
  step.done = contract_met(step.after, budget, n);
  step.new_rung = step.after.rung > before.estimate.rung || step.after.roots_used >= n;
  return step;
}

std::size_t ApproxCache::entry_bytes(ApproxEntry& e) {
  std::lock_guard<std::mutex> lock(e.mu);
  std::size_t b = sizeof(ApproxEntry) + e.key.capacity() + e.est.bytes();
  if (e.published) b += e.published->scores.capacity() * sizeof(double);
  return b;
}

std::shared_ptr<ApproxEntry> ApproxCache::get(const std::string& key) {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = index_.find(key);
  if (it == index_.end()) return nullptr;
  lru_.splice(lru_.begin(), lru_, it->second);  // touch
  return *it->second;
}

std::shared_ptr<ApproxEntry> ApproxCache::get_or_create(
    const std::string& key, std::size_t n, const core::StratumPlan& plan,
    std::uint64_t seed, std::uint64_t fingerprint, bool& created) {
  created = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = index_.find(key);
    if (it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return *it->second;
    }
  }
  auto entry = std::make_shared<ApproxEntry>();
  entry->key = key;
  entry->fingerprint = fingerprint;
  entry->est = core::RefinableEstimate(n, plan, seed);
  created = true;
  if (budget_ == 0) return entry;  // detached: computed but never retained
  const std::size_t b = entry_bytes(*entry);
  std::lock_guard<std::mutex> lock(mu_);
  // Lost a creation race: serve the incumbent so both requests refine
  // one fold (the loser's fresh estimate is dropped untouched).
  const auto it = index_.find(key);
  if (it != index_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    created = false;
    return *it->second;
  }
  entry->accounted_bytes = b;
  bytes_ += b;
  lru_.push_front(entry);
  index_[key] = lru_.begin();
  evict_over_budget_locked(entry);
  return entry;
}

void ApproxCache::note_growth(const std::shared_ptr<ApproxEntry>& keep) {
  if (budget_ == 0 || !keep) return;
  const std::size_t b = entry_bytes(*keep);
  std::lock_guard<std::mutex> lock(mu_);
  // Identity check, not just key presence: an invalidated entry's key may
  // have been re-created by a fresh entry, and growth of the detached one
  // must not be charged to the cache.
  const auto it = index_.find(keep->key);
  if (it == index_.end() || it->second->get() != keep.get()) return;
  bytes_ -= keep->accounted_bytes;
  keep->accounted_bytes = b;
  bytes_ += b;
  evict_over_budget_locked(keep);
}

void ApproxCache::evict_over_budget_locked(const std::shared_ptr<ApproxEntry>& keep) {
  while (bytes_ > budget_ && !lru_.empty()) {
    const std::shared_ptr<ApproxEntry> victim = lru_.back();
    if (victim == keep) break;  // never evict the entry being served
    lru_.pop_back();
    index_.erase(victim->key);
    bytes_ -= victim->accounted_bytes;
    victim->accounted_bytes = 0;
    ++evictions_;
    std::lock_guard<std::mutex> entry_lock(victim->mu);
    victim->invalidated = true;
  }
}

std::size_t ApproxCache::invalidate_prefix(const std::string& prefix) {
  std::vector<std::shared_ptr<ApproxEntry>> dropped;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = index_.begin(); it != index_.end();) {
      if (it->first.compare(0, prefix.size(), prefix) == 0) {
        dropped.push_back(*it->second);
        bytes_ -= (*it->second)->accounted_bytes;
        (*it->second)->accounted_bytes = 0;
        lru_.erase(it->second);
        it = index_.erase(it);
      } else {
        ++it;
      }
    }
  }
  for (const auto& e : dropped) {
    std::lock_guard<std::mutex> lock(e->mu);
    e->invalidated = true;
  }
  return dropped.size();
}

std::size_t ApproxCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return index_.size();
}

std::size_t ApproxCache::bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_;
}

std::uint64_t ApproxCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

}  // namespace hbc::service
