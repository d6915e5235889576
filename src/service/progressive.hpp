#pragma once

// service::progressive — accuracy-contract serving types and the
// refinable result cache (docs/serving.md § Accuracy contracts,
// DESIGN.md §11).
//
// A Request may carry a QueryBudget instead of (or alongside) exact
// options. An active budget switches the service onto the progressive
// path: the adaptive controller computes root strata (core::approx)
// rung by rung — 256, 512, 1024, ... roots with the default plan —
// until the contract is met, and every Response carries an Estimate
// describing what the caller actually got. With allow_refinement the
// service answers at rung 0 and keeps upgrading the cached estimate in
// the background, at lower priority than foreground queries.
//
// The ApproxCache is the refinable complement of ResultCache: an entry
// holds the raw per-stratum fold (core::RefinableEstimate), so a later
// query with a stricter contract upgrades it in place by computing only
// the additional strata — bitwise-identical to a from-scratch run at
// the larger root count. Entries are keyed by fingerprint prefix +
// core::approx_signature, so mutation/eviction invalidate by the same
// prefix discipline as the exact cache; invalidation both unlinks the
// entry and flags it, and background refinement drops flagged entries
// instead of resurrecting them.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/approx.hpp"
#include "core/bc.hpp"
#include "util/cancel.hpp"

namespace hbc::service {

/// The accuracy/latency contract of one request. Default-constructed
/// (inactive) budgets leave the request on the classic exact path with
/// byte-identical options signatures.
struct QueryBudget {
  /// Target relative standard error (inter-stratum; see core::approx).
  /// The controller adds rungs until the reported error is at or below
  /// this. 0 = no accuracy clause.
  double accuracy_target = 0.0;
  /// Total submit→response budget of every request, exact or budgeted;
  /// 0 = none. Expiry while queued (or blocked on admission) yields
  /// DeadlineExceeded immediately; expiry mid-compute cancels the run
  /// cooperatively at the next root boundary and yields DeadlineExceeded
  /// then (docs/resilience.md). A deadline alone does not activate the
  /// budget.
  std::chrono::milliseconds deadline{0};
  /// Hard cap on sampled roots (rounded up to a stratum boundary).
  /// 0 = no cap (the graph's vertex count). A budget with only a cap
  /// behaves like a deterministic sampled query that can later be
  /// upgraded in place.
  std::uint32_t max_roots = 0;
  /// Serve the first rung synchronously and keep refining toward the
  /// contract in the background (Response::estimate.refining = true).
  bool allow_refinement = false;

  /// An active budget routes the request onto the progressive path.
  bool active() const noexcept { return accuracy_target > 0.0 || max_roots > 0; }

  /// When a request that started at `start` expires; time_point::max()
  /// when it has no deadline.
  std::chrono::steady_clock::time_point expires(
      std::chrono::steady_clock::time_point start) const noexcept {
    return deadline.count() > 0 ? start + deadline
                                : std::chrono::steady_clock::time_point::max();
  }
};

/// What an approximate response actually delivered. Present on every
/// budgeted response; absent (nullopt) on classic exact responses.
struct Estimate {
  /// Sampled roots folded into the served scores.
  std::size_t roots_used = 0;
  /// Reported relative standard error: the running minimum across folds
  /// (monotone non-increasing rung over rung), exactly 0 when saturated.
  /// Meaningful only from rung 0 (two strata) onward — the service never
  /// publishes earlier.
  double stderr_est = 0.0;
  /// Highest completed refinement rung (0 = base).
  std::uint32_t rung = 0;
  /// Background refinement toward a stricter contract is queued or
  /// running; a later identical query may be served a better rung.
  bool refining = false;
};

/// Effective root cap of a budget on an n-vertex graph.
std::size_t effective_root_cap(const QueryBudget& budget, std::size_t n);

/// Whether a published estimate satisfies a budget's contract. Estimates
/// are only published from rung 0 onward, so stderr_est is meaningful.
bool contract_met(const Estimate& estimate, const QueryBudget& budget,
                  std::size_t n);

/// The approx-cache key of `options` under `plan` on the graph with
/// `fingerprint`. Contract-free: every contract on the same options refines
/// one estimate in place.
std::string approx_key(std::uint64_t fingerprint, const core::Options& options,
                       const core::StratumPlan& plan);

/// Canonical in-flight-coalescing suffix: two budgeted requests share a
/// leader only when their contracts match (the approx-cache key itself
/// stays contract-free so every contract refines one entry).
std::string budget_suffix(const QueryBudget& budget);

/// One refinable cached estimate. Lifetime is shared between the cache,
/// foreground upgraders, and the background refinement queue.
///
/// Locking: `work_mu` serializes upgraders — strata are computed while
/// holding it (long); `mu` guards the published state below it (short).
/// Never acquire `work_mu` while holding `mu`.
struct ApproxEntry {
  std::string key;
  std::uint64_t fingerprint = 0;

  std::mutex work_mu;

  std::mutex mu;
  /// Unlinked by mutation/eviction/LRU; background refinement must drop
  /// the entry instead of resurrecting it. Foreground jobs that already
  /// hold their graph snapshot may still finish (the snapshot semantics
  /// of in-flight queries), but the entry is unreachable for serving.
  bool invalidated = false;
  /// Background refinement jobs referencing this entry that are queued
  /// or running (reported as Estimate::refining while > 0).
  std::uint32_t refine_pending = 0;
  core::RefinableEstimate est;
  /// Finalized scores at the last published fold; null until rung 0
  /// completes (or the contract terminates earlier).
  std::shared_ptr<const core::BCResult> published;
  Estimate info;
  /// Accumulated per-stratum compute seconds (published result metadata).
  double accum_seconds = 0.0;

  /// Cache-internal byte accounting — guarded by ApproxCache::mu_, not
  /// by `mu`. Touched only by the owning cache.
  std::size_t accounted_bytes = 0;
};

/// Byte-budgeted LRU map of ApproxEntry, internally synchronized (the
/// background refinement thread reaches it without the service lock).
/// Budget 0 disables retention: get_or_create then hands out detached
/// entries that are never linked into the map.
class ApproxCache {
 public:
  explicit ApproxCache(std::size_t budget_bytes) : budget_(budget_bytes) {}

  /// Lookup + LRU touch. Never returns an invalidated entry.
  std::shared_ptr<ApproxEntry> get(const std::string& key);

  /// Lookup or insert a fresh estimate for (n, plan, seed). `created` is
  /// set when a new entry was made (including detached budget-0 ones).
  std::shared_ptr<ApproxEntry> get_or_create(const std::string& key,
                                             std::size_t n,
                                             const core::StratumPlan& plan,
                                             std::uint64_t seed,
                                             std::uint64_t fingerprint,
                                             bool& created);

  /// Re-account an entry after a fold grew it; evicts LRU entries over
  /// budget (never `keep`). Call WITHOUT holding any entry mutex.
  void note_growth(const std::shared_ptr<ApproxEntry>& keep);

  /// Unlink + flag every entry whose key starts with `prefix` (the
  /// fingerprint-prefix invalidation discipline). Returns the count.
  std::size_t invalidate_prefix(const std::string& prefix);

  std::size_t size() const;
  std::size_t bytes() const;
  std::size_t budget_bytes() const noexcept { return budget_; }
  std::uint64_t evictions() const;

 private:
  /// Estimated footprint of an entry (est arrays + published scores).
  static std::size_t entry_bytes(ApproxEntry& e);
  void evict_over_budget_locked(const std::shared_ptr<ApproxEntry>& keep);

  mutable std::mutex mu_;
  std::size_t budget_ = 0;
  std::size_t bytes_ = 0;
  std::uint64_t evictions_ = 0;
  /// Front = most recently used.
  std::list<std::shared_ptr<ApproxEntry>> lru_;
  std::unordered_map<std::string, std::list<std::shared_ptr<ApproxEntry>>::iterator>
      index_;
};

/// One stratum's output from a caller's executor.
struct StratumRun {
  /// UNSCALED dependency sums over exactly the stratum's roots.
  std::vector<double> scores;
  double seconds = 0.0;
};
/// Runs one stratum: `stratum` is the request's options with the
/// stratum's roots pinned and sampling, halving and normalization off.
/// Throws when the stratum cannot be computed completely.
using StratumFn = std::function<StratumRun(core::Options stratum)>;

/// What advance_contract served.
struct ContractRun {
  /// The entry's published answer, finalized per the request's options.
  std::shared_ptr<const core::BCResult> result;
  Estimate estimate;
  /// At least one stratum was computed (false: the fold already held it).
  bool computed = false;
};

/// The accuracy-contract controller every caller shares. Folds strata into
/// `entry` through `run` until `budget`'s contract is met, then publishes
/// (callers upgrading one entry from several threads hold its work_mu).
/// With `pause_at_rung0` (allow_refinement, or the shed quality dial) it
/// stops as soon as rung 0 is published and calls `queue_refinement` to
/// carry on in the background (true: queued). After rung 0 a deadline on
/// `cancel` — observed between strata, or thrown by `run` as
/// util::Cancelled — serves the best published rung; before rung 0 it
/// throws util::Cancelled(Deadline). A manual cancel always throws. Other
/// exceptions from `run` propagate with the entry untouched by that stratum.
/// The estimate is `refining` while a refinement of the entry is pending.
ContractRun advance_contract(ApproxCache& cache, const std::shared_ptr<ApproxEntry>& entry,
                             const core::Options& options, const QueryBudget& budget,
                             bool pause_at_rung0, const StratumFn& run,
                             const util::CancelToken& cancel,
                             const std::function<bool()>& queue_refinement);

enum class RefineOutcome {
  Dropped,  // the entry was invalidated: never advance or re-serve it
  Met,      // the contract already holds; nothing was computed
  Folded,   // one more stratum was folded
};

struct RefineStep {
  RefineOutcome outcome = RefineOutcome::Met;
  /// The refinement job is finished (Dropped, Met, or met by this fold).
  bool done = true;
  /// Folded only: the fold completed a rung or saturated the estimate.
  bool new_rung = false;
  Estimate after;
};

/// One background-refinement step toward `budget`, shared by every
/// controller (each keeps its own scheduling, metrics and traces).
/// Invalidation is checked before and after the stratum: a stratum whose
/// entry was invalidated meanwhile is Dropped unfolded, whether `run`
/// returned or threw. Otherwise propagates whatever `run` throws; the
/// entry then stays valid.
RefineStep refine_step(ApproxCache& cache, const std::shared_ptr<ApproxEntry>& entry,
                       const core::Options& options, const QueryBudget& budget,
                       const StratumFn& run);

}  // namespace hbc::service
