#pragma once

// core::approx — stratified root sampling and the refinable estimator
// behind accuracy-contract serving (ROADMAP item 1).
//
// The paper's sampling strategy (Algorithm 5) picks k roots once and
// scales the partial dependency sums by n/k. This header slices that
// same sampled-root sequence into fixed-width *strata* so an estimate
// can be upgraded in place: `sample_roots` is a partial Fisher–Yates
// whose RNG state after i draws depends only on i, so the first k
// entries of a (k+w)-root sample are exactly the k-root sample. Stratum
// s is therefore the slice [s·w, (s+1)·w) of one deterministic
// permutation — computing strata 0..S-1 visits precisely the roots a
// single sample of S·w roots would have visited, in the same order.
//
// A RefinableEstimate folds per-stratum UNSCALED dependency sums
// elementwise in ascending stratum order. Because the fold order is
// fixed and each stratum's scores are themselves bitwise-deterministic
// (every engine adds a stratum's dependencies exactly), upgrading a cached
// 256-root estimate to 512 roots by folding strata 2..3 produces bits
// identical to a from-scratch 512-root budgeted run — at every thread
// count, on every engine with deterministic per-stratum output.
//
// Error model: each stratum's partial sum is an i.i.d. observation of
// the same per-vertex random variable (w roots drawn without
// replacement from one shuffled sequence). The relative standard error
// of the pooled estimate is reported as
//
//     Σ_v sqrt(var_s(partial_s[v]) / S)  /  Σ_v mean_s(partial_s[v])
//
// where the n/k scale factor cancels. The *reported* error is the
// running minimum across folds, so it is monotone non-increasing by
// construction; saturation (all n roots folded) reports exactly 0.

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "core/bc.hpp"
#include "graph/types.hpp"

namespace hbc::core {

/// Geometry of the stratified sample. Rung r covers base_strata·2^r
/// strata (so with the defaults: 256, 512, 1024, ... roots), capped at
/// the vertex count. Both values participate in approx_signature, so
/// estimates with different geometry never alias in a cache.
struct StratumPlan {
  /// Roots per stratum. One stratum is the refinement quantum: upgrades
  /// and background refinement advance one stripe at a time.
  std::uint32_t stripe_roots = 128;
  /// Strata in rung 0 — the minimum before a variance (and therefore an
  /// error estimate) exists. Must be >= 2.
  std::uint32_t base_strata = 2;
};

/// Total strata needed to saturate an n-vertex graph (ceil division;
/// the final stratum may be short).
std::uint32_t total_strata(std::size_t n, const StratumPlan& plan);

/// Strata covered by rungs 0..rung inclusive, before the saturation cap.
std::uint32_t strata_for_rung(const StratumPlan& plan, std::uint32_t rung);

/// Root count after folding `strata` strata (min(strata·stripe, n)).
std::size_t roots_for_strata(std::size_t n, const StratumPlan& plan,
                             std::uint32_t strata);

/// The roots of stratum `stratum`: slice [s·w, min((s+1)·w, n)) of the
/// seeded Fisher–Yates permutation shared by every stratum of (n, seed).
/// Empty once the graph is saturated.
std::vector<graph::VertexId> stratum_roots(std::size_t n, const StratumPlan& plan,
                                           std::uint64_t seed,
                                           std::uint32_t stratum);

/// Accumulates per-stratum unscaled dependency sums and derives scores
/// plus a relative standard-error estimate. Plain value type — callers
/// (service::ApproxCache) provide locking.
class RefinableEstimate {
 public:
  RefinableEstimate() = default;
  RefinableEstimate(std::size_t n, StratumPlan plan, std::uint64_t seed);

  const StratumPlan& plan() const noexcept { return plan_; }
  std::uint64_t seed() const noexcept { return seed_; }
  std::size_t num_vertices() const noexcept { return n_; }
  std::uint32_t strata_folded() const noexcept { return strata_; }
  std::size_t roots_used() const noexcept { return roots_used_; }
  bool saturated() const noexcept { return roots_used_ >= n_ && n_ > 0; }

  /// Highest rung fully covered by the folded strata (0 while rung 0 is
  /// still incomplete; saturation completes every rung).
  std::uint32_t rung() const noexcept;

  /// Roots of the next stratum to fold; empty when saturated.
  std::vector<graph::VertexId> next_stratum_roots() const;

  /// Fold the next stratum's UNSCALED per-vertex dependency sums (the
  /// scores of a core::compute over exactly next_stratum_roots() with
  /// halve/normalize off). Strata must be folded in ascending order —
  /// that fixed order is the bitwise-determinism contract.
  /// Throws std::invalid_argument on a size mismatch or when saturated.
  void fold(const std::vector<double>& stratum_scores,
            std::size_t stratum_root_count);

  /// Relative standard error of the current estimate: the running
  /// minimum over folds (monotone non-increasing), exactly 0 once
  /// saturated. Before two strata exist no variance exists, so the
  /// error is UNKNOWN and reported as +infinity — an accuracy contract
  /// can never be "met" by an empty estimate. Degenerate all-zero
  /// scores report 0.
  double reported_error() const noexcept {
    if (saturated()) return 0.0;
    return have_reported_ ? reported_
                          : std::numeric_limits<double>::infinity();
  }

  /// The instantaneous (non-monotone) inter-stratum error estimate.
  double stderr_estimate() const;

  /// Finalized scores: core::finalize of the raw sums, scaled by
  /// n/roots_used (the paper's unbiased scale-up) until saturation.
  /// Elementwise over the folded sums, so two estimates with
  /// bitwise-equal folds produce bitwise-equal scores.
  std::vector<double> scores(bool halve_undirected, bool normalize) const;

  /// Approximate heap footprint, for cache accounting.
  std::size_t bytes() const noexcept;

 private:
  std::size_t n_ = 0;
  StratumPlan plan_;
  std::uint64_t seed_ = 42;
  std::uint32_t strata_ = 0;
  std::size_t roots_used_ = 0;
  double reported_ = 0.0;          // running-min relative stderr
  bool have_reported_ = false;
  std::vector<double> raw_sums_;   // Σ_s partial_s[v]
  std::vector<double> raw_sq_;     // Σ_s partial_s[v]^2  (for the variance)
};

/// Cache signature for a refinable estimate: options_signature of the
/// request with roots/sample_roots cleared (every rung of one contract
/// shares a cache entry) plus a ";stratified=<stripe>,<base>" suffix so
/// stratified estimates never alias exact results or each other across
/// plan geometries. Exact-query signature bytes are untouched — the
/// suffix exists only on this budgeted-path key.
std::string approx_signature(const Options& options, const StratumPlan& plan);

}  // namespace hbc::core
