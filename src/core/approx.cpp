#include "core/approx.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace hbc::core {

namespace {

std::uint32_t stripe_of(const StratumPlan& plan) {
  return std::max<std::uint32_t>(plan.stripe_roots, 1);
}

}  // namespace

std::uint32_t total_strata(std::size_t n, const StratumPlan& plan) {
  const std::size_t w = stripe_of(plan);
  return static_cast<std::uint32_t>((n + w - 1) / w);
}

std::uint32_t strata_for_rung(const StratumPlan& plan, std::uint32_t rung) {
  const std::uint32_t base = std::max<std::uint32_t>(plan.base_strata, 2);
  // Saturating shift: a silly rung must not wrap to a tiny stratum count.
  if (rung >= 32) return UINT32_MAX;
  const std::uint64_t s = static_cast<std::uint64_t>(base) << rung;
  return s > UINT32_MAX ? UINT32_MAX : static_cast<std::uint32_t>(s);
}

std::size_t roots_for_strata(std::size_t n, const StratumPlan& plan,
                             std::uint32_t strata) {
  return std::min<std::size_t>(
      static_cast<std::size_t>(strata) * stripe_of(plan), n);
}

std::vector<graph::VertexId> stratum_roots(std::size_t n, const StratumPlan& plan,
                                           std::uint64_t seed,
                                           std::uint32_t stratum) {
  const std::size_t w = stripe_of(plan);
  const std::size_t begin = static_cast<std::size_t>(stratum) * w;
  if (begin >= n) return {};
  const std::size_t end = std::min(begin + w, n);
  // The prefix property of sample_roots makes this slice independent of
  // how many strata are ultimately drawn.
  std::vector<graph::VertexId> perm =
      sample_roots(static_cast<graph::VertexId>(n),
                   static_cast<std::uint32_t>(end), seed);
  return {perm.begin() + static_cast<std::ptrdiff_t>(begin),
          perm.begin() + static_cast<std::ptrdiff_t>(end)};
}

RefinableEstimate::RefinableEstimate(std::size_t n, StratumPlan plan,
                                     std::uint64_t seed)
    : n_(n), plan_(plan), seed_(seed), raw_sums_(n, 0.0), raw_sq_(n, 0.0) {}

std::uint32_t RefinableEstimate::rung() const noexcept {
  const std::uint32_t cap = total_strata(n_, plan_);
  std::uint32_t r = 0;
  // A rung is complete when its stratum count (or the saturation cap,
  // whichever is smaller) has been folded.
  while (strata_ >= std::min(strata_for_rung(plan_, r + 1), cap) &&
         std::min(strata_for_rung(plan_, r + 1), cap) >
             std::min(strata_for_rung(plan_, r), cap)) {
    ++r;
  }
  return r;
}

std::vector<graph::VertexId> RefinableEstimate::next_stratum_roots() const {
  if (saturated()) return {};
  return stratum_roots(n_, plan_, seed_, strata_);
}

void RefinableEstimate::fold(const std::vector<double>& stratum_scores,
                             std::size_t stratum_root_count) {
  if (saturated()) {
    throw std::invalid_argument("RefinableEstimate::fold: already saturated");
  }
  if (stratum_scores.size() != n_) {
    throw std::invalid_argument("RefinableEstimate::fold: score size mismatch");
  }
  const std::size_t expect =
      std::min<std::size_t>(stripe_of(plan_), n_ - roots_used_);
  if (stratum_root_count != expect) {
    throw std::invalid_argument("RefinableEstimate::fold: stratum out of order");
  }
  for (std::size_t v = 0; v < n_; ++v) {
    const double p = stratum_scores[v];
    raw_sums_[v] += p;
    raw_sq_[v] += p * p;
  }
  ++strata_;
  roots_used_ += stratum_root_count;
  if (strata_ >= 2 && !saturated()) {
    const double e = stderr_estimate();
    reported_ = have_reported_ ? std::min(reported_, e) : e;
    have_reported_ = true;
  }
}

double RefinableEstimate::stderr_estimate() const {
  if (saturated() || strata_ < 2) return 0.0;
  const double S = static_cast<double>(strata_);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t v = 0; v < n_; ++v) {
    const double mean = raw_sums_[v] / S;
    double var = (raw_sq_[v] - raw_sums_[v] * raw_sums_[v] / S) / (S - 1.0);
    if (var < 0.0) var = 0.0;  // catastrophic-cancellation guard
    num += std::sqrt(var / S);
    den += mean;
  }
  return den > 0.0 ? num / den : 0.0;
}

std::vector<double> RefinableEstimate::scores(bool halve_undirected,
                                              bool normalize) const {
  std::vector<double> out = raw_sums_;
  finalize(out, n_, roots_used_ < n_ ? roots_used_ : 0, halve_undirected, normalize);
  return out;
}

std::size_t RefinableEstimate::bytes() const noexcept {
  return sizeof(RefinableEstimate) +
         (raw_sums_.capacity() + raw_sq_.capacity()) * sizeof(double);
}

std::string approx_signature(const Options& options, const StratumPlan& plan) {
  Options base = options;
  base.roots.clear();
  base.sample_roots = 0;
  std::string sig = options_signature(base);
  sig += ";stratified=" + std::to_string(stripe_of(plan)) + "," +
         std::to_string(std::max<std::uint32_t>(plan.base_strata, 2));
  return sig;
}

}  // namespace hbc::core
