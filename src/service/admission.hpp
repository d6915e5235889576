#pragma once

// Admission control for the BC query service: a bounded MPMC job queue
// with a configurable full-queue policy and per-request deadlines.
//
// Admission is two-phase so the service can decide the final cache key
// before a job becomes visible to workers:
//
//   1. admit(deadline)  — applies the policy against the current depth
//      and *reserves* a slot. Shed admits over the bound; what it costs is
//      the caller's call (an exact request takes shed_downgrade, which
//      changes its key). Block waits here for space; this wait is the
//      service's backpressure point.
//   2. push(job)        — converts the reservation into a queued job, or
//      cancel() releases it (the submitter found a cache hit or an
//      in-flight twin after the downgrade changed the key).
//
// pop() blocks until a job or shutdown. close() stops new admissions but
// lets workers drain what was already queued, so every admitted request
// still gets a response.

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <string>

#include "core/bc.hpp"

namespace hbc::service {

enum class AdmissionPolicy {
  Block,   // submitter waits for queue space (backpressure)
  Reject,  // fail fast with QueueFull
  Shed,    // admit over the bound, but downgrade to a cheap approximation
};

const char* to_string(AdmissionPolicy policy) noexcept;

/// Parse "block" | "reject" | "shed"; throws std::invalid_argument.
AdmissionPolicy admission_policy_from_string(const std::string& name);

enum class Admit {
  Admitted,          // slot reserved, job unchanged
  Shed,              // slot reserved over the bound (queue was full)
  RejectedFull,      // Reject policy, queue full
  RejectedDeadline,  // Block policy, deadline passed while waiting for space
  RejectedClosed,    // service stopping
};

struct AdmissionConfig {
  std::size_t max_queue_depth = 64;
  AdmissionPolicy policy = AdmissionPolicy::Block;
  /// Shed policy: exact requests are downgraded to Strategy::Sampling with
  /// this many sampled roots (clamped to the request's own sample_roots if
  /// that is already smaller).
  std::uint32_t shed_sample_roots = 64;
};

/// The Shed downgrade: turn an (expensive) request into the cheapest
/// configuration that still estimates the same scores — the paper's
/// Algorithm 5 sampling kernel over `shed_sample_roots` sampled roots.
/// Requests that are already at most that cheap are returned unchanged.
core::Options shed_downgrade(core::Options options, std::uint32_t shed_sample_roots);

template <typename Job>
class AdmissionQueue {
 public:
  using Clock = std::chrono::steady_clock;

  explicit AdmissionQueue(AdmissionConfig config) : cfg_(config) {}

  const AdmissionConfig& config() const noexcept { return cfg_; }

  /// Phase 1: apply the policy and reserve a slot. May block (Block
  /// policy) until space, `deadline`, or close(). `deadline` uses
  /// Clock::time_point::max() for "none".
  Admit admit(Clock::time_point deadline) {
    std::unique_lock<std::mutex> lock(mu_);
    if (closed_) return Admit::RejectedClosed;
    if (occupancy() < cfg_.max_queue_depth) {
      ++reserved_;
      return Admit::Admitted;
    }
    switch (cfg_.policy) {
      case AdmissionPolicy::Reject:
        ++rejected_full_;
        return Admit::RejectedFull;
      case AdmissionPolicy::Shed:
        ++reserved_;  // deliberately over the bound: shed work is cheap
        ++shed_;
        return Admit::Shed;
      case AdmissionPolicy::Block:
        break;
    }
    const bool got_space = space_.wait_until(lock, deadline, [this] {
      return closed_ || occupancy() < cfg_.max_queue_depth;
    });
    if (closed_) return Admit::RejectedClosed;
    if (!got_space) {
      ++rejected_deadline_;
      return Admit::RejectedDeadline;
    }
    ++reserved_;
    return Admit::Admitted;
  }

  /// Phase 2a: enqueue a job under a reservation from admit().
  void push(Job job) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --reserved_;
      q_.push_back(std::move(job));
      peak_depth_ = std::max(peak_depth_, q_.size());
    }
    ready_.notify_one();
  }

  /// Phase 2b: release a reservation without enqueueing.
  void cancel() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      --reserved_;
    }
    space_.notify_one();
  }

  /// Worker side: blocks for the next job; nullopt once closed and drained.
  std::optional<Job> pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [this] { return closed_ || !q_.empty(); });
    if (q_.empty()) return std::nullopt;
    Job job = std::move(q_.front());
    q_.pop_front();
    lock.unlock();
    space_.notify_one();
    return job;
  }

  /// Stop admitting; wake blocked submitters and draining workers.
  void close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    space_.notify_all();
    ready_.notify_all();
  }

  std::size_t depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return q_.size();
  }

  std::size_t peak_depth() const {
    std::lock_guard<std::mutex> lock(mu_);
    return peak_depth_;
  }

  std::uint64_t rejected_full() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_full_;
  }

  std::uint64_t rejected_deadline() const {
    std::lock_guard<std::mutex> lock(mu_);
    return rejected_deadline_;
  }

  std::uint64_t shed_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return shed_;
  }

 private:
  /// Queued plus reserved-but-not-yet-pushed, the quantity the bound caps.
  std::size_t occupancy() const { return q_.size() + reserved_; }

  AdmissionConfig cfg_;
  mutable std::mutex mu_;
  std::condition_variable space_;  // signalled on pop/cancel/close
  std::condition_variable ready_;  // signalled on push/close
  std::deque<Job> q_;
  std::size_t reserved_ = 0;
  std::size_t peak_depth_ = 0;
  std::uint64_t rejected_full_ = 0;
  std::uint64_t rejected_deadline_ = 0;
  std::uint64_t shed_ = 0;
  bool closed_ = false;
};

}  // namespace hbc::service
