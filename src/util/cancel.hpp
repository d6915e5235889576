#pragma once

// Cooperative cancellation: a CancelSource owns the cancel state (manual
// cancel plus an optional deadline); CancelTokens are cheap copyable views
// that long-running computations poll at natural stopping points — the BC
// engines check once per root, so a cancel or an expired deadline takes
// effect within one root boundary rather than after the full run.
//
// Two reasons are distinguished because callers react differently:
// hbc::service maps Deadline to QueryStatus::DeadlineExceeded and Manual
// (stop()) to QueryStatus::ServiceStopped. The deadline is latched the
// first time any token observes it expired, which also stamps the cancel
// time so the service can report time-to-cancel.
//
// A default-constructed CancelToken never cancels and costs one pointer
// test per check, so un-cancellable call sites pay (almost) nothing.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>

namespace hbc::util {

enum class CancelReason : std::uint8_t {
  None = 0,
  Manual = 1,    // CancelSource::cancel() was called (service stop())
  Deadline = 2,  // the source's deadline passed
};

/// Thrown by CancelToken::check(). Derives from runtime_error so generic
/// catch sites keep working, but resilience-aware layers catch it first
/// and translate the reason instead of reporting a failure.
class Cancelled : public std::runtime_error {
 public:
  explicit Cancelled(CancelReason reason)
      : std::runtime_error(reason == CancelReason::Deadline
                               ? "cancelled: deadline exceeded mid-compute"
                               : "cancelled by caller"),
        reason_(reason) {}

  CancelReason reason() const noexcept { return reason_; }

 private:
  CancelReason reason_;
};

namespace detail {

struct CancelShared {
  using Clock = std::chrono::steady_clock;

  std::atomic<std::uint8_t> reason{0};
  /// Set once at construction; immutable afterwards (tokens read freely).
  Clock::time_point deadline = Clock::time_point::max();
  bool has_deadline = false;
  /// steady_clock ticks when cancellation was requested / deadline passed.
  std::atomic<std::int64_t> cancelled_at_ns{0};

  CancelReason poll() noexcept {
    auto r = static_cast<CancelReason>(reason.load(std::memory_order_acquire));
    if (r != CancelReason::None) return r;
    if (has_deadline && Clock::now() >= deadline) {
      latch(CancelReason::Deadline, deadline);
      return static_cast<CancelReason>(reason.load(std::memory_order_acquire));
    }
    return CancelReason::None;
  }

  void latch(CancelReason r, Clock::time_point when) noexcept {
    std::uint8_t expected = 0;
    if (reason.compare_exchange_strong(expected, static_cast<std::uint8_t>(r),
                                       std::memory_order_acq_rel)) {
      cancelled_at_ns.store(
          std::chrono::duration_cast<std::chrono::nanoseconds>(when.time_since_epoch())
              .count(),
          std::memory_order_release);
    }
  }
};

}  // namespace detail

/// Polling view of a CancelSource. Default-constructed tokens are inert.
class CancelToken {
 public:
  CancelToken() = default;

  /// Why (and whether) the computation should stop; None = keep going.
  CancelReason state() const noexcept {
    return state_ ? state_->poll() : CancelReason::None;
  }

  bool cancelled() const noexcept { return state() != CancelReason::None; }

  /// Throws Cancelled when the source was cancelled or its deadline has
  /// passed. The engines call this once per root.
  void check() const {
    const CancelReason r = state();
    if (r != CancelReason::None) throw Cancelled(r);
  }

  bool can_cancel() const noexcept { return state_ != nullptr; }

  /// The source's deadline; time_point::max() when it has none (or the
  /// token is inert).
  std::chrono::steady_clock::time_point deadline() const noexcept {
    return state_ && state_->has_deadline ? state_->deadline
                                          : std::chrono::steady_clock::time_point::max();
  }

 private:
  friend class CancelSource;
  explicit CancelToken(std::shared_ptr<detail::CancelShared> state)
      : state_(std::move(state)) {}

  std::shared_ptr<detail::CancelShared> state_;
};

/// Owner side: create (optionally with a deadline), hand out tokens, and
/// cancel. Copyable; copies share the same state.
class CancelSource {
 public:
  using Clock = detail::CancelShared::Clock;

  CancelSource() : state_(std::make_shared<detail::CancelShared>()) {}

  static CancelSource with_deadline(Clock::time_point deadline) {
    CancelSource s;
    if (deadline != Clock::time_point::max()) {
      s.state_->deadline = deadline;
      s.state_->has_deadline = true;
    }
    return s;
  }

  static CancelSource with_timeout(std::chrono::nanoseconds budget) {
    return with_deadline(Clock::now() + budget);
  }

  CancelToken token() const { return CancelToken(state_); }

  void cancel() noexcept { state_->latch(CancelReason::Manual, Clock::now()); }

  CancelReason state() const noexcept { return state_->poll(); }

  /// Milliseconds elapsed since cancellation was requested (deadline
  /// passing counts from the deadline itself); 0 if not cancelled. The
  /// service uses this as its time-to-cancel metric when the computation
  /// finally surfaces the Cancelled exception.
  double ms_since_cancel() const noexcept {
    const std::int64_t at = state_->cancelled_at_ns.load(std::memory_order_acquire);
    if (at == 0) return 0.0;
    const auto now_ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                            Clock::now().time_since_epoch())
                            .count();
    return static_cast<double>(now_ns - at) / 1e6;
  }

 private:
  std::shared_ptr<detail::CancelShared> state_;
};

}  // namespace hbc::util
