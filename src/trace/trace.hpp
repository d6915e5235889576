#pragma once

// hbc::trace — low-overhead structured span tracing for the whole stack.
//
// The paper's evaluation (Figs 2–6, Tables 1–3) is built on per-iteration
// visibility: frontier sizes per BFS level, per-kernel work distribution,
// the hybrid's per-level strategy decisions. This module records exactly
// that as a timeline instead of end-of-run aggregates:
//
//   * a Tracer owns the capture: a category mask, an event budget, and
//     the set of Sinks that threads write into;
//   * a Sink is a single-writer, lock-free append buffer of typed Events.
//     The simulated device gets one sink per block (written only by
//     whichever host thread is executing that block — blocks never share
//     a sink), the host side gets one sink per thread;
//   * kernel-side events are stamped from the *simulated* cycle ledger
//     (converted to nanoseconds with the device clock), so a capture of a
//     GPU-model run is bitwise-identical at every host-thread count —
//     threading moves wall time, never the trace. Host/service events are
//     stamped from a steady clock relative to the Tracer's epoch;
//   * exporters render Chrome trace_event JSON (load in chrome://tracing
//     or https://ui.perfetto.dev) and a per-phase text summary.
//
// Cost when tracing is off: call sites hold a null Sink pointer, so the
// entire layer is one pointer test per instrumentation point (the same
// budget as an inert CancelToken; asserted <2% in
// bench_service_throughput). Cost when a category is masked off: one
// load+AND per point. Event names, categories, and string args must be
// string literals (or otherwise outlive the Tracer) — recording never
// allocates or copies strings.
//
// docs/tracing.md documents the event model and how to read a capture.

#include <array>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

namespace hbc::trace {

/// Event categories, maskable per Tracer. Chrome's "cat" field.
enum Category : std::uint32_t {
  kRun = 1u << 0,       // whole kernel runs and driver phases
  kRoot = 1u << 1,      // per-root spans and launch attempts
  kPhase = 1u << 2,     // shortest-path / dependency stages within a root
  kLevel = 1u << 3,     // per-BFS-level frontier instants
  kDecision = 1u << 4,  // hybrid / sampling / direction-switch decisions
  kFault = 1u << 5,     // fault injection, retries, rescues, failures
  kCharge = 1u << 6,    // raw gpusim cycle charges (verbose; off by default)
  kService = 1u << 7,   // request lifecycle in hbc::service
  kCompute = 1u << 8,   // host-side compute spans (CPU engines, workers)
  kDyn = 1u << 9,       // dyn:: epoch commits, batches, incremental refresh

  kNone = 0,
  /// Everything except the per-charge firehose.
  kDefault = kRun | kRoot | kPhase | kLevel | kDecision | kFault | kService | kCompute | kDyn,
  kAll = 0xffffffffu,
};

const char* to_string(Category category) noexcept;

/// Chrome trace_event phases (the subset we emit).
enum class Phase : std::uint8_t {
  Begin,    // "B" — span start; must be closed by a matching End
  End,      // "E" — span end (names must nest per sink)
  Instant,  // "i" — a point event
  Counter,  // "C" — sampled numeric series
};

/// One typed event argument. Keys and string values must be literals.
struct Arg {
  enum class Kind : std::uint8_t { None, U64, I64, F64, Str };

  const char* key = nullptr;
  Kind kind = Kind::None;
  union Value {
    std::uint64_t u;
    std::int64_t i;
    double f;
    const char* s;
  } value{};

  constexpr Arg() = default;
  constexpr Arg(const char* k, std::uint64_t v) : key(k), kind(Kind::U64) { value.u = v; }
  constexpr Arg(const char* k, std::uint32_t v) : Arg(k, std::uint64_t{v}) {}
  constexpr Arg(const char* k, std::int64_t v) : key(k), kind(Kind::I64) { value.i = v; }
  constexpr Arg(const char* k, std::int32_t v) : Arg(k, std::int64_t{v}) {}
  constexpr Arg(const char* k, double v) : key(k), kind(Kind::F64) { value.f = v; }
  constexpr Arg(const char* k, const char* v) : key(k), kind(Kind::Str) { value.s = v; }
};

/// A recorded event. Fixed-size (no heap) so sinks are flat arrays.
struct Event {
  static constexpr std::size_t kMaxArgs = 6;

  const char* name = nullptr;
  Category category = kNone;
  Phase phase = Phase::Instant;
  /// Nanoseconds: simulated device time for kernel events, time since the
  /// Tracer epoch for host events.
  std::uint64_t ts_ns = 0;
  std::uint32_t pid = 0;
  std::uint32_t tid = 0;
  std::uint8_t num_args = 0;
  std::array<Arg, kMaxArgs> args{};
};

/// Well-known pids in the exported trace.
inline constexpr std::uint32_t kSimDevicePid = 1;  // simulated-cycle domain
inline constexpr std::uint32_t kHostPid = 2;       // wall-clock domain

class Tracer;

/// Single-writer append buffer. One owner thread records; the Tracer
/// reads only after the writers have quiesced (export happens after runs
/// complete / the service drains), so no synchronization is needed on the
/// hot path. Capacity is fixed at creation; overflow drops the newest
/// events and counts them — it never reshuffles what was already recorded.
class Sink {
 public:
  /// One load+AND: is this category being captured?
  bool wants(Category category) const noexcept { return (mask_ & category) != 0; }

  std::uint32_t pid() const noexcept { return pid_; }
  std::uint32_t tid() const noexcept { return tid_; }
  const std::string& name() const noexcept { return name_; }

  void begin(const char* name, Category category, std::uint64_t ts_ns,
             std::initializer_list<Arg> args = {}) {
    push(name, category, Phase::Begin, ts_ns, args);
  }
  void end(const char* name, Category category, std::uint64_t ts_ns) {
    push(name, category, Phase::End, ts_ns, {});
  }
  void instant(const char* name, Category category, std::uint64_t ts_ns,
               std::initializer_list<Arg> args = {}) {
    push(name, category, Phase::Instant, ts_ns, args);
  }
  /// For callers that assemble their args at run time.
  void instant(const char* name, Category category, std::uint64_t ts_ns,
               std::span<const Arg> args) {
    push(name, category, Phase::Instant, ts_ns, args);
  }
  void counter(const char* name, Category category, std::uint64_t ts_ns,
               std::initializer_list<Arg> args) {
    push(name, category, Phase::Counter, ts_ns, args);
  }

  std::size_t size() const noexcept { return events_.size(); }
  std::uint64_t dropped() const noexcept { return dropped_; }
  const std::vector<Event>& events() const noexcept { return events_; }

 private:
  friend class Tracer;
  Sink(std::string name, std::uint32_t pid, std::uint32_t tid, std::uint32_t mask,
       std::size_t capacity)
      : name_(std::move(name)), pid_(pid), tid_(tid), mask_(mask), capacity_(capacity) {}

  void push(const char* name, Category category, Phase phase, std::uint64_t ts_ns,
            std::span<const Arg> args) {
    if ((mask_ & category) == 0) return;
    if (events_.size() >= capacity_) {
      ++dropped_;
      return;
    }
    Event e;
    e.name = name;
    e.category = category;
    e.phase = phase;
    e.ts_ns = ts_ns;
    e.pid = pid_;
    e.tid = tid_;
    e.num_args = static_cast<std::uint8_t>(
        args.size() < Event::kMaxArgs ? args.size() : Event::kMaxArgs);
    std::size_t i = 0;
    for (const Arg& a : args) {
      if (i >= e.num_args) break;
      e.args[i++] = a;
    }
    events_.push_back(e);
  }

  std::string name_;
  std::uint32_t pid_;
  std::uint32_t tid_;
  std::uint32_t mask_;
  std::size_t capacity_;
  std::uint64_t dropped_ = 0;
  std::vector<Event> events_;
};

struct TracerConfig {
  /// Which categories to capture (bitwise OR of Category values).
  std::uint32_t categories = kDefault;
  /// Event budget per sink; overflow drops the newest events (counted).
  std::size_t sink_capacity = 1u << 18;
};

/// The capture object: owns configuration and collects sinks. Create one
/// per capture (a CLI run, a bench cell, a service session); it is not
/// meant to be a permanent process fixture — sinks accumulate per run.
///
/// Thread safety: make_sink/thread_sink are mutex-guarded (rare);
/// recording into distinct sinks is unsynchronized by design; export and
/// events() must run after every writer has finished.
class Tracer {
 public:
  explicit Tracer(TracerConfig config = {});

  bool wants(Category category) const noexcept {
    return (config_.categories & category) != 0;
  }
  std::uint32_t categories() const noexcept { return config_.categories; }

  /// Register a new sink. The driver names its per-block sinks "block N"
  /// with pid kSimDevicePid and tid = block id, in ascending block order —
  /// the registration order IS the export order, which is what makes
  /// GPU-model captures bitwise-deterministic.
  std::shared_ptr<Sink> make_sink(std::string name, std::uint32_t pid,
                                  std::uint32_t tid);

  /// Per-thread host sink (pid kHostPid), created on first use from each
  /// thread and cached thread-locally; tids are assigned in creation
  /// order. Never returns null while the tracer is alive.
  Sink* thread_sink(const char* name_prefix = "host");

  /// Nanoseconds since the tracer epoch (construction). Host events use
  /// this; simulated events use the cycle ledger instead.
  std::uint64_t now_ns() const noexcept {
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch_)
            .count());
  }

  /// Snapshot of every recorded event, sinks concatenated in registration
  /// order. Call only after writers have quiesced.
  std::vector<Event> events() const;
  /// Total events recorded / dropped across all sinks.
  std::size_t event_count() const;
  std::uint64_t dropped() const;

  /// Chrome trace_event JSON ({"traceEvents":[...]}). Deterministic:
  /// sinks in registration order, events in append order, fixed number
  /// formatting. Loadable in chrome://tracing and Perfetto.
  void write_chrome_json(std::ostream& out) const;
  std::string chrome_json() const;

  /// Human-readable per-category/per-name aggregation: event counts, span
  /// counts, and total span duration (self-nesting spans count the
  /// outermost occurrence only per sink).
  void write_summary(std::ostream& out) const;
  std::string summary() const;

 private:
  TracerConfig config_;
  std::chrono::steady_clock::time_point epoch_;
  std::uint64_t generation_;  // process-unique id for thread_sink caching

  mutable std::mutex mu_;  // guards sinks_ and next_host_tid_
  std::vector<std::shared_ptr<Sink>> sinks_;
  std::uint32_t next_host_tid_ = 0;
};

/// RAII span helper for host-side code paths (service, CPU engines):
/// begin on construction, end on destruction — exception-safe, so spans
/// stay balanced when compute throws. Null sink = no-op.
class ScopedSpan {
 public:
  ScopedSpan(Sink* sink, Tracer* tracer, const char* name, Category category,
             std::initializer_list<Arg> args = {})
      : sink_(sink), tracer_(tracer), name_(name), category_(category) {
    if (sink_ && sink_->wants(category_)) {
      sink_->begin(name_, category_, tracer_->now_ns(), args);
    } else {
      sink_ = nullptr;
    }
  }
  ~ScopedSpan() {
    if (sink_) sink_->end(name_, category_, tracer_->now_ns());
  }

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Sink* sink_;
  Tracer* tracer_;
  const char* name_;
  Category category_;
};

}  // namespace hbc::trace
