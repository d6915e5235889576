#pragma once

// The simulated device: operation counters, per-block (per-SM) cycle
// accumulation, and block-to-SM scheduling.
//
// Execution model (matches the paper's coarse+fine-grained mapping):
//   * A kernel run launches B blocks; the driver assigns BC roots to
//     blocks round-robin (B == num_sms, as Jia et al. found optimal).
//   * Threads inside a block execute parallel-for rounds; a round over N
//     uniform-cost items costs ceil(N / threads_per_block) * item_cycles —
//     small frontiers therefore underutilize the block, reproducing the
//     fixed per-iteration floor that limits the work-efficient kernel on
//     very-high-diameter graphs.
//   * Imbalanced rounds (vertex-parallel: one thread per vertex, cost
//     proportional to out-degree) are charged as the maximum per-thread
//     total under round-robin item assignment — the load-imbalance effect
//     of §III.A.
//   * Device time for a run = max over blocks of accumulated cycles
//     (blocks run concurrently on distinct SMs); GPU-FAN-style grid
//     cooperative phases instead divide work across all device threads
//     and pay a kernel relaunch per grid-wide sync.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gpusim/config.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/memory.hpp"
#include "trace/trace.hpp"

namespace hbc::gpusim {

/// Aggregate operation counters for a kernel run. "Traversed" edges are
/// useful work (the edge connects a frontier vertex); "inspected" includes
/// the futile scans the level-check traversals perform.
struct Counters {
  std::uint64_t edges_traversed = 0;
  std::uint64_t edges_inspected = 0;
  std::uint64_t vertices_scanned = 0;
  std::uint64_t queue_inserts = 0;
  std::uint64_t atomic_ops = 0;
  std::uint64_t barriers = 0;
  std::uint64_t grid_syncs = 0;
  std::uint64_t bfs_iterations = 0;
  std::uint64_t roots_processed = 0;

  Counters& operator+=(const Counters& other) noexcept {
    edges_traversed += other.edges_traversed;
    edges_inspected += other.edges_inspected;
    vertices_scanned += other.vertices_scanned;
    queue_inserts += other.queue_inserts;
    atomic_ops += other.atomic_ops;
    barriers += other.barriers;
    grid_syncs += other.grid_syncs;
    bfs_iterations += other.bfs_iterations;
    roots_processed += other.roots_processed;
    return *this;
  }
};

/// Cost of a load-imbalanced parallel round (one work item per thread,
/// item costs vary; items assigned round-robin like a grid-stride loop).
/// The round completes at the barrier when BOTH bounds are met:
///   * throughput bound — total work spread across the block's threads;
///   * critical-path bound — the busiest thread's work, divided by the
///     per-thread ILP the hardware extracts from independent accesses.
/// This is what makes vertex-parallel suffer on scale-free graphs
/// (§III.A) without pretending a hub serializes at full memory latency.
class ImbalancedRound {
 public:
  explicit ImbalancedRound(std::uint32_t threads) { reset(threads); }

  /// Start a new round over `threads` threads, reusing the buffer: only
  /// the entries the previous round touched need zeroing.
  void reset(std::uint32_t threads) {
    std::fill_n(per_thread_.begin(), touched(), 0);
    per_thread_.resize(std::max<std::uint32_t>(threads, 1), 0);
    next_ = 0;
    wrapped_ = false;
    total_ = 0;
  }

  void add_item(std::uint64_t cycles) noexcept {
    total_ += cycles;
    per_thread_[next_] += cycles;
    if (++next_ == per_thread_.size()) {
      next_ = 0;
      wrapped_ = true;
    }
  }

  std::uint64_t total_cycles() const noexcept { return total_; }

  /// Untouched entries are zero, so the max runs over the touched prefix.
  std::uint64_t max_thread_cycles() const noexcept {
    const auto first = per_thread_.begin();
    const auto last = first + static_cast<std::ptrdiff_t>(touched());
    return first == last ? 0 : *std::max_element(first, last);
  }

  std::uint64_t cost_cycles(std::uint32_t thread_ilp) const noexcept {
    const std::uint64_t throughput =
        (total_ + per_thread_.size() - 1) / per_thread_.size();
    const std::uint64_t ilp = std::max<std::uint32_t>(thread_ilp, 1);
    const std::uint64_t critical = (max_thread_cycles() + ilp - 1) / ilp;
    return std::max(throughput, critical);
  }

 private:
  /// Entries [0, touched()) have received at least one item.
  std::size_t touched() const noexcept {
    return wrapped_ ? per_thread_.size() : next_;
  }

  std::vector<std::uint64_t> per_thread_;
  std::size_t next_ = 0;
  bool wrapped_ = false;
  std::uint64_t total_ = 0;
};

/// Per-block accounting handle passed into kernels.
///
/// When the driver arms a FaultArm on the block (fault injection), the
/// charge_* methods throw DeviceFault once the block's cycle ledger
/// crosses the armed threshold — modelling an ECC error or watchdog
/// timeout surfacing mid-kernel. With no arm (the default) they cannot
/// throw; cycles charged before the trip stay in the ledger, mirroring
/// the wasted device time a real fault leaves behind.
class BlockContext {
 public:
  BlockContext(const DeviceConfig& cfg, Counters& counters, std::uint64_t& cycles,
               FaultArm* arm = nullptr, std::uint32_t block_index = 0,
               trace::Sink* trace = nullptr)
      : cfg_(&cfg),
        counters_(&counters),
        cycles_(&cycles),
        arm_(arm),
        block_index_(block_index),
        trace_(trace) {}

  const DeviceConfig& config() const noexcept { return *cfg_; }
  const CostModel& cost() const noexcept { return cfg_->cost; }
  Counters& counters() noexcept { return *counters_; }
  std::uint32_t block_index() const noexcept { return block_index_; }

  /// This block's trace sink; nullptr when tracing is off (the only cost
  /// an untraced run pays is this pointer test at each emission site).
  trace::Sink* trace() const noexcept { return trace_; }

  /// The block's cycle ledger as simulated-device nanoseconds. Pure
  /// function of the (integer) ledger, so trace timestamps derived from
  /// it are bitwise-identical at every host-thread count.
  std::uint64_t sim_ns() const noexcept {
    return static_cast<std::uint64_t>(
        cfg_->seconds_from_cycles(static_cast<double>(*cycles_)) * 1e9);
  }

  std::uint64_t cycles() const noexcept { return *cycles_; }
  void charge_cycles(std::uint64_t cycles) {
    *cycles_ += cycles;
    trace_charge();
    maybe_trip();
  }

  /// Uniform parallel round: N items, each costing item_cycles, spread
  /// over the block's threads (or `width` threads if given — GPU-FAN runs
  /// grid-wide rounds with width = device_threads()).
  void charge_uniform_round(std::uint64_t items, std::uint64_t item_cycles,
                            std::uint64_t width = 0) {
    if (items == 0) return;
    const std::uint64_t threads = width ? width : cfg_->threads_per_block;
    const std::uint64_t rounds = (items + threads - 1) / threads;
    *cycles_ += rounds * item_cycles;
    trace_charge();
    maybe_trip();
  }

  /// Thread count of an imbalanced round (`width` as for uniform rounds).
  std::uint32_t round_threads(std::uint64_t width = 0) const noexcept {
    const std::uint64_t threads = width ? width : cfg_->threads_per_block;
    return static_cast<std::uint32_t>(std::min<std::uint64_t>(threads, 1u << 20));
  }

  /// Imbalanced round helper; commit with charge_imbalanced_round(). A
  /// caller that runs many rounds can instead keep one ImbalancedRound and
  /// reset(round_threads()) it per round.
  ImbalancedRound make_round(std::uint64_t width = 0) const {
    return ImbalancedRound(round_threads(width));
  }

  void charge_imbalanced_round(const ImbalancedRound& round) {
    *cycles_ += round.cost_cycles(cfg_->cost.thread_ilp);
    trace_charge();
    maybe_trip();
  }

  void charge_barrier() {
    *cycles_ += cfg_->cost.block_barrier;
    ++counters_->barriers;
    trace_charge();
    maybe_trip();
  }

  void charge_grid_sync() {
    *cycles_ += cfg_->cost.grid_relaunch;
    ++counters_->grid_syncs;
    trace_charge();
    maybe_trip();
  }

 private:
  /// kCharge firehose: the ledger as a Chrome counter series after every
  /// charge. Off by default (not in trace::kDefault); when the category is
  /// masked this is one pointer test + one load/AND.
  void trace_charge() {
    if (trace_ && trace_->wants(trace::kCharge)) {
      trace_->counter("sim-cycles", trace::kCharge, sim_ns(),
                      {{"cycles", *cycles_}});
    }
  }

  void maybe_trip() {
    if (arm_ && arm_->armed && *cycles_ >= arm_->trip_cycles) {
      // Disarm before throwing so unwinding charge paths (and the next
      // root on this block) don't re-trip the same fault.
      arm_->armed = false;
      throw DeviceFault(arm_->kind, arm_->root, block_index_, arm_->transient);
    }
  }

  const DeviceConfig* cfg_;
  Counters* counters_;
  std::uint64_t* cycles_;
  FaultArm* arm_;
  std::uint32_t block_index_;
  trace::Sink* trace_;
};

/// A simulated GPU. Owns the memory ledger and the per-block cycle and
/// counter state for the current kernel run.
///
/// Each block has a private Counters ledger in addition to its private
/// cycle accumulator, so blocks may execute on distinct host threads
/// without sharing any mutable state (kernels::BlockDriver relies on
/// this). Aggregation happens only in counters(), after the run.
class Device {
 public:
  explicit Device(DeviceConfig cfg)
      : cfg_(std::move(cfg)), memory_(cfg_.memory_bytes) {}

  const DeviceConfig& config() const noexcept { return cfg_; }
  GlobalMemory& memory() noexcept { return memory_; }
  const GlobalMemory& memory() const noexcept { return memory_; }

  /// Aggregated operation counters: the per-block ledgers merged in
  /// block order. Safe to call only while no block context is live on
  /// another thread (i.e. between runs or after joining block threads).
  Counters counters() const noexcept {
    Counters total;
    for (const Counters& c : block_counters_) total += c;
    return total;
  }

  /// Start a run with `num_blocks` concurrent blocks (one per SM slot).
  void begin_run(std::uint32_t num_blocks) {
    const std::uint32_t n = std::max<std::uint32_t>(num_blocks, 1);
    block_cycles_.assign(n, 0);
    block_counters_.assign(n, Counters{});
    block_arms_.assign(n, FaultArm{});
    block_traces_.assign(n, nullptr);
  }

  /// Attach a trace sink to a block: every BlockContext handed out for the
  /// block records into it. The sink must be written by one thread at a
  /// time (kernels::BlockDriver guarantees a block runs on one host thread
  /// per phase). nullptr detaches.
  void set_block_trace(std::uint32_t index, trace::Sink* sink) {
    block_traces_.at(index) = sink;
  }

  std::uint32_t num_blocks() const noexcept {
    return static_cast<std::uint32_t>(block_cycles_.size());
  }

  BlockContext block(std::uint32_t index) {
    return BlockContext(cfg_, block_counters_.at(index), block_cycles_.at(index),
                        &block_arms_.at(index), index, block_traces_.at(index));
  }

  /// Arm an execution fault on a block: contexts for this block throw
  /// DeviceFault once the block ledger reaches arm-time cycles +
  /// `after_cycles`. The arm auto-disarms when it trips; call disarm()
  /// when the armed root completes without tripping.
  void arm_fault(std::uint32_t index, FaultKind kind, std::uint32_t root,
                 bool transient, std::uint64_t after_cycles) {
    FaultArm& arm = block_arms_.at(index);
    arm.armed = true;
    arm.kind = kind;
    arm.root = root;
    arm.transient = transient;
    arm.trip_cycles = block_cycles_.at(index) + after_cycles;
  }

  void disarm_fault(std::uint32_t index) { block_arms_.at(index).armed = false; }

  std::uint64_t block_cycles(std::uint32_t index) const {
    return block_cycles_.at(index);
  }

  const Counters& block_counters(std::uint32_t index) const {
    return block_counters_.at(index);
  }

  /// Elapsed cycles of the run so far: blocks execute concurrently on
  /// distinct SMs, so the run finishes when the slowest block does.
  std::uint64_t elapsed_cycles() const noexcept {
    return block_cycles_.empty()
               ? 0
               : *std::max_element(block_cycles_.begin(), block_cycles_.end());
  }

  double elapsed_seconds() const noexcept {
    return cfg_.seconds_from_cycles(static_cast<double>(elapsed_cycles()));
  }

  void reset() {
    block_cycles_.clear();
    block_counters_.clear();
    block_arms_.clear();
    block_traces_.clear();
    memory_.release_all();
  }

 private:
  DeviceConfig cfg_;
  GlobalMemory memory_;
  std::vector<std::uint64_t> block_cycles_;
  std::vector<Counters> block_counters_;
  std::vector<FaultArm> block_arms_;
  std::vector<trace::Sink*> block_traces_;  // non-owning; may hold nullptr
};

}  // namespace hbc::gpusim
