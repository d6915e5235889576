#pragma once

// kernels::BlockDriver — the shared run loop behind every GPU-model BC
// strategy.
//
// The paper's coarse-grained design (Algorithm 1) gives each simulated
// thread block its own root and its own O(n) local workspace; blocks share
// nothing but the read-only graph and the global BC accumulator. A
// strategy therefore reduces to a *per-root functor* (forward stage +
// dependency stage over a BCWorkspace and BlockContext); everything else —
// root resolution and validation, device-memory layout, root→block
// scheduling, workspace pooling, per-root stats/cycle collection, and
// metrics finalization — is identical across strategies and lives here.
//
// The device-memory ledger charges every simulated block its own local
// structures (DriverLayout::per_block). The host needs fewer: a workspace
// is fully reset at every root, and at most host_threads() blocks run at
// once, so the driver keeps one BCWorkspace per host thread and leases it
// to a block for the block's share of a phase.
//
// Because blocks are independent, the driver executes them on real host
// threads (util::ThreadPool), one task per block. Determinism holds by
// construction, for every thread count:
//
//   * roots are dealt round-robin: global root index i → block i mod B,
//     exactly the serial schedule, so each block processes the same roots
//     in the same order regardless of which host thread runs it;
//   * each block owns a private Counters/cycle ledger (gpusim::Device) and
//     a private fault arm; the workspace it leases is reset at every root,
//     so which one it gets never shows;
//   * the modelled atomicAdd into the global BC vector lands in the leased
//     workspace's util::ExactSum (64.64 fixed point): integer addition is
//     exact and associative, so finish() merges the workspaces' sums in
//     any order and every score has the same bits however blocks, threads
//     or rescues split the roots. Ledgers are merged in ascending block
//     order. Threading changes wall_seconds only.
//
// Resilience (docs/resilience.md): when RunConfig carries a FaultPlan,
// each root launch may raise a gpusim::DeviceFault. The driver treats the
// root as the unit of recovery — a root counts as processed once its
// launch completes, transient faults are retried in-block, and roots
// that exhaust their in-block budget are deferred to a serial recovery
// sweep at the end of the phase. A faulted attempt adds nothing (every
// charge of the accumulate step comes before its adds), and a rescued
// root's exact sum is the same wherever it lands, so both in-block
// retries and sweep rescues give a fault-free run's scores bit for bit.
// The sweep runs on the driver thread and charges the root's *owning*
// block context. Roots that fail every attempt are reported in
// RunResult::faults instead of aborting. RunConfig::cancel is polled at
// every root boundary (including the sweep), so a deadline or stop()
// takes effect within one root.
//
// docs/driver.md walks through the block→thread mapping in detail.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "gpusim/device.hpp"
#include "graph/csr.hpp"
#include "kernels/bc_state.hpp"
#include "util/timer.hpp"

namespace hbc::kernels {

/// One device-memory allocation replicated for every simulated block
/// (each block's local structures live in global memory on the ledger).
struct PerBlockAllocation {
  std::uint64_t bytes = 0;
  std::string label;
};

/// What a strategy asks the driver to lay out before the run starts.
struct DriverLayout {
  /// Strategy label for the trace's run span (must be a string literal or
  /// otherwise outlive the Tracer — event names are never copied).
  const char* label = "run";
  /// Also keep the per-edge source lookup on the device (edge-parallel
  /// scans need it).
  bool needs_edge_sources = false;
  /// Local structures allocated once per simulated block. Allocation may
  /// throw gpusim::DeviceOutOfMemory (GPU-FAN's O(n^2) cliff) from the
  /// driver constructor.
  std::vector<PerBlockAllocation> per_block;
  /// Simulated block count. 0 = one block per SM (the Jia et al. mapping
  /// the paper adopts); GPU-FAN overrides this to 1 grid-wide block.
  std::uint32_t num_blocks = 0;
};

class BlockDriver {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);

  /// Everything a per-root functor may touch. All mutable references are
  /// private to the executing block, so the functor needs no locking.
  struct RootTask {
    BCWorkspace& ws;               // leased workspace; reset by init_root
    gpusim::BlockContext& ctx;     // this block's cycle/counter ledger
    graph::VertexId root;          // the root to process
    std::size_t index;             // global root index (position in roots())
    std::uint32_t block_id;        // owning simulated block
    util::ExactSum& bc;            // the leased workspace's BC accumulator
    std::uint64_t& we_levels;      // forward-level tallies of the slot
    std::uint64_t& ep_levels;
    /// Per-root stats sink; nullptr unless collect_per_root_stats is set.
    /// `root` and, by the functor, `max_depth`/`iterations` are filled.
    PerRootStats* stats;
    /// This block's trace sink (same as ctx.trace()); nullptr when tracing
    /// is off. Functors emit stage spans / level instants through it with
    /// simulated timestamps (SimSpan, ctx.sim_ns()).
    trace::Sink* trace;
  };

  using RootFn = std::function<void(RootTask&)>;

  /// Resolves roots, builds the device (graph arrays + per-block locals on
  /// the memory ledger, in layout order), picks the host-thread count
  /// (clamp(config.cpu_threads or hardware concurrency, 1, num_blocks))
  /// and makes one workspace and BC accumulator per host thread. Throws std::invalid_argument if a root in config.roots
  /// is not a vertex of `g`.
  BlockDriver(const graph::CSRGraph& g, const RunConfig& config,
              const DriverLayout& layout);
  ~BlockDriver();

  BlockDriver(const BlockDriver&) = delete;
  BlockDriver& operator=(const BlockDriver&) = delete;

  std::uint32_t num_blocks() const noexcept { return num_blocks_; }
  std::size_t host_threads() const noexcept { return host_threads_; }
  std::span<const graph::VertexId> roots() const noexcept { return roots_; }
  /// The simulated device (phase-boundary charges, e.g. sampling's sort).
  /// Touch only between run phases — never while a phase is executing.
  gpusim::Device& device() noexcept { return device_; }

  /// Process the next `count` roots (npos = all remaining) with `fn`,
  /// executing blocks concurrently on the host threads. Returns when every
  /// root of the phase is done (host threads joined at the phase barrier)
  /// — including the recovery sweep for fault-deferred roots. Throws
  /// util::Cancelled if RunConfig::cancel fires (within one root boundary
  /// per block).
  void run_phase(std::size_t count, const RootFn& fn);

  /// Process every remaining root.
  void run(const RootFn& fn) { run_phase(npos, fn); }

  /// Merge the accumulators and finalize metrics (counters, elapsed/sim/
  /// wall time, memory high-water, per-root data).
  RunResult finish();

 private:
  /// A root that exhausted its in-block attempts, parked for the sweep.
  struct DeferredRoot {
    std::size_t index;          // global root index
    std::uint32_t attempts;     // launches consumed so far
    gpusim::FaultKind last_kind;
    bool last_transient;
  };

  /// Simulated nanoseconds for a cycle count (trace timestamps).
  std::uint64_t sim_ns(std::uint64_t cycles) const noexcept;

  /// A host thread's share of the host state: the workspace it leases to
  /// a block, and the BC accumulator and level tallies that block's roots
  /// add into (sums of integers: where a root adds never shows).
  struct HostSlot {
    explicit HostSlot(const graph::CSRGraph& g) : ws(g), bc(g.num_vertices()) {}
    BCWorkspace ws;
    util::ExactSum bc;
    std::uint64_t we_levels = 0;
    std::uint64_t ep_levels = 0;
  };

  void process_block(std::uint32_t block, std::size_t begin, std::size_t end,
                     const RootFn& fn);
  /// Take an idle slot / give it back (thread-safe).
  HostSlot& lease_slot();
  void return_slot(HostSlot& slot);
  /// One launch of root index `i` on `block` in `slot`: inject/arm plan
  /// faults for `plan_attempt`, run `fn`, disarm. Throws
  /// gpusim::DeviceFault when the launch fails or an armed fault trips
  /// mid-kernel.
  void launch_root(HostSlot& slot, std::uint32_t block, gpusim::BlockContext& ctx,
                   std::size_t i, std::uint32_t plan_attempt, const RootFn& fn);
  /// Serially retry the phase's deferred roots in ascending root order,
  /// charging each root's owning block (run after the phase barrier).
  void recovery_sweep(const RootFn& fn);

  const graph::CSRGraph* g_;
  const RunConfig* config_;
  util::Timer wall_;
  gpusim::Device device_;
  std::uint32_t num_blocks_ = 1;
  std::size_t host_threads_ = 1;
  std::uint32_t max_attempts_ = 3;    // total launches per root
  std::uint32_t in_block_budget_ = 2; // launches before deferring to sweep
  std::vector<graph::VertexId> roots_;
  std::size_t next_index_ = 0;
  std::vector<std::unique_ptr<HostSlot>> slots_;  // one per host thread
  std::mutex slot_mu_;                            // guards idle_slots_
  std::vector<HostSlot*> idle_slots_;             // not leased to a block
  std::vector<PerRootStats> per_root_;          // root-indexed, if enabled
  std::vector<std::uint64_t> per_root_cycles_;  // root-indexed, if enabled
  std::vector<std::vector<DeferredRoot>> deferred_;     // one list per block
  std::vector<gpusim::FaultReport> block_reports_;      // one per block
  gpusim::FaultReport report_;  // merged in block order at phase end

  // Trace capture (all null/empty when RunConfig::tracer is null). The
  // driver sink carries the run span; per-block sinks are registered in
  // ascending block order so export order is deterministic.
  const char* run_label_ = "run";
  std::shared_ptr<trace::Sink> driver_sink_;
  std::vector<std::shared_ptr<trace::Sink>> block_sinks_;
};

}  // namespace hbc::kernels
