#include "kernels/block_driver.hpp"

#include <algorithm>
#include <string>
#include <thread>
#include <utility>

#include "kernels/detail.hpp"
#include "util/thread_pool.hpp"

namespace hbc::kernels {

using graph::CSRGraph;

BlockDriver::BlockDriver(const CSRGraph& g, const RunConfig& config,
                         const DriverLayout& layout)
    : g_(&g),
      config_(&config),
      device_(config.device),
      roots_(detail::resolve_roots(g, config)) {
  // A layout-forced grid (GPU-FAN's single block) wins over the SM count.
  num_blocks_ = std::max<std::uint32_t>(
      layout.num_blocks != 0 ? layout.num_blocks : config.device.num_sms, 1);

  // Device-memory layout: the replicated graph arrays, then each block's
  // local structures — the same ledger order as the serial drivers, so
  // high-water marks (and OOM behaviour) are unchanged. Graph arrays are
  // charged at the storage policy's *decoded* sizes: the simulated upload
  // decompresses, so the ledger is identical across backings.
  detail::allocate_graph(device_, g, layout.needs_edge_sources);
  for (std::uint32_t b = 0; b < num_blocks_; ++b) {
    for (const PerBlockAllocation& alloc : layout.per_block) {
      device_.memory().allocate(alloc.bytes, alloc.label);
    }
  }
  device_.begin_run(num_blocks_);

  if (config.collect_per_root_stats) per_root_.resize(roots_.size());
  if (config.collect_root_cycles) per_root_cycles_.assign(roots_.size(), 0);
  deferred_.resize(num_blocks_);
  block_reports_.resize(num_blocks_);

  // Attempt budget: a root gets max_root_attempts launches in total. The
  // last one is reserved for the serial recovery sweep (the "reassignment"
  // lane); the rest happen in-block, back to back.
  max_attempts_ = std::max<std::uint32_t>(config.max_root_attempts, 1);
  in_block_budget_ = std::max<std::uint32_t>(max_attempts_ - 1, 1);

  const std::size_t requested =
      config.cpu_threads != 0
          ? config.cpu_threads
          : std::max<std::size_t>(1, std::thread::hardware_concurrency());
  host_threads_ = std::clamp<std::size_t>(requested, 1, num_blocks_);

  // At most host_threads_ blocks execute at once, a workspace is fully
  // reset at every root and the accumulators are exact, so one slot per
  // host thread serves them all.
  slots_.reserve(host_threads_);
  idle_slots_.reserve(host_threads_);
  for (std::size_t t = 0; t < host_threads_; ++t) {
    slots_.push_back(std::make_unique<HostSlot>(g));
    idle_slots_.push_back(slots_.back().get());
  }

  // Trace capture: one driver sink (the run span) plus one sink per block,
  // registered here, on the driver thread, in ascending block order — the
  // registration order is the export order, and block events are stamped
  // from the block's cycle ledger, so a capture is bitwise-identical at
  // every host-thread count. Note the args deliberately exclude
  // host_threads: it is the one knob allowed to differ between runs that
  // must produce identical traces.
  run_label_ = layout.label;
  if (trace::Tracer* tracer = config.tracer) {
    driver_sink_ = tracer->make_sink("driver", trace::kSimDevicePid, num_blocks_);
    block_sinks_.reserve(num_blocks_);
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      block_sinks_.push_back(tracer->make_sink("block " + std::to_string(b),
                                               trace::kSimDevicePid, b));
      device_.set_block_trace(b, block_sinks_.back().get());
    }
    driver_sink_->begin(run_label_, trace::kRun, 0,
                        {{"blocks", num_blocks_},
                         {"roots", static_cast<std::uint64_t>(roots_.size())}});
  }
}

BlockDriver::~BlockDriver() = default;

std::uint64_t BlockDriver::sim_ns(std::uint64_t cycles) const noexcept {
  return static_cast<std::uint64_t>(
      device_.config().seconds_from_cycles(static_cast<double>(cycles)) * 1e9);
}

BlockDriver::HostSlot& BlockDriver::lease_slot() {
  std::lock_guard<std::mutex> lock(slot_mu_);
  HostSlot* slot = idle_slots_.back();
  idle_slots_.pop_back();
  return *slot;
}

void BlockDriver::return_slot(HostSlot& slot) {
  std::lock_guard<std::mutex> lock(slot_mu_);
  idle_slots_.push_back(&slot);
}

void BlockDriver::launch_root(HostSlot& slot, std::uint32_t block,
                              gpusim::BlockContext& ctx, std::size_t i,
                              std::uint32_t plan_attempt, const RootFn& fn) {
  const auto root32 = static_cast<std::uint32_t>(roots_[i]);
  if (const gpusim::FaultPlan* plan = config_->fault_plan.get()) {
    // Launch-stage faults fail before any work is done or charged.
    if (const auto lf = plan->launch_fault(root32, plan_attempt)) {
      throw gpusim::DeviceFault(lf->kind, root32, block, lf->transient);
    }
    // Execution-stage faults trip from inside the charge paths once the
    // block ledger advances `after_cycles` past this point.
    if (const auto ef = plan->execution_fault(root32, plan_attempt)) {
      device_.arm_fault(block, ef->kind, root32, ef->transient, ef->after_cycles);
    }
  }
  RootTask task{slot.ws,
                ctx,
                roots_[i],
                i,
                block,
                slot.bc,
                slot.we_levels,
                slot.ep_levels,
                nullptr,
                ctx.trace()};
  if (config_->collect_per_root_stats) {
    // Reset the sink each launch so a retried root doesn't duplicate
    // iteration records from the aborted attempt.
    per_root_[i] = PerRootStats{};
    per_root_[i].root = roots_[i];
    task.stats = &per_root_[i];
  }
  const std::uint64_t root_start_cycles = ctx.cycles();
  try {
    // The launch span covers one attempt; SimSpan closes it during unwind
    // when a fault trips mid-kernel, so spans stay balanced in the trace.
    SimSpan launch(task.trace, ctx, "launch", trace::kRoot,
                   {{"root", std::uint64_t{root32}},
                    {"attempt", std::uint64_t{plan_attempt}}});
    fn(task);
  } catch (...) {
    // A tripped arm self-disarms; an untripped one must not leak into the
    // next root (or the phase-boundary charges).
    device_.disarm_fault(block);
    throw;
  }
  device_.disarm_fault(block);
  if (config_->collect_root_cycles) {
    // Cycles of the completing attempt; aborted attempts' cycles stay in
    // the block ledger (wasted device time) but not in the per-root view.
    per_root_cycles_[i] = ctx.cycles() - root_start_cycles;
  }
}

void BlockDriver::process_block(std::uint32_t block, std::size_t begin,
                                std::size_t end, const RootFn& fn) {
  gpusim::BlockContext ctx = device_.block(block);
  trace::Sink* sink = ctx.trace();
  gpusim::FaultReport& rep = block_reports_[block];
  // The pool runs at most host_threads_ blocks at once, so a slot is
  // always idle here; it goes back when the block's phase ends or throws.
  HostSlot& slot = lease_slot();
  struct Return {
    BlockDriver* driver;
    HostSlot* slot;
    ~Return() { driver->return_slot(*slot); }
  } give_back{this, &slot};
  const std::uint32_t epoch_base = config_->fault_retry_epoch * max_attempts_;
  SimSpan phase_span(sink, ctx, "phase", trace::kRun,
                     {{"first_root", static_cast<std::uint64_t>(begin)},
                      {"end_root", static_cast<std::uint64_t>(end)}});
  // This block owns every global index ≡ block (mod B) — the serial
  // round-robin deal, so the schedule is identical for any thread count.
  const std::size_t phase = begin % num_blocks_;
  std::size_t i = begin + (block + num_blocks_ - phase) % num_blocks_;
  for (; i < end; i += num_blocks_) {
    // Root boundary: the only cancellation point. An inert token is one
    // pointer test, so fault-free runs pay (almost) nothing.
    config_->cancel.check();
    SimSpan root_span(sink, ctx, "root", trace::kRoot,
                      {{"root", static_cast<std::uint64_t>(roots_[i])},
                       {"index", static_cast<std::uint64_t>(i)}});
    std::uint32_t attempt = 0;
    while (true) {
      try {
        launch_root(slot, block, ctx, i, epoch_base + attempt, fn);
        ++ctx.counters().roots_processed;
        break;
      } catch (const gpusim::DeviceFault& f) {
        ++rep.faults_injected;
        ++attempt;
        if (sink && sink->wants(trace::kFault)) {
          sink->instant("fault", trace::kFault, ctx.sim_ns(),
                        {{"kind", gpusim::to_string(f.kind())},
                         {"root", std::uint64_t{f.root()}},
                         {"transient", f.transient() ? std::uint64_t{1}
                                                     : std::uint64_t{0}}});
        }
        // Retry transient faults back to back while the in-block budget
        // lasts; park everything else for the phase-end recovery sweep
        // (persistent faults would fail identically here anyway).
        if (f.transient() && attempt < in_block_budget_) {
          ++rep.retries;
          if (sink && sink->wants(trace::kFault)) {
            sink->instant("retry", trace::kFault, ctx.sim_ns(),
                          {{"root", std::uint64_t{f.root()}},
                           {"attempt", std::uint64_t{attempt}}});
          }
          continue;
        }
        deferred_[block].push_back(
            DeferredRoot{i, attempt, f.kind(), f.transient()});
        if (sink && sink->wants(trace::kFault)) {
          sink->instant("deferred", trace::kFault, ctx.sim_ns(),
                        {{"root", std::uint64_t{f.root()}},
                         {"attempts", std::uint64_t{attempt}}});
        }
        break;
      }
    }
  }
}

void BlockDriver::run_phase(std::size_t count, const RootFn& fn) {
  const std::size_t begin = next_index_;
  const std::size_t end =
      count == npos ? roots_.size() : std::min(roots_.size(), begin + count);
  next_index_ = end;
  if (begin >= end) return;

  if (host_threads_ <= 1) {
    for (std::uint32_t b = 0; b < num_blocks_; ++b) {
      process_block(b, begin, end, fn);
    }
  } else {
    // One task per simulated block; blocks share no mutable state, so the
    // pool may interleave them freely. parallel_for blocks until all are
    // done — the phase barrier every strategy's serial loop had
    // implicitly. Pool tasks must not throw (the pool terminates), so
    // each block captures its exception and the driver thread rethrows
    // the lowest block's after the join — a deterministic choice.
    std::vector<std::exception_ptr> errors(num_blocks_);
    util::ThreadPool pool(host_threads_);
    pool.parallel_for(num_blocks_, [&](std::size_t b) {
      try {
        process_block(static_cast<std::uint32_t>(b), begin, end, fn);
      } catch (...) {
        errors[b] = std::current_exception();
      }
    });
    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
    }
  }
  recovery_sweep(fn);
}

void BlockDriver::recovery_sweep(const RootFn& fn) {
  // Merge the phase's per-block fault accounting in block order.
  for (std::uint32_t b = 0; b < num_blocks_; ++b) {
    report_ += block_reports_[b];
    block_reports_[b] = gpusim::FaultReport{};
  }
  std::vector<DeferredRoot> parked;
  for (std::uint32_t b = 0; b < num_blocks_; ++b) {
    parked.insert(parked.end(), deferred_[b].begin(), deferred_[b].end());
    deferred_[b].clear();
  }
  if (parked.empty()) return;
  // Serial, ascending-root-index order on the driver thread: deterministic
  // no matter which host thread deferred each root. Each rescue executes
  // in any slot (the pool is idle after the barrier) with the root's
  // OWNING block context; its exact sum lands in that slot's accumulator,
  // so a rescued run has a clean run's scores bit for bit.
  std::sort(parked.begin(), parked.end(),
            [](const DeferredRoot& a, const DeferredRoot& b) {
              return a.index < b.index;
            });
  const std::uint32_t epoch_base = config_->fault_retry_epoch * max_attempts_;
  for (const DeferredRoot& d : parked) {
    config_->cancel.check();
    std::uint32_t attempt = d.attempts;
    gpusim::FaultKind last_kind = d.last_kind;
    bool last_transient = d.last_transient;
    bool completed = false;
    const auto block = static_cast<std::uint32_t>(d.index % num_blocks_);
    // The sweep runs on the driver thread after the phase barrier, so
    // writing the owning block's sink here is still single-writer; the
    // block ledger keeps growing, so timestamps stay monotonic per sink.
    gpusim::BlockContext ctx = device_.block(block);
    trace::Sink* sink = ctx.trace();
    SimSpan rescue_span(sink, ctx, "rescue", trace::kFault,
                        {{"root", static_cast<std::uint64_t>(roots_[d.index])},
                         {"prior_attempts", std::uint64_t{d.attempts}}});
    while (last_transient && attempt < max_attempts_) {
      ++report_.retries;
      try {
        launch_root(*slots_.front(), block, ctx, d.index, epoch_base + attempt, fn);
        ++ctx.counters().roots_processed;
        ++report_.rescued_roots;
        completed = true;
        break;
      } catch (const gpusim::DeviceFault& f) {
        ++report_.faults_injected;
        ++attempt;
        last_kind = f.kind();
        last_transient = f.transient();
        if (sink && sink->wants(trace::kFault)) {
          sink->instant("fault", trace::kFault, ctx.sim_ns(),
                        {{"kind", gpusim::to_string(f.kind())},
                         {"root", std::uint64_t{f.root()}},
                         {"transient", f.transient() ? std::uint64_t{1}
                                                     : std::uint64_t{0}}});
        }
      }
    }
    if (sink && sink->wants(trace::kFault)) {
      if (completed) {
        sink->instant("rescued", trace::kFault, ctx.sim_ns(),
                      {{"root", static_cast<std::uint64_t>(roots_[d.index])}});
      } else {
        sink->instant("root-failed", trace::kFault, ctx.sim_ns(),
                      {{"root", static_cast<std::uint64_t>(roots_[d.index])},
                       {"kind", gpusim::to_string(last_kind)},
                       {"attempts", std::uint64_t{attempt}}});
      }
    }
    if (!completed) {
      report_.failed_roots.push_back(gpusim::RootFailure{
          static_cast<std::uint32_t>(roots_[d.index]), last_kind, attempt,
          last_transient});
    }
  }
  std::sort(report_.failed_roots.begin(), report_.failed_roots.end(),
            [](const gpusim::RootFailure& a, const gpusim::RootFailure& b) {
              return a.root < b.root;
            });
}

RunResult BlockDriver::finish() {
  RunResult result;
  // Sums of integers: any merge order gives the same cells and tallies.
  result.sums = std::move(slots_.front()->bc);
  for (std::size_t t = 1; t < slots_.size(); ++t) result.sums.merge(slots_[t]->bc);
  result.bc = result.sums.to_doubles();
  for (const std::unique_ptr<HostSlot>& slot : slots_) {
    result.metrics.we_levels += slot->we_levels;
    result.metrics.ep_levels += slot->ep_levels;
  }
  if (config_->collect_per_root_stats) result.per_root = std::move(per_root_);
  if (config_->collect_root_cycles) {
    result.metrics.per_root_cycles = std::move(per_root_cycles_);
  }
  result.metrics.counters = device_.counters();
  result.metrics.elapsed_cycles = device_.elapsed_cycles();
  result.metrics.sim_seconds = device_.elapsed_seconds();
  result.metrics.wall_seconds = wall_.elapsed_seconds();
  result.metrics.device_memory_high_water = device_.memory().high_water_mark();
  if (driver_sink_) {
    // Run span ends when the slowest block does (device time semantics).
    driver_sink_->end(run_label_, trace::kRun, sim_ns(result.metrics.elapsed_cycles));
  }
  result.faults = std::move(report_);
  report_ = gpusim::FaultReport{};
  return result;
}

}  // namespace hbc::kernels
