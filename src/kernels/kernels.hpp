#pragma once

// Public entry points for the six GPU-model BC kernels:
//
//   run_vertex_parallel  — Jia et al. vertex-parallel baseline (§III.A)
//   run_edge_parallel    — Jia et al. edge-parallel baseline (§III.A),
//                          the best prior GPU method the paper compares to
//   run_gpufan           — Shi & Zhang GPU-FAN model (§III.B): edge-
//                          parallel, fine-grained only, O(n^2) predecessor
//   run_work_efficient   — the paper's Algorithms 1–3
//   run_hybrid           — Algorithm 4 (per-iteration strategy switch)
//   run_sampling         — Algorithm 5 (on-line structure probe)
//   run_direction_optimized — extension: Beamer top-down/bottom-up
//                          switching applied to BC (related work, §VI)
//
// Every kernel computes cpu::brandes's per-root dependencies and adds them
// exactly (util::ExactSum), so its BC vector is cpu::brandes's over the
// same root set, bit for bit.

#include <cstdint>
#include <optional>
#include <string>

#include "kernels/bc_state.hpp"

namespace hbc::kernels {

/// Every engine core::compute can run (core::Strategy is this enum). The
/// numeric values travel as a u8 on the wire and in coordinator
/// snapshots, so they are fixed and members are only ever appended.
enum class Strategy {
  CpuSerial = 0,       // Brandes oracle (single thread)
  CpuParallel = 1,     // Brandes, threads split the roots (cpu-serial's bits)
  // 2 was cpu-fine-grained, which ran as CpuParallel; it reads as that.
  VertexParallel = 3,  // Jia et al. baseline (GPU model)
  EdgeParallel = 4,    // Jia et al. baseline (GPU model)
  GpuFan = 5,          // Shi & Zhang baseline (GPU model)
  WorkEfficient = 6,   // paper Algorithms 1–3 (GPU model)
  Hybrid = 7,          // paper Algorithm 4
  Sampling = 8,        // paper Algorithm 5 (the paper's best overall)
  DirectionOptimized = 9,  // extension: Beamer-style top-down/bottom-up BC
};

const char* to_string(Strategy strategy) noexcept;

/// Parse a strategy name; round-trips with to_string for every Strategy.
/// Accepted spellings (canonical first): "cpu-serial"/"cpu",
/// "cpu-parallel" (also "cpu-fine-grained"/"cpu-fine"), "vertex-parallel"/
/// "vertex", "edge-parallel"/"edge", "gpu-fan"/"gpufan",
/// "work-efficient"/"we", "hybrid", "sampling",
/// "direction-optimized"/"diropt". Throws std::invalid_argument on
/// anything else.
Strategy strategy_from_string(const std::string& name);

/// The strategy a wire or snapshot byte names (2, the retired
/// cpu-fine-grained, names CpuParallel); nullopt for any other byte that
/// names no strategy.
std::optional<Strategy> strategy_from_wire(std::uint8_t value) noexcept;

/// True for the strategies that run on the simulated GPU (everything but
/// the two CPU strategies). Every strategy is bitwise-deterministic in
/// `core::Options::cpu_threads`.
bool uses_gpu_model(Strategy strategy) noexcept;

RunResult run_vertex_parallel(const graph::CSRGraph& g, const RunConfig& config);
RunResult run_edge_parallel(const graph::CSRGraph& g, const RunConfig& config);
RunResult run_gpufan(const graph::CSRGraph& g, const RunConfig& config);
RunResult run_work_efficient(const graph::CSRGraph& g, const RunConfig& config);
RunResult run_hybrid(const graph::CSRGraph& g, const RunConfig& config);
RunResult run_sampling(const graph::CSRGraph& g, const RunConfig& config);
RunResult run_direction_optimized(const graph::CSRGraph& g, const RunConfig& config);

/// Dispatch by strategy enum. Throws std::invalid_argument for the CPU
/// engines, which core::compute runs without a simulated device.
RunResult run_strategy(Strategy strategy, const graph::CSRGraph& g,
                       const RunConfig& config);

}  // namespace hbc::kernels
