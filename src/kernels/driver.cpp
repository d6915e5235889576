#include "kernels/kernels.hpp"

#include <stdexcept>

namespace hbc::kernels {

const char* to_string(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::CpuSerial: return "cpu-serial";
    case Strategy::CpuParallel: return "cpu-parallel";
    case Strategy::CpuFineGrained: return "cpu-fine-grained";
    case Strategy::VertexParallel: return "vertex-parallel";
    case Strategy::EdgeParallel: return "edge-parallel";
    case Strategy::GpuFan: return "gpu-fan";
    case Strategy::WorkEfficient: return "work-efficient";
    case Strategy::Hybrid: return "hybrid";
    case Strategy::Sampling: return "sampling";
    case Strategy::DirectionOptimized: return "direction-optimized";
  }
  return "?";
}

Strategy strategy_from_string(const std::string& name) {
  if (name == "cpu" || name == "cpu-serial") return Strategy::CpuSerial;
  if (name == "cpu-parallel") return Strategy::CpuParallel;
  if (name == "cpu-fine-grained" || name == "cpu-fine") return Strategy::CpuFineGrained;
  if (name == "vertex" || name == "vertex-parallel") return Strategy::VertexParallel;
  if (name == "edge" || name == "edge-parallel") return Strategy::EdgeParallel;
  if (name == "gpufan" || name == "gpu-fan") return Strategy::GpuFan;
  if (name == "we" || name == "work-efficient") return Strategy::WorkEfficient;
  if (name == "hybrid") return Strategy::Hybrid;
  if (name == "sampling") return Strategy::Sampling;
  if (name == "diropt" || name == "direction-optimized") return Strategy::DirectionOptimized;
  throw std::invalid_argument("unknown strategy name: " + name);
}

bool uses_gpu_model(Strategy strategy) noexcept {
  switch (strategy) {
    case Strategy::CpuSerial:
    case Strategy::CpuParallel:
    case Strategy::CpuFineGrained:
      return false;
    default:
      return true;
  }
}

RunResult run_strategy(Strategy strategy, const graph::CSRGraph& g,
                       const RunConfig& config) {
  switch (strategy) {
    case Strategy::VertexParallel: return run_vertex_parallel(g, config);
    case Strategy::EdgeParallel: return run_edge_parallel(g, config);
    case Strategy::GpuFan: return run_gpufan(g, config);
    case Strategy::WorkEfficient: return run_work_efficient(g, config);
    case Strategy::Hybrid: return run_hybrid(g, config);
    case Strategy::Sampling: return run_sampling(g, config);
    case Strategy::DirectionOptimized: return run_direction_optimized(g, config);
    case Strategy::CpuSerial:
    case Strategy::CpuParallel:
    case Strategy::CpuFineGrained:
      break;
  }
  throw std::invalid_argument(std::string("not a kernel strategy: ") + to_string(strategy));
}

}  // namespace hbc::kernels
