#include "dist/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace hbc::dist {

using graph::VertexId;

double InterconnectModel::reduce_seconds(std::uint64_t bytes, std::uint32_t nodes) const
    noexcept {
  if (nodes <= 1) return 0.0;
  const double steps = std::ceil(std::log2(static_cast<double>(nodes)));
  return steps * (latency_seconds +
                  static_cast<double>(bytes) / bandwidth_bytes_per_s);
}

double InterconnectModel::node_accumulate_seconds(std::uint64_t bytes,
                                                  std::uint32_t gpus) const noexcept {
  if (gpus <= 1) return 0.0;
  return static_cast<double>(gpus) *
         (static_cast<double>(bytes) / pcie_bandwidth_bytes_per_s);
}

namespace {

struct GpuOutcome {
  std::vector<double> bc;
  double seconds = 0.0;
  gpusim::Counters counters;
  std::uint64_t roots = 0;
};

GpuOutcome run_one_gpu(const graph::CSRGraph& g, const ClusterConfig& config,
                       std::vector<VertexId> roots) {
  kernels::RunConfig rc;
  rc.roots = std::move(roots);
  rc.device = config.device;
  rc.hybrid = config.hybrid;
  rc.sampling = config.sampling;

  kernels::RunResult r = kernels::run_strategy(config.strategy, g, rc);
  GpuOutcome out;
  out.bc = std::move(r.bc);
  out.seconds = r.metrics.sim_seconds;
  out.counters = r.metrics.counters;
  out.roots = r.metrics.counters.roots_processed;
  return out;
}

}  // namespace

ClusterResult run_cluster_bc(const graph::CSRGraph& g, const ClusterConfig& config,
                             const std::vector<VertexId>& roots_in) {
  const VertexId n = g.num_vertices();
  std::vector<VertexId> roots = roots_in;
  if (roots.empty()) {
    roots.resize(n);
    std::iota(roots.begin(), roots.end(), VertexId{0});
  }

  const std::uint32_t total_gpus = config.nodes * config.gpus_per_node;
  ClusterResult result;
  result.total_gpus = total_gpus;
  result.bc.assign(n, 0.0);
  result.per_gpu_seconds.assign(total_gpus, 0.0);

  // Static partition of roots over GPUs — "we extend the algorithm by
  // distributing a subset of roots to each GPU".
  auto gpu_roots = [&](std::uint32_t gpu) {
    std::vector<VertexId> mine;
    if (config.distribution == RootDistribution::RoundRobin) {
      for (std::size_t i = gpu; i < roots.size(); i += total_gpus) {
        mine.push_back(roots[i]);
      }
    } else {
      const std::size_t per = roots.size() / total_gpus;
      const std::size_t extra = roots.size() % total_gpus;
      const std::size_t begin = gpu * per + std::min<std::size_t>(gpu, extra);
      const std::size_t len = per + (gpu < extra ? 1 : 0);
      mine.assign(roots.begin() + static_cast<std::ptrdiff_t>(begin),
                  roots.begin() + static_cast<std::ptrdiff_t>(begin + len));
    }
    return mine;
  };

  const std::uint64_t bc_bytes = static_cast<std::uint64_t>(n) * sizeof(double);
  std::vector<double> node_seconds(config.nodes, 0.0);

  for (std::uint32_t node = 0; node < config.nodes; ++node) {
    std::vector<double> node_bc(n, 0.0);
    double node_compute = 0.0;
    for (std::uint32_t local = 0; local < config.gpus_per_node; ++local) {
      const std::uint32_t gpu = node * config.gpus_per_node + local;
      GpuOutcome out = run_one_gpu(g, config, gpu_roots(gpu));
      for (VertexId v = 0; v < n; ++v) node_bc[v] += out.bc[v];
      result.per_gpu_seconds[gpu] = out.seconds;
      node_compute = std::max(node_compute, out.seconds);
      result.counters += out.counters;
      result.roots_processed += out.roots;
    }
    node_seconds[node] =
        node_compute +
        config.interconnect.node_accumulate_seconds(bc_bytes, config.gpus_per_node);
    // Node-level partials combine in node order (the MPI_Reduce).
    for (VertexId v = 0; v < n; ++v) result.bc[v] += node_bc[v];
  }

  result.compute_seconds =
      result.per_gpu_seconds.empty()
          ? 0.0
          : *std::max_element(result.per_gpu_seconds.begin(), result.per_gpu_seconds.end());
  result.reduce_seconds = config.interconnect.reduce_seconds(bc_bytes, config.nodes);
  const double slowest_node =
      node_seconds.empty() ? 0.0
                           : *std::max_element(node_seconds.begin(), node_seconds.end());
  result.sim_seconds = slowest_node + result.reduce_seconds;
  return result;
}

ClusterTimeBreakdown model_cluster_time(std::span<const std::uint64_t> root_cycles,
                                        const ClusterConfig& config,
                                        graph::VertexId num_vertices) {
  ClusterTimeBreakdown out;
  const std::uint32_t total_gpus = config.nodes * config.gpus_per_node;
  if (total_gpus == 0 || root_cycles.empty()) return out;

  const std::uint64_t bc_bytes = static_cast<std::uint64_t>(num_vertices) * sizeof(double);
  const std::uint32_t blocks = std::max<std::uint32_t>(1, config.device.num_sms);

  std::vector<double> node_seconds(config.nodes, 0.0);
  const std::size_t per = root_cycles.size() / total_gpus;
  const std::size_t extra = root_cycles.size() % total_gpus;
  std::size_t cursor = 0;
  for (std::uint32_t node = 0; node < config.nodes; ++node) {
    double node_compute = 0.0;
    for (std::uint32_t local = 0; local < config.gpus_per_node; ++local) {
      const std::uint32_t gpu = node * config.gpus_per_node + local;
      // Round-robin the GPU's roots over its SM blocks; GPU time is the
      // slowest block (mirrors Device::elapsed_cycles()).
      std::vector<std::uint64_t> block_cycles(blocks, 0);
      if (config.distribution == RootDistribution::RoundRobin) {
        std::size_t slot = 0;
        for (std::size_t i = gpu; i < root_cycles.size(); i += total_gpus, ++slot) {
          block_cycles[slot % blocks] += root_cycles[i];
        }
      } else {
        const std::size_t len = per + (gpu < extra ? 1 : 0);
        for (std::size_t i = 0; i < len; ++i) {
          block_cycles[i % blocks] += root_cycles[cursor + i];
        }
        cursor += len;
      }
      const std::uint64_t gpu_cycles =
          *std::max_element(block_cycles.begin(), block_cycles.end());
      node_compute = std::max(
          node_compute, config.device.seconds_from_cycles(static_cast<double>(gpu_cycles)));
    }
    node_seconds[node] =
        node_compute +
        config.interconnect.node_accumulate_seconds(bc_bytes, config.gpus_per_node);
    out.compute_seconds = std::max(out.compute_seconds, node_compute);
  }
  out.reduce_seconds = config.interconnect.reduce_seconds(bc_bytes, config.nodes);
  out.sim_seconds =
      *std::max_element(node_seconds.begin(), node_seconds.end()) + out.reduce_seconds;
  return out;
}

}  // namespace hbc::dist
