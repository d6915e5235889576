#pragma once

// Multi-GPU / multi-node BC driver (paper §V.D): the graph is replicated
// on every GPU, BC roots are statically partitioned across GPUs, each GPU
// runs a single-GPU kernel over its subset, per-GPU partial BC vectors are
// summed within a node, and node-level partials are combined with an
// MPI_Reduce. The compute side runs the real kernels (one simulated
// device per GPU); the interconnect side is an analytic latency+bandwidth
// model of the Keeneland-style Infiniband QDR fabric.

#include <cstdint>
#include <span>
#include <vector>

#include "gpusim/config.hpp"
#include "graph/csr.hpp"
#include "kernels/kernels.hpp"

namespace hbc::dist {

struct InterconnectModel {
  double latency_seconds = 5e-6;        // per message (IB QDR class)
  double bandwidth_bytes_per_s = 4e9;   // ~32 Gb/s effective
  double pcie_bandwidth_bytes_per_s = 6e9;  // intra-node GPU->host copy

  /// Tree MPI_Reduce of `bytes` over `nodes` ranks.
  double reduce_seconds(std::uint64_t bytes, std::uint32_t nodes) const noexcept;

  /// Intra-node accumulation: copy each GPU's vector to the host and sum.
  double node_accumulate_seconds(std::uint64_t bytes, std::uint32_t gpus) const noexcept;
};

/// How roots are assigned to GPUs. The paper uses a static even split and
/// notes imbalance is "more probable" on graphs with many components —
/// contiguous chunks of kron roots include runs of free (isolated)
/// vertices, while interleaving mixes costs evenly (see bench_ablation).
enum class RootDistribution {
  Contiguous,  // GPU g gets roots [g*k, (g+1)*k)
  RoundRobin,  // root i goes to GPU i % G
};

struct ClusterConfig {
  std::uint32_t nodes = 1;
  std::uint32_t gpus_per_node = 3;  // KIDS: three Tesla M2090 per node
  RootDistribution distribution = RootDistribution::Contiguous;
  gpusim::DeviceConfig device = gpusim::tesla_m2090();
  InterconnectModel interconnect;
  kernels::Strategy strategy = kernels::Strategy::Sampling;
  kernels::HybridParams hybrid;
  kernels::SamplingParams sampling;
};

struct ClusterResult {
  std::vector<double> bc;
  std::uint64_t total_gpus = 0;
  std::uint64_t roots_processed = 0;

  /// Modelled end-to-end time: max over nodes of (compute + intra-node
  /// accumulation) + inter-node reduction.
  double sim_seconds = 0.0;
  double compute_seconds = 0.0;  // max over GPUs
  double reduce_seconds = 0.0;   // interconnect share
  std::vector<double> per_gpu_seconds;

  gpusim::Counters counters;  // summed over GPUs
};

/// Compute BC over `roots` (empty = all vertices) on the modelled cluster.
ClusterResult run_cluster_bc(const graph::CSRGraph& g, const ClusterConfig& config,
                             const std::vector<graph::VertexId>& roots = {});

struct ClusterTimeBreakdown {
  double sim_seconds = 0.0;
  double compute_seconds = 0.0;
  double reduce_seconds = 0.0;
};

/// Evaluate the cluster time model from per-root simulated cycles (one
/// kernel run with RunConfig::collect_root_cycles supplies them). Roots
/// are partitioned contiguously across GPUs exactly as run_cluster_bc
/// does; GPUs inside a block interleave roots round-robin over num_sms
/// blocks, so a GPU's time is the max over its blocks. Lets a bench sweep
/// node counts without re-running the kernels (Figure 6 / Table IV).
ClusterTimeBreakdown model_cluster_time(std::span<const std::uint64_t> root_cycles,
                                        const ClusterConfig& config,
                                        graph::VertexId num_vertices);

}  // namespace hbc::dist
