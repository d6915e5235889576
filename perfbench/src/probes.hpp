#pragma once

// Layer probes for stages the workloads cannot time from outside. They run
// only in the traced run, on the workload's own graphs and roots, and
// fill a metric only where the workload did not measure it itself
// (Values::emplace).

#include <string>
#include <vector>

#include "common.hpp"

namespace perfbench {

struct ProbeInput {
  std::string name;  // file-name stem for the .hbcg/.hbcgz copies
  const graph::CSRGraph* graph = nullptr;
  std::vector<graph::VertexId> roots;
};

/// graph: save + io::open_mapped (.hbcg and .hbcgz), neighbour iteration
/// through the CSRGraph facade per backing plus the compressed streaming
/// decode, and the .hbcgz/heap slowdown of one cpu-serial job.
void probe_graph(const std::vector<ProbeInput>& inputs, Values& v, Spans& spans);

/// kernels: the BCWorkspace forward and dependency stages per root, as
/// bench_micro's BM_WorkEfficientForward drives them.
void probe_kernel_stages(const std::vector<ProbeInput>& inputs, Values& v);

/// cpu + core: cpu-serial and cpu-parallel (nproc threads) MTEPS and the
/// core::compute overhead over the engine's own wall time.
void probe_cpu(const ProbeInput& input, Values& v, Spans& spans);

/// service::ResultCache lookup cost with keys built from the graph.
void probe_cache(const graph::CSRGraph& g, Values& v);

/// wire encode/decode of an n-double ShardResultMsg. Returns its size.
std::size_t probe_wire(graph::VertexId n, Values& v);

}  // namespace perfbench
