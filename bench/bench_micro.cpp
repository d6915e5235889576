// Google-benchmark micro-benchmarks of the algorithmic building blocks:
// host BFS, single-source Brandes (per adjacency backing, scratch reused
// across roots as the engines do), generator throughput, the GPU-model
// level primitives (work-efficient forward and dependency stages, the
// edge-parallel level), and the per-root host cost of whole strategies
// through core::compute. These measure real host wall time (not the
// device model) and track performance regressions in the library itself.
//
// BM_KernelHostCost/<strategy>_<family>/<scale> reports `per_root`: host
// seconds per root at 1 thread and 64 sampled roots, best of 10
// repetitions (the `_min` row). Compare work-efficient (and the other
// GPU-model strategies) with cpu-serial on the same graph; interleaving
// the repetitions spreads host noise evenly over the strategies:
//
//   ./build/bench/bench_micro --benchmark_filter=KernelHostCost --benchmark_enable_random_interleaving=true
//
// BM_CpuBrandesForward/<flag>_<family>/<scale> reports `per_root` for
// cpu::brandes at 1 thread over 128 sampled roots with neighbours, best of
// 10. `undirected` may expand wide frontiers bottom-up; `directed_flag`
// holds the same arcs flagged directed, which keeps every level top-down,
// so the pair is the A/B of the direction-optimizing forward stage:
//
//   taskset -c 2 ./build/bench/bench_micro --benchmark_filter=CpuBrandesForward --benchmark_enable_random_interleaving=true
//
// BM_ExactFold/<op>_<family>/<scale> is the layer fixture for block
// reduction and finalize: `per_element` seconds of util::ExactSum::add over the
// dependency vectors of 8 real roots (every vertex of each), of the plain
// double add it replaced over the same vectors, and of to_doubles (per
// vertex):
//
//   taskset -c 2 ./build/bench/bench_micro --benchmark_filter=ExactFold

#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "core/bc.hpp"
#include "cpu/brandes.hpp"
#include "cpu/edge_bc.hpp"
#include "cpu/weighted_brandes.hpp"
#include "graph/algorithms.hpp"
#include "graph/generators.hpp"
#include "graph/storage/compressed.hpp"
#include "gpusim/device.hpp"
#include "kernels/bc_state.hpp"
#include "util/exact_sum.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbc;

const graph::CSRGraph& cached_graph(const std::string& family, std::uint32_t scale) {
  static std::map<std::string, graph::CSRGraph> cache;
  const std::string key = family + ":" + std::to_string(scale);
  auto it = cache.find(key);
  if (it == cache.end()) {
    it = cache.emplace(key, graph::gen::family_by_name(family).make(scale, 1)).first;
  }
  return it->second;
}

void BM_HostBfs(benchmark::State& state, const char* family) {
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  graph::VertexId root = 0;
  for (auto _ : state) {
    auto r = graph::bfs(g, root);
    benchmark::DoNotOptimize(r.reached);
    root = (root + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}

// Adjacency backings the CPU kernel distinguishes: raw columns, an
// in-memory .hbcgz it streams through varint decode, and the same .hbcgz
// after col_indices() has made its decoded columns resident.
enum class Backing { kHeap, kHbcgzStreaming, kHbcgzResident };

const graph::CSRGraph& backed_graph(const std::string& family, std::uint32_t scale,
                                    Backing backing) {
  const graph::CSRGraph& heap = cached_graph(family, scale);
  if (backing == Backing::kHeap) return heap;
  static std::map<std::string, graph::CSRGraph> cache;
  const std::string key = family + ":" + std::to_string(scale) + ":" +
                          std::to_string(static_cast<int>(backing));
  auto it = cache.find(key);
  if (it == cache.end()) {
    graph::CSRGraph g(graph::storage::CompressedStorage::compress(
        heap.row_offsets(), heap.col_indices(), heap.undirected()));
    if (backing == Backing::kHbcgzResident) g.col_indices();
    it = cache.emplace(key, std::move(g)).first;
  }
  return it->second;
}

void BM_BrandesSingleSource(benchmark::State& state, const char* family, Backing backing) {
  const auto& g = backed_graph(family, static_cast<std::uint32_t>(state.range(0)), backing);
  util::ExactSum bc(g.num_vertices());
  cpu::BrandesWorkspace ws;
  graph::VertexId root = 0;
  for (auto _ : state) {
    cpu::brandes_single_source(g, root, ws, bc);
    benchmark::DoNotOptimize(bc.cells().data());
    root = (root + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}

void BM_WorkEfficientForward(benchmark::State& state, const char* family) {
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  gpusim::Device device(gpusim::gtx_titan());
  device.begin_run(1);
  kernels::BCWorkspace ws(g);
  graph::VertexId root = 0;
  for (auto _ : state) {
    auto ctx = device.block(0);
    ws.init_root(root, ctx);
    while (true) {
      ws.we_forward_level(ctx);
      if (ws.q_next_len() == 0) break;
      ws.finish_level(ctx);
    }
    benchmark::DoNotOptimize(ws.max_depth());
    root = (root + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}

// Dependency stage only: the forward stage of each root runs untimed.
void BM_WorkEfficientDependency(benchmark::State& state, const char* family) {
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  gpusim::Device device(gpusim::gtx_titan());
  device.begin_run(1);
  kernels::BCWorkspace ws(g);
  graph::VertexId root = 0;
  for (auto _ : state) {
    state.PauseTiming();
    auto ctx = device.block(0);
    ws.init_root(root, ctx);
    while (true) {
      ws.we_forward_level(ctx);
      if (ws.q_next_len() == 0) break;
      ws.finish_level(ctx);
    }
    state.ResumeTiming();
    for (std::uint32_t dep = ws.max_depth(); dep-- > 1;) ws.we_backward_level(ctx, dep);
    benchmark::DoNotOptimize(ws.deltas().data());
    root = (root + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}

// The queue-less edge-parallel forward stage (Jia et al.): one
// ep_forward_level per depth; `per_level` is host seconds per level.
void BM_EdgeParallelLevel(benchmark::State& state, const char* family) {
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  gpusim::Device device(gpusim::gtx_titan());
  device.begin_run(1);
  kernels::BCWorkspace ws(g);
  graph::VertexId root = 0;
  std::uint64_t levels = 0;
  for (auto _ : state) {
    auto ctx = device.block(0);
    ws.init_root(root, ctx);
    for (std::uint32_t depth = 0;; ++depth) {
      ++levels;
      if (ws.ep_forward_level(ctx, depth, /*maintain_queue=*/false).discovered == 0) break;
    }
    benchmark::DoNotOptimize(ws.sigmas().data());
    root = (root + 1) % g.num_vertices();
  }
  state.counters["per_level"] = benchmark::Counter(
      static_cast<double>(levels), benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}

// Whole-strategy host cost per root: core::compute at 1 thread over 64
// sampled roots (graph generation and caching excluded).
void BM_KernelHostCost(benchmark::State& state, const char* strategy, const char* family) {
  constexpr std::uint32_t kRoots = 64;
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  core::Options opt;
  opt.strategy = kernels::strategy_from_string(strategy);
  opt.sample_roots = kRoots;
  opt.cpu_threads = 1;
  for (auto _ : state) {
    const core::BCResult r = core::compute(g, opt);
    benchmark::DoNotOptimize(r.scores.data());
  }
  state.counters["per_root"] = benchmark::Counter(
      kRoots, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

// cpu::brandes over 128 sampled roots with neighbours, on g as generated
// (undirected) or on the same arcs flagged directed (top-down only).
void BM_CpuBrandesForward(benchmark::State& state, const char* family, bool undirected) {
  constexpr std::size_t kRoots = 128;
  const auto& base = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  const auto rows = base.row_offsets();
  const auto cols = base.col_indices();
  const graph::CSRGraph g =
      undirected ? base
                 : graph::CSRGraph({rows.begin(), rows.end()}, {cols.begin(), cols.end()}, false);
  cpu::BrandesOptions opt;
  util::Xoshiro256 rng(9);
  while (opt.sources.size() < kRoots) {
    const auto v = static_cast<graph::VertexId>(rng.next_below(g.num_vertices()));
    if (g.degree(v) > 0) opt.sources.push_back(v);
  }
  for (auto _ : state) {
    const cpu::BrandesResult r = cpu::brandes(g, opt);
    benchmark::DoNotOptimize(r.bc.data());
  }
  state.counters["per_root"] = benchmark::Counter(
      kRoots, benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

enum class Fold { kExactAdd, kDoubleAdd, kToDoubles };

void BM_ExactFold(benchmark::State& state, const char* family, Fold fold) {
  constexpr std::size_t kRoots = 8;
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  const graph::VertexId n = g.num_vertices();
  std::vector<std::vector<double>> deltas;
  util::Xoshiro256 rng(5);
  while (deltas.size() < kRoots) {
    const auto v = static_cast<graph::VertexId>(rng.next_below(n));
    if (g.degree(v) > 0) deltas.push_back(cpu::single_source_dependencies(g, v));
  }
  util::ExactSum sum(n);
  for (const std::vector<double>& d : deltas) {
    for (graph::VertexId v = 0; v < n; ++v) sum.add(v, d[v]);
  }
  std::vector<double> plain(n, 0.0);
  std::size_t elements = n;
  for (auto _ : state) {
    switch (fold) {
      case Fold::kExactAdd:
        for (const std::vector<double>& d : deltas) {
          for (graph::VertexId v = 0; v < n; ++v) sum.add(v, d[v]);
        }
        benchmark::DoNotOptimize(sum.cells().data());
        elements = kRoots * n;
        break;
      case Fold::kDoubleAdd:
        for (const std::vector<double>& d : deltas) {
          for (graph::VertexId v = 0; v < n; ++v) plain[v] += d[v];
        }
        benchmark::DoNotOptimize(plain.data());
        elements = kRoots * n;
        break;
      case Fold::kToDoubles: {
        const std::vector<double> out = sum.to_doubles();
        benchmark::DoNotOptimize(out.data());
        break;
      }
    }
    benchmark::ClobberMemory();
  }
  state.counters["per_element"] = benchmark::Counter(
      static_cast<double>(elements),
      benchmark::Counter::kIsIterationInvariantRate | benchmark::Counter::kInvert);
}

// Best of 10 short repetitions: the host is usually shared, and the
// minimum is the run the noise touched least (more, shorter samples find
// a quiet one more reliably than a few long ones).
void host_cost_args(benchmark::internal::Benchmark* b) {
  b->Repetitions(10)
      ->Iterations(2)
      ->ComputeStatistics("min",
                          [](const std::vector<double>& v) {
                            return *std::min_element(v.begin(), v.end());
                          })
      ->DisplayAggregatesOnly(true)
      ->Unit(benchmark::kMillisecond);
}

void BM_WeightedBrandesSingleSource(benchmark::State& state, const char* family) {
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  static std::map<std::string, cpu::WeightArray> wcache;
  auto it = wcache.find(family);
  if (it == wcache.end()) {
    it = wcache.emplace(family, cpu::random_symmetric_weights(g, 1.0, 4.0, 7)).first;
  }
  graph::VertexId root = 0;
  for (auto _ : state) {
    auto r = cpu::weighted_brandes(g, it->second, {.sources = {root}});
    benchmark::DoNotOptimize(r.bc.data());
    root = (root + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}

void BM_EdgeBCSingleSource(benchmark::State& state, const char* family) {
  const auto& g = cached_graph(family, static_cast<std::uint32_t>(state.range(0)));
  graph::VertexId root = 0;
  for (auto _ : state) {
    auto r = cpu::edge_betweenness(g, {root});
    benchmark::DoNotOptimize(r.edge_bc.data());
    root = (root + 1) % g.num_vertices();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(g.num_directed_edges()));
}

void BM_Generator(benchmark::State& state, const char* family) {
  const auto f = graph::gen::family_by_name(family);
  for (auto _ : state) {
    auto g = f.make(static_cast<std::uint32_t>(state.range(0)), 1);
    benchmark::DoNotOptimize(g.num_directed_edges());
  }
}

}  // namespace

BENCHMARK_CAPTURE(BM_HostBfs, kron, "kron")->Arg(12)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_HostBfs, road, "road")->Arg(12)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BrandesSingleSource, kron, "kron", Backing::kHeap)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BrandesSingleSource, kron_hbcgz_streaming, "kron",
                  Backing::kHbcgzStreaming)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BrandesSingleSource, kron_hbcgz_resident, "kron",
                  Backing::kHbcgzResident)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_BrandesSingleSource, delaunay, "delaunay", Backing::kHeap)
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WorkEfficientForward, kron, "kron")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WorkEfficientForward, road, "road")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WorkEfficientDependency, kron, "kron")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WorkEfficientDependency, road, "road")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EdgeParallelLevel, kron, "kron")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EdgeParallelLevel, road, "road")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_KernelHostCost, work_efficient_kron, "work-efficient", "kron")
    ->Apply(host_cost_args)
    ->Arg(12)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, work_efficient_road, "work-efficient", "road")
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, work_efficient_smallworld, "work-efficient", "smallworld")
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, sampling_kron, "sampling", "kron")
    ->Apply(host_cost_args)
    ->Arg(12)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, sampling_road, "sampling", "road")
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, sampling_smallworld, "sampling", "smallworld")
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, edge_parallel_kron, "edge-parallel", "kron")
    ->Apply(host_cost_args)
    ->Arg(12)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, edge_parallel_road, "edge-parallel", "road")
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, edge_parallel_smallworld, "edge-parallel", "smallworld")
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, cpu_serial_kron, "cpu-serial", "kron")
    ->Apply(host_cost_args)
    ->Arg(12)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, cpu_serial_road, "cpu-serial", "road")
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_KernelHostCost, cpu_serial_smallworld, "cpu-serial", "smallworld")
    ->Apply(host_cost_args)
    ->Arg(14);

BENCHMARK_CAPTURE(BM_CpuBrandesForward, undirected_kron, "kron", true)
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_CpuBrandesForward, directed_flag_kron, "kron", false)
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_CpuBrandesForward, undirected_road, "road", true)
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_CpuBrandesForward, directed_flag_road, "road", false)
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_CpuBrandesForward, undirected_smallworld, "smallworld", true)
    ->Apply(host_cost_args)
    ->Arg(14);
BENCHMARK_CAPTURE(BM_CpuBrandesForward, directed_flag_smallworld, "smallworld", false)
    ->Apply(host_cost_args)
    ->Arg(14);

BENCHMARK_CAPTURE(BM_ExactFold, add_kron, "kron", Fold::kExactAdd)
    ->Arg(14)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactFold, add_road, "road", Fold::kExactAdd)
    ->Arg(14)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactFold, double_add_kron, "kron", Fold::kDoubleAdd)
    ->Arg(14)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactFold, double_add_road, "road", Fold::kDoubleAdd)
    ->Arg(14)->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_ExactFold, to_doubles_kron, "kron", Fold::kToDoubles)
    ->Arg(14)->Unit(benchmark::kMicrosecond);

BENCHMARK_CAPTURE(BM_WeightedBrandesSingleSource, smallworld, "smallworld")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_WeightedBrandesSingleSource, road, "road")
    ->Arg(12)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_EdgeBCSingleSource, smallworld, "smallworld")
    ->Arg(10)
    ->Unit(benchmark::kMicrosecond);
BENCHMARK_CAPTURE(BM_Generator, kron, "kron")->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Generator, rgg, "rgg")->Arg(12)->Unit(benchmark::kMillisecond);
BENCHMARK_CAPTURE(BM_Generator, smallworld, "smallworld")
    ->Arg(12)
    ->Unit(benchmark::kMillisecond);

BENCHMARK_MAIN();
