#include "probes.hpp"

#include <algorithm>
#include <filesystem>
#include <stdexcept>
#include <unistd.h>

namespace perfbench {

namespace {

// Repeat `pass` until at least `min_ms` of wall time has accumulated (and
// at least `min_reps` passes); returns the mean ms per pass.
template <class F>
double time_repeated(F&& pass, double min_ms = 20.0, int min_reps = 3) {
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  while (reps < min_reps || elapsed < min_ms) {
    pass();
    ++reps;
    elapsed = ms_between(t0, Clock::now());
  }
  return elapsed / reps;
}

std::uint64_t facade_checksum(const graph::CSRGraph& g) {
  std::uint64_t sum = 0;
  for (graph::VertexId v = 0; v < g.num_vertices(); ++v) {
    for (graph::VertexId u : g.neighbors(v)) sum = sum * 31 + u;
  }
  return sum;
}

std::uint64_t stream_checksum(const graph::storage::CompressedStorage& cs) {
  std::uint64_t sum = 0;
  for (graph::VertexId v = 0; v < cs.num_vertices(); ++v) {
    for (graph::VertexId u : cs.neighbors(v)) sum = sum * 31 + u;
  }
  return sum;
}

std::vector<graph::VertexId> prefix(const std::vector<graph::VertexId>& roots,
                                    std::size_t k) {
  return {roots.begin(), roots.begin() + static_cast<std::ptrdiff_t>(
                                             std::min(k, roots.size()))};
}

}  // namespace

void probe_graph(const std::vector<ProbeInput>& inputs, Values& v, Spans& spans) {
  std::vector<double> open_ms, heap_ns, mmap_ns, hbcgz_ns, materialize_ms, slowdown;
  for (const ProbeInput& in : inputs) {
    const graph::CSRGraph& g = *in.graph;
    const double edges = static_cast<double>(std::max<graph::EdgeOffset>(1, g.num_directed_edges()));
    const std::string stem = run_path("probe-" + in.name + "-" + std::to_string(::getpid()));
    graph::io::save_binary_v2(g, stem + ".hbcg", false);
    graph::io::save_binary_v2(g, stem + ".hbcgz", true);

    graph::CSRGraph mapped, packed;
    for (auto [path, out] : {std::pair{stem + ".hbcg", &mapped},
                             std::pair{stem + ".hbcgz", &packed}}) {
      const auto t0 = Clock::now();
      auto span = spans.scope("graph.open_mapped");
      *out = graph::io::open_mapped(path);
      open_ms.push_back(ms_between(t0, Clock::now()));
    }
    const auto* cs = dynamic_cast<const graph::storage::CompressedStorage*>(
        packed.storage().get());
    if (cs == nullptr) throw std::runtime_error("probe: .hbcgz did not open compressed");

    const std::uint64_t want = facade_checksum(g);
    std::uint64_t got_heap = 0, got_mapped = 0, got_stream = 0;
    heap_ns.push_back(time_repeated([&] { got_heap = facade_checksum(g); }) * 1e6 / edges);
    mmap_ns.push_back(time_repeated([&] { got_mapped = facade_checksum(mapped); }) * 1e6 /
                      edges);
    hbcgz_ns.push_back(time_repeated([&] { got_stream = stream_checksum(*cs); }) * 1e6 /
                       edges);
    {
      const auto t0 = Clock::now();
      const std::uint64_t got_facade = facade_checksum(packed);  // materializes
      materialize_ms.push_back(ms_between(t0, Clock::now()));
      if (got_facade != want) throw std::runtime_error("probe: .hbcgz facade differs");
    }
    if (got_heap != want || got_mapped != want || got_stream != want) {
      throw std::runtime_error("probe: backings disagree on neighbour order");
    }

    // One cpu-serial job on each backing: the CPU engines stream-decode
    // the compressed adjacency instead of materializing it.
    core::Options o;
    o.strategy = core::Strategy::CpuSerial;
    o.roots = prefix(in.roots, 8);
    double heap_s = 0.0, packed_s = 0.0;
    for (int rep = 0; rep < 3; ++rep) {
      auto t0 = Clock::now();
      const core::BCResult a = core::compute(g, o);
      heap_s += seconds_since(t0);
      t0 = Clock::now();
      const core::BCResult b = core::compute(packed, o);
      packed_s += seconds_since(t0);
      if (a.scores != b.scores) throw std::runtime_error("probe: backing changed scores");
    }
    slowdown.push_back(packed_s / heap_s);

    mapped = {};
    packed = {};
    std::filesystem::remove(stem + ".hbcg");
    std::filesystem::remove(stem + ".hbcgz");
  }
  v.emplace("graph.open_ms", mean(open_ms));
  v.emplace("graph.compressed_slowdown", mean(slowdown));
  v["graph.heap_ns_per_edge"] = mean(heap_ns);
  v["graph.mmap_ns_per_edge"] = mean(mmap_ns);
  v["graph.hbcgz_ns_per_edge"] = mean(hbcgz_ns);
  v["graph.hbcgz_materialize_ms"] = mean(materialize_ms);
}

void probe_kernel_stages(const std::vector<ProbeInput>& inputs, Values& v) {
  std::vector<double> forward, dependency;
  for (const ProbeInput& in : inputs) {
    gpusim::Device device(gpusim::gtx_titan());
    device.begin_run(1);
    kernels::BCWorkspace ws(*in.graph);
    for (graph::VertexId root : prefix(in.roots, 16)) {
      auto ctx = device.block(0);
      ws.init_root(root, ctx);
      const auto t0 = Clock::now();
      while (true) {
        ws.we_forward_level(ctx);
        if (ws.q_next_len() == 0) break;
        ws.finish_level(ctx);
      }
      const auto t1 = Clock::now();
      for (std::uint32_t dep = ws.max_depth(); dep-- > 1;) ws.we_backward_level(ctx, dep);
      const auto t2 = Clock::now();
      forward.push_back(ms_between(t0, t1));
      dependency.push_back(ms_between(t1, t2));
    }
  }
  v["kernels.forward_ms"] = mean(forward);
  v["kernels.dependency_ms"] = mean(dependency);
}

void probe_cpu(const ProbeInput& in, Values& v, Spans& spans) {
  const graph::CSRGraph& g = *in.graph;
  auto run = [&](core::Strategy s, std::size_t threads, double& engine_s) {
    core::Options o;
    o.strategy = s;
    o.roots = prefix(in.roots, 32);
    o.cpu_threads = threads;
    std::vector<double> client, engine, overhead;
    for (int rep = 0; rep < 3; ++rep) {
      const auto t0 = Clock::now();
      core::BCResult r;
      {
        auto span = spans.scope("core.compute");
        r = core::compute(g, o);
      }
      const double wall = seconds_since(t0);
      const double e = core::uses_gpu_model(s) ? r.kernel_metrics.wall_seconds : r.time_seconds;
      engine.push_back(e);
      overhead.push_back((wall - e) * 1e3);
    }
    engine_s = quantile(engine, 0.5);
    return quantile(overhead, 0.5);
  };
  const double roots = static_cast<double>(prefix(in.roots, 32).size());
  const double m = static_cast<double>(g.num_undirected_edges());
  double serial_s = 0.0, parallel_s = 0.0, we_s = 0.0;
  const double o1 = run(core::Strategy::CpuSerial, 1, serial_s);
  const double o2 = run(core::Strategy::CpuParallel, nproc(), parallel_s);
  const double o3 = run(core::Strategy::WorkEfficient, nproc(), we_s);
  v.emplace("cpu.serial_mteps", m * roots / serial_s / 1e6);
  v.emplace("cpu.parallel_mteps", m * roots / parallel_s / 1e6);
  v.emplace("core.overhead_ms", (o1 + o2 + o3) / 3.0);
}

void probe_cache(const graph::CSRGraph& g, Values& v) {
  service::ResultCache cache(256ull << 20);
  std::vector<std::string> keys;
  const std::string prefix_key = service::fingerprint_prefix(g.fingerprint());
  for (std::uint64_t k = 0; k < 64; ++k) {
    core::Options o;
    o.sample_roots = 32;
    o.seed = k;
    keys.push_back(prefix_key + core::options_signature(o));
    auto entry = std::make_shared<service::CachedResult>();
    entry->result.scores.assign(g.num_vertices(), static_cast<double>(k));
    entry->bytes = service::estimate_result_bytes(entry->result);
    cache.put(keys.back(), std::move(entry));
  }
  std::size_t lookups = 0, found = 0;
  const double ms = time_repeated([&] {
    for (std::size_t i = 0; i < 4096; ++i) {
      found += cache.get(keys[(i * 7) % keys.size()]) != nullptr;
      ++lookups;
    }
  });
  if (found != lookups) throw std::runtime_error("probe: cache lost an entry");
  v["service.cache_lookup_ns"] = ms * 1e6 / 4096.0;
}

std::size_t probe_wire(graph::VertexId n, Values& v) {
  net::wire::ShardResultMsg msg;
  msg.shard_index = 3;
  msg.roots_processed = 2;
  msg.compute_ms = 1.5;
  msg.scores.resize(n);
  for (graph::VertexId i = 0; i < n; ++i) msg.scores[i] = 0.5 * i + 1.0 / (i + 1);
  std::vector<std::uint8_t> bytes;
  const double enc_ms = time_repeated([&] { bytes = net::wire::encode(msg, 7); });
  net::wire::ShardResultMsg out;
  bool ok = true;
  const double dec_ms = time_repeated([&] {
    net::wire::Frame frame;
    std::size_t consumed = 0;
    ok = ok && net::wire::extract_frame(bytes, frame, consumed) == net::wire::DecodeStatus::Ok &&
         net::wire::decode(frame, out) == net::wire::DecodeStatus::Ok;
  });
  if (!ok || out.scores != msg.scores) throw std::runtime_error("probe: wire round trip failed");
  v["net.encode_us"] = enc_ms * 1e3;
  v["net.decode_us"] = dec_ms * 1e3;
  return bytes.size();
}

}  // namespace perfbench
