// sweep: time to solution for a library / `hbc` user. One caller runs
// core::compute one job at a time (cpu_threads = nproc) over a fixed job
// list: {kron, road, smallworld} at scale 14 x {heap, mmap'd .hbcgz} x
// {sampling, work-efficient, cpu-parallel, cpu-serial}, 128 fixed sampled
// roots per graph. A run is whole passes over the list. kernels+gpusim,
// cpu and graph storage decode do the work; service, dyn and net none.

#include <cmath>
#include <cstring>
#include <filesystem>
#include <unistd.h>

#include "common.hpp"
#include "probes.hpp"

namespace perfbench {
namespace {

constexpr const char* kFamilies[] = {"kron", "road", "smallworld"};
constexpr std::uint32_t kScale = 14;
constexpr std::uint32_t kRoots = 128;
constexpr core::Strategy kStrategies[] = {core::Strategy::Sampling,
                                          core::Strategy::WorkEfficient,
                                          core::Strategy::CpuParallel,
                                          core::Strategy::CpuSerial};

struct GraphSet {
  std::string family;
  graph::CSRGraph heap;
  graph::CSRGraph packed;  // the same graph mmap'd from a .hbcgz written in set-up
  std::vector<graph::VertexId> roots;
};

struct Job {
  std::size_t graph = 0;
  bool packed = false;
  core::Strategy strategy = core::Strategy::Sampling;
};

struct Record {
  std::size_t job = 0;
  double ms = 0.0;
  double engine_s = 0.0;
  bool ok = true;
  std::uint64_t roots_processed = 0;
  std::uint64_t digest = 0;
  kernels::RunMetrics metrics;
  std::vector<double> scores;  // first pass only; later passes keep the digest
};

class Sweep {
 public:
  Sweep(const Args& args, Canary& canary, Spans& spans) : canary_(canary), spans_(spans) {
    static int generation = 0;
    for (std::size_t i = 0; i < std::size(kFamilies); ++i) {
      GraphSet gs;
      gs.family = kFamilies[i];
      {
        auto span = spans_.scope("graph.gen");
        gs.heap = graph::gen::family_by_name(gs.family).make(kScale, mix(kGraphSeed, i));
      }
      const std::string path = run_path("sweep-" + gs.family + "-" +
                                        std::to_string(::getpid()) + "-" +
                                        std::to_string(generation++) + ".hbcgz");
      {
        auto span = spans_.scope("graph.save_binary_v2");
        graph::io::save_binary_v2(gs.heap, path, /*compress=*/true);
      }
      {
        auto span = spans_.scope("graph.open_mapped");
        gs.packed = graph::io::open_mapped(path);
      }
      std::filesystem::remove(path);  // the mapping outlives the name
      // Roots are drawn among vertices with neighbours: an isolated root
      // does no work, and kron-14 has ~23% of them, so counting them would
      // let the share drawn move a run's work by several percent.
      std::vector<graph::VertexId> candidates;
      for (graph::VertexId v = 0; v < gs.heap.num_vertices(); ++v) {
        if (gs.heap.degree(v) > 0) candidates.push_back(v);
      }
      const auto picks = core::sample_roots(static_cast<graph::VertexId>(candidates.size()),
                                            kRoots, mix(args.seed, 100 + i));
      for (graph::VertexId k : picks) gs.roots.push_back(candidates[k]);
      graphs_.push_back(std::move(gs));
    }
    for (std::size_t g = 0; g < graphs_.size(); ++g) {
      for (bool packed : {false, true}) {
        for (core::Strategy s : kStrategies) jobs_.push_back({g, packed, s});
      }
    }
  }

  Loop run(double seconds) {
    Loop loop;
    const auto t0 = Clock::now();
    do {
      for (std::size_t j = 0; j < jobs_.size(); ++j) {
        const Job& job = jobs_[j];
        const GraphSet& gs = graphs_[job.graph];
        const graph::CSRGraph& g = job.packed ? gs.packed : gs.heap;
        core::Options o;
        o.strategy = job.strategy;
        o.roots = gs.roots;
        o.cpu_threads = nproc();
        Record rec;
        rec.job = j;
        core::BCResult r;
        const auto start = Clock::now();
        try {
          auto span = spans_.scope("core.compute");
          r = core::compute(g, o);
        } catch (const std::exception& e) {
          std::fprintf(stderr, "  job %zu threw: %s\n", j, e.what());
          rec.ok = false;
        }
        rec.ms = ms_between(start, Clock::now());
        rec.engine_s = core::uses_gpu_model(job.strategy) ? r.kernel_metrics.wall_seconds
                                                          : r.time_seconds;
        rec.roots_processed = r.roots_processed;
        rec.digest = digest(r.scores);
        rec.metrics = std::move(r.kernel_metrics);
        if (records_.size() < jobs_.size()) rec.scores = std::move(r.scores);
        loop.add(t0, rec.ms,
                 static_cast<double>(g.num_undirected_edges()) *
                     static_cast<double>(rec.roots_processed));
        records_.push_back(std::move(rec));
      }
      loop.window_ends.push_back(seconds_since(t0));  // one window per pass
    } while (seconds_since(t0) < seconds);
    loop.seconds = loop.window_ends.back();
    return loop;
  }

  std::uint64_t check() {
    // cpu::brandes on the same roots, once per graph, is the reference.
    std::vector<std::vector<double>> ref;
    for (const GraphSet& gs : graphs_) {
      cpu::BrandesOptions bo;
      bo.sources = gs.roots;
      ref.push_back(cpu::brandes(gs.heap, bo).bc);
    }
    std::uint64_t failed = 0;
    for (std::size_t i = 0; i < records_.size(); ++i) {
      const Record& r = records_[i];
      const Job& job = jobs_[r.job];
      bool ok = r.ok && r.roots_processed == kRoots;
      if (i < jobs_.size()) {
        // First pass: scores within 1e-9 of the reference, and the .hbcgz
        // run memcmp-equal to the heap run of the same (graph, strategy),
        // which jobs_ lists std::size(kStrategies) slots earlier.
        const std::vector<double>& want = ref[job.graph];
        ok = ok && r.scores.size() == want.size();
        for (std::size_t v = 0; ok && v < want.size(); ++v) {
          ok = std::fabs(r.scores[v] - want[v]) <= 1e-9 * std::max(1.0, std::fabs(want[v]));
        }
        if (job.packed) {
          const auto& a = records_[i - std::size(kStrategies)].scores;
          ok = ok && a.size() == r.scores.size() &&
               std::memcmp(a.data(), r.scores.data(), a.size() * sizeof(double)) == 0;
        }
      } else {
        // Later passes repeat the first bit for bit.
        ok = ok && r.digest == records_[r.job].digest;
      }
      if (core::uses_gpu_model(job.strategy) && r.ok) {
        canary_.record("job" + std::to_string(r.job) + "-" + graphs_[job.graph].family +
                           (job.packed ? "-hbcgz-" : "-heap-") + core::to_string(job.strategy),
                       r.metrics);
      }
      const std::size_t pass = i / jobs_.size();
      if (!ok) {
        ++failed;
        std::fprintf(stderr, "  WRONG: pass %zu job %zu (%s %s %s)\n", pass, r.job,
                     graphs_[job.graph].family.c_str(), job.packed ? "hbcgz" : "heap",
                     core::to_string(job.strategy));
      }
    }
    return failed;
  }

  void layers(Values& v) {
    KernelTotals kt;
    double par_work = 0, par_s = 0, ser_work = 0, ser_s = 0, heap_ms = 0, packed_ms = 0;
    std::vector<double> overhead;
    for (const Record& r : records_) {
      const Job& job = jobs_[r.job];
      const double work = static_cast<double>(graphs_[job.graph].heap.num_undirected_edges()) *
                          static_cast<double>(r.roots_processed);
      if (core::uses_gpu_model(job.strategy)) kt.add(r.metrics);
      if (job.strategy == core::Strategy::CpuParallel) {
        par_work += work;
        par_s += r.engine_s;
      } else if (job.strategy == core::Strategy::CpuSerial) {
        ser_work += work;
        ser_s += r.engine_s;
      }
      (job.packed ? packed_ms : heap_ms) += r.ms;
      overhead.push_back(r.ms - r.engine_s * 1e3);
    }
    kt.put(v);
    v["cpu.parallel_mteps"] = par_work / par_s / 1e6;
    v["cpu.serial_mteps"] = ser_work / ser_s / 1e6;
    v["core.overhead_ms"] = mean(overhead);
    v["graph.compressed_slowdown"] = packed_ms / heap_ms;
    v["graph.open_ms"] = spans_.mean_ms("graph.open_mapped");

    std::vector<ProbeInput> inputs;
    for (const GraphSet& gs : graphs_) inputs.push_back({gs.family, &gs.heap, gs.roots});
    probe_graph(inputs, v, spans_);
    probe_kernel_stages(inputs, v);
    probe_cache(graphs_[0].heap, v);
    probe_wire(graphs_[0].heap.num_vertices(), v);
  }

 private:
  Canary& canary_;
  Spans& spans_;
  std::vector<GraphSet> graphs_;
  std::vector<Job> jobs_;
  std::vector<Record> records_;
};

}  // namespace

Outcome run_sweep(const Args& args) { return drive<Sweep>(args); }

}  // namespace perfbench
