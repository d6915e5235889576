// hbc — command-line betweenness centrality.
//
//   hbc [options] <graph-file | gen:<family>:<scale>[:<seed>]>
//
// Options:
//   --strategy NAME   cpu | cpu-parallel | vertex | edge | gpufan |
//                     work-efficient | hybrid | sampling | diropt
//                     (default: sampling — the paper's best overall;
//                     cpu-fine is another name for cpu-parallel)
//   --roots K         approximate BC from K sampled roots (default: exact)
//   --top K           print the K most central vertices (default 10)
//   --normalize       divide scores by (n-1)(n-2)
//   --halve           halve scores (undirected pair convention)
//   --lcc             restrict to the largest connected component
//   --out FILE        write "<vertex>\t<score>" lines to FILE
//   --dump-scores FILE  write the raw score array (little-endian doubles,
//                     one per vertex) to FILE — byte-exact, so two runs
//                     can be compared with cmp/memcmp (the CI out-of-core
//                     job checks mapped vs heap backings this way)
//   --seed S          RNG seed for root sampling (default 42)
//   --threads N       host worker threads. cpu-parallel splits the roots
//                     across threads; GPU-model strategies
//                     execute simulated blocks concurrently. Scores are the
//                     same bits at any thread count (default 0 = hardware
//                     concurrency)
//   --weighted LO:HI  weighted BC with uniform random edge weights in
//                     [LO, HI); runs the weighted sampling engine
//                     (Bellman-Ford vs near-far chosen by probe)
//   --inject-faults SPEC  deterministic simulated-device fault plan for
//                     GPU-model strategies (docs/resilience.md), e.g.
//                     "seed=9;launch,rate=0.05;timeout,roots=3:17,persistent"
//   --max-attempts N  device launches a root may consume before the host
//                     runs it (default 3: first try + retry + rescue)
//   --deadline MS     cancel the computation cooperatively after MS
//                     milliseconds (exit code 3 when it fires)
//   --sample-error    progressive-sampling error table instead of one
//                     run: fold the stratified root ladder rung by rung
//                     (256, 512, 1024, ... roots with the default plan)
//                     and print each rung's reported relative standard
//                     error — monotone non-increasing by construction
//                     (docs/serving.md). --roots caps the ladder; the
//                     default saturates the graph
//   --trace FILE      capture a structured span trace of the run and write
//                     it as Chrome trace_event JSON to FILE (open in
//                     chrome://tracing or https://ui.perfetto.dev); also
//                     prints the per-phase text summary (docs/tracing.md)
//
// Graph sources: any METIS/.graph, MatrixMarket/.mtx, or SNAP edge-list
// file, or a built-in generator, e.g. gen:smallworld:14 or gen:road:15:7.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "cli_common.hpp"
#include "core/approx.hpp"

namespace {

using namespace hbc;

/// --sample-error: drive the same stratified ladder the serving layer
/// refines with (core::RefinableEstimate), one row per completed rung.
/// The reported error column is the running-min relative stderr, so a
/// monotonicity check over the output is a real invariant, not luck.
int print_sample_error_table(const graph::CSRGraph& g, core::Options options,
                             std::size_t cap_roots) {
  const std::size_t n = g.num_vertices();
  const core::StratumPlan plan;
  const std::size_t cap =
      cap_roots > 0 ? std::min<std::size_t>(cap_roots, n) : n;
  core::RefinableEstimate est(n, plan, options.seed);
  options.sample_roots = 0;
  options.halve_undirected = false;
  options.normalize = false;

  std::printf("progressive sampling error (strategy %s, stripe %u, seed %llu):\n",
              core::to_string(options.strategy), plan.stripe_roots,
              static_cast<unsigned long long>(options.seed));
  std::printf("  %4s  %8s  %8s  %14s  %10s\n", "rung", "strata", "roots",
              "rel-stderr", "sim-s");
  double accum_seconds = 0.0;
  std::uint32_t rung = 0;
  while (est.roots_used() < cap && !est.saturated()) {
    options.roots = est.next_stratum_roots();
    const core::BCResult r = core::compute(g, options);
    est.fold(r.scores, options.roots.size());
    accum_seconds += r.time_seconds;
    const bool rung_done = est.strata_folded() >= strata_for_rung(plan, rung);
    const bool ladder_done = est.roots_used() >= cap || est.saturated();
    if (rung_done || ladder_done) {
      std::printf("  %4u  %8u  %8zu  %14.6g  %10.4f\n", est.rung(),
                  est.strata_folded(), est.roots_used(), est.reported_error(),
                  accum_seconds);
      if (rung_done) ++rung;
    }
  }
  return 0;
}

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--strategy NAME] [--roots K] [--top K] [--normalize]\n"
               "          [--halve] [--lcc] [--out FILE] [--dump-scores FILE]\n"
               "          [--seed S] [--threads N]\n"
               "          [--inject-faults SPEC] [--max-attempts N] [--deadline MS]\n"
               "          [--trace FILE] [--sample-error]\n"
               "          <graph-file | gen:<family>:<scale>[:<seed>]>\n",
               argv0);
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  core::Options options;
  std::size_t top = 10;
  bool sample_error = false;
  bool use_lcc = false;
  bool weighted = false;
  double weight_lo = 1.0, weight_hi = 4.0;
  long long deadline_ms = 0;
  std::string out_path;
  std::string dump_path;
  std::string trace_path;
  std::string graph_spec;

  cli::ArgCursor args(argc, argv);
  try {
    while (!args.done()) {
      const std::string arg = args.take();
      if (arg == "--strategy") {
        options.strategy = core::strategy_from_string(args.value(arg));
      } else if (arg == "--roots") {
        options.sample_roots = cli::parse_u32(arg, args.value(arg));
      } else if (arg == "--top") {
        top = cli::parse_size(arg, args.value(arg));
      } else if (arg == "--normalize") {
        options.normalize = true;
      } else if (arg == "--halve") {
        options.halve_undirected = true;
      } else if (arg == "--lcc") {
        use_lcc = true;
      } else if (arg == "--out") {
        out_path = args.value(arg);
      } else if (arg == "--dump-scores") {
        dump_path = args.value(arg);
      } else if (arg == "--seed") {
        options.seed = cli::parse_u64(arg, args.value(arg));
      } else if (arg == "--threads") {
        options.cpu_threads = cli::parse_size(arg, args.value(arg));
      } else if (arg == "--inject-faults") {
        options.resilience.fault_plan = gpusim::FaultPlan::parse_shared(args.value(arg));
      } else if (arg == "--max-attempts") {
        options.resilience.max_root_attempts = cli::parse_u32(arg, args.value(arg));
      } else if (arg == "--deadline") {
        deadline_ms = static_cast<long long>(cli::parse_u64(arg, args.value(arg)));
      } else if (arg == "--trace") {
        trace_path = args.value(arg);
      } else if (arg == "--sample-error") {
        sample_error = true;
      } else if (arg == "--weighted") {
        weighted = true;
        const std::string range = args.value(arg);
        const std::size_t colon = range.find(':');
        if (colon == std::string::npos) {
          throw cli::UsageError("--weighted expects LO:HI");
        }
        weight_lo = cli::parse_double(arg, range.substr(0, colon));
        weight_hi = cli::parse_double(arg, range.substr(colon + 1));
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
      } else if (!arg.empty() && arg[0] == '-') {
        throw cli::UsageError("unknown option: " + arg);
      } else if (graph_spec.empty()) {
        graph_spec = arg;
      } else {
        throw cli::UsageError("unexpected operand: " + arg);
      }
    }
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  if (graph_spec.empty()) usage(argv[0]);

  util::CancelSource cancel =
      deadline_ms > 0
          ? util::CancelSource::with_timeout(std::chrono::milliseconds(deadline_ms))
          : util::CancelSource();
  if (deadline_ms > 0) options.resilience.cancel = cancel.token();

  trace::Tracer tracer;
  if (!trace_path.empty()) options.trace.tracer = &tracer;

  try {
    graph::CSRGraph g = cli::load_graph_spec(graph_spec);
    std::printf("graph: %s\n", g.summary().c_str());

    graph::RelabeledGraph lcc;
    const graph::VertexId original_n = g.num_vertices();
    if (use_lcc) {
      lcc = graph::largest_component(g);
      std::printf("largest component: %s\n", lcc.graph.summary().c_str());
      g = std::move(lcc.graph);
    }

    if (sample_error) {
      if (weighted) {
        std::fprintf(stderr, "--sample-error does not combine with --weighted\n");
        return 2;
      }
      return print_sample_error_table(g, options, options.sample_roots);
    }

    if (weighted) {
      const auto weights =
          cpu::random_symmetric_weights(g, weight_lo, weight_hi, options.seed);
      kernels::WeightedConfig wc;
      wc.base.device = options.device;
      wc.strategy = kernels::WeightedStrategy::Sampling;
      if (options.sample_roots > 0) {
        wc.base.roots =
            core::sample_roots(g.num_vertices(), options.sample_roots, options.seed);
      }
      const auto wr = kernels::run_weighted_bc(g, weights, wc);
      std::printf("weighted sampling engine: %llu roots, %.4f s simulated,"
                  " engine -> %s (median %.0f SSSP phases)\n",
                  static_cast<unsigned long long>(wr.metrics.counters.roots_processed),
                  wr.metrics.sim_seconds,
                  wr.sampling_chose_bellman_ford ? "bellman-ford" : "near-far",
                  wr.sampling_median_phases);
      std::vector<double> wscores = wr.bc;
      if (use_lcc) wscores = lcc.project_back(std::move(wscores), original_n);
      std::printf("top %zu vertices by weighted betweenness:\n", top);
      for (const auto& [v, score] : core::top_k(wscores, top)) {
        std::printf("  %10u  %18.6f\n", v, score);
      }
      return 0;
    }

    const core::BCResult result = core::compute(g, options);
    if (options.resilience.fault_plan && !options.resilience.fault_plan->empty()) {
      const gpusim::FaultReport& fr = result.faults;
      std::printf("faults: injected=%llu retries=%llu rescued=%llu host=%zu\n",
                  static_cast<unsigned long long>(fr.faults_injected),
                  static_cast<unsigned long long>(fr.retries),
                  static_cast<unsigned long long>(fr.rescued_roots),
                  fr.host_roots.size());
      for (const gpusim::RootFailure& f : fr.host_roots) {
        std::printf("  root %u ran on the host: %s after %u attempts (%s)\n", f.root,
                    gpusim::to_string(f.kind), f.attempts,
                    f.transient ? "transient" : "persistent");
      }
    }
    std::printf("strategy %s: %llu roots, %.4f s (%s), %.2f MTEPS%s\n",
                core::to_string(result.strategy),
                static_cast<unsigned long long>(result.roots_processed),
                result.time_seconds,
                core::uses_gpu_model(options.strategy) ? "simulated GPU" : "wall clock",
                core::as_mteps(result.teps),
                result.approximate ? " [approximate]" : "");

    std::vector<double> scores = result.scores;
    if (use_lcc) scores = lcc.project_back(std::move(scores), original_n);

    std::printf("top %zu vertices by betweenness:\n", top);
    for (const auto& [v, score] : core::top_k(scores, top)) {
      std::printf("  %10u  %18.6f\n", v, score);
    }

    if (!out_path.empty()) {
      std::ofstream out(out_path);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 1;
      }
      for (std::size_t v = 0; v < scores.size(); ++v) {
        out << v << '\t' << scores[v] << '\n';
      }
      std::printf("wrote %zu scores to %s\n", scores.size(), out_path.c_str());
    }

    if (!dump_path.empty()) {
      std::ofstream out(dump_path, std::ios::binary);
      if (!out) {
        std::fprintf(stderr, "cannot write %s\n", dump_path.c_str());
        return 1;
      }
      out.write(reinterpret_cast<const char*>(scores.data()),
                static_cast<std::streamsize>(scores.size() * sizeof(double)));
      std::printf("dumped %zu raw scores to %s\n", scores.size(), dump_path.c_str());
    }

    if (!trace_path.empty()) {
      cli::write_trace_json(tracer, trace_path);
      std::printf("\ntrace: %s -> %s\n%s",
                  cli::trace_stats_line(tracer).c_str(), trace_path.c_str(),
                  tracer.summary().c_str());
    }
  } catch (const util::Cancelled& c) {
    std::fprintf(stderr, "cancelled after %lld ms: %s\n", deadline_ms, c.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
