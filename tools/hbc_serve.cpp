// hbc-serve — drive the BC query service with a workload and print its
// metrics report. Three roles (docs/distributed.md):
//
//   hbc-serve [options] <graph-spec> ...                      # standalone
//   hbc-serve --role coordinator --listen unix:/run/hbc.sock
//             --expect-workers 2 [options] <graph-spec> ...   # fleet front
//   hbc-serve --role worker --connect unix:/run/hbc.sock      # fleet member
//
// Graph specs are the same as hbc: a METIS/.mtx/SNAP/.hbc file or a
// generator spec gen:<family>:<scale>[:<seed>]. The i-th graph is
// registered as "g<i>" (g0, g1, ...). In coordinator mode the spec string
// itself is sent to workers, which materialize and fingerprint-verify it —
// so generator specs work with no shared filesystem. Workers take no graph
// arguments; the coordinator tells them what to load.
//
// Distributed options:
//   --role R          coordinator | worker | standalone (default standalone)
//   --listen EP       coordinator bind endpoint: unix:/path or tcp:host:port
//   --connect EP      worker: coordinator endpoint to join
//   --expect-workers N  coordinator: wait for N workers before replaying
//                     (error if they do not arrive within 30 s)
//   --replication N   workers per graph on the consistent-hash ring
//                     (default 0 = every worker)
//   --straggler-ms MS re-dispatch a shard still unanswered after MS to a
//                     second worker, first result wins (default off)
//   --die-after-shards N  worker chaos hook: drop the connection when the
//                     Nth shard arrives (crash testing; default off)
//   --connect-attempts N  worker connect retries with backoff (default 60)
//
// Fleet self-healing (docs/resilience.md):
//   --chaos SPEC      seeded network fault injection on this process's
//                     outbound frames (both roles), e.g.
//                     "seed=11;drop,rate=0.05;partition,after=40,for=20"
//   --rejoin N        worker: reconnect + re-Hello up to N times after a
//                     lost connection (default 0 = give up like before)
//   --heartbeat-ms MS worker: liveness heartbeat cadence (default 1000)
//   --heartbeat-timeout MS  coordinator: quarantine a ready worker silent
//                     this long, reassigning its shards (default off)
//   --snapshot-dir DIR  coordinator: durable warm restart — snapshot the
//                     graph registry + result-cache index there on every
//                     registry change, restore from it at startup
//   --restart-mid     coordinator: simulate a crash at the workload
//                     midpoint — destroy the coordinator WITHOUT drain,
//                     restart it from --snapshot-dir (required), wait for
//                     the fleet to rejoin, finish the replay. The score
//                     dump stays byte-identical to an uninterrupted run.
//
// On bind/listen/connect failure both roles exit 1 with one clear
// "error: syscall(endpoint): reason" line.
//
// Options:
//   --workers N       worker threads draining the queue (default: hardware)
//   --queue N         admission queue bound (default 64)
//   --policy P        block | reject | shed on a full queue (default block)
//   --shed-roots K    sample roots a shed request is downgraded to (64)
//   --cache-mb M      result-cache budget in MiB; 0 disables (default 256)
//   --requests N      synthetic workload size (default 200)
//   --hit-ratio P     fraction of requests re-drawn from a small warm set
//                     of repeated queries, in [0,1] (default 0.5)
//   --distinct K      size of that warm set (default 8)
//   --strategy NAME   strategy for synthetic queries (default sampling)
//   --roots K         sample_roots per synthetic query (default 32)
//   --accuracy T      accuracy-contract queries (docs/serving.md): every
//                     request carries a QueryBudget with relative-stderr
//                     target T in (0,1]; responses report the estimate
//                     actually served (roots used, stderr, rung)
//   --budget-roots K  budget root cap — "best estimate from at most K
//                     roots" (combines with --accuracy; either activates
//                     the budgeted path)
//   --refine          serve budgeted queries at rung 0 and refine toward
//                     the contract in the background; the replay drains
//                     the refinement queue before printing metrics
//   --threads N       host threads per compute run, any strategy (sets
//                     each request's cpu_threads and the service's
//                     compute_threads; 0 = hardware). Scores are the same
//                     bits at every value (default: 1 per run)
//   --top K           request top-k extraction per query (default 10)
//   --timeout MS      per-request deadline in milliseconds (default none)
//   --seed S          workload RNG seed (default 7)
//   --workload FILE   file-driven workload instead of the synthetic one:
//                     one request per line, "graph_id strategy roots seed",
//                     '#' starts a comment
//   --mutate FILE     scripted edge-update batches (docs/dynamic.md):
//                     "graph_id + u v" inserts, "graph_id - u v" removes,
//                     a "commit" line flushes the pending per-graph batches
//                     as one epoch each (EOF commits too), '#' comments.
//                     The script runs at the workload's midpoint — half the
//                     replay sees the old epochs, half the new — and the
//                     per-commit MutationResult is printed
//   --refresh         enable the background cache refresher so mutations
//                     patch hot exact entries instead of dropping them
//   --refresh-budget N  entries patched per mutation (default 4)
//   --inject-faults SPEC  attach a deterministic fault plan to every
//                     request (docs/resilience.md grammar), exercising the
//                     driver's retries and host rescue
//   --max-attempts N  per-root device launch budget inside each run before
//                     the host runs the root (default 3)
//   --trace-dir DIR   capture request-lifecycle spans for the replay and
//                     write DIR/serve.json (Chrome trace_event JSON) and
//                     DIR/serve-summary.txt; DIR is created if needed
//   --dump-scores FILE  after the replay, run one canonical query per graph
//                     (the configured strategy/roots, seed --seed, no fault
//                     plan) and append each full score array to FILE as raw
//                     little-endian doubles. Works in standalone and
//                     coordinator roles, so a fleet run over an mmap'd
//                     .hbcg and a heap-backed standalone run can be
//                     compared byte-for-byte with cmp (the CI out-of-core
//                     smoke job does exactly that)
//
// Exit code 0 when every request completed Ok (rejections under --policy
// reject/deadline are reported but still exit 0: they are the service
// behaving as configured); 1 on setup errors; 2 on bad usage.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "cli_common.hpp"
#include "net/coordinator.hpp"
#include "net/worker.hpp"

namespace {

using namespace hbc;

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--workers N] [--queue N] [--policy block|reject|shed]\n"
               "          [--shed-roots K] [--cache-mb M] [--requests N]\n"
               "          [--hit-ratio P] [--distinct K] [--strategy NAME]\n"
               "          [--roots K] [--accuracy T] [--budget-roots K] [--refine]\n"
               "          [--threads N] [--top K] [--timeout MS]\n"
               "          [--seed S] [--workload FILE] [--inject-faults SPEC]\n"
               "          [--max-attempts N] [--trace-dir DIR]\n"
               "          [--mutate FILE] [--refresh] [--refresh-budget N]\n"
               "          [--dump-scores FILE]\n"
               "          [--role coordinator|worker|standalone]\n"
               "          [--listen EP] [--connect EP] [--expect-workers N]\n"
               "          [--replication N] [--straggler-ms MS]\n"
               "          [--die-after-shards N] [--connect-attempts N]\n"
               "          [--chaos SPEC] [--rejoin N] [--heartbeat-ms MS]\n"
               "          [--heartbeat-timeout MS] [--snapshot-dir DIR]\n"
               "          [--restart-mid]\n"
               "          <graph-file | gen:<family>:<scale>[:<seed>]> ...\n"
               "endpoints EP: unix:/path/to.sock or tcp:host:port\n",
               argv0);
  std::exit(2);
}

struct ServeArgs {
  service::ServiceConfig config;
  std::size_t requests = 200;
  double hit_ratio = 0.5;
  std::size_t distinct = 8;
  core::Strategy strategy = core::Strategy::Sampling;
  std::uint32_t sample_roots = 32;
  /// active() => accuracy-contract workload; deadline is --timeout.
  service::QueryBudget budget;
  std::size_t cpu_threads = 0;
  std::size_t top_k = 10;
  std::uint64_t seed = 7;
  std::string workload_file;
  std::string mutate_file;
  std::string trace_dir;
  std::string dump_scores_path;
  std::shared_ptr<const gpusim::FaultPlan> fault_plan;
  std::uint32_t max_root_attempts = 3;
  std::vector<std::string> graph_specs;
  // Distributed roles (docs/distributed.md).
  std::string role = "standalone";
  std::string listen_spec;
  std::string connect_spec;
  std::size_t expect_workers = 0;
  std::uint32_t replication = 0;
  std::uint64_t straggler_ms = 0;
  std::uint32_t die_after_shards = 0;
  std::uint32_t connect_attempts = 60;
  // Fleet self-healing.
  std::shared_ptr<const net::ChaosPlan> chaos;
  std::uint32_t rejoin = 0;
  std::uint64_t heartbeat_ms = 1000;
  std::uint64_t heartbeat_timeout_ms = 0;
  std::string snapshot_dir;
  bool restart_mid = false;
};

std::vector<service::Request> synthetic_workload(const ServeArgs& args,
                                                 std::size_t num_graphs) {
  // The warm set is `distinct` fixed queries; each request either re-draws
  // one of them (probability hit_ratio -> a cache hit once warm) or gets a
  // unique seed (a guaranteed miss).
  std::vector<service::Request> warm;
  for (std::size_t i = 0; i < args.distinct; ++i) {
    service::Request r;
    r.graph_id = "g" + std::to_string(i % num_graphs);
    r.options.strategy = args.strategy;
    r.options.sample_roots = args.budget.active() ? 0 : args.sample_roots;
    r.budget = args.budget;
    r.options.seed = 1000 + i;
    r.options.cpu_threads = args.cpu_threads;
    r.options.resilience.fault_plan = args.fault_plan;
    r.options.resilience.max_root_attempts = args.max_root_attempts;
    r.top_k = args.top_k;
    warm.push_back(std::move(r));
  }

  util::Xoshiro256 rng(args.seed);
  std::vector<service::Request> out;
  out.reserve(args.requests);
  std::uint64_t unique_seed = 1u << 20;
  for (std::size_t i = 0; i < args.requests; ++i) {
    if (rng.next_double() < args.hit_ratio) {
      out.push_back(warm[rng.next_below(warm.size())]);
    } else {
      service::Request r = warm[rng.next_below(warm.size())];
      r.options.seed = unique_seed++;
      out.push_back(std::move(r));
    }
  }
  return out;
}

std::vector<service::Request> file_workload(const ServeArgs& args) {
  std::ifstream in(args.workload_file);
  if (!in) throw std::runtime_error("cannot read workload file " + args.workload_file);
  std::vector<service::Request> out;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string graph_id, strategy;
    std::uint32_t roots = 0;
    std::uint64_t seed = 0;
    if (!(fields >> graph_id)) continue;  // blank line
    if (!(fields >> strategy >> roots >> seed)) {
      throw std::runtime_error("workload line " + std::to_string(lineno) +
                               ": expected 'graph_id strategy roots seed'");
    }
    service::Request r;
    r.graph_id = graph_id;
    r.options.strategy = core::strategy_from_string(strategy);
    r.options.sample_roots = args.budget.active() ? 0 : roots;
    r.budget = args.budget;
    r.options.seed = seed;
    r.options.cpu_threads = args.cpu_threads;
    r.options.resilience.fault_plan = args.fault_plan;
    r.options.resilience.max_root_attempts = args.max_root_attempts;
    r.top_k = args.top_k;
    out.push_back(std::move(r));
  }
  return out;
}

/// One scripted epoch transition: the batches to commit, one per graph.
using MutationStep = std::map<std::string, dyn::UpdateBatch>;

std::vector<MutationStep> parse_mutation_script(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read mutation script " + path);
  std::vector<MutationStep> steps;
  MutationStep pending;
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    std::istringstream fields(line);
    std::string graph_id;
    if (!(fields >> graph_id)) continue;  // blank line
    if (graph_id == "commit") {
      if (!pending.empty()) steps.push_back(std::move(pending));
      pending.clear();
      continue;
    }
    std::string op;
    graph::VertexId u = 0, v = 0;
    if (!(fields >> op >> u >> v) || (op != "+" && op != "-")) {
      throw std::runtime_error("mutation script line " + std::to_string(lineno) +
                               ": expected 'graph_id +|- u v' or 'commit'");
    }
    if (op == "+") {
      pending[graph_id].insert(u, v);
    } else {
      pending[graph_id].remove(u, v);
    }
  }
  if (!pending.empty()) steps.push_back(std::move(pending));
  return steps;
}

/// What the accuracy-contract replay actually got back (--accuracy /
/// --budget-roots): the served-estimate spread across all Ok responses.
struct ApproxTally {
  std::size_t with_estimate = 0;
  std::size_t refining = 0;
  std::size_t min_roots = 0, max_roots = 0;
  double min_stderr = 0.0, max_stderr = 0.0;

  void add(const service::Response& r) {
    if (!r.estimate) return;
    const service::Estimate& e = *r.estimate;
    if (with_estimate == 0) {
      min_roots = max_roots = e.roots_used;
      min_stderr = max_stderr = e.stderr_est;
    } else {
      min_roots = std::min(min_roots, e.roots_used);
      max_roots = std::max(max_roots, e.roots_used);
      min_stderr = std::min(min_stderr, e.stderr_est);
      max_stderr = std::max(max_stderr, e.stderr_est);
    }
    ++with_estimate;
    refining += e.refining ? 1 : 0;
  }

  void print() const {
    if (with_estimate == 0) return;
    std::printf("  %-18s %zu (roots %zu..%zu, stderr %.3g..%.3g, refining %zu)\n",
                "(estimates)", with_estimate, min_roots, max_roots, min_stderr,
                max_stderr, refining);
  }
};

/// Submit + wait one slice of the workload, folding statuses into the
/// running tally. (Mutation runs between slices, so each slice is its own
/// submit wave: requests in the second wave key off the new fingerprints.)
void replay_slice(service::BcService& svc,
                  std::span<const service::Request> slice,
                  std::map<std::string, std::size_t>& by_status,
                  std::size_t& degraded, ApproxTally& approx) {
  std::vector<service::Ticket> tickets;
  tickets.reserve(slice.size());
  for (const auto& request : slice) tickets.push_back(svc.submit(request));
  for (const auto& ticket : tickets) {
    const service::Response r = svc.wait(ticket);
    ++by_status[to_string(r.status)];
    degraded += r.degraded ? 1 : 0;
    approx.add(r);
  }
}

void run_mutations(service::BcService& svc, const std::vector<MutationStep>& steps) {
  for (std::size_t i = 0; i < steps.size(); ++i) {
    for (const auto& [graph_id, batch] : steps[i]) {
      const service::MutationResult mr = svc.mutate_graph(graph_id, batch);
      std::printf(
          "mutate #%zu %-4s epoch=%llu applied=%zu noops=%zu "
          "fingerprint %016llx -> %016llx invalidated=%zu refresh_queued=%zu\n",
          i + 1, graph_id.c_str(), static_cast<unsigned long long>(mr.epoch),
          mr.applied, mr.noops,
          static_cast<unsigned long long>(mr.fingerprint_before),
          static_cast<unsigned long long>(mr.fingerprint_after),
          mr.cache_invalidated, mr.cache_refresh_queued);
    }
    // Drain between steps: otherwise a later commit supersedes the
    // previous epoch before the refresher reaches it and every queued
    // entry is dropped instead of patched.
    svc.drain_refreshes();
  }
}

/// --dump-scores: one canonical query per graph (deterministic options, no
/// fault plan), full score arrays appended to `path` as raw little-endian
/// doubles. `query` maps a Request to a Response — svc.submit+wait in
/// standalone, Coordinator::query in a fleet — so the two roles produce
/// byte-identical files when the math is byte-identical.
template <class QueryFn>
void dump_canonical_scores(const std::string& path, std::size_t num_graphs,
                           const ServeArgs& args, QueryFn&& query) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write " + path);
  std::size_t total = 0;
  for (std::size_t i = 0; i < num_graphs; ++i) {
    service::Request r;
    r.graph_id = "g" + std::to_string(i);
    r.options.strategy = args.strategy;
    r.options.sample_roots = args.sample_roots;
    r.options.seed = args.seed;
    r.options.cpu_threads = args.cpu_threads;
    r.top_k = 0;
    const service::Response resp = query(r);
    if (!resp.ok() || !resp.result) {
      throw std::runtime_error("--dump-scores query on " + r.graph_id +
                               " failed: " +
                               (resp.error.empty() ? to_string(resp.status)
                                                   : resp.error));
    }
    const std::vector<double>& scores = resp.result->scores;
    out.write(reinterpret_cast<const char*>(scores.data()),
              static_cast<std::streamsize>(scores.size() * sizeof(double)));
    total += scores.size();
  }
  if (!out) throw std::runtime_error("short write to " + path);
  std::printf("dumped %zu raw scores (%zu graph(s)) to %s\n", total, num_graphs,
              path.c_str());
}

void export_trace(trace::Tracer& tracer, const std::string& dir) {
  std::filesystem::create_directories(dir);
  const std::string json_path = dir + "/serve.json";
  cli::write_trace_json(tracer, json_path);
  std::ofstream summary(dir + "/serve-summary.txt");
  tracer.write_summary(summary);
  std::printf("\ntrace: %s -> %s\n", cli::trace_stats_line(tracer).c_str(),
              json_path.c_str());
}

/// --role worker: connect, serve shards until drained or the coordinator
/// goes away. No graph arguments — the coordinator says what to load.
int run_worker(const ServeArgs& args, trace::Tracer& tracer) {
  net::WorkerConfig wc;
  wc.connect = net::Endpoint::parse(args.connect_spec);
  wc.service = args.config;
  wc.max_connect_attempts = args.connect_attempts;
  wc.die_after_shards = args.die_after_shards;
  wc.rejoin_attempts = args.rejoin;
  wc.heartbeat_interval = std::chrono::milliseconds(args.heartbeat_ms);
  wc.chaos = args.chaos;
  if (!args.trace_dir.empty()) wc.tracer = &tracer;

  std::printf("worker connecting to %s\n", args.connect_spec.c_str());
  net::Worker worker(wc);
  try {
    worker.run();
  } catch (const net::NetError&) {
    // A worker that loses its coordinator for good (rejoin attempts
    // exhausted against a dead socket) still owes its trace — the
    // postmortem is exactly when the capture matters. Flush, then let
    // main's catch report the error and exit 1.
    if (!args.trace_dir.empty()) export_trace(tracer, args.trace_dir);
    throw;
  }

  const net::WorkerStats& s = worker.stats();
  std::printf("worker done: shards served=%llu refused=%llu graphs=%llu "
              "mutations=%llu reconnects=%llu heartbeat_misses=%llu "
              "quarantine_notices=%llu\n",
              static_cast<unsigned long long>(s.shards_served),
              static_cast<unsigned long long>(s.shards_refused),
              static_cast<unsigned long long>(s.graphs_loaded),
              static_cast<unsigned long long>(s.mutations),
              static_cast<unsigned long long>(s.reconnects),
              static_cast<unsigned long long>(s.heartbeat_misses),
              static_cast<unsigned long long>(s.quarantine_notices));
  if (args.chaos) {
    const net::ChaosStats cs = args.chaos->stats();
    std::printf("chaos: frames=%llu injected=%llu (drop=%llu delay=%llu "
                "dup=%llu trunc=%llu flip=%llu partition=%llu)\n",
                static_cast<unsigned long long>(cs.frames),
                static_cast<unsigned long long>(cs.injected()),
                static_cast<unsigned long long>(cs.dropped),
                static_cast<unsigned long long>(cs.delayed),
                static_cast<unsigned long long>(cs.duplicated),
                static_cast<unsigned long long>(cs.truncated),
                static_cast<unsigned long long>(cs.flipped),
                static_cast<unsigned long long>(cs.partitioned));
  }
  if (!args.trace_dir.empty()) export_trace(tracer, args.trace_dir);
  return 0;
}

/// --role coordinator: bind, wait for the fleet, load the graphs by spec,
/// replay the workload through Coordinator::query (sequential — shard
/// parallelism across workers is where the concurrency lives).
int run_coordinator(const ServeArgs& args, trace::Tracer& tracer) {
  net::CoordinatorConfig cc;
  cc.listen = net::Endpoint::parse(args.listen_spec);
  cc.cache_bytes = args.config.cache_bytes;
  cc.replication = args.replication;
  cc.straggler_timeout = std::chrono::milliseconds(args.straggler_ms);
  cc.heartbeat_timeout = std::chrono::milliseconds(args.heartbeat_timeout_ms);
  cc.chaos = args.chaos;
  cc.snapshot_dir = args.snapshot_dir;
  if (!args.trace_dir.empty()) cc.tracer = &tracer;

  auto report_restore = [](const net::Coordinator& c) {
    const net::SnapshotInfo& si = c.snapshot_info();
    if (!si.attempted) return;
    if (si.ok) {
      std::printf("snapshot restored: %zu graph(s), %zu cache entr%s\n",
                  si.graphs, si.cache_entries, si.cache_entries == 1 ? "y" : "ies");
    } else if (!si.error.empty()) {
      std::printf("snapshot restore failed (starting fresh): %s\n",
                  si.error.c_str());
    }
  };
  auto await_fleet = [&](net::Coordinator& c) {
    if (args.expect_workers == 0) return;
    const std::size_t ready =
        c.wait_for_workers(args.expect_workers, std::chrono::seconds(30));
    if (ready < args.expect_workers) {
      throw std::runtime_error("only " + std::to_string(ready) + " of " +
                               std::to_string(args.expect_workers) +
                               " expected workers joined within 30 s");
    }
    std::printf("%zu workers ready\n", ready);
  };

  auto coord = std::make_unique<net::Coordinator>(cc);  // NetError on bind -> exit 1
  std::printf("coordinator listening on %s\n", args.listen_spec.c_str());
  report_restore(*coord);
  await_fleet(*coord);

  for (std::size_t i = 0; i < args.graph_specs.size(); ++i) {
    graph::CSRGraph g = cli::load_graph_spec(args.graph_specs[i]);
    const std::string id = "g" + std::to_string(i);
    std::printf("loaded %-4s %s\n", id.c_str(), g.summary().c_str());
    const std::size_t confirmed =
        coord->load_graph(id, std::move(g), args.graph_specs[i]);
    std::printf("placed %-4s on %zu worker(s), fingerprint %016llx\n",
                id.c_str(), confirmed,
                static_cast<unsigned long long>(coord->graph_fingerprint(id)));
  }

  const std::vector<service::Request> workload =
      args.workload_file.empty() ? synthetic_workload(args, args.graph_specs.size())
                                 : file_workload(args);
  std::printf("replaying %zu requests (%s workload) across %zu workers, "
              "replication=%u cache=%zu MiB\n",
              workload.size(), args.workload_file.empty() ? "synthetic" : "file",
              coord->worker_count(), args.replication,
              args.config.cache_bytes >> 20);

  const std::vector<MutationStep> mutations =
      args.mutate_file.empty() ? std::vector<MutationStep>{}
                               : parse_mutation_script(args.mutate_file);

  std::map<std::string, std::size_t> by_status;
  std::size_t degraded = 0;
  ApproxTally approx;
  auto replay = [&](std::span<const service::Request> slice) {
    for (const auto& request : slice) {
      const service::Response r = coord->query(request);
      ++by_status[to_string(r.status)];
      degraded += r.degraded ? 1 : 0;
      approx.add(r);
    }
  };

  util::Timer wall;
  const std::span<const service::Request> all(workload);
  if (mutations.empty() && !args.restart_mid) {
    replay(all);
  } else {
    const std::size_t mid = workload.size() / 2;
    replay(all.subspan(0, mid));
    if (args.restart_mid) {
      // Simulated crash: tear the coordinator down with NO drain — workers
      // see the connection die, back off, and rejoin (--rejoin on their
      // side); the successor restores the registry + cache from the
      // snapshot and resumes the replay where the predecessor stopped.
      std::printf("\n-- simulated coordinator crash at request %zu --\n", mid);
      coord.reset();
      coord = std::make_unique<net::Coordinator>(cc);
      std::printf("coordinator restarted on %s\n", args.listen_spec.c_str());
      report_restore(*coord);
      await_fleet(*coord);
    }
    for (std::size_t i = 0; i < mutations.size(); ++i) {
      for (const auto& [graph_id, batch] : mutations[i]) {
        const service::MutationResult mr = coord->mutate_graph(graph_id, batch);
        std::printf(
            "mutate #%zu %-4s epoch=%llu applied=%zu noops=%zu "
            "fingerprint %016llx -> %016llx invalidated=%zu\n",
            i + 1, graph_id.c_str(), static_cast<unsigned long long>(mr.epoch),
            mr.applied, mr.noops,
            static_cast<unsigned long long>(mr.fingerprint_before),
            static_cast<unsigned long long>(mr.fingerprint_after),
            mr.cache_invalidated);
      }
    }
    replay(all.subspan(mid));
  }
  if (args.budget.allow_refinement) {
    // Background strata run on the fleet only while this thread pumps:
    // pump until the refinement queue drains so the metrics (and trace)
    // show the full ladder, not just rung 0.
    while (coord->refine_backlog() > 0) {
      coord->run_for(std::chrono::milliseconds(20));
    }
  }
  const double wall_s = wall.elapsed_seconds();

  std::printf("\nreplay finished in %.3f s (%.1f QPS)\n", wall_s,
              static_cast<double>(workload.size()) / wall_s);
  for (const auto& [status, count] : by_status) {
    std::printf("  %-18s %zu\n", status.c_str(), count);
  }
  if (degraded > 0) std::printf("  %-18s %zu\n", "(degraded)", degraded);
  approx.print();

  std::printf("\n%s", coord->metrics_report().c_str());

  if (!args.dump_scores_path.empty()) {
    dump_canonical_scores(args.dump_scores_path, args.graph_specs.size(), args,
                          [&](const service::Request& r) { return coord->query(r); });
  }

  coord->drain();
  if (!args.trace_dir.empty()) export_trace(tracer, args.trace_dir);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  ServeArgs args;
  args.config.admission.policy = service::AdmissionPolicy::Block;

  cli::ArgCursor cursor(argc, argv);
  try {
    while (!cursor.done()) {
      const std::string arg = cursor.take();
      if (arg == "--workers") {
        args.config.workers = cli::parse_size(arg, cursor.value(arg));
      } else if (arg == "--queue") {
        args.config.admission.max_queue_depth = cli::parse_size(arg, cursor.value(arg));
      } else if (arg == "--policy") {
        args.config.admission.policy =
            service::admission_policy_from_string(cursor.value(arg));
      } else if (arg == "--shed-roots") {
        args.config.admission.shed_sample_roots = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--cache-mb") {
        args.config.cache_bytes = cli::parse_u64(arg, cursor.value(arg)) << 20;
      } else if (arg == "--requests") {
        args.requests = cli::parse_size(arg, cursor.value(arg));
      } else if (arg == "--hit-ratio") {
        args.hit_ratio = cli::parse_double(arg, cursor.value(arg));
      } else if (arg == "--distinct") {
        args.distinct = std::max<std::size_t>(1, cli::parse_size(arg, cursor.value(arg)));
      } else if (arg == "--strategy") {
        args.strategy = core::strategy_from_string(cursor.value(arg));
      } else if (arg == "--roots") {
        args.sample_roots = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--accuracy") {
        args.budget.accuracy_target = cli::parse_double(arg, cursor.value(arg));
        if (!(args.budget.accuracy_target > 0.0) ||
            args.budget.accuracy_target > 1.0) {
          throw cli::UsageError("--accuracy must be in (0, 1]");
        }
      } else if (arg == "--budget-roots") {
        args.budget.max_roots = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--refine") {
        args.budget.allow_refinement = true;
      } else if (arg == "--threads") {
        args.cpu_threads = cli::parse_size(arg, cursor.value(arg));
        args.config.compute_threads = args.cpu_threads;
      } else if (arg == "--top") {
        args.top_k = cli::parse_size(arg, cursor.value(arg));
      } else if (arg == "--timeout") {
        args.budget.deadline =
            std::chrono::milliseconds(cli::parse_u64(arg, cursor.value(arg)));
      } else if (arg == "--seed") {
        args.seed = cli::parse_u64(arg, cursor.value(arg));
      } else if (arg == "--workload") {
        args.workload_file = cursor.value(arg);
      } else if (arg == "--mutate") {
        args.mutate_file = cursor.value(arg);
      } else if (arg == "--refresh") {
        args.config.refresh.enabled = true;
      } else if (arg == "--refresh-budget") {
        args.config.refresh.budget_entries = cli::parse_size(arg, cursor.value(arg));
      } else if (arg == "--inject-faults") {
        args.fault_plan = gpusim::FaultPlan::parse_shared(cursor.value(arg));
      } else if (arg == "--max-attempts") {
        args.max_root_attempts = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--trace-dir") {
        args.trace_dir = cursor.value(arg);
      } else if (arg == "--dump-scores") {
        args.dump_scores_path = cursor.value(arg);
      } else if (arg == "--role") {
        args.role = cursor.value(arg);
        if (args.role != "standalone" && args.role != "coordinator" &&
            args.role != "worker") {
          throw cli::UsageError("--role must be coordinator, worker, or standalone");
        }
      } else if (arg == "--listen") {
        args.listen_spec = cursor.value(arg);
      } else if (arg == "--connect") {
        args.connect_spec = cursor.value(arg);
      } else if (arg == "--expect-workers") {
        args.expect_workers = cli::parse_size(arg, cursor.value(arg));
      } else if (arg == "--replication") {
        args.replication = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--straggler-ms") {
        args.straggler_ms = cli::parse_u64(arg, cursor.value(arg));
      } else if (arg == "--die-after-shards") {
        args.die_after_shards = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--connect-attempts") {
        args.connect_attempts = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--chaos") {
        args.chaos = net::ChaosPlan::parse_shared(cursor.value(arg));
      } else if (arg == "--rejoin") {
        args.rejoin = cli::parse_u32(arg, cursor.value(arg));
      } else if (arg == "--heartbeat-ms") {
        args.heartbeat_ms = cli::parse_u64(arg, cursor.value(arg));
      } else if (arg == "--heartbeat-timeout") {
        args.heartbeat_timeout_ms = cli::parse_u64(arg, cursor.value(arg));
      } else if (arg == "--snapshot-dir") {
        args.snapshot_dir = cursor.value(arg);
      } else if (arg == "--restart-mid") {
        args.restart_mid = true;
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0]);
      } else if (!arg.empty() && arg[0] == '-') {
        throw cli::UsageError("unknown option: " + arg);
      } else {
        args.graph_specs.push_back(arg);
      }
    }
  } catch (const cli::UsageError& e) {
    std::fprintf(stderr, "%s\n", e.what());
    usage(argv[0]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bad argument: %s\n", e.what());
    return 2;
  }
  if (args.budget.allow_refinement && !args.budget.active()) {
    std::fprintf(stderr, "--refine needs an active budget: add --accuracy "
                         "and/or --budget-roots\n");
    usage(argv[0]);
  }
  if (args.role == "worker") {
    if (args.connect_spec.empty()) {
      std::fprintf(stderr, "--role worker requires --connect\n");
      usage(argv[0]);
    }
    if (!args.graph_specs.empty()) {
      std::fprintf(stderr, "--role worker takes no graph arguments "
                           "(the coordinator says what to load)\n");
      usage(argv[0]);
    }
  } else {
    if (args.role == "coordinator" && args.listen_spec.empty()) {
      std::fprintf(stderr, "--role coordinator requires --listen\n");
      usage(argv[0]);
    }
    if (args.restart_mid &&
        (args.role != "coordinator" || args.snapshot_dir.empty())) {
      std::fprintf(stderr, "--restart-mid requires --role coordinator and "
                           "--snapshot-dir (the successor restores from it)\n");
      usage(argv[0]);
    }
    if (args.graph_specs.empty()) usage(argv[0]);
  }

  trace::Tracer tracer;
  if (!args.trace_dir.empty()) args.config.tracer = &tracer;

  try {
    if (args.role == "worker") return run_worker(args, tracer);
    if (args.role == "coordinator") return run_coordinator(args, tracer);

    service::BcService svc(args.config);
    for (std::size_t i = 0; i < args.graph_specs.size(); ++i) {
      graph::CSRGraph g = cli::load_graph_spec(args.graph_specs[i]);
      const std::string id = "g" + std::to_string(i);
      std::printf("loaded %-4s %s\n", id.c_str(), g.summary().c_str());
      svc.load_graph(id, std::move(g));
    }

    const std::vector<service::Request> workload =
        args.workload_file.empty() ? synthetic_workload(args, args.graph_specs.size())
                                   : file_workload(args);
    std::printf("replaying %zu requests (%s workload) on %zu workers, "
                "queue=%zu policy=%s cache=%zu MiB\n",
                workload.size(), args.workload_file.empty() ? "synthetic" : "file",
                svc.worker_count(), args.config.admission.max_queue_depth,
                to_string(args.config.admission.policy),
                args.config.cache_bytes >> 20);

    // Parse the mutation script before replaying anything so a malformed
    // script fails fast instead of after half the workload.
    const std::vector<MutationStep> mutations =
        args.mutate_file.empty() ? std::vector<MutationStep>{}
                                 : parse_mutation_script(args.mutate_file);

    util::Timer wall;
    std::map<std::string, std::size_t> by_status;
    std::size_t degraded = 0;
    ApproxTally approx;
    const std::span<const service::Request> all(workload);
    if (mutations.empty()) {
      replay_slice(svc, all, by_status, degraded, approx);
    } else {
      const std::size_t mid = workload.size() / 2;
      replay_slice(svc, all.subspan(0, mid), by_status, degraded, approx);
      run_mutations(svc, mutations);
      replay_slice(svc, all.subspan(mid), by_status, degraded, approx);
    }
    if (args.budget.allow_refinement) {
      // Let background refinement reach every contract before the
      // metrics/trace snapshot, so refine rungs are visible in both.
      svc.drain_refinement();
    }
    const double wall_s = wall.elapsed_seconds();

    std::printf("\nreplay finished in %.3f s (%.1f submitted QPS)\n", wall_s,
                static_cast<double>(workload.size()) / wall_s);
    for (const auto& [status, count] : by_status) {
      std::printf("  %-18s %zu\n", status.c_str(), count);
    }
    if (degraded > 0) {
      std::printf("  %-18s %zu\n", "(degraded)", degraded);
    }
    approx.print();
    std::printf("\n%s", svc.metrics_report().c_str());

    if (!args.dump_scores_path.empty()) {
      dump_canonical_scores(args.dump_scores_path, args.graph_specs.size(), args,
                            [&](const service::Request& r) {
                              return svc.wait(svc.submit(r));
                            });
    }

    if (!args.trace_dir.empty()) {
      // Export only after the workers have quiesced: stop() joins them, so
      // no sink is being written while the exporter reads.
      svc.stop();
      std::filesystem::create_directories(args.trace_dir);
      const std::string json_path = args.trace_dir + "/serve.json";
      cli::write_trace_json(tracer, json_path);
      std::ofstream summary(args.trace_dir + "/serve-summary.txt");
      tracer.write_summary(summary);
      std::printf("\ntrace: %s -> %s\n", cli::trace_stats_line(tracer).c_str(),
                  json_path.c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
  return 0;
}
