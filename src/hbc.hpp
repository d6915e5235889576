#pragma once

// hbc.hpp — the library's single public entry point.
//
//   #include "hbc.hpp"
//
//   auto g = hbc::graph::gen::scale_free({.num_vertices = 1 << 14});
//   hbc::core::Options opt;
//   opt.strategy = hbc::core::Strategy::Hybrid;     // paper Algorithm 4
//   hbc::core::BCResult r = hbc::core::compute(g, opt);
//   for (auto [v, score] : hbc::core::top_k(r.scores, 10)) { ... }
//
// Applications and examples include this one header instead of reaching
// into the per-module headers; the module layout underneath (core/,
// graph/, kernels/, gpusim/, service/, trace/, cpu/, dist/, util/) is an
// implementation detail that may be rearranged between releases.
//
// What you get, by namespace:
//   hbc::core     compute(), Options, BCResult, top_k, strategy names
//   hbc::graph    CSRGraph, builders, generators, file I/O, transforms
//   hbc::kernels  the paper's GPU-model engines and their knobs
//   hbc::gpusim   the simulated device: DeviceConfig, FaultPlan, memory
//   hbc::service  BcService — concurrent query serving with caching
//   hbc::net      sharded multi-process serving: Coordinator, Worker, wire
//   hbc::dyn      epoch-versioned mutable graphs + batched incremental BC
//   hbc::trace    Tracer/Sink span capture + Chrome JSON export
//   hbc::cpu      Brandes baselines, weighted/approx/edge variants
//   hbc::dist     multi-device scaling model (link the hbc::dist target)
//   hbc::util     cancellation, RNG, timers, stats

// Graph construction, generation, and I/O — including the storage-policy
// layer (heap / mmap'd .hbcg / varint-compressed; docs/storage.md).
#include "graph/algorithms.hpp"
#include "graph/builder.hpp"
#include "graph/csr.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/storage/compressed.hpp"
#include "graph/storage/heap.hpp"
#include "graph/storage/mmap_csr.hpp"
#include "graph/storage/storage.hpp"
#include "graph/transforms.hpp"
#include "graph/types.hpp"

// The one-call public API and its reporting helpers.
#include "core/approx.hpp"
#include "core/bc.hpp"
#include "core/report.hpp"
#include "core/teps.hpp"

// GPU-model engines and the simulated device they run on.
#include "gpusim/config.hpp"
#include "gpusim/device.hpp"
#include "gpusim/faults.hpp"
#include "gpusim/memory.hpp"
#include "kernels/kernels.hpp"
#include "kernels/weighted.hpp"

// CPU reference and specialty engines.
#include "cpu/approx.hpp"
#include "cpu/brandes.hpp"
#include "cpu/edge_bc.hpp"
#include "cpu/weighted_brandes.hpp"

// Dynamic graphs: versioned mutation + batched incremental BC.
#include "dyn/incremental_bc.hpp"
#include "dyn/versioned_graph.hpp"

// Serving, scaling, and observability layers.
#include "dist/cluster.hpp"
#include "net/chaos.hpp"
#include "net/coordinator.hpp"
#include "net/snapshot.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"
#include "net/worker.hpp"
#include "service/progressive.hpp"
#include "service/service.hpp"
#include "trace/check.hpp"
#include "trace/trace.hpp"

// Cross-cutting utilities that appear in public signatures.
#include "util/backoff.hpp"
#include "util/cancel.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/timer.hpp"
