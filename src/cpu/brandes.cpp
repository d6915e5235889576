#include "cpu/brandes.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <iterator>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>

#include "cpu/brandes_impl.hpp"
#include "graph/storage/compressed.hpp"
#include "graph/types.hpp"

namespace hbc::cpu {

using graph::CSRGraph;
using graph::VertexId;

namespace {

// A compressed backing whose columns are not resident: the kernel streams
// its varint decode rather than materialize the adjacency. Once another
// engine has decoded the columns (CompressedStorage::col_indices()), the
// kernel reads that copy like any raw backing. Both views produce
// bitwise-identical scores — see brandes_impl.hpp.
const graph::storage::CompressedStorage* compressed_backing(const CSRGraph& g) {
  if (!graph::storage::is_compressed(g.residency())) return nullptr;
  const auto* cs = dynamic_cast<const graph::storage::CompressedStorage*>(g.storage().get());
  return cs != nullptr && cs->resident_columns().empty() ? cs : nullptr;
}

template <class Visit>
void run_kernel(const CSRGraph& g, VertexId s, BrandesWorkspace& ws, bool bottom_up,
                BrandesResult* stats, Visit&& visit) {
  if (s >= g.num_vertices()) {
    throw std::out_of_range("brandes: source " + std::to_string(s) + " >= num_vertices " +
                            std::to_string(g.num_vertices()));
  }
  if (const auto* cs = compressed_backing(g)) {
    detail::SingleSourceKernel::run(cs->stream_view(), s, ws, false, stats, visit);
  } else {
    detail::SingleSourceKernel::run(detail::SpanView{g.row_offsets(), g.col_indices()}, s,
                                    ws, bottom_up, stats, visit);
  }
}

}  // namespace

bool bottom_up_eligible(const CSRGraph& g) {
  return g.undirected() && compressed_backing(g) == nullptr &&
         g.storage()->rows_strictly_ascending();
}

void brandes_single_source(const CSRGraph& g, VertexId s, BrandesWorkspace& ws,
                           util::ExactSum& bc, BrandesResult* stats, bool bottom_up) {
  run_kernel(g, s, ws, bottom_up, stats, [&](VertexId w, double dsw) {
    if (w != s) bc.add(w, dsw);
  });
}

void single_source_dependencies(const CSRGraph& g, VertexId s, BrandesWorkspace& ws,
                                std::span<double> delta) {
  if (delta.size() != g.num_vertices()) {
    throw std::invalid_argument("single_source_dependencies: delta size != num_vertices");
  }
  std::fill(delta.begin(), delta.end(), 0.0);
  run_kernel(g, s, ws, false, nullptr, [&](VertexId w, double dsw) { delta[w] = dsw; });
}

std::vector<double> single_source_dependencies(const CSRGraph& g, VertexId s) {
  BrandesWorkspace ws;
  std::vector<double> delta(g.num_vertices());
  single_source_dependencies(g, s, ws, delta);
  return delta;
}

std::size_t brandes_threads(std::size_t requested, std::size_t roots,
                            std::size_t hardware) noexcept {
  const std::size_t hw = std::max<std::size_t>(1, hardware);
  return std::max<std::size_t>(1, std::min({requested == 0 ? hw : requested, roots, hw}));
}

namespace {

// The valid sources in order (all vertices when none are given).
std::vector<VertexId> valid_roots(VertexId n, const std::vector<VertexId>& sources) {
  std::vector<VertexId> roots;
  if (sources.empty()) {
    roots.resize(n);
    std::iota(roots.begin(), roots.end(), VertexId{0});
  } else {
    std::copy_if(sources.begin(), sources.end(), std::back_inserter(roots),
                 [n](VertexId s) { return s < n; });
  }
  return roots;
}

BrandesResult run_roots(const CSRGraph& g, const std::vector<VertexId>& roots,
                        const util::CancelToken& cancel, util::ThreadPool* pool) {
  const bool bottom_up = bottom_up_eligible(g);
  const std::size_t workers =
      pool == nullptr ? 1 : std::max<std::size_t>(1, std::min(pool->thread_count(), roots.size()));
  // Lines of their own: the kernel appends to its workspace's vectors. The
  // sums are allocated here, on the calling thread: grown by the workers
  // they would stay in the workers' malloc arenas after the call.
  struct alignas(64) Worker {
    BrandesWorkspace ws;
    BrandesResult part;
  };
  std::vector<Worker> state(workers);
  for (Worker& w : state) w.part.sums = util::ExactSum(g.num_vertices());
  for_each_root(roots.size(), pool, cancel,
                [&](std::size_t i, std::size_t w) {
                  brandes_single_source(g, roots[i], state[w].ws, state[w].part.sums,
                                        &state[w].part, bottom_up);
                });
  // Integer sums and a max: the same in any order.
  BrandesResult result = std::move(state.front().part);
  for (std::size_t w = 1; w < workers; ++w) {
    const BrandesResult& part = state[w].part;
    result.sums.merge(part.sums);
    result.edges_traversed += part.edges_traversed;
    result.max_depth_seen = std::max(result.max_depth_seen, part.max_depth_seen);
    result.bottom_up_levels += part.bottom_up_levels;
  }
  result.roots_processed = roots.size();
  result.bc = result.sums.to_doubles();
  return result;
}

}  // namespace

void for_each_root(std::size_t count, util::ThreadPool* pool, const util::CancelToken& cancel,
                   const std::function<void(std::size_t i, std::size_t worker)>& work) {
  const std::size_t workers = pool == nullptr ? 1 : std::min(pool->thread_count(), count);
  if (workers <= 1) {
    for (std::size_t i = 0; i < count; ++i) {
      cancel.check();
      work(i, 0);
    }
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> stop{false};
  std::mutex error_mu;
  std::exception_ptr error;
  for (std::size_t w = 0; w < workers; ++w) {
    pool->submit([&, w] {
      while (!stop) {
        if (cancel.cancelled()) {
          stop = true;
          return;
        }
        const std::size_t i = next++;
        if (i >= count) return;
        try {
          work(i, w);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          stop = true;
          return;
        }
      }
    });
  }
  pool->wait_idle();
  if (error) std::rethrow_exception(error);
  if (stop) cancel.check();
}

BrandesResult brandes(const CSRGraph& g, const BrandesOptions& options) {
  const std::vector<VertexId> roots = valid_roots(g.num_vertices(), options.sources);
  const std::size_t threads = brandes_threads(options.num_threads, roots.size(),
                                              std::thread::hardware_concurrency());
  if (threads == 1) return run_roots(g, roots, options.cancel, nullptr);
  util::ThreadPool pool(threads);
  return run_roots(g, roots, options.cancel, &pool);
}

BrandesResult brandes(const CSRGraph& g, const BrandesOptions& options,
                      util::ThreadPool& pool) {
  return run_roots(g, valid_roots(g.num_vertices(), options.sources), options.cancel, &pool);
}

}  // namespace hbc::cpu
