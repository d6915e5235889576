#include "cpu/brandes.hpp"

#include <algorithm>
#include <condition_variable>
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
                           std::span<double> bc, BrandesResult* stats, bool bottom_up) {
  run_kernel(g, s, ws, bottom_up, stats, [&](VertexId w, double dsw) {
    if (w != s) bc[w] += dsw;
  });
}

void brandes_single_source(const CSRGraph& g, VertexId s, std::span<double> bc,
                           BrandesResult* stats) {
  BrandesWorkspace ws;
  brandes_single_source(g, s, ws, bc, stats);
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

void add_terms(const RootTerms& terms, std::span<double> sum) {
  for (std::size_t k = 0; k < terms.vertices.size(); ++k) {
    sum[terms.vertices[k]] += terms.values[k];
  }
}

// The shared state of sum_roots_in_order's workers. Root i owns slot
// i % slots_.size() from its claim until it is folded; a claim waits while
// root i - slots_.size() is not folded yet. The worker holding the oldest
// unfolded root never waits, so the ring always drains.
class OrderedRing {
 public:
  OrderedRing(std::size_t count, std::size_t slots, std::span<double> sum,
              const util::CancelToken& cancel)
      : count_(count), slots_(slots), sum_(sum), cancel_(cancel) {
    // Room for one term per vertex, reserved on the calling thread: slots
    // the workers grew would sit in their own malloc arenas after the call
    // (3 MiB more peak RSS over the sweep's cpu-parallel jobs).
    for (Slot& slot : slots_) {
      slot.terms.vertices.reserve(sum.size());
      slot.terms.values.reserve(sum.size());
    }
  }

  void run(std::size_t worker, const RootWork& work) {
    std::unique_lock<std::mutex> lock(mu_);
    for (;;) {
      if (!stop_ && cancel_.cancelled()) halt(nullptr);
      if (stop_ || next_ == count_) return;
      const std::size_t i = next_++;
      room_.wait(lock, [&] { return stop_ || i < folded_ + slots_.size(); });
      if (stop_) return;
      Slot& slot = slots_[i % slots_.size()];
      lock.unlock();
      try {
        work(i, worker, slot.terms);
      } catch (...) {
        lock.lock();
        halt(std::current_exception());
        return;
      }
      lock.lock();
      slot.ready = true;
      if (folding_) continue;  // the active folder reaches this slot in turn
      folding_ = true;
      while (!stop_ && slots_[folded_ % slots_.size()].ready) {
        Slot& next = slots_[folded_ % slots_.size()];
        lock.unlock();
        add_terms(next.terms, sum_);
        next.terms.clear();
        lock.lock();
        next.ready = false;
        ++folded_;
        room_.notify_all();
      }
      folding_ = false;
    }
  }

  /// After every worker returned: rethrows a work exception, else throws
  /// util::Cancelled if the run stopped early.
  void rethrow() const {
    if (error_) std::rethrow_exception(error_);
    if (stop_) cancel_.check();
  }

 private:
  // A line of its own: workers append to different slots at once.
  struct alignas(64) Slot {
    RootTerms terms;
    bool ready = false;
  };

  void halt(std::exception_ptr error) {
    if (!error_) error_ = error;
    stop_ = true;
    room_.notify_all();
  }

  const std::size_t count_;
  std::vector<Slot> slots_;
  const std::span<double> sum_;
  const util::CancelToken& cancel_;
  std::mutex mu_;
  std::condition_variable room_;
  std::size_t next_ = 0;    // next root to claim
  std::size_t folded_ = 0;  // roots [0, folded_) are in sum_
  bool folding_ = false;
  bool stop_ = false;
  std::exception_ptr error_;
};

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
  BrandesResult result;
  result.bc.assign(g.num_vertices(), 0.0);
  result.roots_processed = roots.size();
  const bool bottom_up = bottom_up_eligible(g);
  const std::size_t workers =
      pool == nullptr ? 1 : std::min(pool->thread_count(), roots.size());
  if (workers <= 1) {
    BrandesWorkspace ws;
    for (const VertexId s : roots) {
      cancel.check();
      brandes_single_source(g, s, ws, result.bc, &result, bottom_up);
    }
    return result;
  }
  // Lines of their own: the kernel appends to its workspace's vectors.
  struct alignas(64) Worker {
    BrandesWorkspace ws;
    BrandesResult stats;
  };
  std::vector<Worker> state(workers);
  const RootWork work = [&](std::size_t i, std::size_t w, RootTerms& out) {
    const VertexId s = roots[i];
    run_kernel(g, s, state[w].ws, bottom_up, &state[w].stats, [&](VertexId v, double dsv) {
      if (v != s) out.add(v, dsv);
    });
  };
  sum_roots_in_order(roots.size(), pool, result.bc, cancel, work);
  // Integer sums and a max: the same in any order.
  for (const Worker& st : state) {
    result.edges_traversed += st.stats.edges_traversed;
    result.max_depth_seen = std::max(result.max_depth_seen, st.stats.max_depth_seen);
    result.bottom_up_levels += st.stats.bottom_up_levels;
  }
  return result;
}

}  // namespace

void sum_roots_in_order(std::size_t count, util::ThreadPool* pool, std::span<double> sum,
                        const util::CancelToken& cancel, const RootWork& work) {
  const std::size_t workers = pool == nullptr ? 1 : std::min(pool->thread_count(), count);
  if (workers <= 1) {
    RootTerms terms;
    for (std::size_t i = 0; i < count; ++i) {
      cancel.check();
      work(i, 0, terms);
      add_terms(terms, sum);
      terms.clear();
    }
    return;
  }
  OrderedRing ring(count, 2 * workers, sum, cancel);
  for (std::size_t w = 0; w < workers; ++w) {
    pool->submit([&ring, &work, w] { ring.run(w, work); });
  }
  pool->wait_idle();
  ring.rethrow();
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
