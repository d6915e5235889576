#pragma once

// Storage-generic single-source Brandes kernel, written once against a
// minimal graph concept —
//
//   VertexId num_vertices() const;
//   std::span<const EdgeOffset> row_offsets() const;
//   <forward range of VertexId> neighbors(VertexId v) const;
//
// — and instantiated over two views of the adjacency:
//
//   * SpanView: row offsets plus a contiguous column array — the heap and
//     mapped backings, and a compressed backing whose columns are already
//     resident because another engine called
//     storage::CompressedStorage::col_indices();
//   * storage::CompressedStorage::StreamView: per-vertex varint decode of
//     a compressed backing whose columns are not resident.
//
// The CPU engines never materialize the columns themselves; they only
// read a decoded copy that already exists. Neighbor order is identical
// across views and the dependency stage adds the same terms in the same
// adjacency order, which keeps the BC scores bitwise-identical per
// backing.
//
// The forward stage marks successor edges in a one-bit-per-edge-slot map
// — the Green & Bader side of the paper's §IV.A storage trade (DESIGN §4
// item 6). The paper declines it to keep per-block GPU storage at O(n);
// the CPU runs at most nproc workers, so m/8 bytes each is cheap, and the
// dependency stage then visits only the marked slots instead of
// re-testing every neighbor's level.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "cpu/brandes.hpp"
#include "graph/types.hpp"

namespace hbc::cpu::detail {

/// Contiguous adjacency: the view the dependency stage can walk by set bit.
struct SpanView {
  std::span<const graph::EdgeOffset> rows;
  std::span<const graph::VertexId> cols;

  graph::VertexId num_vertices() const noexcept {
    return static_cast<graph::VertexId>(rows.empty() ? 0 : rows.size() - 1);
  }
  std::span<const graph::EdgeOffset> row_offsets() const noexcept { return rows; }
  std::span<const graph::VertexId> neighbors(graph::VertexId v) const noexcept {
    return cols.subspan(rows[v], rows[v + 1] - rows[v]);
  }
};

struct SingleSourceKernel {
  static constexpr std::uint64_t kUnvisited = ~std::uint64_t{0};

  /// Both Brandes stages from s (< num_vertices()): calls visit(w, delta_w)
  /// for every vertex s reaches, in reverse BFS order (s last), then
  /// returns `ws` to its clean state.
  template <class G, class Visit>
  static void run(const G& g, graph::VertexId s, BrandesWorkspace& ws,
                  BrandesResult* stats, Visit&& visit) {
    using graph::EdgeOffset;
    using graph::VertexId;
    const std::span<const EdgeOffset> rows = g.row_offsets();
    prepare(ws, g.num_vertices(), rows.back());
    std::uint64_t* level = ws.level_or_delta_.data();
    double* sigma = ws.sigma_.data();
    std::uint64_t* succ = ws.successors_.data();
    std::vector<VertexId>& order = ws.order_;

    level[s] = 0;
    sigma[s] = 1.0;
    order.push_back(s);

    // Forward: BFS with path counting; slot e of v is marked when its
    // target lies one level below v.
    std::uint64_t traversed = 0;
    for (std::size_t head = 0; head < order.size(); ++head) {
      const VertexId v = order[head];
      const std::uint64_t next = level[v] + 1;
      const double sigma_v = sigma[v];
      EdgeOffset e = rows[v];
      traversed += rows[v + 1] - e;
      for (const VertexId w : g.neighbors(v)) {
        if (level[w] == kUnvisited) {
          level[w] = next;
          order.push_back(w);
        }
        if (level[w] == next) {
          sigma[w] += sigma_v;
          succ[e >> 6] |= bit(e);
        }
        ++e;
      }
    }
    if (stats != nullptr) {
      stats->edges_traversed += traversed;
      stats->max_depth_seen =
          std::max(stats->max_depth_seen, static_cast<std::uint32_t>(level[order.back()]));
    }

    // Dependency: successor-form accumulation in reverse BFS order over
    // the marked slots only, in adjacency order. Each vertex's slots are
    // cleared as they are read, leaving the map clean for the next root.
    for (std::size_t i = order.size(); i-- > 0;) {
      const VertexId w = order[i];
      const double sigma_w = sigma[w];
      double dsw = 0.0;
      const auto add = [&](VertexId v) {
        dsw += (sigma_w / sigma[v]) * (1.0 + std::bit_cast<double>(level[v]));
      };
      const EdgeOffset begin = rows[w];
      const EdgeOffset end = rows[w + 1];
      if constexpr (std::is_same_v<G, SpanView>) {
        if (begin < end) {
          const VertexId* cols = g.cols.data();
          const EdgeOffset first = begin >> 6;
          const EdgeOffset last = (end - 1) >> 6;
          for (EdgeOffset word = first; word <= last; ++word) {
            std::uint64_t bits = succ[word];
            if (word == first) bits &= ~std::uint64_t{0} << (begin & 63);
            if (word == last) bits &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
            succ[word] ^= bits;
            for (; bits != 0; bits &= bits - 1) {
              add(cols[(word << 6) + static_cast<EdgeOffset>(std::countr_zero(bits))]);
            }
          }
        }
      } else {
        EdgeOffset e = begin;
        for (const VertexId v : g.neighbors(w)) {
          if ((succ[e >> 6] & bit(e)) != 0) {
            succ[e >> 6] ^= bit(e);
            add(v);
          }
          ++e;
        }
      }
      level[w] = std::bit_cast<std::uint64_t>(dsw);
      visit(w, dsw);
    }

    for (const VertexId v : order) {
      level[v] = kUnvisited;
      sigma[v] = 0.0;
    }
    order.clear();
  }

 private:
  static std::uint64_t bit(graph::EdgeOffset e) noexcept {
    return std::uint64_t{1} << (e & 63);
  }

  /// Grow `ws` to cover n vertices and m edge slots; new entries start
  /// clean and existing ones already are.
  static void prepare(BrandesWorkspace& ws, graph::VertexId n, graph::EdgeOffset m) {
    if (ws.level_or_delta_.size() < n) {
      ws.level_or_delta_.resize(n, kUnvisited);
      ws.sigma_.resize(n, 0.0);
      ws.order_.reserve(n);
    }
    const std::size_t words = static_cast<std::size_t>((m + 63) / 64);
    if (ws.successors_.size() < words) ws.successors_.resize(words, 0);
  }
};

}  // namespace hbc::cpu::detail
