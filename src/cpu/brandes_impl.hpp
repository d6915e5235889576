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
// The forward stage runs level by level. A top-down level expands the
// frontier and marks successor edges in a one-bit-per-edge-slot map — the
// Green & Bader side of the paper's §IV.A storage trade (DESIGN §4 item
// 6). The paper declines it to keep per-block GPU storage at O(n); the CPU
// runs at most nproc workers, so m/8 bytes each is cheap, and the
// dependency stage then visits only the marked slots instead of re-testing
// every neighbor's level.
//
// On a SpanView whose rows the engine has checked (bottom_up_eligible) a
// wide frontier is expanded bottom-up instead (Beamer's direction-
// optimizing BFS, the paper's §VI): every unvisited vertex scans its own
// row, sums σ over the neighbors on the frontier and marks those slots in
// a second, predecessor bitmap. The dependency stage then pushes from such
// a level into its predecessors in ascending vertex id, which — on
// strictly ascending rows — adds each δ term in exactly the order the
// successor pull would. σ sums are sums of integers and exact below 2^53,
// so their order does not matter either. Each σ on a level is at most the
// σ total of the frontier before it, so a frontier whose total reaches
// 2^53 never starts a bottom-up level, and a root that meets one after
// going bottom-up is rerun top-down. The scores are the top-down kernel's
// to the bit.

#include <algorithm>
#include <bit>
#include <cstdint>
#include <optional>
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
  /// returns `ws` to its clean state. `bottom_up` lets a SpanView expand
  /// wide frontiers bottom-up; pass it only for rows bottom_up_eligible()
  /// accepted.
  template <class G, class Visit>
  static void run(const G& g, graph::VertexId s, BrandesWorkspace& ws, bool bottom_up,
                  BrandesResult* stats, Visit&& visit) {
    bottom_up = bottom_up && std::is_same_v<G, SpanView>;
    prepare(ws, g.num_vertices(), g.row_offsets().back(), bottom_up);
    std::optional<std::uint64_t> traversed = forward(g, s, ws, bottom_up);
    if (!traversed) {
      // σ may have left the exact range after a bottom-up level: redo the
      // root top-down, the order the scores are defined by.
      reset_vertices(ws);
      std::fill(ws.successors_.begin(), ws.successors_.end(), 0);
      std::fill(ws.predecessors_.begin(), ws.predecessors_.end(), 0);
      traversed = forward(g, s, ws, false);
    }
    if (stats != nullptr) {
      stats->edges_traversed += *traversed;
      stats->max_depth_seen = std::max(
          stats->max_depth_seen, static_cast<std::uint32_t>(ws.levels_.size() - 1));
      stats->bottom_up_levels += static_cast<std::uint64_t>(
          std::count_if(ws.levels_.begin(), ws.levels_.end(),
                        [](const BrandesWorkspace::Level& l) { return l.bottom_up; }));
    }
    dependency(g, ws, visit);
    reset_vertices(ws);
  }

 private:
  static std::uint64_t bit(graph::EdgeOffset e) noexcept {
    return std::uint64_t{1} << (e & 63);
  }

  /// Calls f(e) for every set bit e of `map` in [begin, end), ascending,
  /// and clears those bits.
  template <class F>
  static void drain_bits(std::uint64_t* map, graph::EdgeOffset begin, graph::EdgeOffset end,
                         F&& f) {
    using graph::EdgeOffset;
    if (begin >= end) return;
    const EdgeOffset first = begin >> 6;
    const EdgeOffset last = (end - 1) >> 6;
    for (EdgeOffset word = first; word <= last; ++word) {
      std::uint64_t bits = map[word];
      if (word == first) bits &= ~std::uint64_t{0} << (begin & 63);
      if (word == last) bits &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
      map[word] ^= bits;
      for (; bits != 0; bits &= bits - 1) {
        f((word << 6) + static_cast<EdgeOffset>(std::countr_zero(bits)));
      }
    }
  }

  /// Forward stage: BFS with path counting, one level per pass, recording
  /// each level's end in `order` and its direction. Returns Σ degree of
  /// the reached vertices, or nothing (with the state still dirty) when a
  /// root that went bottom-up reaches a frontier whose σ total is 2^53 or
  /// more.
  template <class G>
  static std::optional<std::uint64_t> forward(const G& g, graph::VertexId s,
                                              BrandesWorkspace& ws, bool bottom_up) {
    using graph::EdgeOffset;
    using graph::VertexId;
    const std::span<const EdgeOffset> rows = g.row_offsets();
    const EdgeOffset all_arcs = rows.back();
    const double* sigma = ws.sigma_.data();
    std::vector<VertexId>& order = ws.order_;

    ws.level_or_delta_[s] = 0;
    ws.sigma_[s] = 1.0;
    order.push_back(s);
    ws.levels_.push_back({1, false});
    std::uint64_t traversed = 0;
    bool went_bottom_up = false;
    for (std::size_t begin = 0, end = 1; begin < end; begin = end, end = order.size()) {
      const std::uint64_t cur = ws.levels_.size() - 1;
      bool expand_bottom_up = false;
      EdgeOffset frontier_arcs = 0;
      if (bottom_up && frontier_is_wide(g.num_vertices(), end - begin)) {
        for (std::size_t i = begin; i < end; ++i) {
          frontier_arcs += rows[order[i] + 1] - rows[order[i]];
        }
        expand_bottom_up = bottom_up_pays(g.num_vertices(), all_arcs, end - begin, frontier_arcs,
                                          all_arcs - traversed - frontier_arcs);
      }
      if (expand_bottom_up || went_bottom_up) {
        // Past kExactSigma the order of a σ sum can round differently: a
        // root that has not gone bottom-up yet stays top-down, and one
        // that has is abandoned (a level after a bottom-up one sees its
        // frontier in another order than the top-down run would).
        double frontier_sigma = 0.0;
        for (std::size_t i = begin; i < end; ++i) frontier_sigma += sigma[order[i]];
        if (frontier_sigma >= kExactSigma) {
          if (went_bottom_up) return std::nullopt;
          expand_bottom_up = false;
        }
      }
      if (expand_bottom_up) {
        if (!went_bottom_up) build_unvisited(ws, g.num_vertices());
        went_bottom_up = true;
        traversed += frontier_arcs;
        if constexpr (std::is_same_v<G, SpanView>) expand_up(g, ws, cur);
      } else {
        traversed += expand_down(g, ws, begin, end, cur);
      }
      if (order.size() > end) ws.levels_.push_back({order.size(), expand_bottom_up});
    }
    return traversed;
  }

  /// Top-down level cur + 1 from order[begin, end): slot e of v is marked
  /// when its target lies one level below v. Returns Σ degree of the
  /// frontier.
  template <class G>
  static std::uint64_t expand_down(const G& g, BrandesWorkspace& ws, std::size_t begin,
                                   std::size_t end, std::uint64_t cur) {
    using graph::EdgeOffset;
    using graph::VertexId;
    const std::span<const EdgeOffset> rows = g.row_offsets();
    std::uint64_t* level = ws.level_or_delta_.data();
    double* sigma = ws.sigma_.data();
    std::uint64_t* succ = ws.successors_.data();
    std::vector<VertexId>& order = ws.order_;
    const std::uint64_t next = cur + 1;
    std::uint64_t arcs = 0;
    for (std::size_t i = begin; i < end; ++i) {
      const VertexId v = order[i];
      const double sigma_v = sigma[v];
      EdgeOffset e = rows[v];
      arcs += rows[v + 1] - e;
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
    return arcs;
  }

  /// The vertices no level has reached yet, ascending.
  static void build_unvisited(BrandesWorkspace& ws, graph::VertexId n) {
    ws.unvisited_.clear();
    const std::uint64_t* level = ws.level_or_delta_.data();
    for (graph::VertexId v = 0; v < n; ++v) {
      if (level[v] == kUnvisited) ws.unvisited_.push_back(v);
    }
  }

  /// Bottom-up level cur + 1: each unvisited vertex sums σ over its
  /// neighbors on level cur and marks those slots as predecessors. The
  /// level joins `order` in ascending id; the rest stay on the list.
  static void expand_up(const SpanView& g, BrandesWorkspace& ws, std::uint64_t cur) {
    using graph::EdgeOffset;
    using graph::VertexId;
    std::uint64_t* level = ws.level_or_delta_.data();
    double* sigma = ws.sigma_.data();
    std::uint64_t* pred = ws.predecessors_.data();
    const VertexId* cols = g.cols.data();
    std::vector<VertexId>& unvisited = ws.unvisited_;
    std::size_t kept = 0;
    for (const VertexId u : unvisited) {
      if (level[u] != kUnvisited) continue;  // reached by a top-down level
      double sum = 0.0;
      const EdgeOffset end = g.rows[u + 1];
      for (EdgeOffset e = g.rows[u]; e < end; ++e) {
        const VertexId x = cols[e];
        if (level[x] == cur) {
          sum += sigma[x];
          pred[e >> 6] |= bit(e);
        }
      }
      if (sum != 0.0) {
        level[u] = cur + 1;
        sigma[u] = sum;
        ws.order_.push_back(u);
      } else {
        unvisited[kept++] = u;
      }
    }
    unvisited.resize(kept);
  }

  /// Dependency stage in reverse BFS order, level by level. A vertex whose
  /// next level was expanded top-down pulls δ over its marked successor
  /// slots in adjacency order; a level expanded bottom-up then pushes into
  /// its marked predecessor slots, successors in ascending id. Both clear
  /// the bits they read, leaving the maps clean for the next root.
  template <class G, class Visit>
  static void dependency(const G& g, BrandesWorkspace& ws, Visit& visit) {
    using graph::EdgeOffset;
    using graph::VertexId;
    const std::span<const EdgeOffset> rows = g.row_offsets();
    std::uint64_t* delta = ws.level_or_delta_.data();
    const double* sigma = ws.sigma_.data();
    std::uint64_t* succ = ws.successors_.data();
    const std::vector<VertexId>& order = ws.order_;
    const std::vector<BrandesWorkspace::Level>& levels = ws.levels_;
    // The δ term a successor v hands its predecessor x.
    const auto term = [&](VertexId x, VertexId v) {
      return (sigma[x] / sigma[v]) * (1.0 + std::bit_cast<double>(delta[v]));
    };

    for (std::size_t k = levels.size(); k-- > 0;) {
      const std::size_t begin = k == 0 ? 0 : levels[k - 1].end;
      const std::size_t end = levels[k].end;
      const bool pushed = k + 1 < levels.size() && levels[k + 1].bottom_up;
      for (std::size_t i = end; i-- > begin;) {
        const VertexId w = order[i];
        if (!pushed) {
          double dsw = 0.0;
          if constexpr (std::is_same_v<G, SpanView>) {
            drain_bits(succ, rows[w], rows[w + 1],
                       [&](EdgeOffset e) { dsw += term(w, g.cols[e]); });
          } else {
            EdgeOffset e = rows[w];
            for (const VertexId v : g.neighbors(w)) {
              if ((succ[e >> 6] & bit(e)) != 0) {
                succ[e >> 6] ^= bit(e);
                dsw += term(w, v);
              }
              ++e;
            }
          }
          delta[w] = std::bit_cast<std::uint64_t>(dsw);
        }
        visit(w, std::bit_cast<double>(delta[w]));
      }
      if constexpr (std::is_same_v<G, SpanView>) {
        if (!levels[k].bottom_up) continue;
        const std::size_t parents = k == 1 ? 0 : levels[k - 2].end;
        for (std::size_t i = parents; i < begin; ++i) delta[order[i]] = 0;
        std::uint64_t* pred = ws.predecessors_.data();
        for (std::size_t i = begin; i < end; ++i) {
          const VertexId v = order[i];
          drain_bits(pred, rows[v], rows[v + 1], [&](EdgeOffset e) {
            const VertexId x = g.cols[e];
            delta[x] = std::bit_cast<std::uint64_t>(std::bit_cast<double>(delta[x]) +
                                                    term(x, v));
          });
        }
      }
    }
  }

  /// Returns the vertices the root reached to the clean state.
  static void reset_vertices(BrandesWorkspace& ws) {
    for (const graph::VertexId v : ws.order_) {
      ws.level_or_delta_[v] = kUnvisited;
      ws.sigma_[v] = 0.0;
    }
    ws.order_.clear();
    ws.levels_.clear();
  }

  /// Grow `ws` to cover n vertices and m edge slots (and the bottom-up
  /// state when it may be used); new entries start clean and existing ones
  /// already are.
  static void prepare(BrandesWorkspace& ws, graph::VertexId n, graph::EdgeOffset m,
                      bool bottom_up) {
    if (ws.level_or_delta_.size() < n) {
      ws.level_or_delta_.resize(n, kUnvisited);
      ws.sigma_.resize(n, 0.0);
      ws.order_.reserve(n);
    }
    const std::size_t words = static_cast<std::size_t>((m + 63) / 64);
    if (ws.successors_.size() < words) ws.successors_.resize(words, 0);
    if (bottom_up) {
      if (ws.predecessors_.size() < words) ws.predecessors_.resize(words, 0);
      ws.unvisited_.reserve(n);
    }
  }
};

}  // namespace hbc::cpu::detail
