#include "kernels/bc_state.hpp"

#include <algorithm>
#include <bit>

#include "cpu/brandes.hpp"
#include "graph/types.hpp"

namespace hbc::kernels {

using graph::EdgeOffset;
using graph::kInfDistance;
using graph::VertexId;

namespace {

/// Cycles one thread spends walking a `degree`-long adjacency run: the
/// first stream_threshold edges pay the scattered process_rand charge, the
/// rest stream at process_seq.
std::uint64_t walk_cycles(const gpusim::CostModel& cost, std::uint64_t degree) {
  const std::uint64_t scattered = std::min<std::uint64_t>(degree, cost.stream_threshold);
  return scattered * cost.process_rand + (degree - scattered) * cost.process_seq;
}

std::uint64_t bits_of(double x) noexcept { return std::bit_cast<std::uint64_t>(x); }
double from_bits(std::uint64_t x) noexcept { return std::bit_cast<double>(x); }

}  // namespace

const char* to_string(Mode mode) noexcept {
  switch (mode) {
    case Mode::WorkEfficient: return "work-efficient";
    case Mode::EdgeParallel: return "edge-parallel";
    case Mode::VertexParallel: return "vertex-parallel";
    case Mode::BottomUp: return "bottom-up";
  }
  return "?";
}

BCWorkspace::BCWorkspace(const graph::CSRGraph& g)
    : g_(&g), bottom_up_rows_(g.undirected() && g.storage()->rows_strictly_ascending()) {
  const VertexId n = g.num_vertices();
  d_.assign(n, kInfDistance);
  sigma_.assign(n, 0.0);
  delta_.assign(n, 0.0);
  q_curr_.assign(n, 0);
  q_next_.assign(n, 0);
  s_.assign(n, 0);
  // At most one ends entry per BFS level; n + 2 is a safe upper bound
  // (paper: ends_len = max depth + 1 plus the leading 0).
  ends_.assign(static_cast<std::size_t>(n) + 2, 0);
}

std::uint64_t BCWorkspace::work_efficient_bytes(VertexId n) {
  // d (u32), sigma (f64), delta (f64), Q_curr, Q_next, S (u32 each),
  // ends (u64, worst case n+2 entries).
  return static_cast<std::uint64_t>(n) * (4 + 8 + 8 + 4 + 4 + 4) +
         (static_cast<std::uint64_t>(n) + 2) * 8;
}

std::uint64_t BCWorkspace::jia_bytes(VertexId n, EdgeOffset directed_edges) {
  // d, sigma, delta as above plus the O(m) predecessor structure: the
  // published implementation stores predecessor lists of 4-byte vertex
  // ids (§III.B notes a 1-byte-per-edge boolean map would be tighter —
  // that compaction is the paper's own suggestion, not the baseline's).
  return static_cast<std::uint64_t>(n) * (4 + 8 + 8) + directed_edges * 4;
}

std::uint64_t BCWorkspace::gpufan_bytes(VertexId n) {
  // d, sigma, delta plus the O(n^2) predecessor list of 4-byte entries.
  return static_cast<std::uint64_t>(n) * (4 + 8 + 8) +
         static_cast<std::uint64_t>(n) * static_cast<std::uint64_t>(n) * 4;
}

void BCWorkspace::init_root(VertexId s, gpusim::BlockContext& ctx) {
  const VertexId n = g_->num_vertices();
  std::fill(d_.begin(), d_.end(), kInfDistance);
  std::fill(sigma_.begin(), sigma_.end(), 0.0);
  std::fill(delta_.begin(), delta_.end(), 0.0);
  successor_marks_.reset();
  const auto offsets = g_->row_offsets();
  // Parent arcs of bottom-up levels the dependency stage has not drained
  // (a fault, or depth 0).
  for (const BottomUpLevel& level : bottom_up_levels_) {
    for (std::uint64_t i = level.begin; i < level.end; ++i) {
      const VertexId v = discovered_[i];
      predecessor_marks_.reset_range(offsets[v], offsets[v + 1]);
    }
  }
  expansion_.clear();
  bottom_up_levels_.clear();
  discovered_.clear();
  settled_arcs_ = 0;

  d_[s] = 0;
  sigma_[s] = 1.0;
  q_curr_[0] = s;
  q_curr_len_ = 1;
  q_next_len_ = 0;
  s_[0] = s;
  s_len_ = 1;
  ends_[0] = 0;
  ends_[1] = 1;
  ends_len_ = 2;
  depth_ = 0;

  // Parallel initialisation kernel: one streaming pass over n elements
  // (Algorithm 1's "for v in V do in parallel").
  ctx.charge_uniform_round(n, ctx.cost().scan_seq);
  ctx.counters().vertices_scanned += n;
}

BCWorkspace::LevelStats BCWorkspace::we_forward_level(gpusim::BlockContext& ctx,
                                                      bool mark_predecessors) {
  const auto offsets = g_->row_offsets();
  const EdgeOffset m = g_->num_directed_edges();
  const VertexId n = g_->num_vertices();
  if (!mark_predecessors && bottom_up_rows_ && cpu::frontier_is_wide(n, q_curr_len_)) {
    std::uint64_t frontier_arcs = 0;
    double frontier_sigma = 0.0;
    for (std::uint64_t i = 0; i < q_curr_len_; ++i) {
      const VertexId v = q_curr_[i];
      frontier_arcs += offsets[v + 1] - offsets[v];
      frontier_sigma += sigma_[v];
    }
    if (cpu::bottom_up_pays(n, m, q_curr_len_, frontier_arcs, m - settled_arcs_ - frontier_arcs) &&
        frontier_sigma < cpu::kExactSigma) {
      return bottom_up_level(ctx, frontier_arcs);
    }
  }

  LevelStats stats;
  stats.vertex_frontier = q_curr_len_;
  if (successor_marks_.size() != m) successor_marks_.assign(m, false);
  if (expansion_.size() <= depth_) expansion_.resize(depth_ + 1, Expansion::None);
  expansion_[depth_] = Expansion::TopDown;

  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const auto cols = g_->col_indices();
  round_.reset(ctx.round_threads());

  // Locals keep the hot loop's stores from aliasing the members.
  std::uint32_t* const d = d_.data();
  double* const sigma = sigma_.data();
  VertexId* const q_next = q_next_.data();
  std::uint64_t tail = q_next_len_;
  std::uint64_t sigma_adds = 0;
  for (std::uint64_t i = 0; i < q_curr_len_; ++i) {
    const VertexId v = q_curr_[i];
    const std::uint32_t next = d[v] + 1;
    const double sigma_v = sigma[v];
    const std::uint64_t tail_before = tail;
    std::uint64_t marks = 0;
    for (EdgeOffset e = offsets[v]; e < offsets[v + 1]; ++e) {
      const VertexId w = cols[e];
      if (d[w] == kInfDistance) {  // CAS wins: insert into Q_next
        d[w] = next;
        q_next[tail++] = w;
      }
      if (d[w] == next) {
        sigma[w] += sigma_v;
        successor_marks_.set(e);  // (v -> w) is a shortest-path edge
        ++marks;
      }
    }
    // Per edge: the unconditional atomicCAS on d[w] and the adjacency walk;
    // per discovery: the Q_next insert (atomicAdd on its tail); per
    // successor: the atomicAdd on sigma[w], plus, with the predecessor
    // bitmap, a streamed 1-bit store.
    const std::uint64_t degree = offsets[v + 1] - offsets[v];
    const std::uint64_t found = tail - tail_before;
    round_.add_item(cost.queue_vertex + walk_cycles(cost, degree) +
                    found * cost.queue_insert +
                    (mark_predecessors ? marks * cost.scan_seq : 0));
    stats.edge_frontier += degree;
    sigma_adds += marks;
  }
  stats.discovered = tail - q_next_len_;
  q_next_len_ = tail;
  settled_arcs_ += stats.edge_frontier;

  counters.edges_traversed += stats.edge_frontier;
  counters.edges_inspected += stats.edge_frontier;
  counters.queue_inserts += stats.discovered;
  counters.atomic_ops += stats.edge_frontier + stats.discovered + sigma_adds;
  ctx.charge_imbalanced_round(round_);
  ctx.charge_barrier();
  ++counters.bfs_iterations;
  return stats;
}

BCWorkspace::LevelStats BCWorkspace::bottom_up_level(gpusim::BlockContext& ctx,
                                                     std::uint64_t frontier_arcs) {
  const VertexId n = g_->num_vertices();
  const auto offsets = g_->row_offsets();
  const auto cols = g_->col_indices();
  if (predecessor_marks_.size() != g_->num_directed_edges()) {
    predecessor_marks_.assign(g_->num_directed_edges(), false);
    discovered_.reserve(n);
    unvisited_.reserve(n);
  }
  if (expansion_.size() <= depth_) expansion_.resize(depth_ + 1, Expansion::None);
  expansion_[depth_] = Expansion::BottomUp;
  std::uint32_t* const d = d_.data();
  double* const sigma = sigma_.data();
  double* const delta = delta_.data();
  if (bottom_up_levels_.empty()) {
    unvisited_.clear();
    for (VertexId v = 0; v < n; ++v) {
      if (d[v] == kInfDistance) unvisited_.push_back(v);
    }
  }
  for (std::uint64_t i = 0; i < q_curr_len_; ++i) delta[q_curr_[i]] = from_bits(i << 32);

  // Each unvisited vertex sums σ over its parents (integers below 2^53:
  // any order gives the top-down bits) and takes the parent first in
  // Q_curr as its discoverer — the vertex whose CAS wins top-down.
  const std::uint32_t cur = depth_;
  VertexId* const discoverer = s_.data() + s_len_;  // S's unused tail
  const std::uint64_t begin = discovered_.size();
  std::uint64_t parent_arcs = 0;
  std::size_t kept = 0;
  for (const VertexId u : unvisited_) {
    if (d[u] != kInfDistance) continue;  // reached by a top-down level since
    double sum = 0.0;
    std::uint64_t first = ~std::uint64_t{0};
    for (EdgeOffset e = offsets[u]; e < offsets[u + 1]; ++e) {
      const VertexId x = cols[e];
      if (d[x] == cur) {
        sum += sigma[x];
        predecessor_marks_.set(e);
        first = std::min(first, bits_of(delta[x]));
        ++parent_arcs;
      }
    }
    if (first == ~std::uint64_t{0}) {
      unvisited_[kept++] = u;
      continue;
    }
    d[u] = cur + 1;
    sigma[u] = sum;
    const auto position = static_cast<VertexId>(first >> 32);
    discoverer[discovered_.size() - begin] = position;
    discovered_.push_back(u);
    double& found = delta[q_curr_[position]];
    found = from_bits(bits_of(found) + 1);
  }
  unvisited_.resize(kept);
  const std::uint64_t discovered = discovered_.size() - begin;

  // The top-down run's charges, in Q_curr order; each found count then
  // becomes its discoverer's first Q_next slot, and a stable counting
  // sort by discoverer lays Q_next out as the CAS winners inserted it.
  const auto& cost = ctx.cost();
  round_.reset(ctx.round_threads());
  std::uint64_t slot = q_next_len_;
  for (std::uint64_t i = 0; i < q_curr_len_; ++i) {
    const VertexId v = q_curr_[i];
    const std::uint64_t found = bits_of(delta[v]) & 0xffffffffu;
    round_.add_item(cost.queue_vertex + walk_cycles(cost, offsets[v + 1] - offsets[v]) +
                    found * cost.queue_insert);
    delta[v] = from_bits(slot);
    slot += found;
  }
  for (std::uint64_t k = 0; k < discovered; ++k) {
    double& next_slot = delta[q_curr_[discoverer[k]]];
    q_next_[bits_of(next_slot)] = discovered_[begin + k];
    next_slot = from_bits(bits_of(next_slot) + 1);
  }
  for (std::uint64_t i = 0; i < q_curr_len_; ++i) delta[q_curr_[i]] = 0.0;
  q_next_len_ += discovered;
  bottom_up_levels_.push_back({depth_, begin, begin + discovered});
  ++host_bottom_up_levels_;
  settled_arcs_ += frontier_arcs;

  LevelStats stats;
  stats.vertex_frontier = q_curr_len_;
  stats.edge_frontier = frontier_arcs;
  stats.discovered = discovered;
  auto& counters = ctx.counters();
  counters.edges_traversed += frontier_arcs;
  counters.edges_inspected += frontier_arcs;
  counters.queue_inserts += discovered;
  counters.atomic_ops += frontier_arcs + discovered + parent_arcs;
  ctx.charge_imbalanced_round(round_);
  ctx.charge_barrier();
  ++counters.bfs_iterations;
  return stats;
}

BCWorkspace::LevelStats BCWorkspace::ep_forward_level(gpusim::BlockContext& ctx,
                                                      std::uint32_t depth,
                                                      bool maintain_queue,
                                                      std::uint64_t width) {
  LevelStats stats;
  stats.vertex_frontier = q_curr_len_;

  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const auto offsets = g_->row_offsets();
  const auto cols = g_->col_indices();

  // Full streaming scan of the edge array (the O(m)-per-level term).
  ctx.charge_uniform_round(g_->num_directed_edges(), cost.scan_seq, width);
  counters.edges_inspected += g_->num_directed_edges();

  // Only edges whose source sits at `depth` do anything. Sorted, the
  // level's vertices visit exactly those edges in edge-array order, so
  // sigma sums and Q_next come out as the scan would produce them.
  const std::span<VertexId> frontier =
      maintain_queue ? std::span<VertexId>(q_curr_.data(), q_curr_len_)
                     : std::span<VertexId>(s_.data() + ends_[depth],
                                           ends_[depth + 1] - ends_[depth]);
  std::sort(frontier.begin(), frontier.end());
  VertexId* const out = maintain_queue ? q_next_.data() + q_next_len_ : s_.data() + s_len_;

  std::uint64_t sigma_adds = 0;
  for (const VertexId u : frontier) {
    const double sigma_u = sigma_[u];
    stats.edge_frontier += offsets[u + 1] - offsets[u];
    for (EdgeOffset e = offsets[u]; e < offsets[u + 1]; ++e) {
      const VertexId w = cols[e];
      if (d_[w] == kInfDistance) {
        d_[w] = depth + 1;
        out[stats.discovered++] = w;
      }
      if (d_[w] == depth + 1) {
        sigma_[w] += sigma_u;
        ++sigma_adds;
      }
    }
  }
  const std::uint64_t useful = stats.edge_frontier;
  settled_arcs_ += useful;
  counters.edges_traversed += useful;
  counters.atomic_ops += useful + sigma_adds;  // CAS on d[w]; sigma adds
  if (maintain_queue) {
    q_next_len_ += stats.discovered;
    counters.queue_inserts += stats.discovered;
    counters.atomic_ops += stats.discovered;
  } else {
    s_len_ += stats.discovered;
    ends_[ends_len_++] = s_len_;
  }

  // Useful edges are processed with streaming-friendly locality (edge
  // order), hence the cheaper process_seq charge.
  ctx.charge_uniform_round(useful, cost.process_seq, width);
  if (maintain_queue) {
    ctx.charge_uniform_round(stats.discovered, cost.queue_insert, width);
  }
  ctx.charge_barrier();
  ++counters.bfs_iterations;
  return stats;
}

BCWorkspace::LevelStats BCWorkspace::vp_forward_level(gpusim::BlockContext& ctx,
                                                      std::uint32_t depth) {
  LevelStats stats;
  stats.vertex_frontier = q_curr_len_;

  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const VertexId n = g_->num_vertices();
  counters.vertices_scanned += n;

  // One thread per vertex: the level check costs scan_seq everywhere and
  // frontier vertices additionally traverse their whole adjacency —
  // charged through the imbalanced round (this is §III.A's load-imbalance
  // pathology: a hub vertex serializes its warp).
  round_.reset(ctx.round_threads());
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t item_cycles = cost.scan_seq;
    if (d_[v] == depth) {
      for (VertexId w : g_->neighbors(v)) {
        ++stats.edge_frontier;
        ++counters.edges_traversed;
        ++counters.edges_inspected;
        ++counters.atomic_ops;
        item_cycles += cost.process_seq;
        if (d_[w] == kInfDistance) {
          d_[w] = depth + 1;
          ++stats.discovered;
        }
        if (d_[w] == depth + 1) {
          sigma_[w] += sigma_[v];
          ++counters.atomic_ops;
        }
      }
    }
    round_.add_item(item_cycles);
  }
  ctx.charge_imbalanced_round(round_);
  ctx.charge_barrier();
  ++counters.bfs_iterations;
  return stats;
}

BCWorkspace::LevelStats BCWorkspace::bu_forward_level(gpusim::BlockContext& ctx,
                                                      std::uint32_t depth) {
  LevelStats stats;
  stats.vertex_frontier = q_curr_len_;

  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const VertexId n = g_->num_vertices();
  counters.vertices_scanned += n;

  // One thread per vertex; only unvisited threads walk their adjacency.
  // No atomics at all: w owns d[w] and sigma[w] exclusively.
  round_.reset(ctx.round_threads());
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t item_cycles = cost.scan_seq;
    if (d_[v] == kInfDistance) {
      double acc = 0.0;
      std::uint32_t walked = 0;
      for (VertexId parent : g_->neighbors(v)) {
        ++counters.edges_inspected;
        item_cycles += (walked++ < cost.stream_threshold) ? cost.process_rand
                                                          : cost.process_seq;
        if (d_[parent] == depth) {
          ++counters.edges_traversed;
          acc += sigma_[parent];
        }
      }
      if (acc > 0.0) {
        d_[v] = depth + 1;
        sigma_[v] = acc;
        q_next_[q_next_len_++] = v;
        ++stats.discovered;
        ++counters.queue_inserts;
        ++counters.atomic_ops;  // queue tail (the filter pass's only atomic)
        item_cycles += cost.queue_insert;
      }
    }
    round_.add_item(item_cycles);
  }
  ctx.charge_imbalanced_round(round_);
  ctx.charge_barrier();
  ++counters.bfs_iterations;

  // Edge frontier (out-edges of the level we just finished expanding)
  // for the heuristics/stats, same definition as the other primitives.
  for (std::uint64_t i = 0; i < q_curr_len_; ++i) {
    stats.edge_frontier += g_->degree(q_curr_[i]);
  }
  settled_arcs_ += stats.edge_frontier;
  return stats;
}

void BCWorkspace::finish_level(gpusim::BlockContext& ctx) {
  // Lines 14–24 of Algorithm 2: copy Q_next into Q_curr and append to S.
  ctx.charge_uniform_round(q_next_len_, 2 * ctx.cost().scan_seq);
  for (std::uint64_t i = 0; i < q_next_len_; ++i) {
    q_curr_[i] = q_next_[i];
    s_[s_len_ + i] = q_next_[i];
  }
  ends_[ends_len_] = ends_[ends_len_ - 1] + q_next_len_;
  ++ends_len_;
  q_curr_len_ = q_next_len_;
  s_len_ += q_next_len_;
  q_next_len_ = 0;
  ++depth_;
  ctx.charge_barrier();
}

void BCWorkspace::we_backward_level(gpusim::BlockContext& ctx, std::uint32_t depth) {
  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const auto offsets = g_->row_offsets();
  const auto cols = g_->col_indices();
  const Expansion expansion = depth < expansion_.size() ? expansion_[depth] : Expansion::None;
  if (expansion == Expansion::BottomUp) push_to_predecessors(depth);
  round_.reset(ctx.round_threads());

  // Threads cover exactly S[ends[depth] .. ends[depth+1]) — no level
  // checks against the rest of the graph (Algorithm 3 line 3). Each
  // thread walks w's whole adjacency checking d[v] == depth+1; the host
  // charges that walk and adds the same successor terms in the same
  // (adjacency) order, read from the marked edges where it has them (a
  // bottom-up level's terms are already pushed).
  std::uint64_t walked = 0;
  for (std::uint64_t i = ends_[depth]; i < ends_[depth + 1]; ++i) {
    const VertexId w = s_[i];
    if (expansion != Expansion::BottomUp) {
      const double sw = sigma_[w];
      double dsw = 0.0;
      if (expansion == Expansion::TopDown) {
        successor_marks_.for_each_set(offsets[w], offsets[w + 1], [&](std::size_t e) {
          const VertexId v = cols[e];
          dsw += (sw / sigma_[v]) * (1.0 + delta_[v]);
        });
      } else {
        for (EdgeOffset e = offsets[w]; e < offsets[w + 1]; ++e) {
          const VertexId v = cols[e];
          if (d_[v] == depth + 1) {
            dsw += (sw / sigma_[v]) * (1.0 + delta_[v]);
          }
        }
      }
      delta_[w] = dsw;  // no atomics: w updates itself from successors
    }
    const std::uint64_t degree = offsets[w + 1] - offsets[w];
    round_.add_item(cost.queue_vertex + walk_cycles(cost, degree));
    walked += degree;
  }
  counters.edges_traversed += walked;
  counters.edges_inspected += walked;
  ctx.charge_imbalanced_round(round_);
  ctx.charge_barrier();
}

void BCWorkspace::push_to_predecessors(std::uint32_t depth) {
  auto level = std::find_if(bottom_up_levels_.begin(), bottom_up_levels_.end(),
                            [depth](const BottomUpLevel& l) { return l.depth == depth; });
  const auto offsets = g_->row_offsets();
  const auto cols = g_->col_indices();
  // Successors in ascending id: on ascending rows each predecessor x gets
  // its terms in the order its own successor pull would add them, and
  // its δ starts at 0.0 as the pull's sum does.
  for (std::uint64_t i = level->begin; i < level->end; ++i) {
    const VertexId v = discovered_[i];
    const double sv = sigma_[v];
    const double carry = 1.0 + delta_[v];
    predecessor_marks_.drain(offsets[v], offsets[v + 1], [&](std::size_t e) {
      const VertexId x = cols[e];
      delta_[x] += (sigma_[x] / sv) * carry;
    });
  }
  level->end = level->begin;
}

void BCWorkspace::we_backward_level_pred(gpusim::BlockContext& ctx,
                                         std::uint32_t depth) {
  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const auto offsets = g_->row_offsets();
  const auto cols = g_->col_indices();
  round_.reset(ctx.round_threads());

  std::uint64_t inspected = 0;
  std::uint64_t successors = 0;
  for (std::uint64_t i = ends_[depth]; i < ends_[depth + 1]; ++i) {
    const VertexId w = s_[i];
    const double sw = sigma_[w];
    double dsw = 0.0;
    std::uint64_t found = 0;
    successor_marks_.for_each_set(offsets[w], offsets[w + 1], [&](std::size_t e) {
      const VertexId v = cols[e];
      ++found;
      dsw += (sw / sigma_[v]) * (1.0 + delta_[v]);
    });
    delta_[w] = dsw;
    // A 1-bit streamed check per edge replaces the scattered d[v] fetch,
    // but confirmed successors still read sigma/delta scattered.
    const std::uint64_t degree = offsets[w + 1] - offsets[w];
    round_.add_item(cost.queue_vertex + degree * cost.scan_seq + found * cost.process_rand);
    inspected += degree;
    successors += found;
  }
  counters.edges_inspected += inspected;
  counters.edges_traversed += successors;
  ctx.charge_imbalanced_round(round_);
  ctx.charge_barrier();
}

void BCWorkspace::ep_backward_level(gpusim::BlockContext& ctx, std::uint32_t depth,
                                    std::uint64_t width) {
  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const auto offsets = g_->row_offsets();
  const auto cols = g_->col_indices();
  const EdgeOffset m = g_->num_directed_edges();

  ctx.charge_uniform_round(m, cost.scan_seq, width);
  counters.edges_inspected += m;

  // The scan's useful edges are those leaving S[ends[depth] ..
  // ends[depth+1]); each w's terms arrive in adjacency order either way.
  std::uint64_t traversed = 0;
  std::uint64_t useful = 0;
  for (std::uint64_t i = ends_[depth]; i < ends_[depth + 1]; ++i) {
    const VertexId w = s_[i];
    const double sw = sigma_[w];
    double dw = delta_[w];
    traversed += offsets[w + 1] - offsets[w];
    for (EdgeOffset e = offsets[w]; e < offsets[w + 1]; ++e) {
      const VertexId v = cols[e];
      if (d_[v] == depth + 1) {
        // Multiple threads share the same w, so the accumulation into
        // delta[w] must be atomic (§IV.A's closing observation).
        dw += (sw / sigma_[v]) * (1.0 + delta_[v]);
        ++useful;
      }
    }
    delta_[w] = dw;
  }
  counters.edges_traversed += traversed;
  counters.atomic_ops += useful;
  ctx.charge_uniform_round(useful, cost.process_seq + cost.atomic_extra, width);
  ctx.charge_barrier();
}

void BCWorkspace::vp_backward_level(gpusim::BlockContext& ctx, std::uint32_t depth) {
  auto& counters = ctx.counters();
  const auto& cost = ctx.cost();
  const VertexId n = g_->num_vertices();
  counters.vertices_scanned += n;

  round_.reset(ctx.round_threads());
  for (VertexId v = 0; v < n; ++v) {
    std::uint64_t item_cycles = cost.scan_seq;
    if (d_[v] == depth) {
      const double sv = sigma_[v];
      double dsv = 0.0;
      for (VertexId w : g_->neighbors(v)) {
        ++counters.edges_traversed;
        ++counters.edges_inspected;
        item_cycles += cost.process_seq;
        if (d_[w] == depth + 1) {
          dsv += (sv / sigma_[w]) * (1.0 + delta_[w]);
        }
      }
      delta_[v] = dsv;
    }
    round_.add_item(item_cycles);
  }
  ctx.charge_imbalanced_round(round_);
  ctx.charge_barrier();
}

void BCWorkspace::accumulate_bc(util::ExactSum& bc, VertexId root, bool use_queue,
                                gpusim::BlockContext& ctx) {
  const auto& cost = ctx.cost();
  if (use_queue) {
    // Walk S: only reached vertices, contiguous.
    ctx.charge_uniform_round(s_len_, cost.process_seq);
    ctx.charge_barrier();
    for (std::uint64_t i = 0; i < s_len_; ++i) {
      const VertexId v = s_[i];
      if (v != root) {
        bc.add(v, delta_[v]);
        ++ctx.counters().atomic_ops;  // atomicAdd into the global vector
      }
    }
  } else {
    const VertexId n = g_->num_vertices();
    ctx.charge_uniform_round(n, cost.scan_seq);
    ctx.charge_barrier();
    for (VertexId v = 0; v < n; ++v) {
      if (v != root && d_[v] != kInfDistance) {
        bc.add(v, delta_[v]);
        ++ctx.counters().atomic_ops;
      }
    }
  }
}

std::uint32_t BCWorkspace::max_depth() const noexcept {
  if (s_len_ == 0) return 0;
  return d_[s_[s_len_ - 1]];
}

}  // namespace hbc::kernels
