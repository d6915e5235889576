#pragma once

// Compressed Sparse Row graph — the structure all kernels traverse.
//
// Since the storage-policy refactor (ROADMAP item 2) CSRGraph is a thin
// facade over an immutable, shareable storage::Storage: the same
// traversal code runs over heap vectors, an mmap'd .hbcg used zero-copy
// in place, or a varint-compressed adjacency, and produces bitwise-
// identical BC scores on each (see docs/storage.md). Copying a CSRGraph
// copies a shared_ptr, not the arrays.
//
// Undirected graphs (everything in the paper's evaluation) are stored
// symmetrized: each undirected edge {u,v} appears as both (u,v) and (v,u)
// in the adjacency, so num_directed_edges() == 2 * undirected edge count.
// The paper's TEPS formula counts undirected edges (its m), exposed here
// as num_undirected_edges().

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "graph/storage/storage.hpp"
#include "graph/types.hpp"

namespace hbc::graph {

class CSRGraph {
 public:
  /// Empty graph (0 vertices, 0 edges, undirected, heap-backed).
  CSRGraph();

  /// Takes ownership of prebuilt CSR arrays (heap backing). `row_offsets`
  /// must have exactly num_vertices+1 monotonically non-decreasing entries
  /// with row_offsets.front()==0 and row_offsets.back()==col_indices.size();
  /// violations throw std::invalid_argument.
  CSRGraph(std::vector<EdgeOffset> row_offsets, std::vector<VertexId> col_indices,
           bool undirected);

  /// Wrap an existing storage (mmap'd file, compressed adjacency, or a
  /// shared heap CSR). The storage is immutable and shared by copies.
  explicit CSRGraph(std::shared_ptr<const storage::Storage> storage);

  CSRGraph(const CSRGraph& other);
  CSRGraph& operator=(const CSRGraph& other);
  CSRGraph(CSRGraph&& other) noexcept;
  CSRGraph& operator=(CSRGraph&& other) noexcept;

  VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(rows_.empty() ? 0 : rows_.size() - 1);
  }
  EdgeOffset num_directed_edges() const noexcept { return m_; }

  /// Count of undirected edges (m in the paper). For a graph flagged
  /// directed this is simply the directed edge count.
  EdgeOffset num_undirected_edges() const noexcept {
    return undirected_ ? num_directed_edges() / 2 : num_directed_edges();
  }

  bool undirected() const noexcept { return undirected_; }

  /// Where the adjacency bytes live (heap / mapped / compressed…).
  storage::Residency residency() const noexcept { return storage_->residency(); }

  /// The backing policy object itself, shareable across graphs.
  const std::shared_ptr<const storage::Storage>& storage() const noexcept {
    return storage_;
  }

  /// Contiguous neighbor span. For compressed backings the first call
  /// materializes the full adjacency once (the simulated-device upload);
  /// engines that want to stay streaming should dispatch on residency()
  /// and use storage::CompressedStorage::neighbors() while
  /// resident_columns() is empty, and read the resident copy once it is
  /// not (the serial and parallel Brandes engines in src/cpu do exactly
  /// that).
  std::span<const VertexId> neighbors(VertexId v) const {
    const VertexId* cols = cols_data();
    return {cols + rows_[v], cols + rows_[v + 1]};
  }

  EdgeOffset degree(VertexId v) const noexcept { return rows_[v + 1] - rows_[v]; }

  std::span<const EdgeOffset> row_offsets() const noexcept { return rows_; }
  std::span<const VertexId> col_indices() const { return storage_->col_indices(); }

  /// Source vertex of each directed edge index — the lookup table the
  /// edge-parallel kernels need to map a thread (edge id) to its tail.
  /// Built lazily (thread-safe, once) from the row offsets: only the
  /// edge-parallel family pays the O(m) memory.
  std::span<const VertexId> edge_sources() const { return storage_->edge_sources(); }

  VertexId max_degree() const noexcept;
  double average_degree() const noexcept;

  /// Decoded memory footprint of the CSR arrays in bytes (what
  /// replicating the graph onto a simulated device costs) — independent
  /// of the backing. See storage() for actual resident/mapped bytes.
  std::size_t storage_bytes() const noexcept;

  /// Human-readable one-line summary for logs and bench headers.
  std::string summary() const;

  /// 64-bit FNV-1a over the CSR structure plus vertex/edge counts and
  /// the undirected flag: two graphs fingerprint equal iff their CSR
  /// structure is identical, whatever the backing. Computed once per
  /// storage and cached. This is the identity the service keys its
  /// result cache on, the stamp dyn::VersionedGraph gives every epoch,
  /// and the value embedded in .hbcg file headers.
  std::uint64_t fingerprint() const { return storage_->fingerprint(); }

 private:
  const VertexId* cols_data() const {
    const VertexId* cols = cols_.load(std::memory_order_acquire);
    return cols != nullptr ? cols : cols_data_slow();
  }
  const VertexId* cols_data_slow() const;
  void init_from_storage() noexcept;

  std::shared_ptr<const storage::Storage> storage_;
  std::span<const EdgeOffset> rows_;
  // Cached pointer to the (possibly lazily materialized) column array.
  // Starts null for compressed backings; the benign race in
  // cols_data_slow() always publishes the same value.
  mutable std::atomic<const VertexId*> cols_{nullptr};
  EdgeOffset m_ = 0;
  bool undirected_ = true;
};

}  // namespace hbc::graph
