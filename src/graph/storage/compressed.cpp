#include "graph/storage/compressed.hpp"

#include <algorithm>
#include <string>

namespace hbc::graph::storage {

CompressedStorage::CompressedStorage(std::shared_ptr<const util::MmapFile> file,
                                     const FileHeader& header, bool validate)
    : Storage(header.undirected(), Residency::kCompressedMapped),
      file_(std::move(file)) {
  const std::uint8_t* base = file_->data();
  const auto n1 = static_cast<std::size_t>(header.num_vertices + 1);
  rows_ = {reinterpret_cast<const EdgeOffset*>(base + header.row_section), n1};
  byte_offsets_ = {reinterpret_cast<const EdgeOffset*>(base + header.aux_section), n1};
  encoded_ = {base + header.adj_section, static_cast<std::size_t>(header.adj_bytes)};
  m_ = static_cast<EdgeOffset>(header.num_edges);

  if (validate) validate_stream("hbcg '" + file_->path() + "'");
}

std::shared_ptr<const CompressedStorage> CompressedStorage::compress(
    std::span<const EdgeOffset> row_offsets, std::span<const VertexId> col_indices,
    bool undirected) {
  auto s = std::shared_ptr<CompressedStorage>(
      new CompressedStorage(undirected, Residency::kCompressedHeap));
  s->rows_store_.assign(row_offsets.begin(), row_offsets.end());
  const auto n = static_cast<VertexId>(
      row_offsets.empty() ? 0 : row_offsets.size() - 1);
  s->aux_store_.reserve(row_offsets.size());
  s->encoded_store_.reserve(col_indices.size());  // ~1 byte/edge on real graphs
  s->aux_store_.push_back(0);
  for (VertexId v = 0; v < n; ++v) {
    encode_adjacency(s->encoded_store_, v,
                     col_indices.subspan(row_offsets[v],
                                         row_offsets[v + 1] - row_offsets[v]));
    s->aux_store_.push_back(s->encoded_store_.size());
  }
  s->rows_ = s->rows_store_;
  s->byte_offsets_ = s->aux_store_;
  s->encoded_ = s->encoded_store_;
  s->m_ = static_cast<EdgeOffset>(col_indices.size());
  return s;
}

void CompressedStorage::validate_stream(const std::string& context) const {
  const auto fail = [&](const std::string& what) -> void {
    throw FormatError(context + ": " + what);
  };
  if (rows_.empty()) fail("row_offsets must have at least one entry");
  if (rows_.front() != 0) fail("row_offsets must start at 0");
  if (rows_.back() != m_) fail("row_offsets must end at the edge count");
  if (!std::is_sorted(rows_.begin(), rows_.end())) {
    fail("row_offsets must be non-decreasing");
  }
  if (byte_offsets_.size() != rows_.size()) fail("aux section size mismatch");
  if (byte_offsets_.front() != 0) fail("adjacency byte offsets must start at 0");
  if (byte_offsets_.back() != encoded_.size()) {
    fail("adjacency byte offsets must end at the encoded size");
  }
  if (!std::is_sorted(byte_offsets_.begin(), byte_offsets_.end())) {
    fail("adjacency byte offsets must be non-decreasing");
  }

  const VertexId n = num_vertices();
  std::vector<VertexId> scratch;
  for (VertexId v = 0; v < n; ++v) {
    const EdgeOffset deg = degree(v);
    scratch.resize(static_cast<std::size_t>(deg));
    const std::uint8_t* begin = encoded_.data() + byte_offsets_[v];
    const std::uint8_t* end = encoded_.data() + byte_offsets_[v + 1];
    const std::uint8_t* got =
        decode_adjacency(begin, end, v, deg, n, scratch.data());
    if (got == nullptr) {
      fail("vertex " + std::to_string(v) +
           ": truncated, overlong, or out-of-range neighbor encoding");
    }
    if (got != end) {
      fail("vertex " + std::to_string(v) + ": trailing bytes after neighbor list");
    }
  }
}

std::span<const VertexId> CompressedStorage::col_indices() const {
  std::call_once(materialize_once_, [this] {
    materialized_cols_.resize(static_cast<std::size_t>(m_));
    const VertexId n = num_vertices();
    for (VertexId v = 0; v < n; ++v) {
      VertexId* out = materialized_cols_.data() + rows_[v];
      for (const VertexId u : neighbors(v)) *out++ = u;
    }
    materialized_bytes_.store(materialized_cols_.size() * sizeof(VertexId),
                              std::memory_order_release);
  });
  return materialized_cols_;
}

std::size_t CompressedStorage::resident_bytes() const noexcept {
  return rows_store_.size() * sizeof(EdgeOffset) +
         aux_store_.size() * sizeof(EdgeOffset) + encoded_store_.size() +
         edge_sources_resident_bytes() +
         materialized_bytes_.load(std::memory_order_acquire);
}

std::uint64_t CompressedStorage::compute_fingerprint() const {
  // Hash the *decoded* neighbor stream in storage order so the value is
  // byte-identical to hashing a raw backing's column array.
  std::uint64_t h = fingerprint_prefix();
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    for (const VertexId u : neighbors(v)) {
      fnv_mix(h, &u, sizeof(u));
    }
  }
  return h;
}

bool CompressedStorage::compute_rows_strictly_ascending() const {
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    std::int64_t prev = -1;
    for (const VertexId u : neighbors(v)) {
      if (static_cast<std::int64_t>(u) <= prev) return false;
      prev = u;
    }
  }
  return true;
}

}  // namespace hbc::graph::storage
