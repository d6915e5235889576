#pragma once

// Delta/varint-compressed adjacency backing (WebGraph-style gap coding,
// see varint.hpp for the exact coding). Row offsets stay raw; the
// column array is replaced by a varint stream plus an aux array of
// (n+1) per-vertex byte offsets into it, so any vertex's list decodes
// independently in O(degree).
//
// Two provenances share this class: a .hbcgz file mapped in place
// (Residency::kCompressedMapped — encoded bytes live in page cache) and
// an in-memory compression of a heap CSR (kCompressedHeap — what the
// bench uses to measure decode overhead without disk noise).
//
// Traversal has two paths:
//  - neighbors(v): a forward range that decodes per neighbor as the
//    iterator advances — the CPU engines stream through this and never
//    materialize the full adjacency.
//  - col_indices(): materializes the whole array once (thread-safe) —
//    the simulated-device upload path for the gpusim kernels. Once it
//    has run, resident_columns() exposes that copy and the CPU engines
//    read it instead of decoding again.
// Both reproduce the stored neighbor order exactly, so BC scores are
// bitwise-identical to the raw backings.

#include <atomic>
#include <iterator>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "graph/storage/storage.hpp"
#include "graph/storage/varint.hpp"
#include "util/mmap_file.hpp"

namespace hbc::graph::storage {

class CompressedStorage final : public Storage {
 public:
  /// Wrap an already-parsed compressed header over `file`. With
  /// `validate`, every vertex's slice is decoded once up front and any
  /// truncation, overlong varint, out-of-range neighbor, or
  /// inconsistent aux offset throws FormatError — after which the
  /// unchecked streaming decode below is safe by construction.
  CompressedStorage(std::shared_ptr<const util::MmapFile> file,
                    const FileHeader& header, bool validate);

  /// Compress a raw CSR in memory (neighbor order preserved).
  static std::shared_ptr<const CompressedStorage> compress(
      std::span<const EdgeOffset> row_offsets, std::span<const VertexId> col_indices,
      bool undirected);

  std::span<const VertexId> col_indices() const override;

  /// The decoded column array if col_indices() has already run, else an
  /// empty span. Never materializes anything itself: this is how the CPU
  /// engines read columns another engine already paid to decode.
  std::span<const VertexId> resident_columns() const noexcept {
    if (materialized_bytes_.load(std::memory_order_acquire) == 0) return {};
    return materialized_cols_;
  }

  /// Forward range decoding vertex v's neighbors on the fly.
  class NeighborIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = VertexId;
    using difference_type = std::ptrdiff_t;
    using pointer = const VertexId*;
    using reference = VertexId;

    NeighborIterator() = default;  // end sentinel (remaining == 0)
    NeighborIterator(const std::uint8_t* p, VertexId v, std::uint64_t count)
        : p_(p), prev_(static_cast<std::int64_t>(v)), remaining_(count) {
      if (remaining_ > 0) decode_next();
    }

    VertexId operator*() const noexcept { return current_; }
    NeighborIterator& operator++() {
      if (--remaining_ > 0) decode_next();
      return *this;
    }
    NeighborIterator operator++(int) {
      NeighborIterator tmp = *this;
      ++*this;
      return tmp;
    }
    bool operator==(const NeighborIterator& o) const noexcept {
      return remaining_ == o.remaining_;
    }
    bool operator!=(const NeighborIterator& o) const noexcept {
      return remaining_ != o.remaining_;
    }

   private:
    // Unchecked LEB128 decode: the stream was fully validated at open
    // (or produced by compress()), so truncation cannot occur here.
    void decode_next() noexcept {
      std::uint64_t raw = 0;
      int shift = 0;
      while (true) {
        const std::uint8_t byte = *p_++;
        raw |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if ((byte & 0x80) == 0) break;
        shift += 7;
      }
      prev_ += unzigzag(raw);
      current_ = static_cast<VertexId>(prev_);
    }

    const std::uint8_t* p_ = nullptr;
    std::int64_t prev_ = 0;
    std::uint64_t remaining_ = 0;
    VertexId current_ = 0;
  };

  struct NeighborRange {
    NeighborIterator first;
    NeighborIterator begin() const noexcept { return first; }
    NeighborIterator end() const noexcept { return NeighborIterator(); }
  };

  NeighborRange neighbors(VertexId v) const noexcept {
    return {NeighborIterator(encoded_.data() + byte_offsets_[v], v, degree(v))};
  }

  /// Lightweight adapter satisfying the storage-generic graph concept
  /// (num_vertices / row_offsets / neighbors) the templated CPU kernel
  /// instantiates over while the columns are not resident — streaming
  /// decode, never materializes (cpu/brandes_impl.hpp).
  struct StreamView {
    const CompressedStorage* storage;
    VertexId num_vertices() const noexcept { return storage->num_vertices(); }
    std::span<const EdgeOffset> row_offsets() const noexcept {
      return storage->row_offsets();
    }
    NeighborRange neighbors(VertexId v) const noexcept {
      return storage->neighbors(v);
    }
  };
  StreamView stream_view() const noexcept { return {this}; }

  /// Per-vertex byte offsets into the encoded stream ((n+1) entries).
  std::span<const EdgeOffset> byte_offsets() const noexcept { return byte_offsets_; }
  std::span<const std::uint8_t> encoded() const noexcept { return encoded_; }

  std::size_t resident_bytes() const noexcept override;
  std::size_t mapped_bytes() const noexcept override {
    return file_ ? file_->size() : 0;
  }
  std::size_t adjacency_bytes() const noexcept override { return encoded_.size(); }
  std::size_t file_bytes() const noexcept override {
    return file_ ? file_->size() : 0;
  }

 private:
  CompressedStorage(bool undirected, Residency residency)
      : Storage(undirected, residency) {}

  /// Decode every vertex's slice once, checking aux-offset consistency,
  /// value ranges, and exact slice consumption. Throws FormatError.
  void validate_stream(const std::string& context) const;

  std::uint64_t compute_fingerprint() const override;
  bool compute_rows_strictly_ascending() const override;

  std::shared_ptr<const util::MmapFile> file_;  // null for heap-built

  // Owned buffers (heap provenance) — spans below point either here or
  // into the mapping.
  std::vector<EdgeOffset> rows_store_;
  std::vector<EdgeOffset> aux_store_;
  std::vector<std::uint8_t> encoded_store_;

  std::span<const EdgeOffset> byte_offsets_;
  std::span<const std::uint8_t> encoded_;

  mutable std::once_flag materialize_once_;
  mutable std::vector<VertexId> materialized_cols_;
  mutable std::atomic<std::size_t> materialized_bytes_{0};
};

}  // namespace hbc::graph::storage
