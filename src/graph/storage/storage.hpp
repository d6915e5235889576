#pragma once

// Storage-policy layer for CSR graphs (ROADMAP item 2).
//
// A Storage owns one immutable CSR structure and tells you *where it
// lives*: heap vectors, a read-only mmap of an on-disk .hbcg file used
// zero-copy in place, or a delta/varint-compressed adjacency decoded
// per vertex. CSRGraph is a thin facade over shared_ptr<const Storage>,
// so traversal code is written once and every backing produces
// bitwise-identical BC scores (iteration order is preserved exactly —
// see varint.hpp).
//
// Invariants common to every backing:
//  - row_offsets are ALWAYS resident uncompressed ((n+1) EdgeOffsets):
//    degree() and the per-block layout accounting stay O(1) regardless
//    of how the adjacency is stored.
//  - fingerprint() is the same 64-bit FNV-1a structural hash for the
//    same graph in any backing (compressed backings hash the *decoded*
//    neighbor stream), so the service result cache and the net fleet's
//    per-worker verification are backing-agnostic.
//  - col_indices() always works: compressed backings materialize a heap
//    copy on first call (thread-safe, once). That is the simulated
//    device-upload path the gpusim kernels take; the CPU engines stream
//    instead via CompressedStorage::neighbors().
//
// .hbcg v2 on-disk layout (all integers little-endian) — full byte
// table in docs/storage.md:
//
//   [0,128)              header (see FileHeader)
//   row_section          (n+1) x u64 row offsets, 64-byte aligned
//   aux_section          (n+1) x u64 per-vertex byte offsets into the
//                        adjacency payload (compressed files only)
//   adj_section          m x u32 column indices (raw), or adj_bytes of
//                        varint-coded deltas (compressed)

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "graph/types.hpp"

namespace hbc::graph::storage {

// ---------------------------------------------------------------------------
// Residency: where the adjacency bytes actually live.

enum class Residency : std::uint8_t {
  kHeap,              ///< plain vectors (the original backing)
  kMapped,            ///< raw CSR mmap'd from a .hbcg, used in place
  kCompressedHeap,    ///< varint adjacency in a heap buffer
  kCompressedMapped,  ///< varint adjacency mmap'd from a .hbcgz
};

const char* to_string(Residency r) noexcept;

constexpr bool is_mapped(Residency r) noexcept {
  return r == Residency::kMapped || r == Residency::kCompressedMapped;
}
constexpr bool is_compressed(Residency r) noexcept {
  return r == Residency::kCompressedHeap || r == Residency::kCompressedMapped;
}

// ---------------------------------------------------------------------------
// Typed error for anything wrong with an on-disk graph file. Corrupt or
// truncated input must surface as this — never as UB or a raw crash —
// matching the net::wire decode discipline.

class FormatError : public std::runtime_error {
 public:
  explicit FormatError(const std::string& what) : std::runtime_error(what) {}
};

// ---------------------------------------------------------------------------
// .hbcg v2 header.

inline constexpr std::uint8_t kMagicV2[8] = {'H', 'B', 'C', 'G', 'R', 'P', 'H', '2'};
inline constexpr std::uint32_t kFormatVersion = 2;
inline constexpr std::uint32_t kFlagCompressed = 1u << 0;
inline constexpr std::uint32_t kFlagUndirected = 1u << 1;
inline constexpr std::uint32_t kKnownFlags = kFlagCompressed | kFlagUndirected;
inline constexpr std::size_t kHeaderBytes = 128;
inline constexpr std::size_t kSectionAlign = 64;

struct FileHeader {
  std::uint32_t flags = 0;
  std::uint64_t num_vertices = 0;  ///< n
  std::uint64_t num_edges = 0;     ///< directed adjacency slots (column count)
  std::uint64_t fingerprint = 0;   ///< structural fingerprint of the graph
  std::uint64_t row_section = 0;   ///< byte offset of the row-offset array
  std::uint64_t aux_section = 0;   ///< byte offset of per-vertex adjacency
                                   ///  byte offsets (compressed only, else 0)
  std::uint64_t adj_section = 0;   ///< byte offset of the adjacency payload
  std::uint64_t adj_bytes = 0;     ///< payload size: m*4 raw, encoded bytes
                                   ///  for compressed

  bool compressed() const noexcept { return (flags & kFlagCompressed) != 0; }
  bool undirected() const noexcept { return (flags & kFlagUndirected) != 0; }

  /// Write the 128-byte header (reserved tail zeroed).
  void serialize(std::uint8_t out[kHeaderBytes]) const noexcept;

  /// Parse and validate a header against a file of `file_size` bytes:
  /// magic, version, unknown flags, section alignment, and that every
  /// section lies inside the file. Throws FormatError naming `path`.
  static FileHeader parse(const std::uint8_t* data, std::size_t file_size,
                          const std::string& path);
};

// ---------------------------------------------------------------------------
// Storage: the policy base every backing implements.

class Storage {
 public:
  virtual ~Storage() = default;

  Storage(const Storage&) = delete;
  Storage& operator=(const Storage&) = delete;

  VertexId num_vertices() const noexcept {
    return static_cast<VertexId>(rows_.empty() ? 0 : rows_.size() - 1);
  }
  EdgeOffset num_edges() const noexcept { return m_; }
  bool undirected() const noexcept { return undirected_; }
  Residency residency() const noexcept { return residency_; }

  /// Uncompressed row offsets — resident in every backing.
  std::span<const EdgeOffset> row_offsets() const noexcept { return rows_; }

  EdgeOffset degree(VertexId v) const noexcept { return rows_[v + 1] - rows_[v]; }

  /// Full adjacency array. Compressed backings materialize a heap copy
  /// on the first call (thread-safe, exactly once) — this is the
  /// simulated-device upload path. Streaming consumers should use
  /// CompressedStorage::neighbors() instead.
  virtual std::span<const VertexId> col_indices() const = 0;

  /// Source vertex per directed edge slot, built lazily from the row
  /// offsets on first use (thread-safe, exactly once). Only the
  /// edge-parallel family pays for it.
  std::span<const VertexId> edge_sources() const;

  /// Structural fingerprint — identical across backings for the same
  /// graph. Computed once and cached.
  std::uint64_t fingerprint() const;

  /// True when every row lists its neighbors in strictly ascending order
  /// (sorted, no duplicates) — the order the bottom-up levels of the CPU
  /// engine and of the GPU-model workspace reproduce. Computed once and
  /// cached; compressed backings check the decoded stream without
  /// materializing it.
  bool rows_strictly_ascending() const;

  /// Heap bytes this storage has actually allocated right now
  /// (including lazily built edge_sources / materialized columns).
  virtual std::size_t resident_bytes() const noexcept = 0;

  /// Bytes referenced through an mmap (0 for heap backings).
  virtual std::size_t mapped_bytes() const noexcept { return 0; }

  /// Size of the adjacency representation as stored: m*4 for raw
  /// backings, the encoded byte count for compressed ones.
  virtual std::size_t adjacency_bytes() const noexcept = 0;

  /// On-disk file size backing this storage (0 when not file-backed).
  virtual std::size_t file_bytes() const noexcept { return 0; }

  /// Decoded sizes — what the arrays cost once resident/uploaded. The
  /// BlockDriver layout accounting charges these so simulated-device
  /// metrics are identical across backings.
  std::size_t decoded_row_bytes() const noexcept {
    return rows_.size() * sizeof(EdgeOffset);
  }
  std::size_t decoded_adjacency_bytes() const noexcept {
    return static_cast<std::size_t>(m_) * sizeof(VertexId);
  }

 protected:
  Storage(bool undirected, Residency residency)
      : undirected_(undirected), residency_(residency) {}

  /// Hash n, m, undirected, then the row-offset bytes — the common
  /// prefix of every backing's fingerprint. Subclasses append the
  /// decoded adjacency bytes.
  std::uint64_t fingerprint_prefix() const noexcept;
  static void fnv_mix(std::uint64_t& h, const void* data, std::size_t len) noexcept;

  virtual std::uint64_t compute_fingerprint() const = 0;

  /// One pass over col_indices(); CompressedStorage decodes instead.
  virtual bool compute_rows_strictly_ascending() const;

  /// Safe to read concurrently with a lazy edge_sources() build
  /// (published atomically after the build completes).
  std::size_t edge_sources_resident_bytes() const noexcept {
    return edge_sources_bytes_.load(std::memory_order_acquire);
  }

  /// Subclasses set this once their row storage is pinned.
  std::span<const EdgeOffset> rows_;
  EdgeOffset m_ = 0;
  bool undirected_ = true;
  Residency residency_ = Residency::kHeap;

 private:
  mutable std::once_flag edge_sources_once_;
  mutable std::vector<VertexId> edge_sources_;
  mutable std::atomic<std::size_t> edge_sources_bytes_{0};
  mutable std::once_flag fingerprint_once_;
  mutable std::uint64_t fingerprint_ = 0;
  mutable std::once_flag rows_ascending_once_;
  mutable bool rows_ascending_ = false;
};

/// Validate prebuilt CSR arrays (shared by the heap constructor and the
/// file openers). `context` prefixes the error message; `as_format_error`
/// selects FormatError (file paths) vs std::invalid_argument (API misuse).
void validate_csr(std::span<const EdgeOffset> rows, std::span<const VertexId> cols,
                  const std::string& context, bool as_format_error);

}  // namespace hbc::graph::storage
