#include "graph/storage/storage.hpp"

#include <algorithm>
#include <cstring>

namespace hbc::graph::storage {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void store_le32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
void store_le64(std::uint8_t* p, std::uint64_t v) noexcept {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
std::uint32_t load_le32(const std::uint8_t* p) noexcept {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}
std::uint64_t load_le64(const std::uint8_t* p) noexcept {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

[[noreturn]] void format_fail(const std::string& path, const std::string& what) {
  throw FormatError("hbcg '" + path + "': " + what);
}

}  // namespace

const char* to_string(Residency r) noexcept {
  switch (r) {
    case Residency::kHeap: return "heap";
    case Residency::kMapped: return "mapped";
    case Residency::kCompressedHeap: return "compressed-heap";
    case Residency::kCompressedMapped: return "compressed-mapped";
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// FileHeader

void FileHeader::serialize(std::uint8_t out[kHeaderBytes]) const noexcept {
  std::memset(out, 0, kHeaderBytes);
  std::memcpy(out, kMagicV2, sizeof(kMagicV2));
  store_le32(out + 8, kFormatVersion);
  store_le32(out + 12, flags);
  store_le64(out + 16, num_vertices);
  store_le64(out + 24, num_edges);
  store_le64(out + 32, fingerprint);
  store_le64(out + 40, row_section);
  store_le64(out + 48, aux_section);
  store_le64(out + 56, adj_section);
  store_le64(out + 64, adj_bytes);
}

FileHeader FileHeader::parse(const std::uint8_t* data, std::size_t file_size,
                             const std::string& path) {
  if (file_size < kHeaderBytes) {
    format_fail(path, "file too small for header (" + std::to_string(file_size) +
                          " bytes, need " + std::to_string(kHeaderBytes) + ")");
  }
  if (std::memcmp(data, kMagicV2, sizeof(kMagicV2)) != 0) {
    format_fail(path, "bad magic (not an .hbcg v2 graph)");
  }
  const std::uint32_t version = load_le32(data + 8);
  if (version != kFormatVersion) {
    format_fail(path, "unsupported version " + std::to_string(version) +
                          " (expected " + std::to_string(kFormatVersion) + ")");
  }

  FileHeader h;
  h.flags = load_le32(data + 12);
  h.num_vertices = load_le64(data + 16);
  h.num_edges = load_le64(data + 24);
  h.fingerprint = load_le64(data + 32);
  h.row_section = load_le64(data + 40);
  h.aux_section = load_le64(data + 48);
  h.adj_section = load_le64(data + 56);
  h.adj_bytes = load_le64(data + 64);

  if ((h.flags & ~kKnownFlags) != 0) {
    format_fail(path, "unknown flag bits set");
  }

  // Every section must be aligned and lie entirely inside the file.
  // Sums are checked against overflow before use.
  const auto check_section = [&](const char* name, std::uint64_t off,
                                 std::uint64_t bytes) {
    if (off % kSectionAlign != 0) {
      format_fail(path, std::string(name) + " section misaligned");
    }
    if (off < kHeaderBytes || off > file_size || bytes > file_size - off) {
      format_fail(path, std::string(name) + " section out of bounds");
    }
  };

  if (h.num_vertices >= (std::uint64_t{1} << 32)) {
    format_fail(path, "vertex count exceeds 32-bit id space");
  }
  const std::uint64_t row_bytes = (h.num_vertices + 1) * sizeof(EdgeOffset);
  check_section("row", h.row_section, row_bytes);

  const std::uint64_t raw_adj_bytes = h.num_edges * sizeof(VertexId);
  if (h.compressed()) {
    check_section("aux", h.aux_section, row_bytes);
    check_section("adjacency", h.adj_section, h.adj_bytes);
  } else {
    if (h.aux_section != 0) {
      format_fail(path, "aux section present in uncompressed file");
    }
    if (h.adj_bytes != raw_adj_bytes) {
      format_fail(path, "adjacency byte count disagrees with edge count");
    }
    check_section("adjacency", h.adj_section, h.adj_bytes);
  }
  return h;
}

// ---------------------------------------------------------------------------
// Storage

void Storage::fnv_mix(std::uint64_t& h, const void* data, std::size_t len) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < len; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
}

std::uint64_t Storage::fingerprint_prefix() const noexcept {
  std::uint64_t h = kFnvOffset;
  const std::uint64_t n = num_vertices();
  const std::uint64_t m = m_;
  const std::uint64_t undirected = undirected_ ? 1 : 0;
  fnv_mix(h, &n, sizeof(n));
  fnv_mix(h, &m, sizeof(m));
  fnv_mix(h, &undirected, sizeof(undirected));
  fnv_mix(h, rows_.data(), rows_.size() * sizeof(EdgeOffset));
  return h;
}

std::uint64_t Storage::fingerprint() const {
  std::call_once(fingerprint_once_, [this] { fingerprint_ = compute_fingerprint(); });
  return fingerprint_;
}

bool Storage::rows_strictly_ascending() const {
  std::call_once(rows_ascending_once_,
                 [this] { rows_ascending_ = compute_rows_strictly_ascending(); });
  return rows_ascending_;
}

bool Storage::compute_rows_strictly_ascending() const {
  const std::span<const VertexId> cols = col_indices();
  // Non-ascending neighbor pairs over the whole column array, less the
  // pairs across a row boundary (at the first slot of each non-empty row
  // but the array's first): one branch-free pass, not a loop per row.
  std::size_t descents = 0;
  for (std::size_t e = 1; e < cols.size(); ++e) descents += cols[e - 1] >= cols[e];
  const VertexId n = num_vertices();
  for (VertexId v = 0; v < n; ++v) {
    const EdgeOffset e = rows_[v];
    if (e > 0 && e < rows_[v + 1]) descents -= cols[e - 1] >= cols[e];
  }
  return descents == 0;
}

std::span<const VertexId> Storage::edge_sources() const {
  std::call_once(edge_sources_once_, [this] {
    edge_sources_.resize(static_cast<std::size_t>(m_));
    const VertexId n = num_vertices();
    for (VertexId v = 0; v < n; ++v) {
      for (EdgeOffset e = rows_[v]; e < rows_[v + 1]; ++e) {
        edge_sources_[static_cast<std::size_t>(e)] = v;
      }
    }
    edge_sources_bytes_.store(edge_sources_.size() * sizeof(VertexId),
                              std::memory_order_release);
  });
  return edge_sources_;
}

// ---------------------------------------------------------------------------

void validate_csr(std::span<const EdgeOffset> rows, std::span<const VertexId> cols,
                  const std::string& context, bool as_format_error) {
  const auto fail = [&](const std::string& what) -> void {
    const std::string msg = context + ": " + what;
    if (as_format_error) throw FormatError(msg);
    throw std::invalid_argument(msg);
  };
  if (rows.empty()) fail("row_offsets must have at least one entry");
  if (rows.front() != 0) fail("row_offsets must start at 0");
  if (rows.back() != cols.size()) fail("row_offsets must end at col_indices.size()");
  if (!std::is_sorted(rows.begin(), rows.end())) {
    fail("row_offsets must be non-decreasing");
  }
  const auto n = static_cast<VertexId>(rows.size() - 1);
  for (VertexId c : cols) {
    if (c >= n) fail("column index out of range");
  }
}

}  // namespace hbc::graph::storage
