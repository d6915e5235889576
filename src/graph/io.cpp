#include "graph/io.hpp"

#include <charconv>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <sstream>
#include <unordered_map>

#include "graph/builder.hpp"
#include "graph/storage/compressed.hpp"
#include "graph/storage/mmap_csr.hpp"
#include "graph/storage/varint.hpp"
#include "util/mmap_file.hpp"

namespace hbc::graph::io {

namespace {

[[noreturn]] void fail(std::size_t line, const std::string& what) {
  std::ostringstream os;
  os << "parse error at line " << line << ": " << what;
  throw ParseError(os.str());
}

bool is_comment_or_blank(const std::string& line, char comment) {
  for (char c : line) {
    if (c == ' ' || c == '\t' || c == '\r') continue;
    return c == comment;
  }
  return true;  // blank
}

/// Parse whitespace-separated unsigned integers from `line` into `out`.
/// Returns false on any non-numeric token.
bool parse_uints(const std::string& line, std::vector<std::uint64_t>& out) {
  out.clear();
  const char* p = line.data();
  const char* end = p + line.size();
  while (p < end) {
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r')) ++p;
    if (p >= end) break;
    std::uint64_t value = 0;
    auto [next, ec] = std::from_chars(p, end, value);
    if (ec != std::errc()) return false;
    out.push_back(value);
    p = next;
  }
  return true;
}

/// A header's vertex count must fit VertexId; the builder would otherwise
/// get a truncated count while entries are range-checked against the full
/// one.
void check_vertex_count(std::size_t line, std::uint64_t n) {
  if (n > std::numeric_limits<VertexId>::max()) {
    fail(line, "vertex count " + std::to_string(n) + " exceeds the 32-bit vertex id range");
  }
}

std::ifstream open_or_throw(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ParseError("cannot open file: " + path);
  return in;
}

}  // namespace

CSRGraph read_auto(const std::string& path) {
  auto ends_with = [&](std::string_view suffix) {
    return path.size() >= suffix.size() &&
           path.compare(path.size() - suffix.size(), suffix.size(), suffix) == 0;
  };
  if (ends_with(".graph") || ends_with(".metis")) return read_metis_file(path);
  if (ends_with(".mtx")) return read_matrix_market_file(path);
  if (ends_with(".hbcg") || ends_with(".hbcgz")) return open_mapped(path);
  if (ends_with(".hbc")) return read_binary_file(path);
  return read_edge_list_file(path);
}

CSRGraph read_metis(std::istream& in) {
  std::string line;
  std::size_t lineno = 0;
  std::vector<std::uint64_t> nums;

  // Header: n m [fmt [ncon]]
  std::uint64_t n = 0, m = 0, fmt = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '%')) continue;
    if (!parse_uints(line, nums) || nums.size() < 2) fail(lineno, "bad METIS header");
    n = nums[0];
    m = nums[1];
    if (nums.size() >= 3) fmt = nums[2];
    check_vertex_count(lineno, n);
    break;
  }
  if (fmt != 0 && fmt != 100) {
    // 1/11/10 encode vertex/edge weights; BC is unweighted, so reject
    // rather than silently misreading weights as neighbors.
    fail(lineno, "weighted METIS formats are not supported (fmt must be 0)");
  }

  GraphBuilder builder(static_cast<VertexId>(n));
  std::uint64_t vertex = 0;
  while (vertex < n && std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '%') && line.find('%') != std::string::npos) continue;
    if (!parse_uints(line, nums)) fail(lineno, "bad adjacency line");
    for (std::uint64_t neighbor : nums) {
      if (neighbor == 0 || neighbor > n) fail(lineno, "neighbor id out of range");
      builder.add_edge(static_cast<VertexId>(vertex), static_cast<VertexId>(neighbor - 1));
    }
    ++vertex;
  }
  if (vertex != n) fail(lineno, "fewer adjacency lines than vertices");

  CSRGraph g = builder.build();
  if (g.num_undirected_edges() != m) {
    // Informational only: many published .graph files count edges loosely
    // (self loops / duplicates); the builder canonicalizes.
  }
  return g;
}

CSRGraph read_metis_file(const std::string& path) {
  auto in = open_or_throw(path);
  return read_metis(in);
}

CSRGraph read_matrix_market(std::istream& in) {
  std::string line;
  std::size_t lineno = 0;

  if (!std::getline(in, line)) throw ParseError("empty MatrixMarket stream");
  ++lineno;
  if (line.rfind("%%MatrixMarket", 0) != 0) fail(lineno, "missing MatrixMarket banner");
  {
    std::istringstream banner(line);
    std::string tag, object, format, field, symmetry;
    banner >> tag >> object >> format >> field >> symmetry;
    if (object != "matrix" || format != "coordinate") {
      fail(lineno, "only coordinate matrices are supported");
    }
  }

  std::vector<std::uint64_t> nums;
  std::uint64_t rows = 0, cols = 0, nnz = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '%')) continue;
    std::istringstream dims(line);
    if (!(dims >> rows >> cols >> nnz)) fail(lineno, "bad size line");
    check_vertex_count(lineno, std::max(rows, cols));
    break;
  }
  const std::uint64_t n = std::max(rows, cols);

  GraphBuilder builder(static_cast<VertexId>(n));
  std::uint64_t read = 0;
  while (read < nnz && std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '%')) continue;
    // Entries may carry a value column; take the first two fields. The
    // value can be a float, so parse just the leading integers.
    if (!parse_uints(line, nums)) {
      // Retry: grab the first two tokens via stream extraction so float
      // values don't break parsing.
      std::istringstream entry(line);
      std::uint64_t u = 0, v = 0;
      if (!(entry >> u >> v)) fail(lineno, "bad entry line");
      nums.assign({u, v});
    }
    if (nums.size() < 2) fail(lineno, "entry needs two indices");
    const std::uint64_t u = nums[0], v = nums[1];
    if (u == 0 || v == 0 || u > n || v > n) fail(lineno, "index out of range");
    builder.add_edge(static_cast<VertexId>(u - 1), static_cast<VertexId>(v - 1));
    ++read;
  }
  if (read != nnz) fail(lineno, "fewer entries than the size line declared");
  return builder.build();
}

CSRGraph read_matrix_market_file(const std::string& path) {
  auto in = open_or_throw(path);
  return read_matrix_market(in);
}

CSRGraph read_edge_list(std::istream& in) {
  std::string line;
  std::size_t lineno = 0;
  std::vector<std::uint64_t> nums;

  std::unordered_map<std::uint64_t, VertexId> remap;
  EdgeList edges;
  auto intern = [&](std::uint64_t raw) {
    auto [it, inserted] = remap.try_emplace(raw, static_cast<VertexId>(remap.size()));
    (void)inserted;
    return it->second;
  };

  while (std::getline(in, line)) {
    ++lineno;
    if (is_comment_or_blank(line, '#')) continue;
    if (!parse_uints(line, nums) || nums.size() < 2) fail(lineno, "expected 'u v'");
    edges.push_back({intern(nums[0]), intern(nums[1])});
  }

  GraphBuilder builder(static_cast<VertexId>(remap.size()));
  builder.add_edges(edges);
  return builder.build();
}

CSRGraph read_edge_list_file(const std::string& path) {
  auto in = open_or_throw(path);
  return read_edge_list(in);
}

void write_metis(const CSRGraph& g, std::ostream& out) {
  out << g.num_vertices() << ' ' << g.num_undirected_edges() << '\n';
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    bool first = true;
    for (VertexId w : g.neighbors(v)) {
      if (!first) out << ' ';
      out << (w + 1);
      first = false;
    }
    out << '\n';
  }
}

void write_edge_list(const CSRGraph& g, std::ostream& out) {
  out << "# hybrid_bc edge list: " << g.num_vertices() << " vertices, "
      << g.num_undirected_edges() << " undirected edges\n";
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (VertexId w : g.neighbors(v)) {
      if (v <= w || !g.undirected()) out << v << '\t' << w << '\n';
    }
  }
}

namespace {

constexpr char kBinaryMagic[8] = {'H', 'B', 'C', 'G', 'R', 'A', 'P', 'H'};
constexpr std::uint32_t kBinaryVersion = 1;

template <typename T>
void write_pod(std::ostream& out, const T& value) {
  out.write(reinterpret_cast<const char*>(&value), sizeof(T));
}

template <typename T>
bool read_pod(std::istream& in, T& value) {
  in.read(reinterpret_cast<char*>(&value), sizeof(T));
  return static_cast<bool>(in);
}

}  // namespace

void write_binary(const CSRGraph& g, std::ostream& out) {
  out.write(kBinaryMagic, sizeof(kBinaryMagic));
  write_pod(out, kBinaryVersion);
  write_pod(out, static_cast<std::uint32_t>(g.undirected() ? 1 : 0));
  write_pod(out, static_cast<std::uint64_t>(g.num_vertices()));
  write_pod(out, static_cast<std::uint64_t>(g.num_directed_edges()));
  const auto offsets = g.row_offsets();
  const auto cols = g.col_indices();
  out.write(reinterpret_cast<const char*>(offsets.data()),
            static_cast<std::streamsize>(offsets.size() * sizeof(EdgeOffset)));
  out.write(reinterpret_cast<const char*>(cols.data()),
            static_cast<std::streamsize>(cols.size() * sizeof(VertexId)));
}

CSRGraph read_binary(std::istream& in) {
  char magic[sizeof(kBinaryMagic)] = {};
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kBinaryMagic, sizeof(magic)) != 0) {
    throw ParseError("binary CSR: bad magic");
  }
  std::uint32_t version = 0, undirected_flag = 0;
  std::uint64_t n = 0, m = 0;
  if (!read_pod(in, version) || version != kBinaryVersion) {
    throw ParseError("binary CSR: unsupported version");
  }
  if (!read_pod(in, undirected_flag) || !read_pod(in, n) || !read_pod(in, m)) {
    throw ParseError("binary CSR: truncated header");
  }

  std::vector<EdgeOffset> offsets(n + 1);
  std::vector<VertexId> cols(m);
  in.read(reinterpret_cast<char*>(offsets.data()),
          static_cast<std::streamsize>(offsets.size() * sizeof(EdgeOffset)));
  in.read(reinterpret_cast<char*>(cols.data()),
          static_cast<std::streamsize>(cols.size() * sizeof(VertexId)));
  if (!in) throw ParseError("binary CSR: truncated arrays");
  try {
    return CSRGraph(std::move(offsets), std::move(cols), undirected_flag != 0);
  } catch (const std::invalid_argument& e) {
    throw ParseError(std::string("binary CSR: invalid structure: ") + e.what());
  }
}

CSRGraph read_binary_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ParseError("cannot open file: " + path);
  return read_binary(in);
}

void write_binary_file(const CSRGraph& g, const std::string& path) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw ParseError("cannot write file: " + path);
  write_binary(g, out);
}

namespace {

constexpr std::uint64_t align_up(std::uint64_t offset) {
  return (offset + storage::kSectionAlign - 1) & ~(storage::kSectionAlign - 1);
}

void pad_to(std::ostream& out, std::uint64_t current, std::uint64_t target) {
  static constexpr char kZeros[storage::kSectionAlign] = {};
  out.write(kZeros, static_cast<std::streamsize>(target - current));
}

}  // namespace

void save_binary_v2(const CSRGraph& g, const std::string& path, bool compress) {
  const auto rows = g.row_offsets();
  const std::uint64_t n = g.num_vertices();
  const std::uint64_t m = g.num_directed_edges();
  const std::uint64_t row_bytes = (n + 1) * sizeof(EdgeOffset);

  // Encode (or reuse) the compressed adjacency before laying out sections.
  std::vector<std::uint8_t> encoded;
  std::vector<EdgeOffset> aux;
  std::span<const std::uint8_t> enc_span;
  std::span<const EdgeOffset> aux_span;
  if (compress) {
    if (const auto* cs =
            dynamic_cast<const storage::CompressedStorage*>(g.storage().get())) {
      enc_span = cs->encoded();
      aux_span = cs->byte_offsets();
    } else {
      aux.reserve(rows.size());
      aux.push_back(0);
      for (VertexId v = 0; v < g.num_vertices(); ++v) {
        storage::encode_adjacency(encoded, v, g.neighbors(v));
        aux.push_back(encoded.size());
      }
      enc_span = encoded;
      aux_span = aux;
    }
  }

  storage::FileHeader h;
  h.flags = (compress ? storage::kFlagCompressed : 0u) |
            (g.undirected() ? storage::kFlagUndirected : 0u);
  h.num_vertices = n;
  h.num_edges = m;
  h.fingerprint = g.fingerprint();
  h.row_section = align_up(storage::kHeaderBytes);
  if (compress) {
    h.aux_section = align_up(h.row_section + row_bytes);
    h.adj_section = align_up(h.aux_section + row_bytes);
    h.adj_bytes = enc_span.size();
  } else {
    h.aux_section = 0;
    h.adj_section = align_up(h.row_section + row_bytes);
    h.adj_bytes = m * sizeof(VertexId);
  }

  std::ofstream out(path, std::ios::binary);
  if (!out) throw ParseError("cannot write file: " + path);

  std::uint8_t header[storage::kHeaderBytes];
  h.serialize(header);
  out.write(reinterpret_cast<const char*>(header), storage::kHeaderBytes);
  pad_to(out, storage::kHeaderBytes, h.row_section);
  out.write(reinterpret_cast<const char*>(rows.data()),
            static_cast<std::streamsize>(row_bytes));
  if (compress) {
    pad_to(out, h.row_section + row_bytes, h.aux_section);
    out.write(reinterpret_cast<const char*>(aux_span.data()),
              static_cast<std::streamsize>(aux_span.size() * sizeof(EdgeOffset)));
    pad_to(out, h.aux_section + row_bytes, h.adj_section);
    out.write(reinterpret_cast<const char*>(enc_span.data()),
              static_cast<std::streamsize>(enc_span.size()));
  } else {
    pad_to(out, h.row_section + row_bytes, h.adj_section);
    const auto cols = g.col_indices();
    out.write(reinterpret_cast<const char*>(cols.data()),
              static_cast<std::streamsize>(cols.size() * sizeof(VertexId)));
  }
  out.flush();
  if (!out) throw ParseError("short write to file: " + path);
}

CSRGraph open_mapped(const std::string& path, const OpenOptions& options) {
  std::shared_ptr<const util::MmapFile> file;
  try {
    file = std::make_shared<util::MmapFile>(path);
  } catch (const std::runtime_error& e) {
    throw storage::FormatError(e.what());
  }
  const storage::FileHeader h =
      storage::FileHeader::parse(file->data(), file->size(), path);

  std::shared_ptr<const storage::Storage> backing;
  if (h.compressed()) {
    backing = std::make_shared<storage::CompressedStorage>(std::move(file), h,
                                                           options.validate);
  } else {
    backing = std::make_shared<storage::MappedStorage>(std::move(file), h,
                                                       options.validate);
  }

  if (options.verify_fingerprint) {
    // Recomputed from the mapped data — the header's claim is checked,
    // never trusted. This is the value the net fleet compares per worker.
    const std::uint64_t computed = backing->fingerprint();
    if (computed != h.fingerprint) {
      throw storage::FormatError(
          "hbcg '" + path + "': fingerprint mismatch (header says " +
          std::to_string(h.fingerprint) + ", data hashes to " +
          std::to_string(computed) + ")");
    }
  }
  return CSRGraph(std::move(backing));
}

void write_matrix_market(const CSRGraph& g, std::ostream& out) {
  const bool symmetric = g.undirected();
  out << "%%MatrixMarket matrix coordinate pattern "
      << (symmetric ? "symmetric" : "general") << '\n';
  out << "% written by hybrid_bc\n";
  const std::uint64_t entries =
      symmetric ? g.num_undirected_edges() : g.num_directed_edges();
  out << g.num_vertices() << ' ' << g.num_vertices() << ' ' << entries << '\n';
  for (VertexId u = 0; u < g.num_vertices(); ++u) {
    for (VertexId v : g.neighbors(u)) {
      // Symmetric format stores the lower triangle: row >= column.
      if (!symmetric || u >= v) out << (u + 1) << ' ' << (v + 1) << '\n';
    }
  }
}

}  // namespace hbc::graph::io
