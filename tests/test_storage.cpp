// Storage-policy layer tests (docs/storage.md): varint/zigzag codec
// properties, the three backings (heap, mmap'd .hbcg, varint-compressed)
// agreeing on structure and fingerprint, defensive handling of corrupt
// and truncated files (typed FormatError, never UB), MmapFile itself,
// and the dyn/service integration points (commit_to_file / reopen,
// load_graph_file residency).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "cpu/brandes.hpp"
#include "dyn/versioned_graph.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "graph/storage/compressed.hpp"
#include "graph/storage/heap.hpp"
#include "graph/storage/mmap_csr.hpp"
#include "graph/storage/storage.hpp"
#include "graph/storage/varint.hpp"
#include "service/service.hpp"
#include "util/mmap_file.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbc;
using graph::CSRGraph;
using graph::EdgeOffset;
using graph::VertexId;
namespace st = graph::storage;

std::string tmp_path(const std::string& name) { return testing::TempDir() + name; }

std::vector<std::uint8_t> slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

void spit(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Compare two graphs edge-for-edge (same vertex order, same neighbor
/// order — the property that makes BC bitwise-identical across backings).
void expect_same_structure(const CSRGraph& a, const CSRGraph& b, const char* label) {
  ASSERT_EQ(a.num_vertices(), b.num_vertices()) << label;
  ASSERT_EQ(a.num_directed_edges(), b.num_directed_edges()) << label;
  EXPECT_EQ(a.undirected(), b.undirected()) << label;
  const auto ra = a.row_offsets();
  const auto rb = b.row_offsets();
  ASSERT_EQ(ra.size(), rb.size()) << label;
  EXPECT_EQ(0, std::memcmp(ra.data(), rb.data(), ra.size() * sizeof(EdgeOffset)))
      << label;
  const auto ca = a.col_indices();
  const auto cb = b.col_indices();
  ASSERT_EQ(ca.size(), cb.size()) << label;
  if (!ca.empty()) {
    EXPECT_EQ(0, std::memcmp(ca.data(), cb.data(), ca.size() * sizeof(VertexId)))
        << label;
  }
  EXPECT_EQ(a.fingerprint(), b.fingerprint()) << label;
}

// ---------------------------------------------------------------------------
// Varint / zigzag codec.

TEST(Varint, RoundTripBoundaries) {
  const std::uint64_t values[] = {0,
                                  1,
                                  127,
                                  128,
                                  16383,
                                  16384,
                                  (1ull << 32) - 1,
                                  1ull << 32,
                                  (1ull << 63),
                                  ~0ull};
  for (const std::uint64_t v : values) {
    std::vector<std::uint8_t> buf;
    st::put_u64(buf, v);
    ASSERT_LE(buf.size(), static_cast<std::size_t>(st::kMaxVarintBytes));
    std::uint64_t back = 0;
    const std::uint8_t* end = st::get_u64(buf.data(), buf.data() + buf.size(), back);
    ASSERT_NE(end, nullptr) << v;
    EXPECT_EQ(end, buf.data() + buf.size()) << v;
    EXPECT_EQ(back, v);
  }
  // Length economics: one byte below 128, two through 16383.
  std::vector<std::uint8_t> one, two;
  st::put_u64(one, 127);
  st::put_u64(two, 128);
  EXPECT_EQ(one.size(), 1u);
  EXPECT_EQ(two.size(), 2u);
}

TEST(Varint, TruncationRejected) {
  std::vector<std::uint8_t> buf;
  st::put_u64(buf, ~0ull);  // 10-byte encoding
  std::uint64_t v = 0;
  for (std::size_t cut = 0; cut < buf.size(); ++cut) {
    EXPECT_EQ(st::get_u64(buf.data(), buf.data() + cut, v), nullptr) << cut;
  }
  EXPECT_NE(st::get_u64(buf.data(), buf.data() + buf.size(), v), nullptr);
}

TEST(Varint, OverlongRejected) {
  // Continuation bit never clears within the 10-byte limit.
  std::vector<std::uint8_t> runaway(16, 0x80);
  std::uint64_t v = 0;
  EXPECT_EQ(st::get_u64(runaway.data(), runaway.data() + runaway.size(), v), nullptr);
  // A 10th byte carrying bits beyond 2^64 is invalid even when terminated.
  std::vector<std::uint8_t> wide(9, 0x80);
  wide.push_back(0x02);  // bit 65
  EXPECT_EQ(st::get_u64(wide.data(), wide.data() + wide.size(), v), nullptr);
}

TEST(Varint, ZigzagRoundTrip) {
  const std::int64_t values[] = {0,  1,  -1, 2,  -2, 63, -64, 1'000'000,
                                 -1'000'000,
                                 std::numeric_limits<std::int64_t>::max(),
                                 std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : values) {
    EXPECT_EQ(st::unzigzag(st::zigzag(v)), v);
  }
  // Small magnitudes of either sign stay small (single byte).
  std::vector<std::uint8_t> buf;
  st::put_u64(buf, st::zigzag(-3));
  EXPECT_EQ(buf.size(), 1u);
}

TEST(Varint, AdjacencyCodecPropertyRandom) {
  util::Xoshiro256 rng(99);
  for (int round = 0; round < 50; ++round) {
    const std::uint32_t n = 1 + static_cast<std::uint32_t>(rng.next_below(2000));
    const std::uint32_t v = static_cast<std::uint32_t>(rng.next_below(n));
    const std::uint64_t degree = rng.next_below(64);
    std::vector<std::uint32_t> neighbors;
    for (std::uint64_t i = 0; i < degree; ++i) {
      // Unsorted, duplicates allowed: the codec must preserve order, not
      // canonicalize.
      neighbors.push_back(static_cast<std::uint32_t>(rng.next_below(n)));
    }
    std::vector<std::uint8_t> buf;
    st::encode_adjacency(buf, v, neighbors);
    std::vector<std::uint32_t> decoded(neighbors.size());
    const std::uint8_t* end = st::decode_adjacency(
        buf.data(), buf.data() + buf.size(), v, degree, n, decoded.data());
    ASSERT_NE(end, nullptr);
    EXPECT_EQ(end, buf.data() + buf.size());
    EXPECT_EQ(decoded, neighbors);
  }
}

TEST(Varint, AdjacencyDegreeZeroAndMaxDegree) {
  // Degree 0 encodes to zero bytes and decodes to nothing (consuming none).
  std::vector<std::uint8_t> buf;
  st::encode_adjacency(buf, 7, std::vector<std::uint32_t>{});
  EXPECT_TRUE(buf.empty());
  const std::uint8_t sentinel = 0;
  EXPECT_EQ(st::decode_adjacency(&sentinel, &sentinel, 7, 0, 10, nullptr), &sentinel);

  // Max degree: a hub adjacent to every other vertex.
  const std::uint32_t n = 4096;
  std::vector<std::uint32_t> all;
  for (std::uint32_t u = 1; u < n; ++u) all.push_back(u);
  buf.clear();
  st::encode_adjacency(buf, 0, all);
  std::vector<std::uint32_t> decoded(all.size());
  ASSERT_NE(st::decode_adjacency(buf.data(), buf.data() + buf.size(), 0, all.size(),
                                 n, decoded.data()),
            nullptr);
  EXPECT_EQ(decoded, all);
  // Consecutive +1 gaps after the first are single bytes each.
  EXPECT_LE(buf.size(), all.size() + st::kMaxVarintBytes);
}

TEST(Varint, AdjacencyOutOfRangeRejected) {
  std::vector<std::uint8_t> buf;
  st::encode_adjacency(buf, 0, std::vector<std::uint32_t>{5});
  std::uint32_t out = 0;
  // Valid in a 6-vertex graph, out of range in a 5-vertex one.
  EXPECT_NE(st::decode_adjacency(buf.data(), buf.data() + buf.size(), 0, 1, 6, &out),
            nullptr);
  EXPECT_EQ(st::decode_adjacency(buf.data(), buf.data() + buf.size(), 0, 1, 5, &out),
            nullptr);
}

// ---------------------------------------------------------------------------
// Backings agree on structure, fingerprint, and iteration order.

TEST(StorageBackings, AllFourAgree) {
  const CSRGraph heap =
      graph::gen::erdos_renyi({.num_vertices = 300, .num_edges = 900, .seed = 5});
  const std::string raw = tmp_path("agree.hbcg");
  const std::string comp = tmp_path("agree.hbcgz");
  graph::io::save_binary_v2(heap, raw, /*compress=*/false);
  graph::io::save_binary_v2(heap, comp, /*compress=*/true);

  const CSRGraph mapped = graph::io::open_mapped(raw);
  const CSRGraph comp_mapped = graph::io::open_mapped(comp);
  const CSRGraph comp_heap(st::CompressedStorage::compress(
      heap.row_offsets(), heap.col_indices(), heap.undirected()));

  EXPECT_EQ(heap.residency(), st::Residency::kHeap);
  EXPECT_EQ(mapped.residency(), st::Residency::kMapped);
  EXPECT_EQ(comp_mapped.residency(), st::Residency::kCompressedMapped);
  EXPECT_EQ(comp_heap.residency(), st::Residency::kCompressedHeap);

  expect_same_structure(heap, mapped, "mapped");
  expect_same_structure(heap, comp_mapped, "compressed-mapped");
  expect_same_structure(heap, comp_heap, "compressed-heap");
}

TEST(StorageBackings, MappedBytesAccounting) {
  const CSRGraph heap =
      graph::gen::erdos_renyi({.num_vertices = 128, .num_edges = 400, .seed = 2});
  const std::string raw = tmp_path("bytes.hbcg");
  graph::io::save_binary_v2(heap, raw, false);
  const CSRGraph mapped = graph::io::open_mapped(raw);
  const st::Storage& s = *mapped.storage();

  EXPECT_GT(s.file_bytes(), 0u);
  EXPECT_EQ(s.mapped_bytes(), s.file_bytes());
  EXPECT_EQ(s.adjacency_bytes(),
            static_cast<std::size_t>(mapped.num_directed_edges()) * sizeof(VertexId));
  // Zero-copy: nothing on the heap until edge_sources is demanded.
  EXPECT_EQ(s.resident_bytes(), 0u);
  (void)mapped.edge_sources();
  EXPECT_EQ(s.resident_bytes(),
            static_cast<std::size_t>(mapped.num_directed_edges()) * sizeof(VertexId));
  // The decoded ledger is backing-independent.
  EXPECT_EQ(s.decoded_row_bytes(), heap.storage()->decoded_row_bytes());
  EXPECT_EQ(s.decoded_adjacency_bytes(), heap.storage()->decoded_adjacency_bytes());
}

TEST(StorageBackings, CompressedStreamMatchesMaterialized) {
  const CSRGraph heap =
      graph::gen::small_world({.num_vertices = 256, .seed = 9});
  const auto comp = st::CompressedStorage::compress(
      heap.row_offsets(), heap.col_indices(), heap.undirected());

  const std::size_t before = comp->resident_bytes();
  for (VertexId v = 0; v < heap.num_vertices(); ++v) {
    std::vector<VertexId> streamed;
    for (const VertexId u : comp->neighbors(v)) streamed.push_back(u);
    const auto expected = heap.neighbors(v);
    ASSERT_EQ(streamed.size(), expected.size()) << v;
    EXPECT_TRUE(std::equal(streamed.begin(), streamed.end(), expected.begin())) << v;
  }
  // Streaming never materializes.
  EXPECT_EQ(comp->resident_bytes(), before);
  // col_indices() does, exactly once, and the accounting shows it.
  (void)comp->col_indices();
  EXPECT_EQ(comp->resident_bytes(),
            before + static_cast<std::size_t>(heap.num_directed_edges()) *
                         sizeof(VertexId));
  EXPECT_LT(comp->adjacency_bytes(),
            static_cast<std::size_t>(heap.num_directed_edges()) * sizeof(VertexId));
}

TEST(StorageBackings, DegenerateGraphsRoundTrip) {
  // Isolated vertices and degree-0 rows survive both containers.
  CSRGraph sparse(std::vector<EdgeOffset>{0, 0, 1, 2, 2, 2},
                  std::vector<VertexId>{2, 1}, true);
  // Star: one hub adjacent to everything (max-degree row).
  const VertexId n = 64;
  std::vector<EdgeOffset> rows(n + 1);
  std::vector<VertexId> cols;
  for (VertexId u = 1; u < n; ++u) cols.push_back(u);
  rows[1] = n - 1;
  for (VertexId v = 1; v < n; ++v) {
    cols.push_back(0);
    rows[v + 1] = rows[v] + 1;
  }
  CSRGraph star(std::move(rows), std::move(cols), true);
  // Single vertex, no edges.
  CSRGraph lonely(std::vector<EdgeOffset>{0, 0}, std::vector<VertexId>{}, true);

  int i = 0;
  for (const CSRGraph* g : {&sparse, &star, &lonely}) {
    for (const bool compress : {false, true}) {
      const std::string path = tmp_path("degen" + std::to_string(i++) +
                                        (compress ? ".hbcgz" : ".hbcg"));
      graph::io::save_binary_v2(*g, path, compress);
      const CSRGraph back = graph::io::open_mapped(path);
      expect_same_structure(*g, back, path.c_str());
    }
  }
}

TEST(StorageBackings, RowOrderCheckAgreesAcrossBackings) {
  // Rows 0: {1,3}, 1: {0}, 2: {}, 3: {0,4}, 4: {3}, then the same arcs
  // with one row descending, one duplicated neighbor, and one repeated
  // across a row boundary only (still strictly ascending).
  const std::vector<EdgeOffset> rows{0, 2, 3, 3, 5, 6};
  const std::vector<std::pair<std::vector<VertexId>, bool>> cases{
      {{1, 3, 0, 0, 4, 3}, true},
      {{3, 1, 0, 0, 4, 3}, false},
      {{1, 1, 0, 0, 4, 3}, false},
      {{1, 3, 3, 0, 4, 3}, true},
  };
  for (const auto& [cols, ascending] : cases) {
    const CSRGraph heap(rows, cols, true);
    EXPECT_EQ(heap.storage()->rows_strictly_ascending(), ascending);
    const auto comp = graph::storage::CompressedStorage::compress(rows, cols, true);
    EXPECT_EQ(comp->rows_strictly_ascending(), ascending);
    EXPECT_TRUE(comp->resident_columns().empty());  // decoded, not materialized
  }
}

TEST(StorageBackings, CopySharesStorage) {
  const CSRGraph a =
      graph::gen::erdos_renyi({.num_vertices = 64, .num_edges = 128, .seed = 1});
  const CSRGraph b = a;
  EXPECT_EQ(a.storage().get(), b.storage().get());
  EXPECT_EQ(a.fingerprint(), b.fingerprint());
}

// ---------------------------------------------------------------------------
// io round trips and read_auto sniffing.

TEST(StorageIo, ReadAutoSniffsV2Extensions) {
  const CSRGraph g =
      graph::gen::erdos_renyi({.num_vertices = 100, .num_edges = 250, .seed = 3});
  const std::string raw = tmp_path("sniff.hbcg");
  const std::string comp = tmp_path("sniff.hbcgz");
  graph::io::save_binary_v2(g, raw, false);
  graph::io::save_binary_v2(g, comp, true);

  const CSRGraph a = graph::io::read_auto(raw);
  const CSRGraph b = graph::io::read_auto(comp);
  EXPECT_EQ(a.residency(), st::Residency::kMapped);
  EXPECT_EQ(b.residency(), st::Residency::kCompressedMapped);
  expect_same_structure(g, a, "read_auto .hbcg");
  expect_same_structure(g, b, "read_auto .hbcgz");
}

TEST(StorageIo, OpenOptionsCanSkipChecks) {
  const CSRGraph g =
      graph::gen::erdos_renyi({.num_vertices = 80, .num_edges = 200, .seed = 4});
  const std::string path = tmp_path("trusting.hbcg");
  graph::io::save_binary_v2(g, path, false);
  graph::io::OpenOptions trusting;
  trusting.validate = false;
  trusting.verify_fingerprint = false;
  const CSRGraph back = graph::io::open_mapped(path, trusting);
  expect_same_structure(g, back, "trusting open");
}

TEST(StorageIo, SaveOfAlreadyCompressedGraphReusesEncoding) {
  const CSRGraph heap =
      graph::gen::erdos_renyi({.num_vertices = 120, .num_edges = 360, .seed = 6});
  const CSRGraph comp_heap(st::CompressedStorage::compress(
      heap.row_offsets(), heap.col_indices(), heap.undirected()));
  const std::string a = tmp_path("reuse_a.hbcgz");
  const std::string b = tmp_path("reuse_b.hbcgz");
  graph::io::save_binary_v2(heap, a, true);
  graph::io::save_binary_v2(comp_heap, b, true);
  EXPECT_EQ(slurp(a), slurp(b));
}

// ---------------------------------------------------------------------------
// Corruption: every mutation either fails with FormatError or yields the
// original graph (reserved/padding bytes). Nothing else — never UB.

void expect_open_rejects_or_matches(const std::string& path, const CSRGraph& original,
                                    const std::string& what) {
  try {
    const CSRGraph g = graph::io::open_mapped(path);
    ASSERT_NO_FATAL_FAILURE(expect_same_structure(original, g, what.c_str()))
        << what << ": corrupt file opened as a different graph";
  } catch (const st::FormatError&) {
    // The expected outcome for nearly every flip.
  }
}

class StorageCorruption : public testing::TestWithParam<bool> {};

TEST_P(StorageCorruption, SingleByteFlipsNeverUB) {
  const bool compress = GetParam();
  const CSRGraph g =
      graph::gen::erdos_renyi({.num_vertices = 96, .num_edges = 300, .seed = 8});
  const std::string path = tmp_path(compress ? "flip.hbcgz" : "flip.hbcg");
  graph::io::save_binary_v2(g, path, compress);
  const std::vector<std::uint8_t> pristine = slurp(path);

  const std::string mutant = path + ".mut";
  // Every header byte, then a seeded sample of body bytes.
  std::vector<std::size_t> positions;
  for (std::size_t i = 0; i < st::kHeaderBytes; ++i) positions.push_back(i);
  util::Xoshiro256 rng(13);
  for (int i = 0; i < 64; ++i) {
    positions.push_back(st::kHeaderBytes +
                        rng.next_below(pristine.size() - st::kHeaderBytes));
  }
  for (const std::size_t pos : positions) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[pos] ^= 0x40;
    spit(mutant, bytes);
    expect_open_rejects_or_matches(mutant, g,
                                   "byte " + std::to_string(pos) + " flipped");
  }
}

TEST_P(StorageCorruption, TruncationsNeverUB) {
  const bool compress = GetParam();
  const CSRGraph g =
      graph::gen::erdos_renyi({.num_vertices = 96, .num_edges = 300, .seed = 8});
  const std::string path = tmp_path(compress ? "trunc.hbcgz" : "trunc.hbcg");
  graph::io::save_binary_v2(g, path, compress);
  const std::vector<std::uint8_t> pristine = slurp(path);

  const std::string mutant = path + ".mut";
  std::vector<std::size_t> sizes = {0, 1, 7, 64, 96, 127, 128, 129,
                                    pristine.size() / 2, pristine.size() - 1};
  for (const std::size_t size : sizes) {
    std::vector<std::uint8_t> bytes(pristine.begin(), pristine.begin() + size);
    spit(mutant, bytes);
    EXPECT_THROW(graph::io::open_mapped(mutant), st::FormatError)
        << "truncated to " << size;
  }
}

INSTANTIATE_TEST_SUITE_P(RawAndCompressed, StorageCorruption, testing::Bool(),
                         [](const auto& info) {
                           return info.param ? "compressed" : "raw";
                         });

TEST(StorageCorruption, SpecificHeaderFields) {
  const CSRGraph g =
      graph::gen::erdos_renyi({.num_vertices = 50, .num_edges = 120, .seed = 1});
  const std::string path = tmp_path("fields.hbcg");
  graph::io::save_binary_v2(g, path, false);
  const std::vector<std::uint8_t> pristine = slurp(path);
  const std::string mutant = path + ".mut";

  auto mutate = [&](std::size_t offset, std::uint8_t value) {
    std::vector<std::uint8_t> bytes = pristine;
    bytes[offset] = value;
    spit(mutant, bytes);
  };

  mutate(0, 'X');  // magic
  EXPECT_THROW(graph::io::open_mapped(mutant), st::FormatError);
  mutate(8, 99);  // version
  EXPECT_THROW(graph::io::open_mapped(mutant), st::FormatError);
  mutate(12, 0x80);  // unknown flag bit
  EXPECT_THROW(graph::io::open_mapped(mutant), st::FormatError);
  mutate(32, static_cast<std::uint8_t>(pristine[32] ^ 0x01));
  // Fingerprint field (offset 32): recomputation must catch the lie.
  EXPECT_THROW(graph::io::open_mapped(mutant), st::FormatError);
  mutate(64, static_cast<std::uint8_t>(pristine[64] ^ 0x01));
  // adj_bytes no longer equals m*4 for a raw container.
  EXPECT_THROW(graph::io::open_mapped(mutant), st::FormatError);
}

TEST(StorageCorruption, ErrorsNameTheFile) {
  const std::string path = tmp_path("named.hbcg");
  spit(path, std::vector<std::uint8_t>(32, 0));
  try {
    graph::io::open_mapped(path);
    FAIL() << "expected FormatError";
  } catch (const st::FormatError& e) {
    EXPECT_NE(std::string(e.what()).find(path), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// MmapFile.

TEST(MmapFileTest, MapsBytesAndHandlesEdgeCases) {
  const std::string path = tmp_path("mmap.bin");
  const std::vector<std::uint8_t> payload = {1, 2, 3, 250, 251, 252};
  spit(path, payload);

  util::MmapFile f(path);
  ASSERT_TRUE(f.valid());
  ASSERT_EQ(f.size(), payload.size());
  EXPECT_EQ(0, std::memcmp(f.data(), payload.data(), payload.size()));
  EXPECT_EQ(f.path(), path);
  f.advise_sequential();  // best-effort, must not throw
  f.advise_random();

  // Move transfers the mapping.
  util::MmapFile moved(std::move(f));
  EXPECT_EQ(moved.size(), payload.size());

  // Empty file: valid, zero-length.
  const std::string empty = tmp_path("mmap_empty.bin");
  spit(empty, {});
  util::MmapFile e(empty);
  EXPECT_TRUE(e.valid());
  EXPECT_EQ(e.size(), 0u);

  EXPECT_THROW(util::MmapFile(tmp_path("definitely_missing.bin")),
               std::runtime_error);
}

// ---------------------------------------------------------------------------
// dyn::VersionedGraph spill + reopen.

TEST(VersionedGraphStorage, CommitToFileAndReopenKeepsEpoch) {
  CSRGraph initial =
      graph::gen::erdos_renyi({.num_vertices = 60, .num_edges = 150, .seed = 11});
  dyn::VersionedGraph vg(std::move(initial));
  dyn::UpdateBatch batch;
  batch.insert(0, 1).insert(2, 3);
  vg.apply(batch);
  const dyn::Epoch before = vg.current();

  const std::string path = tmp_path("epoch.hbcg");
  const dyn::Epoch written = vg.commit_to_file(path);
  EXPECT_EQ(written.id, before.id);
  EXPECT_EQ(written.fingerprint, before.fingerprint);

  const dyn::Epoch reopened = vg.reopen_from_file(path);
  EXPECT_EQ(reopened.id, before.id);
  EXPECT_EQ(reopened.fingerprint, before.fingerprint);
  EXPECT_EQ(reopened.graph->residency(), st::Residency::kMapped);
  expect_same_structure(*before.graph, *reopened.graph, "reopened epoch");

  // Advancing past the file makes it stale: reopen must refuse rather
  // than silently time-travel the graph.
  dyn::UpdateBatch more;
  more.insert(4, 5);
  vg.apply(more);
  EXPECT_THROW(vg.reopen_from_file(path), st::FormatError);
}

// ---------------------------------------------------------------------------
// Service integration: file-backed graphs are served zero-copy.

TEST(ServiceStorage, LoadGraphFileServesMapped) {
  const CSRGraph g =
      graph::gen::erdos_renyi({.num_vertices = 80, .num_edges = 240, .seed = 17});
  const std::string path = tmp_path("served.hbcg");
  graph::io::save_binary_v2(g, path, false);

  service::ServiceConfig config;
  config.workers = 2;
  service::BcService svc(config);
  const std::uint64_t fp = svc.load_graph_file("disk", path);
  EXPECT_EQ(fp, g.fingerprint());
  svc.load_graph("heap", g);

  const auto info = svc.graph_info("disk");
  ASSERT_TRUE(info.has_value());
  EXPECT_EQ(info->residency, st::Residency::kMapped);
  EXPECT_EQ(info->fingerprint, g.fingerprint());
  EXPECT_GT(info->mapped_bytes, 0u);
  EXPECT_FALSE(svc.graph_info("absent").has_value());

  // Same bits from the mapped graph as from the heap one.
  service::Request req;
  req.options.strategy = core::Strategy::CpuSerial;
  req.graph_id = "disk";
  const service::Response disk = svc.wait(svc.submit(req));
  req.graph_id = "heap";
  const service::Response heap = svc.wait(svc.submit(req));
  ASSERT_TRUE(disk.ok());
  ASSERT_TRUE(heap.ok());
  ASSERT_EQ(disk.result->scores.size(), heap.result->scores.size());
  EXPECT_EQ(0, std::memcmp(disk.result->scores.data(), heap.result->scores.data(),
                           heap.result->scores.size() * sizeof(double)));

  // The metrics report names the residency per graph.
  const std::string report = svc.metrics_report();
  EXPECT_NE(report.find("residency=mapped"), std::string::npos) << report;
}

// ---------------------------------------------------------------------------
// Streaming Brandes over the compressed backing equals the span path.

TEST(CompressedTraversal, BrandesMatchesHeapBitwise) {
  const CSRGraph heap =
      graph::gen::small_world({.num_vertices = 200, .seed = 21});
  const CSRGraph comp(st::CompressedStorage::compress(
      heap.row_offsets(), heap.col_indices(), heap.undirected()));

  const auto a = cpu::brandes(heap).bc;
  const auto b = cpu::brandes(comp).bc;
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(0, std::memcmp(a.data(), b.data(), a.size() * sizeof(double)));
  // The streaming path must not have materialized the columns.
  EXPECT_EQ(comp.storage()->resident_bytes(),
            st::CompressedStorage::compress(heap.row_offsets(), heap.col_indices(),
                                            heap.undirected())
                ->resident_bytes());
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(CompressedTraversal, CpuEnginesNeverMaterialize) {
  const CSRGraph heap = graph::gen::small_world({.num_vertices = 200, .seed = 21});
  const auto storage = st::CompressedStorage::compress(heap.row_offsets(),
                                                       heap.col_indices(), heap.undirected());
  const CSRGraph comp(storage);
  const std::size_t fresh_bytes = storage->resident_bytes();

  cpu::brandes(comp, {.sources = {}, .num_threads = 2, .cancel = {}});
  EXPECT_EQ(storage->resident_bytes(), fresh_bytes);
  cpu::single_source_dependencies(comp, 7);
  EXPECT_EQ(storage->resident_bytes(), fresh_bytes);
  EXPECT_TRUE(storage->resident_columns().empty());
}

TEST(CompressedTraversal, CpuEnginesReadResidentColumns) {
  const CSRGraph heap = graph::gen::small_world({.num_vertices = 200, .seed = 21});
  const auto storage = st::CompressedStorage::compress(heap.row_offsets(),
                                                       heap.col_indices(), heap.undirected());
  const CSRGraph comp(storage);
  ASSERT_TRUE(storage->resident_columns().empty());

  // Another engine (the simulated-device upload) decodes the columns.
  const auto cols = storage->col_indices();
  const auto resident = storage->resident_columns();
  ASSERT_EQ(resident.data(), cols.data());
  ASSERT_EQ(resident.size(), heap.col_indices().size());
  const std::size_t decoded_bytes = storage->resident_bytes();

  const std::vector<VertexId> roots{0, 13, 77, 199};
  EXPECT_TRUE(bitwise_equal(cpu::brandes(comp).bc, cpu::brandes(heap).bc));
  EXPECT_TRUE(bitwise_equal(
      cpu::brandes(comp, {.sources = roots, .num_threads = 2, .cancel = {}}).bc,
      cpu::brandes(heap, {.sources = roots, .num_threads = 2, .cancel = {}}).bc));
  for (VertexId s : roots) {
    EXPECT_TRUE(bitwise_equal(cpu::single_source_dependencies(comp, s),
                              cpu::single_source_dependencies(heap, s)))
        << "root " << s;
  }
  EXPECT_EQ(storage->resident_bytes(), decoded_bytes);
}

}  // namespace
