// Reader/writer round trips and malformed-input handling for the three
// dataset formats behind Table II.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "cpu/brandes.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "util/rng.hpp"

namespace {

using namespace hbc::graph;
namespace io = hbc::graph::io;

/// The ParseError message `read` throws on `text` ("" if it parses).
std::string parse_error(CSRGraph (*read)(std::istream&), const std::string& text) {
  std::istringstream in(text);
  try {
    read(in);
  } catch (const io::ParseError& e) {
    return e.what();
  }
  return "";
}

TEST(Metis, ReadsSimpleGraph) {
  std::istringstream in("3 2\n2 3\n1\n1\n");
  const CSRGraph g = io::read_metis(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 2u);
  EXPECT_EQ(g.degree(0), 2u);
}

TEST(Metis, SkipsCommentLines) {
  std::istringstream in("% a comment\n3 1\n2\n1\n\n");
  const CSRGraph g = io::read_metis(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 1u);
  EXPECT_EQ(g.degree(2), 0u);  // isolated vertex preserved
}

TEST(Metis, RejectsWeightedFormat) {
  std::istringstream in("3 2 11\n2 3\n1\n1\n");
  EXPECT_THROW(io::read_metis(in), io::ParseError);
}

TEST(Metis, RejectsOutOfRangeNeighbor) {
  std::istringstream in("2 1\n3\n\n");
  EXPECT_THROW(io::read_metis(in), io::ParseError);
}

TEST(Metis, RejectsTruncatedFile) {
  std::istringstream in("3 2\n2 3\n");
  EXPECT_THROW(io::read_metis(in), io::ParseError);
}

TEST(Metis, RejectsVertexCountAboveIdRange) {
  // 2^32 + 1 vertices: rejected at the header, not truncated to 1.
  const std::string what = parse_error(io::read_metis, "4294967297 1\n2\n1\n");
  EXPECT_NE(what.find("line 1"), std::string::npos) << what;
}

TEST(Metis, RoundTripPreservesBC) {
  const CSRGraph original = gen::figure1_graph();
  std::stringstream buffer;
  io::write_metis(original, buffer);
  const CSRGraph reread = io::read_metis(buffer);
  ASSERT_EQ(reread.num_vertices(), original.num_vertices());
  ASSERT_EQ(reread.num_undirected_edges(), original.num_undirected_edges());
  const auto bc_a = hbc::cpu::brandes(original).bc;
  const auto bc_b = hbc::cpu::brandes(reread).bc;
  for (std::size_t i = 0; i < bc_a.size(); ++i) EXPECT_DOUBLE_EQ(bc_a[i], bc_b[i]);
}

TEST(MatrixMarket, ReadsPatternSymmetric) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate pattern symmetric\n"
      "% UF collection style\n"
      "3 3 2\n"
      "2 1\n"
      "3 2\n");
  const CSRGraph g = io::read_matrix_market(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 2u);
}

TEST(MatrixMarket, ToleratesValueColumn) {
  std::istringstream in(
      "%%MatrixMarket matrix coordinate real general\n"
      "2 2 1\n"
      "1 2 3.5\n");
  const CSRGraph g = io::read_matrix_market(in);
  EXPECT_EQ(g.num_undirected_edges(), 1u);
}

TEST(MatrixMarket, RejectsMissingBanner) {
  std::istringstream in("3 3 1\n1 2\n");
  EXPECT_THROW(io::read_matrix_market(in), io::ParseError);
}

TEST(MatrixMarket, RejectsNonCoordinate) {
  std::istringstream in("%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
  EXPECT_THROW(io::read_matrix_market(in), io::ParseError);
}

TEST(MatrixMarket, RejectsTruncatedEntries) {
  std::istringstream in("%%MatrixMarket matrix coordinate pattern general\n3 3 5\n1 2\n");
  EXPECT_THROW(io::read_matrix_market(in), io::ParseError);
}

TEST(MatrixMarket, RejectsVertexCountAboveIdRange) {
  // 2^32 + 3 columns: rejected at the size line, not truncated to 3.
  const std::string what = parse_error(
      io::read_matrix_market,
      "%%MatrixMarket matrix coordinate pattern general\n3 4294967299 1\n5 1\n");
  EXPECT_NE(what.find("line 2"), std::string::npos) << what;
}

TEST(EdgeList, ReadsSnapStyle) {
  std::istringstream in(
      "# Directed graph: example\n"
      "# FromNodeId ToNodeId\n"
      "0 1\n"
      "1 2\n"
      "0 2\n");
  const CSRGraph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 3u);
}

TEST(EdgeList, RemapsSparseIds) {
  std::istringstream in("1000000 5\n5 42\n");
  const CSRGraph g = io::read_edge_list(in);
  EXPECT_EQ(g.num_vertices(), 3u);
  EXPECT_EQ(g.num_undirected_edges(), 2u);
}

TEST(EdgeList, RejectsGarbage) {
  std::istringstream in("0 1\nnot numbers\n");
  EXPECT_THROW(io::read_edge_list(in), io::ParseError);
}

TEST(EdgeList, RoundTrip) {
  const CSRGraph original = gen::small_world({.num_vertices = 64, .k = 2, .seed = 1});
  std::stringstream buffer;
  io::write_edge_list(original, buffer);
  const CSRGraph reread = io::read_edge_list(buffer);
  EXPECT_EQ(reread.num_vertices(), original.num_vertices());
  EXPECT_EQ(reread.num_undirected_edges(), original.num_undirected_edges());
}

TEST(MatrixMarket, WriterRoundTrip) {
  const CSRGraph original = gen::scale_free({.num_vertices = 80, .attach = 2, .seed = 4});
  std::stringstream buffer;
  io::write_matrix_market(original, buffer);
  const CSRGraph reread = io::read_matrix_market(buffer);
  EXPECT_EQ(reread.num_vertices(), original.num_vertices());
  EXPECT_EQ(reread.num_undirected_edges(), original.num_undirected_edges());
  const auto bc_a = hbc::cpu::brandes(original).bc;
  const auto bc_b = hbc::cpu::brandes(reread).bc;
  for (std::size_t i = 0; i < bc_a.size(); ++i) EXPECT_DOUBLE_EQ(bc_a[i], bc_b[i]);
}

TEST(MatrixMarket, WriterEmitsSymmetricBanner) {
  const CSRGraph g = gen::figure1_graph();
  std::stringstream buffer;
  io::write_matrix_market(g, buffer);
  std::string first_line;
  std::getline(buffer, first_line);
  EXPECT_NE(first_line.find("symmetric"), std::string::npos);
}

TEST(Binary, RoundTripIsExact) {
  const CSRGraph original = gen::kronecker({.scale = 9, .edge_factor = 8, .seed = 2});
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(original, buffer);
  const CSRGraph reread = io::read_binary(buffer);
  EXPECT_EQ(reread.num_vertices(), original.num_vertices());
  EXPECT_EQ(reread.num_directed_edges(), original.num_directed_edges());
  EXPECT_EQ(reread.undirected(), original.undirected());
  ASSERT_EQ(reread.col_indices().size(), original.col_indices().size());
  for (std::size_t i = 0; i < original.col_indices().size(); ++i) {
    ASSERT_EQ(reread.col_indices()[i], original.col_indices()[i]);
  }
}

TEST(Binary, RejectsBadMagic) {
  std::stringstream buffer;
  buffer << "NOTAGRAPHFILE................................";
  EXPECT_THROW(io::read_binary(buffer), io::ParseError);
}

TEST(Binary, RejectsTruncated) {
  const CSRGraph g = gen::figure1_graph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, buffer);
  const std::string bytes = buffer.str();
  std::stringstream cut(bytes.substr(0, bytes.size() / 2),
                        std::ios::in | std::ios::binary);
  EXPECT_THROW(io::read_binary(cut), io::ParseError);
}

TEST(Binary, RejectsCorruptedStructure) {
  const CSRGraph g = gen::figure1_graph();
  std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
  io::write_binary(g, buffer);
  std::string bytes = buffer.str();
  // Corrupt a column index to an out-of-range vertex.
  bytes[bytes.size() - 2] = 0x7f;
  std::stringstream bad(bytes, std::ios::in | std::ios::binary);
  EXPECT_THROW(io::read_binary(bad), io::ParseError);
}

TEST(ReadAuto, MissingFileThrows) {
  EXPECT_THROW(io::read_auto("/nonexistent/path.graph"), io::ParseError);
  EXPECT_THROW(io::read_auto("/nonexistent/path.mtx"), io::ParseError);
  EXPECT_THROW(io::read_auto("/nonexistent/path.txt"), io::ParseError);
  EXPECT_THROW(io::read_auto("/nonexistent/path.hbc"), io::ParseError);
}

TEST(TextReaders, MutationFuzzYieldsParseErrorOrValidGraph) {
  // Seeded mutations of a valid METIS, MatrixMarket and SNAP text: bit
  // flips and truncations. Every outcome is a ParseError or a graph whose
  // neighbour ids are all in range; nothing else may escape, and under
  // ASan no read strays. A bit flip can turn a separator into a digit
  // (' ' -> '0') but never a newline into one, so header counts stay
  // small and no input asks for a huge allocation.
  const CSRGraph g = gen::small_world({.num_vertices = 24, .k = 2, .seed = 5});
  struct Format {
    const char* name;
    std::string text;
    CSRGraph (*read)(std::istream&);
  };
  std::vector<Format> formats;
  for (auto [name, write, read] :
       {std::tuple{"metis", &io::write_metis, &io::read_metis},
        std::tuple{"matrix-market", &io::write_matrix_market, &io::read_matrix_market},
        std::tuple{"snap", &io::write_edge_list, &io::read_edge_list}}) {
    std::ostringstream out;
    write(g, out);
    formats.push_back({name, out.str(), read});
  }

  hbc::util::Xoshiro256 rng(20261017);
  for (const Format& format : formats) {
    int parsed = 0, rejected = 0;
    for (int iter = 0; iter < 3000; ++iter) {
      std::string text = format.text;
      const int mutations = 1 + static_cast<int>(rng.next() % 8);
      for (int k = 0; k < mutations && !text.empty(); ++k) {
        if (rng.next() % 4 == 0) {
          text.resize(rng.next() % text.size());
        } else {
          text[rng.next() % text.size()] ^= static_cast<char>(1u << (rng.next() % 8));
        }
      }
      std::istringstream in(text);
      try {
        const CSRGraph out = format.read(in);
        ++parsed;
        for (VertexId v = 0; v < out.num_vertices(); ++v) {
          for (const VertexId w : out.neighbors(v)) {
            ASSERT_LT(w, out.num_vertices()) << format.name << " input:\n" << text;
          }
        }
      } catch (const io::ParseError&) {
        ++rejected;
      } catch (const std::exception& e) {
        FAIL() << format.name << " threw " << e.what() << " on input:\n" << text;
      }
    }
    EXPECT_GT(parsed, 0) << format.name;
    EXPECT_GT(rejected, 0) << format.name;
  }
}

}  // namespace
