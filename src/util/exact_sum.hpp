#pragma once

// Exact, order-free summation of per-root dependencies.
//
// The paper's kernels add each root's δ into the global BC vector with
// atomicAdd (Algorithm 1), and its multi-GPU mode sums per-device partials
// with MPI_Reduce (§V.D): both are order-free on hardware. ExactSum makes
// the host's sums order-free too. Each δ is converted to 64.64 fixed point
// (an unsigned 128-bit cell, 2^-64 per unit) and added as an integer, so
// any split of the roots over threads, blocks, shards or rescues, merged
// in any order, gives the same cells — and to_doubles() the same bits.
//
// Range: δ_s(v) ≤ n − 2 < 2^32 and a sum runs over at most n < 2^32
// roots, so every sum stays below 2^64 (and below 2^127, where the cells
// are read as signed: a difference of sums converts too). The conversion
// truncates below 2^-64.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace hbc::util {

class ExactSum {
 public:
  __extension__ typedef unsigned __int128 Cell;

  ExactSum() = default;
  explicit ExactSum(std::size_t n) : cells_(n, 0) {}

  /// x in 64.64 fixed point, truncated below 2^-64, for finite x in
  /// [0, 2^53); anything else (negative, ≥ 2^53, inf, NaN) reads as 0.
  /// Branch-free: the 53-bit significand sits at bit 64 and shifts right
  /// by 1075 − exponent; the sign bit is left on the exponent, so every
  /// value outside the range makes that shift wrap past 127, which gives 0.
  static Cell fixed(double x) noexcept {
    const std::uint64_t bits = std::bit_cast<std::uint64_t>(x);
    const std::uint64_t shift = 1075 - (bits >> 52);
    const std::uint64_t keep = 0 - static_cast<std::uint64_t>(shift < 128);
    const std::uint64_t significand =
        ((bits & ((std::uint64_t{1} << 52) - 1)) | (std::uint64_t{1} << 52)) & keep;
    return (Cell{significand} << 64) >> (shift & 127);
  }

  std::size_t size() const noexcept { return cells_.size(); }
  /// Heap bytes held (a cache charges them).
  std::size_t bytes() const noexcept { return cells_.capacity() * sizeof(Cell); }

  void add(std::size_t v, double delta) noexcept { cells_[v] += fixed(delta); }
  /// Takes back an earlier add of the same δ exactly (modular).
  void subtract(std::size_t v, double delta) noexcept { cells_[v] -= fixed(delta); }
  /// Adds a cell of another sum (merge, one vertex at a time).
  void add_cell(std::size_t v, Cell cell) noexcept { cells_[v] += cell; }

  /// Cell-wise sum; the sizes must match.
  void merge(const ExactSum& other) {
    if (other.size() != size()) throw std::invalid_argument("ExactSum::merge: size mismatch");
    for (std::size_t v = 0; v < cells_.size(); ++v) cells_[v] += other.cells_[v];
  }

  /// One rounding per cell: (double)cell · 2^-64, the cell read as signed.
  std::vector<double> to_doubles() const {
    std::vector<double> out(cells_.size());
    for (std::size_t v = 0; v < cells_.size(); ++v) {
      __extension__ typedef __int128 Signed;
      out[v] = static_cast<double>(static_cast<Signed>(cells_[v])) * 0x1p-64;
    }
    return out;
  }

  std::span<const Cell> cells() const noexcept { return cells_; }

 private:
  std::vector<Cell> cells_;
};

}  // namespace hbc::util
