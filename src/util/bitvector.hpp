#pragma once

// Compact bit vector. The paper notes Jia et al. store the predecessor
// relation as an O(m) boolean array; our reimplementation of that baseline
// uses this type so the modelled memory footprint matches (1 bit/edge here
// vs 1 byte in std::vector<bool>-free code elsewhere; the gpusim memory
// model charges the byte count the kernel declares, see kernels/*).

#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace hbc::util {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t n, bool value = false)
      : size_(n), words_((n + 63) / 64, value ? ~std::uint64_t{0} : 0) {
    trim();
  }

  std::size_t size() const noexcept { return size_; }
  bool empty() const noexcept { return size_ == 0; }

  bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }

  void set(std::size_t i) noexcept { words_[i >> 6] |= (std::uint64_t{1} << (i & 63)); }
  void clear(std::size_t i) noexcept { words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }

  /// OR `bits` into word `word` (bits [64 * word, 64 * word + 64)).
  void or_word(std::size_t word, std::uint64_t bits) noexcept { words_[word] |= bits; }

  void assign(std::size_t n, bool value) {
    size_ = n;
    words_.assign((n + 63) / 64, value ? ~std::uint64_t{0} : 0);
    trim();
  }

  void reset() noexcept {
    for (auto& w : words_) w = 0;
  }

  /// Clear every bit in [begin, end).
  void reset_range(std::size_t begin, std::size_t end) noexcept {
    if (begin >= end) return;
    for (std::size_t word = begin >> 6; word <= (end - 1) >> 6; ++word) {
      words_[word] &= ~range_mask(word, begin, end);
    }
  }

  /// Call fn(i) for every set bit i in [begin, end), in ascending order.
  template <class Fn>
  void for_each_set(std::size_t begin, std::size_t end, Fn&& fn) const {
    if (begin >= end) return;
    for (std::size_t word = begin >> 6; word <= (end - 1) >> 6; ++word) {
      for (std::uint64_t bits = words_[word] & range_mask(word, begin, end); bits != 0;
           bits &= bits - 1) {
        fn((word << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  /// for_each_set that also clears the bits it visits.
  template <class Fn>
  void drain(std::size_t begin, std::size_t end, Fn&& fn) {
    if (begin >= end) return;
    for (std::size_t word = begin >> 6; word <= (end - 1) >> 6; ++word) {
      std::uint64_t bits = words_[word] & range_mask(word, begin, end);
      words_[word] ^= bits;
      for (; bits != 0; bits &= bits - 1) {
        fn((word << 6) + static_cast<std::size_t>(std::countr_zero(bits)));
      }
    }
  }

  std::size_t count() const noexcept {
    std::size_t total = 0;
    for (auto w : words_) total += static_cast<std::size_t>(__builtin_popcountll(w));
    return total;
  }

  /// Bytes of backing storage — what a device allocation would charge.
  std::size_t byte_size() const noexcept { return words_.size() * sizeof(std::uint64_t); }

 private:
  /// Bits of `word` that lie inside [begin, end); requires begin < end.
  static std::uint64_t range_mask(std::size_t word, std::size_t begin,
                                  std::size_t end) noexcept {
    std::uint64_t mask = ~std::uint64_t{0};
    if (word == begin >> 6) mask &= ~std::uint64_t{0} << (begin & 63);
    if (word == (end - 1) >> 6) mask &= ~std::uint64_t{0} >> (63 - ((end - 1) & 63));
    return mask;
  }

  void trim() noexcept {
    const std::size_t rem = size_ & 63;
    if (rem != 0 && !words_.empty()) words_.back() &= (std::uint64_t{1} << rem) - 1;
  }

  std::size_t size_ = 0;
  std::vector<std::uint64_t> words_;
};

}  // namespace hbc::util
