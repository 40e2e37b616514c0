// Dynamic bitset backing the presence sets and the buffer-availability maps.
//
// std::vector<bool> has no word-level access and std::bitset is fixed-size;
// the candidate build and the delta diff need runtime size plus unaligned
// 64-bit word reads, hence this small purpose-built type.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "util/check.hpp"

namespace gs::util {

class DynamicBitset {
 public:
  DynamicBitset() = default;
  explicit DynamicBitset(std::size_t bits) { resize(bits); }

  /// Resizes, preserving existing bits (new bits are zero).
  void resize(std::size_t bits);
  [[nodiscard]] std::size_t size() const noexcept { return bits_; }

  // set/test/extract_word are defined inline: they sit on the stream
  // buffer's and the candidate build's hot paths, where an out-of-line call
  // costs as much as the word access itself.
  void set(std::size_t pos, bool value = true) {
    GS_CHECK_LT(pos, bits_);
    const std::uint64_t mask = 1ULL << (pos % kWordBits);
    if (value) {
      words_[pos / kWordBits] |= mask;
    } else {
      words_[pos / kWordBits] &= ~mask;
    }
  }
  void reset(std::size_t pos) { set(pos, false); }
  [[nodiscard]] bool test(std::size_t pos) const {
    GS_CHECK_LT(pos, bits_);
    return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1ULL;
  }

  /// Index of the first set bit at or after `from`; size() when none.
  [[nodiscard]] std::size_t find_first(std::size_t from = 0) const noexcept;
  /// Index of the first clear bit at or after `from`; size() when none.
  [[nodiscard]] std::size_t find_first_clear(std::size_t from = 0) const noexcept;

  /// 64 bits starting at `from` (unaligned); positions past size() read 0.
  /// Lets callers diff/scan windows word-at-a-time at arbitrary offsets.
  [[nodiscard]] std::uint64_t extract_word(std::size_t from) const noexcept {
    if (from >= bits_) return 0;
    const std::size_t word = from / kWordBits;
    const std::size_t shift = from % kWordBits;
    // trim() keeps bits past size() clear, so no tail masking is needed.
    std::uint64_t out = words_[word] >> shift;
    if (shift != 0 && word + 1 < words_.size()) out |= words_[word + 1] << (kWordBits - shift);
    return out;
  }

  /// This bitset becomes src[from, from + bits), positions past src's size
  /// reading 0: word-at-a-time window extraction that reuses the existing
  /// word storage, so steady-state callers (the advert scratch maps)
  /// allocate nothing.  `src` must not alias this bitset.
  void assign_window(const DynamicBitset& src, std::size_t from, std::size_t bits);

  /// Heap bytes owned by the word array.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

 private:
  static constexpr std::size_t kWordBits = 64;
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }
  /// Clears any bits beyond size() in the last word.
  void trim() noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

}  // namespace gs::util
