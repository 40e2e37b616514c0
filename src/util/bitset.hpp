// Dynamic bitset backing the 600-bit buffer-availability maps.
//
// std::vector<bool> has no word-level access and std::bitset is fixed-size;
// buffer maps need runtime size plus fast popcount and byte serialization
// for the wire format, hence this small purpose-built type.
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
  void reset_all() noexcept;
  [[nodiscard]] bool test(std::size_t pos) const {
    GS_CHECK_LT(pos, bits_);
    return (words_[pos / kWordBits] >> (pos % kWordBits)) & 1ULL;
  }

  /// Number of set bits.
  [[nodiscard]] std::size_t count() const noexcept;
  [[nodiscard]] bool any() const noexcept;
  [[nodiscard]] bool none() const noexcept { return !any(); }

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

  /// A new `bits`-bit bitset holding src[from, from + bits); positions past
  /// src's size read 0.  Word-at-a-time window extraction.
  [[nodiscard]] static DynamicBitset copy_window(const DynamicBitset& src, std::size_t from,
                                                 std::size_t bits);

  /// In-place copy_window: this bitset becomes src[from, from + bits),
  /// reusing the existing word storage so steady-state callers (the advert
  /// scratch maps) allocate nothing.  `src` must not alias this bitset.
  void assign_window(const DynamicBitset& src, std::size_t from, std::size_t bits);

  /// Heap bytes owned by the word array.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return words_.capacity() * sizeof(std::uint64_t);
  }

  DynamicBitset& operator&=(const DynamicBitset& other);
  DynamicBitset& operator|=(const DynamicBitset& other);

  [[nodiscard]] bool operator==(const DynamicBitset& other) const noexcept = default;

  /// Serializes to ceil(size/8) bytes, LSB-first within each byte.
  [[nodiscard]] std::vector<std::uint8_t> to_bytes() const;
  /// Rebuilds a bitset of `bits` bits from `to_bytes()` output.
  [[nodiscard]] static DynamicBitset from_bytes(const std::vector<std::uint8_t>& bytes,
                                                std::size_t bits);

 private:
  static constexpr std::size_t kWordBits = 64;
  [[nodiscard]] std::size_t word_count() const noexcept { return words_.size(); }
  /// Clears any bits beyond size() in the last word.
  void trim() noexcept;

  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

}  // namespace gs::util
