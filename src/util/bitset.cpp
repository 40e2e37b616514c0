#include "util/bitset.hpp"

#include <bit>

#include "util/check.hpp"

namespace gs::util {

void DynamicBitset::resize(std::size_t bits) {
  // Preserves existing bits; new bits are zero.  Shrinking trims the tail.
  bits_ = bits;
  words_.resize((bits + kWordBits - 1) / kWordBits, 0);
  trim();
}

std::size_t DynamicBitset::find_first(std::size_t from) const noexcept {
  if (from >= bits_) return bits_;
  std::size_t word = from / kWordBits;
  std::uint64_t current = words_[word] & (~0ULL << (from % kWordBits));
  for (;;) {
    if (current != 0) {
      const auto pos = word * kWordBits + static_cast<std::size_t>(std::countr_zero(current));
      return pos < bits_ ? pos : bits_;
    }
    if (++word >= word_count()) return bits_;
    current = words_[word];
  }
}

std::size_t DynamicBitset::find_first_clear(std::size_t from) const noexcept {
  if (from >= bits_) return bits_;
  std::size_t word = from / kWordBits;
  // Invert and mask off bits below `from`.
  std::uint64_t current = ~words_[word] & (~0ULL << (from % kWordBits));
  for (;;) {
    if (current != 0) {
      const auto pos = word * kWordBits + static_cast<std::size_t>(std::countr_zero(current));
      return pos < bits_ ? pos : bits_;
    }
    if (++word >= word_count()) return bits_;
    current = ~words_[word];
  }
}

void DynamicBitset::assign_window(const DynamicBitset& src, std::size_t from, std::size_t bits) {
  bits_ = bits;
  words_.resize((bits + kWordBits - 1) / kWordBits);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = src.extract_word(from + i * kWordBits);
  }
  trim();
}

void DynamicBitset::trim() noexcept {
  const std::size_t tail = bits_ % kWordBits;
  if (tail != 0 && !words_.empty()) words_.back() &= (1ULL << tail) - 1;
}

}  // namespace gs::util
