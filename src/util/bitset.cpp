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

void DynamicBitset::reset_all() noexcept {
  for (auto& w : words_) w = 0;
}

std::size_t DynamicBitset::count() const noexcept {
  std::size_t total = 0;
  for (std::uint64_t w : words_) total += static_cast<std::size_t>(std::popcount(w));
  return total;
}

bool DynamicBitset::any() const noexcept {
  for (std::uint64_t w : words_) {
    if (w != 0) return true;
  }
  return false;
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

DynamicBitset DynamicBitset::copy_window(const DynamicBitset& src, std::size_t from,
                                         std::size_t bits) {
  DynamicBitset out(bits);
  for (std::size_t i = 0; i < out.words_.size(); ++i) {
    out.words_[i] = src.extract_word(from + i * kWordBits);
  }
  out.trim();
  return out;
}

void DynamicBitset::assign_window(const DynamicBitset& src, std::size_t from, std::size_t bits) {
  bits_ = bits;
  words_.resize((bits + kWordBits - 1) / kWordBits);
  for (std::size_t i = 0; i < words_.size(); ++i) {
    words_[i] = src.extract_word(from + i * kWordBits);
  }
  trim();
}

DynamicBitset& DynamicBitset::operator&=(const DynamicBitset& other) {
  GS_CHECK_EQ(bits_, other.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] &= other.words_[i];
  return *this;
}

DynamicBitset& DynamicBitset::operator|=(const DynamicBitset& other) {
  GS_CHECK_EQ(bits_, other.bits_);
  for (std::size_t i = 0; i < words_.size(); ++i) words_[i] |= other.words_[i];
  trim();
  return *this;
}

void DynamicBitset::trim() noexcept {
  const std::size_t tail = bits_ % kWordBits;
  if (tail != 0 && !words_.empty()) words_.back() &= (1ULL << tail) - 1;
}

std::vector<std::uint8_t> DynamicBitset::to_bytes() const {
  std::vector<std::uint8_t> bytes((bits_ + 7) / 8, 0);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t word = i / 8;
    const std::size_t shift = (i % 8) * 8;
    if (word < words_.size()) bytes[i] = static_cast<std::uint8_t>(words_[word] >> shift);
  }
  return bytes;
}

DynamicBitset DynamicBitset::from_bytes(const std::vector<std::uint8_t>& bytes, std::size_t bits) {
  GS_CHECK_GE(bytes.size() * 8, bits);
  DynamicBitset result(bits);
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    const std::size_t word = i / 8;
    const std::size_t shift = (i % 8) * 8;
    if (word < result.words_.size()) {
      result.words_[word] |= static_cast<std::uint64_t>(bytes[i]) << shift;
    }
  }
  result.trim();
  return result;
}

}  // namespace gs::util
