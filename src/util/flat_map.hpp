// Flat open-addressed map keyed by non-negative 64-bit ids.
//
// The per-peer pending-request book holds a handful of entries but is
// touched on every tick and every delivery.  std::unordered_map pays a heap
// node plus a pointer chase per entry; this map stores its entries inline in
// one power-of-two slot array (linear probing, backward-shift deletion), so
// lookup is one hash plus a short contiguous scan and the only allocation is
// the slot array itself — which is created lazily, so an empty map owns no
// heap at all.
//
// Key -1 (gs::gossip::kNoSegment) is reserved as the empty-slot sentinel;
// all real keys must be >= 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "util/check.hpp"
#include "util/rng.hpp"  // splitmix64

namespace gs::util {

template <typename V>
class FlatSegmentMap {
 public:
  using Key = std::int64_t;
  static constexpr Key kEmptyKey = -1;

  FlatSegmentMap() = default;

  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t capacity() const noexcept { return slots_.size(); }

  /// Pointer to the value for `key`, or nullptr when absent.
  [[nodiscard]] const V* find(Key key) const noexcept {
    if (slots_.empty()) return nullptr;
    std::size_t i = index_of(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) return &slots_[i].value;
      i = (i + 1) & mask_;
    }
    return nullptr;
  }
  [[nodiscard]] V* find(Key key) noexcept {
    return const_cast<V*>(std::as_const(*this).find(key));
  }

  [[nodiscard]] bool contains(Key key) const noexcept { return find(key) != nullptr; }

  /// Inserts or overwrites.
  void set(Key key, V value) {
    GS_CHECK_GE(key, 0);
    if (slots_.empty() || (size_ + 1) * 4 > slots_.size() * 3) grow();
    std::size_t i = index_of(key);
    while (slots_[i].key != kEmptyKey) {
      if (slots_[i].key == key) {
        slots_[i].value = std::move(value);
        return;
      }
      i = (i + 1) & mask_;
    }
    slots_[i].key = key;
    slots_[i].value = std::move(value);
    ++size_;
  }

  /// Removes `key` if present; returns whether an entry was erased.
  bool erase(Key key) noexcept {
    if (slots_.empty()) return false;
    std::size_t i = index_of(key);
    while (slots_[i].key != key) {
      if (slots_[i].key == kEmptyKey) return false;
      i = (i + 1) & mask_;
    }
    erase_at(i);
    return true;
  }

  /// Erases every entry whose value satisfies `pred`.  `pred` must be pure:
  /// backward-shift deletion can re-present a surviving entry, and the
  /// second evaluation must agree with the first.
  template <typename Pred>
  void erase_if(Pred pred) {
    for (std::size_t i = 0; i < slots_.size();) {
      if (slots_[i].key != kEmptyKey && pred(slots_[i].value)) {
        erase_at(i);  // may pull a later entry into slot i: re-examine it
      } else {
        ++i;
      }
    }
  }

  template <typename Fn>
  void for_each(Fn fn) const {
    for (const Slot& s : slots_) {
      if (s.key != kEmptyKey) fn(s.key, s.value);
    }
  }

  void clear() noexcept {
    for (Slot& s : slots_) s.key = kEmptyKey;
    size_ = 0;
  }

  /// Heap bytes owned by the slot array.
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return slots_.capacity() * sizeof(Slot);
  }

 private:
  struct Slot {
    Key key = kEmptyKey;
    V value{};
  };

  [[nodiscard]] std::size_t index_of(Key key) const noexcept {
    return static_cast<std::size_t>(splitmix64(static_cast<std::uint64_t>(key))) & mask_;
  }

  void grow() {
    std::vector<Slot> old = std::move(slots_);
    const std::size_t cap = old.empty() ? 8 : old.size() * 2;
    slots_.assign(cap, Slot{});
    mask_ = cap - 1;
    size_ = 0;
    for (Slot& s : old) {
      if (s.key != kEmptyKey) set(s.key, std::move(s.value));
    }
  }

  /// Backward-shift deletion: close the hole at `hole` by walking the
  /// probe cluster and moving back every entry whose probe path crosses
  /// the hole, so lookups never need tombstones.
  void erase_at(std::size_t hole) noexcept {
    --size_;
    std::size_t j = hole;
    for (;;) {
      slots_[hole].key = kEmptyKey;
      for (;;) {
        j = (j + 1) & mask_;
        if (slots_[j].key == kEmptyKey) return;
        const std::size_t home = index_of(slots_[j].key);
        // Move j back iff its home position does not lie in the cyclic
        // range (hole, j] — i.e. probing from home must pass the hole.
        const bool home_in_range = hole <= j ? (home > hole && home <= j)
                                             : (home > hole || home <= j);
        if (!home_in_range) {
          slots_[hole] = std::move(slots_[j]);
          hole = j;
          break;
        }
      }
    }
  }

  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  std::size_t size_ = 0;
};

}  // namespace gs::util
