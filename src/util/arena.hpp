// Bump/arena allocation for per-tick transients.
//
// The sequential tick pipeline allocates short-lived supplier lists and
// gossip scratch every period and frees them all before the next one.  An
// Arena turns that churn into pointer bumps: allocate() carves from chunked
// slabs, deallocation is a no-op, and reset() rewinds to empty while keeping
// the slabs for reuse — steady-state ticks allocate nothing from the heap.
//
// ArenaAllocator<T> adapts an Arena to the std allocator interface so
// standard containers (e.g. the candidate supplier lists) can live in it.
// A null arena falls back to operator new/delete.  An arena is
// single-threaded by design, so each parallel plan lane bumps its own (the
// engine's lane arenas), and the sequential path uses a per-tick one.
//
// Lifetime rule: memory from an arena is valid until the next reset().
// Containers may outlive a reset only if they are cleared first (clearing
// destroys the elements; vector's deallocate is a no-op here).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace gs::util {

class Arena {
 public:
  explicit Arena(std::size_t chunk_bytes = 64 * 1024) : chunk_bytes_(chunk_bytes) {}

  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocates `bytes` with `alignment` (a power of two).
  [[nodiscard]] void* allocate(std::size_t bytes, std::size_t alignment);

  /// Rewinds to empty, keeping every chunk for reuse.  Invalidates all
  /// outstanding allocations.
  void reset() noexcept {
    current_ = 0;
    offset_ = 0;
    allocated_ = 0;
  }

  /// Bytes handed out since the last reset (including alignment padding).
  [[nodiscard]] std::size_t allocated_bytes() const noexcept { return allocated_; }
  /// Heap chunks ever allocated (never reset): a warm arena's steady state
  /// stops growing this, which is how the engine proves its zero-allocation
  /// claim for the parallel lanes (EngineStats::arena_steady_chunks).
  [[nodiscard]] std::uint64_t chunk_allocations() const noexcept { return chunk_allocs_; }
  /// Heap bytes held across resets.
  [[nodiscard]] std::size_t capacity_bytes() const noexcept {
    std::size_t total = 0;
    for (const Chunk& c : chunks_) total += c.size;
    return total;
  }

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> data;
    std::size_t size = 0;
  };

  std::size_t chunk_bytes_;
  std::vector<Chunk> chunks_;
  std::size_t current_ = 0;  ///< chunk being bumped
  std::size_t offset_ = 0;   ///< bump position within it
  std::size_t allocated_ = 0;
  std::uint64_t chunk_allocs_ = 0;
};

/// std-conforming allocator over an Arena; nullptr arena = plain heap.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;
  using propagate_on_container_move_assignment = std::true_type;
  using propagate_on_container_swap = std::true_type;

  ArenaAllocator() noexcept = default;
  explicit ArenaAllocator(Arena* arena) noexcept : arena_(arena) {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept : arena_(other.arena()) {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (arena_ == nullptr) return static_cast<T*>(::operator new(n * sizeof(T)));
    return static_cast<T*>(arena_->allocate(n * sizeof(T), alignof(T)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
    // Arena memory is reclaimed wholesale by reset().
  }

  /// Copies keep the arena: a container copied on the sequential path stays
  /// in the same tick-scoped lifetime as its source.
  [[nodiscard]] ArenaAllocator select_on_container_copy_construction() const noexcept {
    return *this;
  }

  [[nodiscard]] Arena* arena() const noexcept { return arena_; }

  template <typename U>
  [[nodiscard]] bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_ = nullptr;
};

}  // namespace gs::util
