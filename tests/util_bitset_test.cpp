// DynamicBitset: set/test/count, scans, serialization, resize preservation.
#include <gtest/gtest.h>

#include "util/bitset.hpp"
#include "util/rng.hpp"

namespace gs::util {
namespace {

TEST(DynamicBitset, StartsClear) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  EXPECT_EQ(b.count(), 0u);
  EXPECT_TRUE(b.none());
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynamicBitset, SetAndReset) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_EQ(b.count(), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(b.count(), 3u);
}

TEST(DynamicBitset, ResetAll) {
  DynamicBitset b(130);
  for (std::size_t i = 0; i < 130; i += 3) b.set(i);
  b.reset_all();
  EXPECT_TRUE(b.none());
}

TEST(DynamicBitset, ResizePreservesContents) {
  DynamicBitset b(10);
  b.set(3);
  b.set(9);
  b.resize(200);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(9));
  EXPECT_FALSE(b.test(100));
  EXPECT_EQ(b.count(), 2u);
}

TEST(DynamicBitset, ResizeShrinkTrimsTail) {
  DynamicBitset b(100);
  b.set(50);
  b.set(99);
  b.resize(60);
  EXPECT_TRUE(b.test(50));
  EXPECT_EQ(b.count(), 1u);
  // Growing back must not resurrect the trimmed bit.
  b.resize(100);
  EXPECT_FALSE(b.test(99));
}

TEST(DynamicBitset, FindFirst) {
  DynamicBitset b(200);
  EXPECT_EQ(b.find_first(), 200u);
  b.set(5);
  b.set(130);
  EXPECT_EQ(b.find_first(), 5u);
  EXPECT_EQ(b.find_first(6), 130u);
  EXPECT_EQ(b.find_first(131), 200u);
  EXPECT_EQ(b.find_first(5), 5u);
}

TEST(DynamicBitset, FindFirstClear) {
  DynamicBitset b(130);
  for (std::size_t i = 0; i < 130; ++i) b.set(i);
  EXPECT_EQ(b.find_first_clear(), 130u);
  b.reset(64);
  EXPECT_EQ(b.find_first_clear(), 64u);
  EXPECT_EQ(b.find_first_clear(65), 130u);
  b.reset(0);
  EXPECT_EQ(b.find_first_clear(), 0u);
  EXPECT_EQ(b.find_first_clear(1), 64u);
}

TEST(DynamicBitset, FindFirstClearBeyondSize) {
  DynamicBitset b(10);
  EXPECT_EQ(b.find_first_clear(10), 10u);
  EXPECT_EQ(b.find_first_clear(100), 10u);
}

TEST(DynamicBitset, AndOr) {
  DynamicBitset a(80);
  DynamicBitset b(80);
  a.set(1);
  a.set(70);
  b.set(70);
  b.set(2);
  DynamicBitset a_and = a;
  a_and &= b;
  EXPECT_EQ(a_and.count(), 1u);
  EXPECT_TRUE(a_and.test(70));
  DynamicBitset a_or = a;
  a_or |= b;
  EXPECT_EQ(a_or.count(), 3u);
}

TEST(DynamicBitset, Equality) {
  DynamicBitset a(64);
  DynamicBitset b(64);
  EXPECT_EQ(a, b);
  a.set(10);
  EXPECT_NE(a, b);
  b.set(10);
  EXPECT_EQ(a, b);
}

TEST(DynamicBitset, BytesRoundTrip) {
  Rng rng(123);
  for (const std::size_t bits : {1u, 7u, 8u, 63u, 64u, 65u, 600u, 1000u}) {
    DynamicBitset b(bits);
    for (std::size_t i = 0; i < bits; ++i) {
      if (rng.bernoulli(0.5)) b.set(i);
    }
    const auto bytes = b.to_bytes();
    EXPECT_EQ(bytes.size(), (bits + 7) / 8);
    const DynamicBitset back = DynamicBitset::from_bytes(bytes, bits);
    EXPECT_EQ(back, b) << "bits=" << bits;
  }
}

TEST(DynamicBitset, PaperBufferMapWidth) {
  // The paper's 600-slot availability window packs into 75 bytes.
  DynamicBitset b(600);
  EXPECT_EQ(b.to_bytes().size(), 75u);
}

}  // namespace
}  // namespace gs::util
