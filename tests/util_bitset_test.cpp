// DynamicBitset: set/test, scans, resize preservation.
#include <gtest/gtest.h>

#include "util/bitset.hpp"

namespace gs::util {
namespace {

std::size_t set_bits(const DynamicBitset& b) {
  std::size_t total = 0;
  for (std::size_t i = 0; i < b.size(); ++i) total += b.test(i) ? 1 : 0;
  return total;
}

TEST(DynamicBitset, StartsClear) {
  DynamicBitset b(100);
  EXPECT_EQ(b.size(), 100u);
  for (std::size_t i = 0; i < 100; ++i) EXPECT_FALSE(b.test(i));
}

TEST(DynamicBitset, SetAndReset) {
  DynamicBitset b(70);
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(69);
  EXPECT_EQ(set_bits(b), 4u);
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  b.reset(63);
  EXPECT_FALSE(b.test(63));
  EXPECT_EQ(set_bits(b), 3u);
}

TEST(DynamicBitset, ResizePreservesContents) {
  DynamicBitset b(10);
  b.set(3);
  b.set(9);
  b.resize(200);
  EXPECT_TRUE(b.test(3));
  EXPECT_TRUE(b.test(9));
  EXPECT_FALSE(b.test(100));
  EXPECT_EQ(set_bits(b), 2u);
}

TEST(DynamicBitset, ResizeShrinkTrimsTail) {
  DynamicBitset b(100);
  b.set(50);
  b.set(99);
  b.resize(60);
  EXPECT_TRUE(b.test(50));
  EXPECT_EQ(set_bits(b), 1u);
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

}  // namespace
}  // namespace gs::util
