// CSV writer, flags parser, thread pool, logging helpers.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "util/csv.hpp"
#include "util/flags.hpp"
#include "util/logging.hpp"
#include "util/thread_pool.hpp"

namespace gs::util {
namespace {

std::string temp_path(const std::string& name) {
  return std::string(::testing::TempDir()) + "/" + name;
}

TEST(Csv, EscapeRules) {
  EXPECT_EQ(CsvWriter::escape("plain"), "plain");
  EXPECT_EQ(CsvWriter::escape("with,comma"), "\"with,comma\"");
  EXPECT_EQ(CsvWriter::escape("with\"quote"), "\"with\"\"quote\"");
  EXPECT_EQ(CsvWriter::escape("with\nnewline"), "\"with\nnewline\"");
}

TEST(Csv, WritesRows) {
  const std::string path = temp_path("test.csv");
  {
    CsvWriter csv(path);
    csv.write_row({"a", "b,c"});
    csv.write_row({"1", "2"});
    csv.flush();
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,\"b,c\"");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2");
}

TEST(Csv, ThrowsOnBadPath) {
  EXPECT_THROW(CsvWriter("/nonexistent-dir-xyz/file.csv"), std::runtime_error);
}

TEST(Flags, DefaultsAndOverrides) {
  Flags flags;
  flags.define_int("count", 5, "a count");
  flags.define("name", "bob", "a name");
  flags.define_bool("verbose", false, "verbosity");
  flags.define_double("rate", 1.5, "a rate");
  flags.define("sizes", "100,500", "a size list");

  const char* argv[] = {"prog", "--count=7", "--verbose", "--rate", "2.5"};
  ASSERT_TRUE(flags.parse(5, const_cast<char**>(argv)));
  EXPECT_EQ(flags.get_int("count"), 7);
  EXPECT_EQ(flags.get("name"), "bob");
  EXPECT_TRUE(flags.get_bool("verbose"));
  EXPECT_DOUBLE_EQ(flags.get_double("rate"), 2.5);
  EXPECT_EQ(flags.get_sizes("sizes"), (std::vector<std::size_t>{100, 500}));
  // given() tells a flag argv set from one left at its default.
  EXPECT_TRUE(flags.given("count"));
  EXPECT_TRUE(flags.given("verbose"));
  EXPECT_FALSE(flags.given("name"));
  EXPECT_FALSE(flags.given("undefined"));
}

TEST(Flags, UnknownFlagThrows) {
  Flags flags;
  const char* argv[] = {"prog", "--bogus=1"};
  EXPECT_THROW((void)flags.parse(2, const_cast<char**>(argv)), std::runtime_error);
}

TEST(Flags, BadIntThrows) {
  Flags flags;
  flags.define_int("n", 1, "");
  const char* argv[] = {"prog", "--n=abc"};
  ASSERT_TRUE(flags.parse(2, const_cast<char**>(argv)));
  EXPECT_THROW((void)flags.get_int("n"), std::runtime_error);
}

TEST(Flags, MissingValueForTrailingFlagThrowsNamingTheFlag) {
  // A value-taking flag at the end of argv must fail loudly (naming the
  // offending flag), never fall through with the default silently.
  Flags flags;
  flags.define_int("count", 5, "a count");
  const char* argv[] = {"prog", "--count"};
  try {
    (void)flags.parse(2, const_cast<char**>(argv));
    FAIL() << "expected std::runtime_error";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("--count"), std::string::npos)
        << "the error must name the flag: " << error.what();
  }
}

TEST(Flags, ExplicitBoolValueForms) {
  // Bare `--flag` means true; `--flag=false` (and friends) must turn a
  // defaulted-true flag off.
  Flags flags;
  flags.define_bool("on-by-default", true, "");
  flags.define_bool("off-by-default", false, "");
  const char* argv[] = {"prog", "--on-by-default=false", "--off-by-default"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_FALSE(flags.get_bool("on-by-default"));
  EXPECT_TRUE(flags.get_bool("off-by-default"));
}

TEST(Flags, BareBoolDoesNotConsumeTheNextToken) {
  // `--verbose false` keeps "false" as a positional: booleans only take a
  // value through the `=` form, so a trailing bare bool is always legal.
  Flags flags;
  flags.define_bool("verbose", false, "");
  const char* argv[] = {"prog", "--verbose", "false"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  EXPECT_TRUE(flags.get_bool("verbose"));
  ASSERT_EQ(flags.positional().size(), 1u);
  EXPECT_EQ(flags.positional()[0], "false");

  Flags trailing;
  trailing.define_bool("verbose", false, "");
  const char* argv2[] = {"prog", "--verbose"};
  ASSERT_TRUE(trailing.parse(2, const_cast<char**>(argv2)));
  EXPECT_TRUE(trailing.get_bool("verbose"));
}

TEST(Flags, Positional) {
  Flags flags;
  const char* argv[] = {"prog", "file1", "file2"};
  ASSERT_TRUE(flags.parse(3, const_cast<char**>(argv)));
  ASSERT_EQ(flags.positional().size(), 2u);
  EXPECT_EQ(flags.positional()[0], "file1");
}

TEST(Flags, UsageListsFlags) {
  Flags flags;
  flags.define_int("alpha", 1, "the alpha");
  const std::string usage = flags.usage("prog");
  EXPECT_NE(usage.find("--alpha"), std::string::npos);
  EXPECT_NE(usage.find("the alpha"), std::string::npos);
}

TEST(ThreadPool, RunBatchCoversAllIndices) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.thread_count(), 4u);
  std::vector<std::atomic<int>> hits(200);
  pool.run_batch(200, 4, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, RunBatchSingleLaneRunsInline) {
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.run_batch(16, 1, [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, RunBatchZeroIterations) {
  ThreadPool pool(2);
  pool.run_batch(0, 4, [](std::size_t) { FAIL() << "must not run"; });
}

TEST(ThreadPool, RunBatchPropagatesFirstError) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.run_batch(50, 4,
                              [](std::size_t i) {
                                if (i == 13) throw std::runtime_error("unlucky");
                              }),
               std::runtime_error);
}

TEST(ThreadPool, RunBatchRethrowsAnErrorRaisedOnAPoolWorker) {
  // Only pool threads throw, and the caller keeps claiming until one has,
  // so the error can only come from a pool thread.
  ThreadPool pool(4);
  const auto caller = std::this_thread::get_id();
  std::atomic<bool> helper_ran{false};
  EXPECT_THROW(pool.run_batch(50, 4,
                              [&](std::size_t) {
                                if (std::this_thread::get_id() != caller) {
                                  helper_ran = true;
                                  throw std::runtime_error("boom");
                                }
                                while (!helper_ran.load()) std::this_thread::yield();
                              }),
               std::runtime_error);
}

TEST(ThreadPool, ManyMoreTasksThanThreads) {
  ThreadPool pool(2);
  std::atomic<int> sum{0};
  pool.run_batch(1000, pool.thread_count(),
                 [&](std::size_t i) { sum.fetch_add(static_cast<int>(i % 7)); });
  int expected = 0;
  for (int i = 0; i < 1000; ++i) expected += i % 7;
  EXPECT_EQ(sum.load(), expected);
}

TEST(ThreadPool, RunBatchInsideSaturatedPoolCannotDeadlock) {
  // Every worker is busy inside an outer run_batch iteration that itself
  // calls run_batch — the sharded engine under an experiment sweep.  The
  // caller lane must drain each inner batch even though no worker is ever
  // free.
  ThreadPool pool(2);
  std::atomic<int> total{0};
  pool.run_batch(4, pool.thread_count() + 1, [&](std::size_t) {
    pool.run_batch(32, 4, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 4 * 32);
}

TEST(ThreadPool, RunBatchMoreLanesThanWork) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(3);
  pool.run_batch(3, 16, [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(Logging, ParseLevels) {
  EXPECT_EQ(parse_log_level("debug"), LogLevel::kDebug);
  EXPECT_EQ(parse_log_level("WARN"), LogLevel::kWarn);
  EXPECT_EQ(parse_log_level("off"), LogLevel::kOff);
  EXPECT_EQ(parse_log_level("garbage"), LogLevel::kInfo);
}

TEST(Logging, SetAndGetLevel) {
  const LogLevel before = log_level();
  set_log_level(LogLevel::kError);
  EXPECT_EQ(log_level(), LogLevel::kError);
  GS_LOG_DEBUG << "should be suppressed";
  set_log_level(before);
}

}  // namespace
}  // namespace gs::util
