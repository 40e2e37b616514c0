// Simulator ordering and clock semantics and the periodic task.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/periodic.hpp"
#include "sim/simulator.hpp"

namespace gs::sim {
namespace {

/// Test-local sink: event (a, _) runs hook[a].  Each case registers one
/// hook per tag, which keeps the shape of a closure-per-event test.
struct HookSink final : EventSink {
  std::vector<std::function<void()>> hooks;
  /// Registers `hook` and returns its tag.
  std::uint64_t add(std::function<void()> hook) {
    hooks.push_back(std::move(hook));
    return hooks.size() - 1;
  }
  void on_event(std::uint64_t a, std::uint64_t /*b*/) override { hooks[a](); }
};

TEST(Simulator, RunsInTimeOrder) {
  Simulator sim;
  HookSink sink;
  std::vector<int> order;
  sim.at(3.0, sink, sink.add([&] { order.push_back(3); }), 0);
  sim.at(1.0, sink, sink.add([&] { order.push_back(1); }), 0);
  sim.at(2.0, sink, sink.add([&] { order.push_back(2); }), 0);
  EXPECT_EQ(sim.run_all(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, TiesFireInInsertionOrder) {
  Simulator sim;
  HookSink sink;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.at(5.0, sink, sink.add([&order, i] { order.push_back(i); }), 0);
  }
  sim.run_all();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulator, NowReadsTheFiringEventsTime) {
  Simulator sim;
  HookSink sink;
  std::vector<double> seen;
  const std::uint64_t record = sink.add([&] { seen.push_back(sim.now()); });
  sim.at(7.0, sink, record, 0);
  sim.at(4.0, sink, record, 0);
  sim.run_all();
  EXPECT_EQ(seen, (std::vector<double>{4.0, 7.0}));
}

TEST(Simulator, EventsMayScheduleEvents) {
  Simulator sim;
  HookSink sink;
  std::vector<int> order;
  const std::uint64_t second = sink.add([&] { order.push_back(2); });
  sim.at(1.0, sink, sink.add([&] {
           order.push_back(1);
           sim.at(2.0, sink, second, 0);
         }),
         0);
  EXPECT_EQ(sim.run_all(), 2u);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
}

TEST(Simulator, ClockAdvances) {
  Simulator sim;
  HookSink sink;
  EXPECT_DOUBLE_EQ(sim.now(), 0.0);
  double seen = -1.0;
  sim.at(2.5, sink, sink.add([&] { seen = sim.now(); }), 0);
  sim.run_until(10.0);
  EXPECT_DOUBLE_EQ(seen, 2.5);
  EXPECT_DOUBLE_EQ(sim.now(), 10.0);
}

TEST(Simulator, NegativeStartTime) {
  Simulator sim(-45.0);
  HookSink sink;
  EXPECT_DOUBLE_EQ(sim.now(), -45.0);
  std::vector<double> times;
  const std::uint64_t record = sink.add([&] { times.push_back(sim.now()); });
  sim.after(5.0, sink, record, 0);
  sim.at(-10.0, sink, record, 0);
  sim.run_until(0.0);
  EXPECT_EQ(times, (std::vector<double>{-40.0, -10.0}));
}

TEST(Simulator, RunUntilStopsAtHorizon) {
  Simulator sim;
  HookSink sink;
  int ran = 0;
  const std::uint64_t count = sink.add([&] { ++ran; });
  sim.at(1.0, sink, count, 0);
  sim.at(5.0, sink, count, 0);
  EXPECT_EQ(sim.run_until(3.0), 1u);
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.pending());
  EXPECT_EQ(sim.run_until(10.0), 1u);
  EXPECT_EQ(ran, 2);
}

TEST(Simulator, EventExactlyAtHorizonRuns) {
  Simulator sim;
  HookSink sink;
  bool ran = false;
  sim.at(3.0, sink, sink.add([&] { ran = true; }), 0);
  sim.run_until(3.0);
  EXPECT_TRUE(ran);
}

TEST(Simulator, StopInterruptsRun) {
  Simulator sim;
  HookSink sink;
  int ran = 0;
  sim.at(1.0, sink, sink.add([&] {
           ++ran;
           sim.stop();
         }),
         0);
  sim.at(2.0, sink, sink.add([&] { ++ran; }), 0);
  sim.run_all();
  EXPECT_EQ(ran, 1);
  EXPECT_TRUE(sim.pending());
}

TEST(Simulator, RunAllDrains) {
  Simulator sim;
  HookSink sink;
  int ran = 0;
  const std::uint64_t count = sink.add([&] { ++ran; });
  for (int i = 1; i <= 5; ++i) {
    sim.at(i, sink, count, 0);
  }
  EXPECT_EQ(sim.run_all(), 5u);
  EXPECT_EQ(ran, 5);
  EXPECT_FALSE(sim.pending());
}

TEST(Periodic, FiresAtFixedInterval) {
  Simulator sim;
  std::vector<double> fire_times;
  PeriodicTask task(sim, 1.0, 0.5, [&](double t) { fire_times.push_back(t); });
  sim.run_until(3.0);
  ASSERT_EQ(fire_times.size(), 5u);
  EXPECT_DOUBLE_EQ(fire_times[0], 1.0);
  EXPECT_DOUBLE_EQ(fire_times[4], 3.0);
}

TEST(Periodic, CancelFromWithinAction) {
  Simulator sim;
  int fired = 0;
  PeriodicTask* handle = nullptr;
  PeriodicTask task(sim, 1.0, 1.0, [&](double) {
    if (++fired == 3) handle->cancel();
  });
  handle = &task;
  sim.run_until(100.0);
  EXPECT_EQ(fired, 3);
  EXPECT_FALSE(sim.pending()) << "the cancelling firing must not re-arm";
}

TEST(Periodic, CancelOutsideItsActionAborts) {
  // A task never has an event to withdraw: only its own action may stop it.
  Simulator sim;
  PeriodicTask task(sim, 1.0, 1.0, [](double) {});
  EXPECT_DEATH(task.cancel(), "own action");
}

TEST(Periodic, FiresStrictlyBeforeUntil) {
  // The end rule a session's generation rides on: a fire time at or past
  // `until` is never scheduled, so a tie with the switch instant is dropped.
  for (const double until : {3.0, 2.5}) {
    Simulator sim;
    std::vector<double> fire_times;
    PeriodicTask task(
        sim, 0.0, 1.0, [&](double t) { fire_times.push_back(t); }, until);
    EXPECT_EQ(sim.run_until(10.0), 3u) << "until " << until;
    EXPECT_EQ(fire_times, (std::vector<double>{0.0, 1.0, 2.0})) << "until " << until;
    EXPECT_FALSE(sim.pending()) << "until " << until;
  }
}

TEST(Periodic, TwoTasksInterleave) {
  Simulator sim;
  std::vector<int> order;
  PeriodicTask a(sim, 0.0, 1.0, [&](double) { order.push_back(1); });
  PeriodicTask b(sim, 0.5, 1.0, [&](double) { order.push_back(2); });
  sim.run_until(2.2);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2, 1}));
}

TEST(Periodic, RearmsAfterEverythingItsActionSchedules) {
  // The task re-arms once its action has returned, so the re-arm takes the
  // event id after every event the action scheduled.  Here the action
  // schedules an event at the task's own next fire time; ids break that
  // tie, so the action's event must pop before the next firing.
  Simulator sim;
  HookSink sink;
  std::vector<std::pair<double, int>> order;
  const std::uint64_t child = sink.add([&] { order.emplace_back(sim.now(), 2); });
  PeriodicTask task(sim, 0.0, 1.0, [&](double now) {
    order.emplace_back(now, 1);
    sim.at(now + 1.0, sink, child, 0);  // same instant as the re-arm
  });
  sim.run_until(2.5);
  const std::vector<std::pair<double, int>> expected = {
      {0.0, 1}, {1.0, 2}, {1.0, 1}, {2.0, 2}, {2.0, 1}};
  EXPECT_EQ(order, expected);
}

}  // namespace
}  // namespace gs::sim
