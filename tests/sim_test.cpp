// Event queue ordering/cancellation, simulator clock semantics and the
// periodic task.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "sim/event_queue.hpp"
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

TEST(EventQueue, RunsInTimeOrder) {
  EventQueue q;
  HookSink sink;
  std::vector<int> order;
  q.schedule(3.0, sink, sink.add([&] { order.push_back(3); }), 0);
  q.schedule(1.0, sink, sink.add([&] { order.push_back(1); }), 0);
  q.schedule(2.0, sink, sink.add([&] { order.push_back(2); }), 0);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesFireInInsertionOrder) {
  EventQueue q;
  HookSink sink;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, sink, sink.add([&order, i] { order.push_back(i); }), 0);
  }
  while (!q.empty()) q.pop_and_run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, NextTimeReportsEarliest) {
  EventQueue q;
  HookSink sink;
  const std::uint64_t noop = sink.add([] {});
  q.schedule(7.0, sink, noop, 0);
  q.schedule(4.0, sink, noop, 0);
  EXPECT_DOUBLE_EQ(q.next_time(), 4.0);
}

TEST(EventQueue, CancelPreventsExecution) {
  EventQueue q;
  HookSink sink;
  bool ran = false;
  const EventId id = q.schedule(1.0, sink, sink.add([&] { ran = true; }), 0);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelTwiceFails) {
  EventQueue q;
  HookSink sink;
  const EventId id = q.schedule(1.0, sink, sink.add([] {}), 0);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelAfterRunFails) {
  EventQueue q;
  HookSink sink;
  const EventId id = q.schedule(1.0, sink, sink.add([] {}), 0);
  q.pop_and_run();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelBogusIdFails) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(0));
  EXPECT_FALSE(q.cancel(999));
}

TEST(EventQueue, CancelMiddleKeepsOthers) {
  EventQueue q;
  HookSink sink;
  std::vector<int> order;
  q.schedule(1.0, sink, sink.add([&] { order.push_back(1); }), 0);
  const EventId id = q.schedule(2.0, sink, sink.add([&] { order.push_back(2); }), 0);
  q.schedule(3.0, sink, sink.add([&] { order.push_back(3); }), 0);
  q.cancel(id);
  EXPECT_EQ(q.size(), 2u);
  while (!q.empty()) q.pop_and_run();
  EXPECT_EQ(order, (std::vector<int>{1, 3}));
}

TEST(EventQueue, EventsMayScheduleEvents) {
  EventQueue q;
  HookSink sink;
  std::vector<int> order;
  const std::uint64_t second = sink.add([&] { order.push_back(2); });
  q.schedule(1.0, sink, sink.add([&] {
               order.push_back(1);
               q.schedule(2.0, sink, second, 0);
             }),
             0);
  while (!q.empty()) q.pop_and_run();
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

TEST(Simulator, ClearDropsPendingEvents) {
  // An engine clears its queue before its sinks go; their destructor
  // cancels must then find nothing, and a cleared id must not match a
  // later event.
  Simulator sim;
  HookSink sink;
  int dropped = 0;
  int kept = 0;
  const EventId id = sim.at(1.0, sink, sink.add([&] { ++dropped; }), 0);
  sim.at(2.0, sink, sink.add([&] { ++dropped; }), 0);
  sim.clear();
  EXPECT_FALSE(sim.pending());
  EXPECT_FALSE(sim.cancel(id));
  sim.at(3.0, sink, sink.add([&] { ++kept; }), 0);
  EXPECT_FALSE(sim.cancel(id));
  EXPECT_EQ(sim.run_all(), 1u);
  EXPECT_EQ(dropped, 0);
  EXPECT_EQ(kept, 1);
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

TEST(Periodic, CancelStopsFiring) {
  Simulator sim;
  int fired = 0;
  PeriodicTask task(sim, 1.0, 1.0, [&](double) { ++fired; });
  sim.run_until(2.5);
  EXPECT_EQ(fired, 2);
  task.cancel();
  EXPECT_FALSE(task.active());
  sim.run_until(10.0);
  EXPECT_EQ(fired, 2);
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
}

TEST(Periodic, DestructionCancels) {
  Simulator sim;
  int fired = 0;
  {
    PeriodicTask task(sim, 1.0, 1.0, [&](double) { ++fired; });
    sim.run_until(1.5);
  }
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
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
