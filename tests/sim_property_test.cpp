// Property tests for the simulator's ordering contract, its timing wheel
// and the batched tick dispatcher.
//
// The contract under test is what every determinism guarantee in the repo
// rests on: events pop in (time, insertion-sequence) order — a stable sort
// of the schedule — no matter how insertions, ties, batched runs and
// events of different sinks interleave.  BatchTicker must additionally
// reproduce, event for event, the schedule an equivalent set of per-member
// PeriodicTasks would produce.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/periodic.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace gs::sim {
namespace {

struct Scheduled {
  Time at = 0.0;
  int tag = 0;
};

/// Records each event's payload word `a` as its tag.
struct RecordingSink final : EventSink {
  std::vector<int>* fired = nullptr;
  void on_event(std::uint64_t a, std::uint64_t /*b*/) override {
    fired->push_back(static_cast<int>(a));
  }
};

TEST(SimulatorProperty, TiesPopInInsertionOrderUnderRandomInterleaving) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    std::vector<int> fired;
    RecordingSink sink;
    sink.fired = &fired;
    std::vector<Scheduled> reference;
    const int count = 3 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < count; ++i) {
      // A small discrete time domain forces heavy timestamp collisions.
      const Time at = static_cast<Time>(rng.uniform_int(0, 5));
      sim.at(at, sink, static_cast<std::uint64_t>(i), 0);
      reference.push_back({at, i});
    }
    std::vector<int> expected;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const Scheduled& a, const Scheduled& b) { return a.at < b.at; });
    for (const Scheduled& s : reference) expected.push_back(s.tag);
    sim.run_all();
    EXPECT_EQ(fired, expected) << "trial " << trial;
  }
}

TEST(SimulatorProperty, TwoSinksShareOneOrderingDomain) {
  util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    Simulator sim;
    std::vector<int> fired;
    RecordingSink sink;
    sink.fired = &fired;
    RecordingSink other;
    other.fired = &fired;
    std::vector<Scheduled> reference;
    const int count = 3 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < count; ++i) {
      const Time at = static_cast<Time>(rng.uniform_int(0, 5));
      sim.at(at, rng.bernoulli(0.5) ? sink : other, static_cast<std::uint64_t>(i), 0);
      reference.push_back({at, i});
    }
    std::vector<int> expected;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const Scheduled& a, const Scheduled& b) { return a.at < b.at; });
    for (const Scheduled& s : reference) expected.push_back(s.tag);
    sim.run_all();
    EXPECT_EQ(fired, expected) << "trial " << trial;
  }
}

// ---------------------------------------------------------- BatchTicker ---

/// One (time, member) observation per tick, whichever dispatcher fired it.
using Observation = std::pair<Time, std::uint32_t>;

/// A ticker sweep that records one observation per member, in list order.
BatchTicker::Sweep record_sweep(std::vector<Observation>& out) {
  return [&out](const std::vector<std::uint32_t>& members, Time now) {
    for (const std::uint32_t m : members) out.emplace_back(now, m);
  };
}

TEST(BatchTickerProperty, SweepsMembersInArmOrderRegardlessOfInsertionInterleaving) {
  util::Rng rng(11);
  for (int trial = 0; trial < 30; ++trial) {
    Simulator sim;
    std::vector<Observation> seen;
    BatchTicker ticker(sim, 1.0, record_sweep(seen));
    // Interleave group creation and member insertion arbitrarily; phases
    // collide on purpose (two groups share each phase).
    const std::size_t group_count = 2 + static_cast<std::size_t>(rng.uniform_int(0, 3));
    std::vector<std::size_t> groups;
    std::vector<std::vector<std::uint32_t>> expected_members(group_count);
    for (std::size_t g = 0; g < group_count; ++g) {
      groups.push_back(ticker.add_group(static_cast<Time>(g % 2) * 0.5));
    }
    std::uint32_t next_member = 0;
    for (int i = 0; i < 20; ++i) {
      const auto g = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(group_count) - 1));
      ticker.add_member(groups[g], next_member);
      expected_members[g].push_back(next_member);
      ++next_member;
    }
    sim.run_until(2.25);  // fires at 0, 0.5, 1, 1.5, 2 (three even, two odd)
    // Reference: groups ordered by (fire time, creation order), members in
    // arm order within each sweep.
    std::vector<Observation> expected;
    for (Time t = 0.0; t <= 2.25; t += 0.5) {
      for (std::size_t g = 0; g < group_count; ++g) {
        const Time phase = static_cast<Time>(g % 2) * 0.5;
        const double k = (t - phase) / 1.0;
        if (t < phase || k != std::floor(k)) continue;
        for (const std::uint32_t m : expected_members[g]) expected.emplace_back(t, m);
      }
    }
    EXPECT_EQ(seen, expected) << "trial " << trial;
  }
}

TEST(BatchTickerProperty, MatchesPerMemberPeriodicTaskSchedule) {
  // The mini-model of the engine's determinism guarantee: the same phase
  // assignment driven by N PeriodicTasks and by a BatchTicker must observe
  // identical (time, member) sequences — including timestamp ties across
  // groups and with an unrelated periodic event.
  util::Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    const std::size_t members = 1 + static_cast<std::size_t>(rng.uniform_int(0, 12));
    const std::size_t shard = 1 + static_cast<std::size_t>(rng.uniform_int(0, 4));
    std::vector<Time> phases;
    for (std::size_t s = 0; s <= members / shard; ++s) {
      phases.push_back(rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 1.0));
    }

    std::vector<Observation> per_member;
    {
      Simulator sim;
      std::vector<std::unique_ptr<PeriodicTask>> tasks;
      PeriodicTask other(sim, 0.0, 0.25, [&per_member](double now) {
        per_member.emplace_back(now, 9999);
      });
      for (std::uint32_t m = 0; m < members; ++m) {
        tasks.push_back(std::make_unique<PeriodicTask>(
            sim, phases[m / shard], 1.0,
            [&per_member, m](double now) { per_member.emplace_back(now, m); }));
      }
      sim.run_until(5.0);
    }

    std::vector<Observation> batched;
    {
      Simulator sim;
      PeriodicTask other(sim, 0.0, 0.25, [&batched](double now) {
        batched.emplace_back(now, 9999);
      });
      BatchTicker ticker(sim, 1.0, record_sweep(batched));
      std::vector<std::size_t> groups;
      for (std::uint32_t m = 0; m < members; ++m) {
        const std::size_t s = m / shard;
        if (s >= groups.size()) groups.push_back(ticker.add_group(phases[s]));
        ticker.add_member(groups[s], m);
      }
      sim.run_until(5.0);
    }
    EXPECT_EQ(per_member, batched) << "trial " << trial;
  }
}

TEST(BatchTickerProperty, RemovalPreservesOrderAndEmptyGroupsGoDormant) {
  Simulator sim;
  std::vector<Observation> seen;
  BatchTicker ticker(sim, 1.0, record_sweep(seen));
  const std::size_t g = ticker.add_group(0.0);
  for (std::uint32_t m = 0; m < 4; ++m) ticker.add_member(g, m);
  sim.run_until(0.5);
  ticker.remove_member(g, 1);
  ticker.remove_member(g, 3);
  EXPECT_EQ(ticker.member_count(g), 2u);
  sim.run_until(1.5);
  ticker.remove_member(g, 0);
  ticker.remove_member(g, 2);
  sim.run_until(5.0);
  EXPECT_FALSE(ticker.group_live(g)) << "group with no members must stop re-arming";
  EXPECT_FALSE(sim.pending());
  const std::vector<Observation> expected = {
      {0.0, 0}, {0.0, 1}, {0.0, 2}, {0.0, 3}, {1.0, 0}, {1.0, 2}};
  EXPECT_EQ(seen, expected);
}

// ----------------------------------------------------------- batched pops ---

/// Mimics the engine's delivery sink (processing schedules nothing, so runs
/// span timestamps): records (time, tag) per event, through on_event with
/// the clock or through on_batch with each item's own time.
struct BatchableSink final : BatchSink {
  std::vector<Observation>* fired = nullptr;
  Simulator* sim = nullptr;
  std::uint64_t batches = 0;
  void on_event(std::uint64_t a, std::uint64_t /*b*/) override {
    fired->emplace_back(sim->now(), static_cast<std::uint32_t>(a));
  }
  void on_batch(const PooledBatchItem* items, std::size_t count) override {
    ++batches;
    for (std::size_t i = 0; i < count; ++i) {
      fired->emplace_back(items[i].at, static_cast<std::uint32_t>(items[i].a));
    }
  }
};

TEST(BatchPopProperty, BatchedRunsPreserveThePopOrderAcrossTimes) {
  // The delivery-drain contract: with the sink registered as the batch
  // sink, a mix of its events and a second sink's must observe exactly the
  // (time, sequence) order the unbatched loop produces — runs merely arrive
  // through on_batch, carrying each item's own fire time — also when a
  // run_until horizon cuts the run in two.
  util::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Observation> batched;
    std::vector<Observation> reference;
    std::uint64_t batch_count = 0;
    for (const bool batch : {true, false}) {
      Simulator sim;
      BatchableSink sink;
      BatchableSink breaker;
      if (batch) sim.set_batch_sink(&sink);
      std::vector<Observation>& out = batch ? batched : reference;
      sink.fired = &out;
      sink.sim = &sim;
      breaker.fired = &out;
      breaker.sim = &sim;
      util::Rng gen(static_cast<std::uint64_t>(trial) + 7);
      for (std::uint32_t tag = 0; tag < 120; ++tag) {
        const Time at = std::floor(gen.uniform(0.0, 12.0));  // dense ties
        if (gen.bernoulli(0.75)) {
          sim.at(at, sink, tag, 0);
        } else {
          sim.at(at, breaker, 100000 + tag, 0);
        }
      }
      std::size_t ran = sim.run_until(5.0);
      ran += sim.run_until(20.0);
      EXPECT_EQ(ran, 120u);
      EXPECT_FALSE(sim.pending());
      EXPECT_EQ(breaker.batches, 0u) << "only the registered sink batches";
      if (batch) batch_count = sink.batches;
    }
    EXPECT_EQ(batched, reference) << "trial " << trial;
    EXPECT_GT(batch_count, 0u);
  }
}

TEST(BatchPopProperty, UnregisteredSinksPopSingly) {
  Simulator sim;
  RecordingSink sink;
  std::vector<int> ints;
  sink.fired = &ints;
  for (int i = 0; i < 5; ++i) sim.at(1.0, sink, static_cast<std::uint64_t>(i), 0);
  sim.run_until(2.0);
  EXPECT_EQ(ints, (std::vector<int>{0, 1, 2, 3, 4}));
}

// --------------------------------------------------- timing-wheel store ---
//
// The wheel's entire contract is the global (time, sequence) pop order:
// whatever the workload, the pop sequence must be exactly that of one
// binary heap over every pending entry.  These properties drive the wheel
// and such a heap with the same random scripts and compare execution
// traces.  The wheel is driven directly, not through the Simulator: the
// scripts schedule into the past (late arrivals behind the cursor), which
// the simulator's clock forbids.

/// Reference model of the wheel: one (time, id) binary heap over every
/// pending entry.  Ids are assigned in scheduling order like the
/// simulator's.
class ReferenceQueue {
 public:
  /// Events run as closures: the reference models ordering only.
  void schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b) {
    heap_.push_back({at, next_id_++, [&sink, a, b] { sink.on_event(a, b); }});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
  }

  [[nodiscard]] bool empty() const { return heap_.empty(); }
  [[nodiscard]] std::size_t size() const { return heap_.size(); }
  [[nodiscard]] Time next_time() const { return heap_.front().at; }

  void pop_and_run() {
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    Entry entry = std::move(heap_.back());
    heap_.pop_back();
    entry.action();
  }

 private:
  struct Entry {
    Time at = 0.0;
    EventId id = 0;
    std::function<void()> action;
  };
  /// "a fires after b": a max-heap under this order pops the earliest.
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      return a.at != b.at ? a.at > b.at : a.id > b.id;
    }
  };

  std::vector<Entry> heap_;
  EventId next_id_ = 1;
};

/// The timing wheel behind the reference's interface: ids in scheduling
/// order, as the simulator hands them out.
class WheelQueue {
 public:
  explicit WheelQueue(double quantum) : wheel(quantum) {}

  void schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b) {
    wheel.push({at, next_id_++, &sink, a, b});
  }
  [[nodiscard]] bool empty() const { return wheel.empty(); }
  [[nodiscard]] std::size_t size() const { return wheel.size(); }
  [[nodiscard]] Time next_time() { return wheel.top().at; }
  void pop_and_run() {
    const QueueEntry entry = wheel.pop();
    entry.sink->on_event(entry.a, entry.b);
  }

  TimingWheel wheel;

 private:
  EventId next_id_ = 1;
};

/// One scripted schedule operation, applied identically to both queues.
struct WheelScript {
  Time at = 0.0;
  int tag = 0;
  bool rearm = false;   ///< schedules a follow-up from inside its pop
  Time rearm_at = 0.0;  ///< may precede `at` (exercises the late-arrival path)
};

/// Follow-up events carry their parent's tag plus this offset.
constexpr int kFollowUpTag = 100000;

/// Script events: payload `a` is the tag.  Records it; a re-arming script
/// entry schedules its follow-up on the same queue from inside its pop.
template <typename Queue>
struct ScriptSink final : EventSink {
  Queue* queue = nullptr;
  const std::vector<WheelScript>* script = nullptr;
  std::vector<int> fired;
  void on_event(std::uint64_t a, std::uint64_t /*b*/) override {
    const int tag = static_cast<int>(a);
    fired.push_back(tag);
    if (tag >= kFollowUpTag) return;
    const WheelScript& s = (*script)[static_cast<std::size_t>(tag)];
    if (s.rearm) queue->schedule(s.rearm_at, *this, static_cast<std::uint64_t>(tag + kFollowUpTag), 0);
  }
};

/// Loads a script into one queue.
template <typename Queue>
void load_script(Queue& queue, ScriptSink<Queue>& sink, const std::vector<WheelScript>& script) {
  sink.queue = &queue;
  sink.script = &script;
  for (const WheelScript& s : script) {
    queue.schedule(s.at, sink, static_cast<std::uint64_t>(s.tag), 0);
  }
}

std::vector<WheelScript> random_script(util::Rng& rng, int count) {
  std::vector<WheelScript> script;
  for (int tag = 0; tag < count; ++tag) {
    WheelScript s;
    const double shape = rng.uniform();
    if (shape < 0.55) {
      // Dense integer ties, including pre-anchor (warm-up) times.
      s.at = static_cast<Time>(rng.uniform_int(-3, 20));
    } else if (shape < 0.85) {
      // Continuous times around the near ring's horizon (64 s to 768 s
      // across the quanta under test).
      s.at = rng.uniform(0.0, 400.0);
    } else {
      // Far horizon: past the near ring, into the spill heap, at every
      // quantum under test.
      s.at = rng.uniform(0.0, 60000.0);
    }
    s.tag = tag;
    if (rng.bernoulli(0.18)) {
      s.rearm = true;
      // Follow-ups may land before their parent (late arrival into a bucket
      // the cursor already passed) or far ahead.
      s.rearm_at = s.at + rng.uniform(-8.0, 40.0);
    }
    script.push_back(s);
  }
  return script;
}

TEST(TimingWheelProperty, MixedWorkloadPopsLikeTheReferenceQueue) {
  util::Rng rng(31337);
  for (const double quantum : {0.25, 1.0, 3.0}) {
    for (int trial = 0; trial < 12; ++trial) {
      ReferenceQueue reference;
      WheelQueue wheel(quantum);
      ScriptSink<ReferenceQueue> reference_sink;
      ScriptSink<WheelQueue> wheel_sink;
      const std::vector<WheelScript> script = random_script(rng, 150);
      load_script(reference, reference_sink, script);
      load_script(wheel, wheel_sink, script);
      EXPECT_EQ(reference.size(), wheel.size());
      while (!reference.empty() || !wheel.empty()) {
        ASSERT_FALSE(reference.empty());
        ASSERT_FALSE(wheel.empty());
        ASSERT_EQ(reference.next_time(), wheel.next_time())
            << "quantum " << quantum << " trial " << trial;
        reference.pop_and_run();
        wheel.pop_and_run();
      }
      EXPECT_EQ(reference_sink.fired, wheel_sink.fired)
          << "quantum " << quantum << " trial " << trial;
      EXPECT_GT(wheel.wheel.telemetry().scheduled, 0u);
    }
  }
}

TEST(TimingWheelProperty, FarHorizonWorkloadExercisesSpill) {
  // Telemetry sanity: a workload far beyond the near ring's horizon must
  // route through the spill heap (a non-empty spill peak, promotions into
  // the ring as the cursor advances) and still pop in nondecreasing time
  // order.
  util::Rng rng(2718);
  WheelQueue queue(1.0);
  std::vector<int> fired;
  RecordingSink sink;
  sink.fired = &fired;
  for (int i = 0; i < 400; ++i) {
    queue.schedule(rng.uniform(0.0, 50000.0), sink, static_cast<std::uint64_t>(i), 0);
  }
  Time last = -1.0;
  while (!queue.empty()) {
    const Time next = queue.next_time();
    EXPECT_GE(next, last);
    last = next;
    queue.pop_and_run();
  }
  const TimingWheel::Telemetry telemetry = queue.wheel.telemetry();
  EXPECT_EQ(telemetry.scheduled, 400u);
  EXPECT_GT(telemetry.overflow_promotions, 0u)
      << "50000s horizon never promoted out of the spill heap";
  EXPECT_GT(telemetry.spill_peak, 0u)
      << "50000s horizon never reached the spill heap (the near ring covers 256s)";
}

/// An engine-like steady stream: each periodic task re-arms one quantum
/// ahead, and each of its firings also schedules a one-off delivery 0.1 to
/// 3 quanta out — the shorter ones into the bucket being drained, so they
/// take the side heap.  Payload `a` is the task, `b` is 1 for a delivery;
/// the trace records both.
template <typename Queue>
struct StreamSink final : EventSink {
  Queue* queue = nullptr;
  std::vector<Time> next;  ///< each task's pending fire time
  Time end = 0.0;          ///< tasks stop re-arming here
  util::Rng rng{4242};     ///< same seed on both sides: same delays
  std::vector<std::uint64_t> fired;
  void on_event(std::uint64_t a, std::uint64_t b) override {
    fired.push_back(2 * a + b);
    if (b == 1) return;
    const Time now = next[a];
    queue->schedule(now + rng.uniform(0.1, 3.0), *this, a, 1);
    next[a] = now + 1.0;
    if (next[a] < end) queue->schedule(next[a], *this, a, 0);
  }
};

TEST(TimingWheelProperty, SteadyStreamRetainsCapacityForLiveEventsOnly) {
  // Five ring revolutions of a steady stream.  The pop order must match the
  // reference heap, and the wheel's retained entry storage must follow the
  // live event count rather than the number of buckets the cursor drained:
  // a wheel that leaves each drained bucket's buffer in its slot holds about
  // one bucket's worth per slot, far past this bound once all 256 slots
  // have been visited.
  constexpr int kTasks = 48;
  ReferenceQueue reference;
  WheelQueue wheel(1.0);
  StreamSink<ReferenceQueue> reference_sink;
  StreamSink<WheelQueue> wheel_sink;
  reference_sink.queue = &reference;
  wheel_sink.queue = &wheel;
  reference_sink.end = wheel_sink.end = 5.0 * 256.0;
  util::Rng phases(99);
  for (int task = 0; task < kTasks; ++task) {
    const Time phase = phases.uniform(0.0, 1.0);
    reference_sink.next.push_back(phase);
    wheel_sink.next.push_back(phase);
    reference.schedule(phase, reference_sink, static_cast<std::uint64_t>(task), 0);
    wheel.schedule(phase, wheel_sink, static_cast<std::uint64_t>(task), 0);
  }
  std::size_t peak_resident = 0;
  while (!reference.empty() || !wheel.empty()) {
    ASSERT_FALSE(reference.empty());
    ASSERT_FALSE(wheel.empty());
    ASSERT_EQ(reference.next_time(), wheel.next_time());
    peak_resident = std::max(peak_resident, wheel.size());
    reference.pop_and_run();
    wheel.pop_and_run();
  }
  EXPECT_EQ(reference_sink.fired, wheel_sink.fired);
  EXPECT_EQ(wheel_sink.fired.size(), 2u * kTasks * 5 * 256);
  EXPECT_GT(wheel.wheel.telemetry().late_arrivals, 0u)
      << "no delivery landed in the bucket being drained";
  EXPECT_LT(wheel.wheel.retained_bytes(), 8 * peak_resident * sizeof(QueueEntry))
      << "peak resident " << peak_resident;
}

}  // namespace
}  // namespace gs::sim
