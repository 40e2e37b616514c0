// Property tests for the event queue's ordering contract and the batched
// tick dispatcher.
//
// The contract under test is what every determinism guarantee in the repo
// rests on: events pop in (time, insertion-sequence) order — a stable sort
// of the schedule — no matter how insertions, ties, cancellations and
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

#include "sim/event_queue.hpp"
#include "sim/periodic.hpp"
#include "sim/simulator.hpp"
#include "util/rng.hpp"

namespace gs::sim {
namespace {

struct Scheduled {
  Time at = 0.0;
  int tag = 0;
  EventId id = 0;
  bool cancelled = false;
};

/// Pops everything and records the tags in execution order.
std::vector<int> drain(EventQueue& queue, std::vector<int>& fired) {
  while (!queue.empty()) queue.pop_and_run();
  return fired;
}

/// Records each event's payload word `a` as its tag.
struct RecordingSink final : EventSink {
  std::vector<int>* fired = nullptr;
  void on_event(std::uint64_t a, std::uint64_t /*b*/) override {
    fired->push_back(static_cast<int>(a));
  }
};

TEST(EventQueueProperty, TiesPopInInsertionOrderUnderRandomInterleaving) {
  util::Rng rng(2024);
  for (int trial = 0; trial < 50; ++trial) {
    EventQueue queue;
    std::vector<int> fired;
    RecordingSink sink;
    sink.fired = &fired;
    std::vector<Scheduled> reference;
    const int count = 3 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < count; ++i) {
      // A small discrete time domain forces heavy timestamp collisions.
      const Time at = static_cast<Time>(rng.uniform_int(0, 5));
      Scheduled s;
      s.at = at;
      s.tag = i;
      s.id = queue.schedule(at, sink, static_cast<std::uint64_t>(i), 0);
      reference.push_back(s);
    }
    // Random cancellations (the churn path).
    for (Scheduled& s : reference) {
      if (rng.bernoulli(0.2)) {
        EXPECT_TRUE(queue.cancel(s.id));
        s.cancelled = true;
      }
    }
    std::vector<int> expected;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const Scheduled& a, const Scheduled& b) { return a.at < b.at; });
    for (const Scheduled& s : reference) {
      if (!s.cancelled) expected.push_back(s.tag);
    }
    EXPECT_EQ(drain(queue, fired), expected) << "trial " << trial;
  }
}

TEST(EventQueueProperty, TwoSinksShareOneOrderingDomain) {
  util::Rng rng(77);
  for (int trial = 0; trial < 50; ++trial) {
    EventQueue queue;
    std::vector<int> fired;
    RecordingSink sink;
    sink.fired = &fired;
    RecordingSink other;
    other.fired = &fired;
    std::vector<Scheduled> reference;
    const int count = 3 + static_cast<int>(rng.uniform_int(0, 60));
    for (int i = 0; i < count; ++i) {
      const Time at = static_cast<Time>(rng.uniform_int(0, 5));
      Scheduled s;
      s.at = at;
      s.tag = i;
      s.id = queue.schedule(at, rng.bernoulli(0.5) ? sink : other,
                            static_cast<std::uint64_t>(i), 0);
      reference.push_back(s);
    }
    std::vector<int> expected;
    std::stable_sort(reference.begin(), reference.end(),
                     [](const Scheduled& a, const Scheduled& b) { return a.at < b.at; });
    for (const Scheduled& s : reference) expected.push_back(s.tag);
    EXPECT_EQ(drain(queue, fired), expected) << "trial " << trial;
  }
}

TEST(EventQueueProperty, EventsCancelOnceAndOnlyWhilePending) {
  EventQueue queue;
  std::vector<int> fired;
  RecordingSink sink;
  sink.fired = &fired;
  const EventId keep = queue.schedule(1.0, sink, 1, 0);
  const EventId drop = queue.schedule(1.0, sink, 2, 0);
  EXPECT_TRUE(queue.cancel(drop));
  EXPECT_FALSE(queue.cancel(drop));
  queue.pop_and_run();
  EXPECT_TRUE(queue.empty());
  EXPECT_FALSE(queue.cancel(keep));
  EXPECT_EQ(fired, (std::vector<int>{1}));
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

/// Batchable: mimics the transfer plane's delivery drain (processing
/// schedules nothing, so runs span timestamps).  Records (time, tag) per
/// item.  With `batch` cleared it opts out of batched pops (the single-pop
/// reference, or a second sink that breaks runs).
struct BatchableSink final : EventSink {
  std::vector<Observation>* fired = nullptr;
  Simulator* sim = nullptr;
  bool batch = true;
  std::uint64_t batches = 0;
  void on_event(std::uint64_t a, std::uint64_t /*b*/) override {
    fired->emplace_back(sim->now(), static_cast<std::uint32_t>(a));
  }
  [[nodiscard]] bool batchable() const noexcept override { return batch; }
  void on_batch(const PooledBatchItem* items, std::size_t count) override {
    ++batches;
    for (std::size_t i = 0; i < count; ++i) {
      fired->emplace_back(items[i].at, static_cast<std::uint32_t>(items[i].a));
    }
  }
};

TEST(BatchPopProperty, BatchedRunsPreserveThePopOrderAcrossTimes) {
  // The delivery-drain contract: with the sink opted into batched pops, a
  // mix of its events and events of a second, non-batchable sink must
  // observe exactly the (time, sequence) order the unbatched loop produces
  // — runs merely arrive through on_batch, carrying each item's own fire
  // time.
  util::Rng rng(99);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Observation> batched;
    std::vector<Observation> reference;
    std::uint64_t batch_count = 0;
    for (const bool batch : {true, false}) {
      Simulator sim;
      BatchableSink sink;
      sink.batch = batch;
      BatchableSink breaker;
      breaker.batch = false;
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
      const std::size_t ran = sim.run_until(20.0);
      EXPECT_EQ(ran, 120u);
      if (batch) batch_count = sink.batches;
    }
    EXPECT_EQ(batched, reference) << "trial " << trial;
    EXPECT_GT(batch_count, 0u);
  }
}

TEST(BatchPopProperty, NonBatchableSinksPopSingly) {
  Simulator sim;
  RecordingSink sink;  // batchable() = false
  std::vector<int> ints;
  sink.fired = &ints;
  for (int i = 0; i < 5; ++i) sim.at(1.0, sink, static_cast<std::uint64_t>(i), 0);
  sim.run_until(2.0);
  EXPECT_EQ(ints, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(BatchPopProperty, CancelledEntriesInsideBatchedRunsNeverFire) {
  // pop_batch must skip a cancelled entry exactly where a single pop does.
  // The same seeded script (events on a batchable sink mixed with a
  // second, non-batchable sink's, a random subset cancelled before the run
  // and another mid-run) must fire the same sequence batched as popped
  // singly through a non-batchable sink, and no cancelled tag may fire.
  constexpr std::uint32_t kEvents = 120;
  constexpr std::uint32_t kBreakerTag = 100000;
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Observation> batched;
    std::vector<Observation> single;
    std::vector<bool> batched_hits;
    std::vector<bool> single_hits;
    std::vector<bool> cancelled(kEvents, false);
    std::uint64_t batch_count = 0;
    for (const bool batch : {true, false}) {
      Simulator sim;
      BatchableSink sink;
      sink.batch = batch;
      BatchableSink breaker;
      breaker.batch = false;
      std::vector<Observation>& out = batch ? batched : single;
      std::vector<bool>& hits = batch ? batched_hits : single_hits;
      sink.fired = &out;
      sink.sim = &sim;
      breaker.fired = &out;
      breaker.sim = &sim;
      util::Rng gen(static_cast<std::uint64_t>(trial) + 101);
      std::vector<EventId> ids;
      for (std::uint32_t tag = 0; tag < kEvents; ++tag) {
        const Time at = std::floor(gen.uniform(0.0, 12.0));  // dense ties
        if (gen.bernoulli(0.75)) {
          ids.push_back(sim.at(at, sink, tag, 0));
        } else {
          ids.push_back(sim.at(at, breaker, kBreakerTag + tag, 0));
        }
      }
      const auto cancel_some = [&] {
        for (int k = 0; k < 20; ++k) {
          const auto tag = static_cast<std::uint32_t>(gen.uniform_int(0, kEvents - 1));
          const bool hit = sim.cancel(ids[tag]);
          hits.push_back(hit);
          if (hit) cancelled[tag] = true;
        }
      };
      cancel_some();
      sim.run_until(5.0);
      cancel_some();  // some victims already fired; both legs must agree
      sim.run_until(20.0);
      EXPECT_FALSE(sim.pending());
      if (batch) batch_count = sink.batches;
    }
    EXPECT_EQ(batched_hits, single_hits) << "trial " << trial;
    EXPECT_EQ(batched, single) << "trial " << trial;
    EXPECT_GT(batch_count, 0u);
    const auto cancelled_count =
        static_cast<std::size_t>(std::count(cancelled.begin(), cancelled.end(), true));
    EXPECT_EQ(batched.size(), kEvents - cancelled_count) << "trial " << trial;
    for (const Observation& o : batched) {
      EXPECT_FALSE(cancelled[o.second % kBreakerTag])
          << "cancelled tag " << o.second << " fired, trial " << trial;
    }
  }
}

// --------------------------------------------------- timing-wheel store ---
//
// The wheel's entire contract is the global (time, sequence) pop order:
// whatever the workload, the pop sequence must be exactly that of one
// binary heap over every pending entry.  These properties drive the queue
// and such a heap with the same random scripts and compare execution traces.

/// Reference model of the queue: one (time, id) binary heap over every
/// pending entry.  Ids are assigned in scheduling order like EventQueue's.
class ReferenceQueue {
 public:
  /// Events run as closures: the reference models ordering only.
  EventId schedule(Time at, EventSink& sink, std::uint64_t a, std::uint64_t b) {
    heap_.push_back({at, next_id_, [&sink, a, b] { sink.on_event(a, b); }});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    return next_id_++;
  }

  bool cancel(EventId id) {
    const auto it = std::find_if(heap_.begin(), heap_.end(),
                                 [id](const Entry& e) { return e.id == id; });
    if (it == heap_.end()) return false;
    heap_.erase(it);
    std::make_heap(heap_.begin(), heap_.end(), Later{});
    return true;
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

/// Loads a script into one queue; returns the ids of the top-level entries.
template <typename Queue>
std::vector<EventId> load_script(Queue& queue, ScriptSink<Queue>& sink,
                                 const std::vector<WheelScript>& script) {
  sink.queue = &queue;
  sink.script = &script;
  std::vector<EventId> ids;
  for (const WheelScript& s : script) {
    ids.push_back(queue.schedule(s.at, sink, static_cast<std::uint64_t>(s.tag), 0));
  }
  return ids;
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
      EventQueue wheel(quantum);
      ScriptSink<ReferenceQueue> reference_sink;
      ScriptSink<EventQueue> wheel_sink;
      const std::vector<WheelScript> script = random_script(rng, 150);
      const std::vector<EventId> reference_ids = load_script(reference, reference_sink, script);
      const std::vector<EventId> wheel_ids = load_script(wheel, wheel_sink, script);
      // Random cancellations, mirrored; both queues must agree on hits.
      for (int k = 0; k < 25; ++k) {
        const auto victim = static_cast<std::size_t>(rng.uniform_int(0, 149));
        EXPECT_EQ(reference.cancel(reference_ids[victim]), wheel.cancel(wheel_ids[victim]));
      }
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
      EXPECT_GT(wheel.wheel_telemetry().scheduled, 0u);
    }
  }
}

TEST(TimingWheelProperty, FarHorizonWorkloadExercisesSpill) {
  // Telemetry sanity: a workload far beyond the near ring's horizon must
  // route through the spill heap (a non-empty spill peak, promotions into
  // the ring as the cursor advances) and still pop in nondecreasing time
  // order.
  util::Rng rng(2718);
  EventQueue queue;
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
  const TimingWheel::Telemetry telemetry = queue.wheel_telemetry();
  EXPECT_EQ(telemetry.scheduled, 400u);
  EXPECT_GT(telemetry.overflow_promotions, 0u)
      << "50000s horizon never promoted out of the spill heap";
  EXPECT_GT(telemetry.spill_peak, 0u)
      << "50000s horizon never reached the spill heap (the near ring covers 256s)";
}

TEST(BatchTickerProperty, DestructionCancelsPendingSweeps) {
  Simulator sim;
  int fired = 0;
  {
    BatchTicker ticker(sim, 1.0, [&fired](const std::vector<std::uint32_t>& members, Time) {
      fired += static_cast<int>(members.size());
    });
    ticker.add_member(ticker.add_group(1.0), 7);
    sim.run_until(1.5);
    EXPECT_EQ(fired, 1);
  }
  sim.run_until(10.0);
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace gs::sim
