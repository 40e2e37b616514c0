// Microbenchmarks of the hot kernels (google-benchmark): rate solver,
// priority computation, Algorithm 1 greedy, buffer-map codec, stream
// buffer, event queue — plus end-to-end engine runs (dispatch, candidate
// build, sharded core, full pipeline, million-peer footprint).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>

#include "core/fast_switch.hpp"
#include "core/priority.hpp"
#include "core/rate_solver.hpp"
#include "core/supplier_selection.hpp"
#include "experiments/config.hpp"
#include "experiments/scenario.hpp"
#include "gossip/buffer_map.hpp"
#include "sim/simulator.hpp"
#include "stream/stream_buffer.hpp"
#include "util/rng.hpp"

namespace {

using gs::stream::CandidateSegment;
using gs::stream::ScheduleContext;
using gs::stream::StreamEpoch;
using gs::stream::SupplierView;

void BM_RateSolverUnconstrained(benchmark::State& state) {
  gs::core::SplitInput in{128, 50, 10, 10, 15};
  for (auto _ : state) {
    in.q1 = 50.0 + std::fmod((in.q1 + 1.0) * 31.0, 200.0);  // vary inputs to defeat CSE
    benchmark::DoNotOptimize(gs::core::solve_unconstrained(in));
  }
}
BENCHMARK(BM_RateSolverUnconstrained);

void BM_RateSolverCapped(benchmark::State& state) {
  gs::core::SplitInput in{128, 50, 10, 10, 15};
  double o1 = 8.0;
  for (auto _ : state) {
    o1 = 1.0 + (o1 * 7.0 + 3.0) * 0.5;
    if (o1 > 30.0) o1 = 1.0;
    benchmark::DoNotOptimize(gs::core::solve_capped(in, o1, 12.0 - o1 * 0.2));
  }
}
BENCHMARK(BM_RateSolverCapped);

/// `count` candidates with `suppliers` random suppliers each; candidate i's
/// list is the slice [i * suppliers, (i + 1) * suppliers) of `store`, as the
/// engine's candidate build lays a plan's lists out.
std::vector<CandidateSegment> make_candidates(std::size_t count, std::size_t suppliers,
                                              gs::util::Rng& rng,
                                              std::vector<SupplierView>& store) {
  store.assign(count * suppliers, SupplierView{});
  std::vector<CandidateSegment> candidates(count);
  for (std::size_t i = 0; i < count; ++i) {
    candidates[i].id = 100 + static_cast<gs::stream::SegmentId>(i);
    candidates[i].epoch = i % 3 == 0 ? StreamEpoch::kNew : StreamEpoch::kOld;
    for (std::size_t j = 0; j < suppliers; ++j) {
      SupplierView& s = store[i * suppliers + j];
      s.node = static_cast<gs::net::NodeId>(j);
      s.send_rate = rng.uniform(10.0, 33.0);
      s.buffer_position = static_cast<std::size_t>(rng.uniform_int(1, 600));
    }
    candidates[i].suppliers =
        std::span<const SupplierView>(store).subspan(i * suppliers, suppliers);
  }
  return candidates;
}

ScheduleContext bench_ctx() {
  ScheduleContext ctx;
  ctx.id_play = 95;
  ctx.playback_rate = 10.0;
  ctx.inbound_rate = 15.0;
  ctx.buffer_capacity = 600;
  ctx.max_requests = 15;
  ctx.s1_end = 160;
  ctx.s2_begin = 161;
  ctx.q1_remaining = 60;
  ctx.q2_remaining = 50;
  return ctx;
}

void BM_PriorityKernel(benchmark::State& state) {
  gs::util::Rng rng(1);
  std::vector<SupplierView> store;
  const auto candidates = make_candidates(static_cast<std::size_t>(state.range(0)), 5, rng, store);
  ScheduleContext ctx = bench_ctx();
  gs::util::Rng node_rng(4);
  ctx.rng = &node_rng;
  const gs::core::PriorityParams params;
  gs::core::ScheduleScratch scratch;
  for (auto _ : state) {
    gs::core::sort_by_priority(ctx, candidates, params, scratch);
    benchmark::DoNotOptimize(scratch.order.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_PriorityKernel)->Arg(32)->Arg(128)->Arg(512);

void BM_GreedyAssign(benchmark::State& state) {
  gs::util::Rng rng(2);
  std::vector<SupplierView> store;
  const auto base = make_candidates(static_cast<std::size_t>(state.range(0)), 5, rng, store);
  const ScheduleContext ctx = bench_ctx();
  gs::core::ScheduleScratch scratch;
  for (std::size_t i = 0; i < base.size(); ++i) {
    scratch.priorities.push_back(1.0 / (1.0 + static_cast<double>(i)));
    scratch.order.push_back(static_cast<std::uint32_t>(i));
  }
  for (auto _ : state) {
    gs::core::greedy_assign(ctx, base, scratch);
    benchmark::DoNotOptimize(scratch.assignments.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_GreedyAssign)->Arg(32)->Arg(128)->Arg(512);

void BM_FastSwitchSchedule(benchmark::State& state) {
  gs::util::Rng rng(3);
  // schedule() leaves the candidates untouched, so one list serves every
  // iteration.
  std::vector<SupplierView> store;
  auto candidates = make_candidates(static_cast<std::size_t>(state.range(0)), 5, rng, store);
  ScheduleContext ctx = bench_ctx();
  gs::util::Rng node_rng(4);
  ctx.rng = &node_rng;
  gs::core::FastSwitchScheduler scheduler;
  for (auto _ : state) {
    benchmark::DoNotOptimize(scheduler.schedule(ctx, candidates));
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_FastSwitchSchedule)->Arg(32)->Arg(128)->Arg(512);

void BM_BufferMapEncodeDecode(benchmark::State& state) {
  gs::util::Rng rng(5);
  gs::gossip::BufferMap map(123456, 600);
  for (gs::gossip::SegmentId id = 123456; id < 123456 + 600; ++id) {
    if (rng.bernoulli(0.6)) map.mark(id);
  }
  for (auto _ : state) {
    const auto bytes = map.encode();
    benchmark::DoNotOptimize(gs::gossip::BufferMap::decode(bytes, 600, 123000));
  }
}
BENCHMARK(BM_BufferMapEncodeDecode);

void BM_StreamBufferInsert(benchmark::State& state) {
  gs::stream::StreamBuffer buffer(600);
  gs::stream::SegmentId id = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(buffer.insert(id++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StreamBufferInsert);

// Events on the simulator's timing wheel: schedule a batch spread over 1000
// one-second buckets, then drain it.  Every event is a pooled sink call
// with its payload inline, so the loop never allocates per event.
struct CountingSink final : gs::sim::EventSink {
  int count = 0;
  void on_event(std::uint64_t, std::uint64_t) override { ++count; }
};

void BM_SimulatorPooledScheduleRun(benchmark::State& state) {
  for (auto _ : state) {
    gs::sim::Simulator sim;
    CountingSink sink;
    for (int i = 0; i < state.range(0); ++i) {
      sim.at(static_cast<double>((i * 7919) % 1000), sink, static_cast<std::uint64_t>(i), 0);
    }
    benchmark::DoNotOptimize(sim.run_all());
    benchmark::DoNotOptimize(sink.count);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulatorPooledScheduleRun)->ArgNames({"events"})->Arg(1000)->Arg(10000);

// Engine dispatch cost: a full (trimmed-horizon) switch experiment per
// iteration; events_popped counts the tick sweeps, deliveries and control
// events the run dispatched, so the rows show how dispatch scales with N.
void BM_EngineDispatch(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  std::uint64_t events = 0;
  std::uint64_t delivered = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gs::exp::Config config =
        gs::exp::Config::paper_static(nodes, gs::exp::AlgorithmKind::kFast, 1);
    config.engine.horizon = 15.0;        // dispatch cost, not paper metrics
    config.engine.history_seconds = 30.0;
    auto engine = gs::exp::make_engine(config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine->run());
    events += engine->stats().events_popped;
    delivered += engine->stats().segments_delivered;
    ++runs;
  }
  state.counters["events_popped"] =
      benchmark::Counter(static_cast<double>(events) / static_cast<double>(runs));
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / static_cast<double>(runs));
}
BENCHMARK(BM_EngineDispatch)
    ->ArgNames({"peers"})
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Candidate-build cost: a trimmed-horizon experiment whose plans build
// their candidates from the neighbours' presence bits.  availability_probes
// counts the (candidate, neighbour) pairs the builds stand for, so the rows
// show how scan work scales with the overlay.
void BM_BuildCandidates(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  std::uint64_t probes = 0;
  std::uint64_t delivered = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gs::exp::Config config =
        gs::exp::Config::paper_static(nodes, gs::exp::AlgorithmKind::kFast, 1);
    config.engine.horizon = 15.0;        // scan cost, not paper metrics
    config.engine.history_seconds = 30.0;
    auto engine = gs::exp::make_engine(config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine->run());
    probes += engine->stats().availability_probes;
    delivered += engine->stats().segments_delivered;
    ++runs;
  }
  state.counters["availability_probes"] =
      benchmark::Counter(static_cast<double>(probes) / static_cast<double>(runs));
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / static_cast<double>(runs));
}
BENCHMARK(BM_BuildCandidates)
    ->ArgNames({"peers"})
    ->Arg(100)
    ->Arg(1000)
    ->Arg(10000)
    ->Unit(benchmark::kMillisecond);

// Sharded-core scaling: the same trimmed-horizon experiment sequential
// (shards=0) vs on the sharded parallel core, at the scale configuration
// (wide tick shards so one sweep carries enough planning work to amortise
// the fork/join).  The rows of a size share the seed and produce
// bit-identical metrics (stream_determinism_test's ParallelShards suite and
// Golden rows enforce that); only wall clock and the shard and drain
// diagnostics differ, so the row pair is the speedup measurement.  The
// drain counter (delivery_batches) reports how much of the delivery path
// the batched drain absorbed.  Emit BENCH_*.json via
//   bench_micro_core --benchmark_filter=BM_ShardedDispatch
//     --benchmark_out=BENCH_sharded_dispatch.json --benchmark_out_format=json
void BM_ShardedDispatch(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  std::uint64_t delivered = 0;
  std::uint64_t sweeps = 0;
  std::uint64_t batches = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gs::exp::Config config =
        gs::exp::Config::paper_static(nodes, gs::exp::AlgorithmKind::kFast, 1);
    config.engine.parallel_shards = shards;
    config.engine.tick_shard_size = 256;   // the scale grain (see README)
    config.engine.horizon = nodes >= 100000 ? 5.0 : 10.0;
    config.engine.history_seconds = nodes >= 100000 ? 20.0 : 30.0;
    auto engine = gs::exp::make_engine(config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine->run());
    delivered += engine->stats().segments_delivered;
    sweeps += engine->stats().parallel_sweeps;
    batches += engine->stats().delivery_batches;
    ++runs;
  }
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / static_cast<double>(runs));
  state.counters["parallel_sweeps"] =
      benchmark::Counter(static_cast<double>(sweeps) / static_cast<double>(runs));
  state.counters["delivery_batches"] =
      benchmark::Counter(static_cast<double>(batches) / static_cast<double>(runs));
}
BENCHMARK(BM_ShardedDispatch)
    ->ArgNames({"peers", "shards"})
    ->Args({10000, 0})
    ->Args({10000, 4})
    ->Args({100000, 0})
    ->Args({100000, 4})
    ->Unit(benchmark::kMillisecond);

// Whole-pipeline throughput, sequential vs the sharded core, at N=100000:
// the configuration the scale runs use; the memory counters come from the
// engine's end-of-run telemetry.  Emit BENCH_*.json via
//   bench_micro_core --benchmark_filter=BM_FullPipeline
//     --benchmark_out=BENCH_full_pipeline.json --benchmark_out_format=json
void BM_FullPipeline(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  const auto shards = static_cast<std::size_t>(state.range(1));
  std::uint64_t delivered = 0;
  std::uint64_t events = 0;
  double bytes_per_peer = 0.0;
  std::uint64_t colour_classes = 0;
  std::uint64_t commits = 0;
  std::uint64_t wheeled = 0;
  std::uint64_t late = 0;
  std::uint64_t promotions = 0;
  std::uint64_t spill_peak = 0;
  std::uint64_t built = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gs::exp::Config config =
        gs::exp::Config::paper_static(nodes, gs::exp::AlgorithmKind::kFast, 1);
    config.engine.parallel_shards = shards;
    config.engine.tick_shard_size = 256;   // the scale grain (see README)
    config.engine.horizon = 5.0;           // pipeline cost, not paper metrics
    config.engine.history_seconds = 20.0;
    auto engine = gs::exp::make_engine(config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine->run());
    delivered += engine->stats().segments_delivered;
    events += engine->stats().events_popped;
    bytes_per_peer += engine->stats().bytes_per_peer;
    colour_classes += engine->stats().commit_colour_classes;
    commits += engine->stats().parallel_commits;
    wheeled += engine->stats().events_wheeled;
    late += engine->stats().wheel_late_arrivals;
    promotions += engine->stats().wheel_overflow_promotions;
    spill_peak = std::max(spill_peak, engine->stats().spill_heap_peak);
    built += engine->stats().plans_built;
    ++runs;
  }
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / static_cast<double>(runs));
  state.counters["events_popped"] =
      benchmark::Counter(static_cast<double>(events) / static_cast<double>(runs));
  state.counters["bytes_per_peer"] =
      benchmark::Counter(bytes_per_peer / static_cast<double>(runs));
  state.counters["commit_colour_classes"] =
      benchmark::Counter(static_cast<double>(colour_classes) / static_cast<double>(runs));
  state.counters["parallel_commits"] =
      benchmark::Counter(static_cast<double>(commits) / static_cast<double>(runs));
  state.counters["events_wheeled"] =
      benchmark::Counter(static_cast<double>(wheeled) / static_cast<double>(runs));
  state.counters["wheel_late_arrivals"] =
      benchmark::Counter(static_cast<double>(late) / static_cast<double>(runs));
  state.counters["wheel_overflow_promotions"] =
      benchmark::Counter(static_cast<double>(promotions) / static_cast<double>(runs));
  state.counters["spill_heap_peak"] = benchmark::Counter(static_cast<double>(spill_peak));
  state.counters["plans_built"] =
      benchmark::Counter(static_cast<double>(built) / static_cast<double>(runs));
}
BENCHMARK(BM_FullPipeline)
    ->ArgNames({"peers", "shards"})
    ->Args({100000, 0})
    ->Args({100000, 4})
    ->Unit(benchmark::kMillisecond);

// Million-peer memory smoke: one trimmed-dynamics switch experiment at
// N=10^6.  The point is the footprint, not the wall clock: bytes_per_peer
// comes from the engine's container accounting and peak_rss_mb from the
// process high-water mark.  Emit BENCH_*.json via
//   bench_micro_core --benchmark_filter=BM_MillionPeer
//     --benchmark_out=BENCH_million_peer.json --benchmark_out_format=json
void BM_MillionPeer(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  std::uint64_t delivered = 0;
  double bytes_per_peer = 0.0;
  double peak_rss = 0.0;
  std::uint64_t wheeled = 0;
  std::uint64_t built = 0;
  std::uint64_t runs = 0;
  for (auto _ : state) {
    state.PauseTiming();
    gs::exp::Config config =
        gs::exp::Config::paper_static(nodes, gs::exp::AlgorithmKind::kFast, 1);
    config.engine.tick_shard_size = 1024;  // wide sweeps; dispatch is not the point
    config.engine.horizon = 2.0;           // memory smoke, not paper metrics
    config.engine.history_seconds = 10.0;
    auto engine = gs::exp::make_engine(config);
    state.ResumeTiming();
    benchmark::DoNotOptimize(engine->run());
    delivered += engine->stats().segments_delivered;
    bytes_per_peer += engine->stats().bytes_per_peer;
    peak_rss += static_cast<double>(engine->stats().peak_rss_bytes);
    wheeled += engine->stats().events_wheeled;
    built += engine->stats().plans_built;
    ++runs;
  }
  state.counters["delivered"] =
      benchmark::Counter(static_cast<double>(delivered) / static_cast<double>(runs));
  state.counters["bytes_per_peer"] =
      benchmark::Counter(bytes_per_peer / static_cast<double>(runs));
  state.counters["peak_rss_mb"] =
      benchmark::Counter(peak_rss / static_cast<double>(runs) / (1024.0 * 1024.0));
  state.counters["events_wheeled"] =
      benchmark::Counter(static_cast<double>(wheeled) / static_cast<double>(runs));
  state.counters["plans_built"] =
      benchmark::Counter(static_cast<double>(built) / static_cast<double>(runs));
}
BENCHMARK(BM_MillionPeer)
    ->ArgNames({"peers"})
    ->Arg(1000000)
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
