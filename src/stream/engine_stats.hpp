// Engine telemetry: every counter the engine keeps is declared once, as a
// row of GS_ENGINE_STATS below.  The EngineStats struct, the row table
// kStatRows and the for_each_stat visitor are generated from it, so the
// diagnostics table (sweep_cli --print-diagnostics), the micro-bench
// counters and the determinism digests iterate the rows instead of naming
// fields.  A new counter is one new row.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iterator>

namespace gs::stream {

/// What a row's value depends on, and so where it may be compared.
enum class StatClass : std::uint8_t {
  /// Simulation output: fixed-seed deterministic and equal at every shard
  /// count.  The Golden digests and bench/e2e's digest hash these rows.
  kOutput,
  /// Fixed-seed deterministic for a given config; may depend on the shard
  /// count.
  kCounter,
  /// A byte footprint: depends on the allocator or the machine.  0 or NaN
  /// means the telemetry is absent, not a measured zero.
  kMemory,
  /// Always 0; kept only because the end-to-end benchmark (bench/e2e)
  /// still reads it.
  kRetired,
};

// X(type, name, class, unit, meaning): one row per EngineStats field, in
// struct order.  Every field is 8 bytes wide.
#define GS_ENGINE_STATS(X)                                                                         \
  X(std::uint64_t, segments_generated, kOutput, "segments", "segments the sources generated")      \
  X(std::uint64_t, segments_delivered, kOutput, "segments", "fresh swarm or CDN deliveries")       \
  X(std::uint64_t, segments_pushed, kOutput, "segments", "unsolicited fresh-segment pushes")       \
  X(std::uint64_t, requests_issued, kOutput, "requests", "pull requests a supplier accepted")      \
  X(std::uint64_t, requests_rejected, kOutput, "requests", "pull requests a supplier refused")     \
  X(std::uint64_t, duplicates, kOutput, "segments", "deliveries of a segment already held")        \
  X(std::size_t, joins, kOutput, "peers", "churn and flash-crowd joins")                           \
  X(std::size_t, leaves, kOutput, "peers", "churn departures")                                     \
  X(std::uint64_t, split_ticks, kOutput, "ticks", "ticks planned under an old/new split")          \
  X(std::uint64_t, old_stream_requests, kOutput, "requests", "old-stream requests during splits")  \
  X(std::uint64_t, new_stream_requests, kOutput, "requests", "new-stream requests during splits")  \
  X(std::uint64_t, events_popped, kCounter, "events", "simulator events popped")                   \
  X(std::uint64_t, availability_probes, kCounter, "probes", "(candidate, neighbour) pairs built")  \
  X(std::uint64_t, index_updates, kRetired, "updates", "no availability index exists")             \
  X(std::uint64_t, plans_gated, kRetired, "plans", "no gate skips a build")                        \
  X(std::uint64_t, plans_built, kCounter, "plans", "ticks whose build was non-empty")              \
  X(std::uint64_t, full_map_adverts, kCounter, "adverts", "full maps sent under delta_maps")       \
  X(std::uint64_t, delta_adverts, kCounter, "adverts", "deltas sent under delta_maps")             \
  X(std::uint64_t, parallel_sweeps, kCounter, "sweeps", "sweeps run by the sharded core")          \
  X(std::uint64_t, replanned_ticks, kRetired, "ticks", "no plan is re-made")                       \
  X(std::uint64_t, commit_conflict_fixups, kRetired, "commits", "no commit needs a fixup")         \
  X(std::uint64_t, cross_shard_events, kRetired, "events", "the simulator keeps one wheel")        \
  X(std::uint64_t, delivery_batches, kCounter, "batches", "delivery runs drained in batch")        \
  X(std::uint64_t, superbatch_sweeps, kRetired, "sweeps", "a sweep is one group's event")          \
  X(std::uint64_t, delta_journal_merges, kRetired, "merges", "the drain keeps no journals")        \
  X(std::uint64_t, commit_colour_classes, kCounter, "classes", "classes of all commit waves")      \
  X(std::uint64_t, parallel_commits, kCounter, "commits", "members planned on the lanes")          \
  X(std::uint64_t, arena_steady_chunks, kRetired, "chunks", "no arena exists")                     \
  X(std::uint64_t, events_wheeled, kCounter, "events", "events scheduled into the wheel")          \
  X(std::uint64_t, wheel_late_arrivals, kCounter, "events", "schedules into the drained bucket")   \
  X(std::uint64_t, wheel_overflow_promotions, kCounter, "events", "moves from spill heap to ring") \
  X(std::uint64_t, spill_heap_peak, kCounter, "events", "the spill heap's peak size")              \
  X(std::size_t, flash_joins, kCounter, "peers", "flash-crowd joiners admitted")                   \
  X(std::uint64_t, cdn_segments_served, kOutput, "segments", "patch segments the CDN sent")        \
  X(std::uint64_t, cdn_bytes_served, kOutput, "B", "patch wire bytes the CDN sent")                \
  X(std::uint64_t, cdn_requests_rejected, kOutput, "requests", "patches refused: backlog full")    \
  X(std::size_t, cdn_assisted_switches, kOutput, "switches", "(peer, switch) enrollments")         \
  X(std::size_t, cdn_handoffs, kOutput, "handoffs", "coverage-driven handoffs")                    \
  X(std::uint64_t, cdn_pauses, kOutput, "pauses", "rest-play pauses of a burst")                   \
  X(std::uint64_t, cdn_resumes, kOutput, "resumes", "underrun resumes of a burst")                 \
  X(double, cdn_mean_assist_s, kOutput, "s", "mean enrollment-to-handoff or exit time")            \
  X(std::uint64_t, peer_state_bytes, kMemory, "B", "heap of all per-peer state at run end")        \
  X(double, bytes_per_peer, kMemory, "B", "peer_state_bytes per final peer")                       \
  X(std::uint64_t, peak_rss_bytes, kMemory, "B", "the whole process's peak RSS so far")            \
  X(std::uint64_t, event_queue_bytes, kMemory, "B", "timing-wheel entry storage (its peak)")       \
  X(std::uint64_t, candidates_offered, kCounter, "segments", "candidates of non-empty builds")     \
  X(std::uint64_t, requests_scheduled, kCounter, "requests", "requests the strategy scheduled")

/// Aggregate engine statistics (diagnostics; not paper metrics), one field
/// per GS_ENGINE_STATS row.
struct EngineStats {
#define GS_STAT_FIELD(type, name, cls, unit, meaning) type name = 0;
  GS_ENGINE_STATS(GS_STAT_FIELD)
#undef GS_STAT_FIELD
};

/// What the consumers read of a GS_ENGINE_STATS row (the meaning column
/// documents the table only).
struct StatRow {
  const char* name;
  StatClass cls;
  const char* unit;
};

inline constexpr StatRow kStatRows[] = {
#define GS_STAT_ROW(type, name, cls, unit, meaning) {#name, StatClass::cls, unit},
    GS_ENGINE_STATS(GS_STAT_ROW)
#undef GS_STAT_ROW
};

// A field declared outside the table would have no row.
static_assert(sizeof(EngineStats) == 8 * std::size(kStatRows));

/// Calls fn(row, field) for every row in struct order, where `field` is the
/// row's pointer to EngineStats member: `stats.*field` reads the value of
/// any EngineStats, so one visit can walk several side by side.
template <typename Fn>
void for_each_stat(Fn&& fn) {
  const StatRow* row = kStatRows;
#define GS_STAT_VISIT(type, name, cls, unit, meaning) fn(*row++, &EngineStats::name);
  GS_ENGINE_STATS(GS_STAT_VISIT)
#undef GS_STAT_VISIT
}

}  // namespace gs::stream
