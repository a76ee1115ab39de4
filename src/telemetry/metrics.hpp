// Per-job telemetry: cheap monotonic counters aggregated into a
// JobTelemetry snapshot.
//
// Determinism contract: every field of TelemetryCounters is flushed only
// for COMMITTED frontier levels (FrontierEngine::commit is the single
// flush point; a truncated level contributes exactly one
// budget_early_aborts tick and nothing else), so the counts are identical
// across thread counts. They DO depend on the execution shape
// (--chunk, --frontier): a different chunk partition dedups views at
// different boundaries and plans dense/sparse per chunk. Timings
// (LevelTiming::seconds, JobTelemetry::wall_seconds) are wall clock and
// never deterministic; the JSON "telemetry" section embeds counters only.
//
// Named src/telemetry (not metrics) to avoid clashing with the paper's
// core/metrics.* distance metrics.
#pragma once

#include <atomic>
#include <cstdint>
#include <vector>

namespace topocon::telemetry {

class TraceWriter;

/// Expansion statistics accumulated inside a PendingFrontier while its
/// view table is still chunk-local. expand() fills one per chunk,
/// merge() sums them across a root's chunks (adding the cross-chunk view
/// dedup it performs itself), and commit() flushes the merged totals into
/// the job's MetricsRegistry.
struct PendingStats {
  std::uint64_t chunks = 0;             ///< chunk expansions folded in
  std::uint64_t dense_view_chunks = 0;  ///< chunks planned dense for views
  std::uint64_t emissions = 0;          ///< (parent, letter) child emissions
  std::uint64_t pending_views = 0;      ///< distinct uninterned views
  std::uint64_t rehashes = 0;           ///< WordSeqIndex growth rehashes

  void add(const PendingStats& other);
};

/// Monotonic per-job counters. All values are deterministic for a fixed
/// query + chunk size + frontier mode, at any thread count.
struct TelemetryCounters {
  std::uint64_t states_expanded = 0;     ///< child emissions scanned
  std::uint64_t states_committed = 0;    ///< states surviving into levels
  std::uint64_t pending_views = 0;       ///< distinct views before interning
  std::uint64_t views_interned = 0;      ///< ViewInterner growth
  std::uint64_t chunks_expanded = 0;     ///< chunk expansions committed
  std::uint64_t dense_view_chunks = 0;   ///< chunks on the dense view path
  std::uint64_t wordseq_rehashes = 0;    ///< sparse-table growth rehashes
  std::uint64_t levels_committed = 0;    ///< committed (root-set, level) steps
  std::uint64_t budget_early_aborts = 0; ///< levels truncated by max_states
  std::uint64_t frontier_high_water = 0; ///< largest committed frontier

  friend bool operator==(const TelemetryCounters&,
                         const TelemetryCounters&) = default;
};

/// Out-of-core spill totals (core/spill.*), commit-only like every other
/// counter: discarded passes leave no trace. Deterministic for a fixed
/// query + chunk size + frontier mode + spill budget, at any thread
/// count. Never serialized into artifacts -- telemetry JSON is
/// byte-identical spill-on vs off; --metrics shows these on stderr.
struct SpillStats {
  std::uint64_t chunks_spilled = 0;   ///< chunk payloads written to disk
  std::uint64_t bytes_written = 0;    ///< spill-file bytes written
  std::uint64_t bytes_replayed = 0;   ///< spill-file bytes streamed back
  std::uint64_t replay_passes = 0;    ///< committed levels that replayed

  void add(const SpillStats& other);
};

/// Wall time of one committed level. Non-deterministic (timings).
struct LevelTiming {
  int depth = 0;              ///< the analysis depth this level belongs to
  int level = 0;              ///< 1-based level within that analysis
  std::uint64_t states = 0;   ///< committed frontier size after the level
  double seconds = 0;         ///< wall time of the level
};

/// Everything one job reported: deterministic counters plus wall timings.
struct JobTelemetry {
  TelemetryCounters counters;
  std::vector<LevelTiming> levels;
  double wall_seconds = 0;
  /// Non-serialized, like wall_seconds: spill totals never enter the
  /// JSON "telemetry" section.
  SpillStats spill;
};

/// Sink for one job's counters. Counter flushes are relaxed atomics and may
/// arrive concurrently from pool threads (commit runs under parallel_for);
/// the level-timing vector is single-writer — only the job's sequential
/// level driver appends. snapshot() is meant for after the job finishes
/// (the engine reads it before firing on_job_done).
class MetricsRegistry {
 public:
  explicit MetricsRegistry(TraceWriter* trace = nullptr) : trace_(trace) {}

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The span writer shared by this job, or null when not tracing.
  TraceWriter* trace() const { return trace_; }

  /// Flush a merged level's expansion stats (commit-time only).
  void add_pending(const PendingStats& stats);

  /// Flush a committed level's intern results.
  void add_commit(std::uint64_t states, std::uint64_t new_views);

  /// One truncated (never committed) level.
  void add_budget_abort();

  /// Fold one shard set's committed spill totals in (flushed when the
  /// parallel solver releases the set; a job may release several).
  void add_spill(const SpillStats& stats);

  /// Raise the frontier high-water mark.
  void note_frontier(std::uint64_t states);

  /// Record one committed level of the driving loop: counts it, raises the
  /// high-water mark, appends the timing, and samples the frontier size
  /// into the trace. Single-writer.
  void add_level(int depth, int level, std::uint64_t states, double seconds);

  /// Attribute wall time not covered by add_level (for the final snapshot).
  void set_wall_seconds(double seconds) { wall_seconds_ = seconds; }

  JobTelemetry snapshot() const;

 private:
  std::atomic<std::uint64_t> states_expanded_{0};
  std::atomic<std::uint64_t> states_committed_{0};
  std::atomic<std::uint64_t> pending_views_{0};
  std::atomic<std::uint64_t> views_interned_{0};
  std::atomic<std::uint64_t> chunks_expanded_{0};
  std::atomic<std::uint64_t> dense_view_chunks_{0};
  std::atomic<std::uint64_t> wordseq_rehashes_{0};
  std::atomic<std::uint64_t> levels_committed_{0};
  std::atomic<std::uint64_t> budget_early_aborts_{0};
  std::atomic<std::uint64_t> frontier_high_water_{0};
  std::atomic<std::uint64_t> spill_chunks_{0};
  std::atomic<std::uint64_t> spill_bytes_written_{0};
  std::atomic<std::uint64_t> spill_bytes_replayed_{0};
  std::atomic<std::uint64_t> spill_replay_passes_{0};
  std::vector<LevelTiming> levels_;
  double wall_seconds_ = 0;
  TraceWriter* trace_;
};

}  // namespace topocon::telemetry
