// The parallel adversary-sweep engine.
//
// A SweepSpec is a batch of independent solver jobs -- adversary family x
// n x parameter grid -- executed concurrently on one work-helping thread
// pool: jobs run in parallel, and inside every job the depth-t prefix
// expansion is chunk-sharded over the same pool by the level driver
// (core/shard_set.hpp).
// Results come back in job order with every field independent of the
// thread count, so sweeps are reproducible artifacts: running with 1 or
// 64 threads yields byte-identical JSON.
//
// A SweepJob is PURE DATA -- a FamilyPoint plus solver options. There is
// no factory closure anywhere in a spec: the engine constructs each job's
// adversary inside the worker via make_family_adversary, so jobs share no
// mutable state, any job list can be serialized (api/query.hpp is the
// typed serialization surface), and a checkpoint can carry the full job
// description instead of re-deriving it.
//
// This header is the execution layer. The operator-facing surface is the
// api facade (src/api/): api::Session owns the pool and the outcome
// history for its lifetime and runs api::Query values -- the typed
// tagged-union view of SweepJob -- through run_sweep_on below. (The
// pre-facade free functions run_sweep / solvability_job / series_job
// went through a deprecation cycle and are gone; phrase work as queries.)
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "adversary/family.hpp"
#include "core/frontier.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/json.hpp"
#include "telemetry/metrics.hpp"

namespace topocon::sweep {

class ThreadPool;

enum class JobKind {
  /// Iterative-deepening solvability check (check_solvability).
  kSolvability,
  /// Depth-by-depth epsilon-approximation series for depths 1..max,
  /// continuing past separation (the E4/E6/E7 convergence curves).
  kDepthSeries,
  /// Solvability check that additionally extracts the universal-algorithm
  /// decision table (Theorem 5.5) and records its shape: total entries,
  /// worst-case decision round, and the per-round entry counts.
  kDecisionTable,
};

const char* to_string(JobKind kind);
/// Inverse of to_string(JobKind); nullopt for unknown names.
std::optional<JobKind> parse_job_kind(std::string_view name);

struct SweepJob {
  /// Which adversary: the engine builds it per job inside the worker
  /// (make_family_adversary), so jobs are pure, serializable data.
  FamilyPoint point;
  JobKind kind = JobKind::kSolvability;
  /// Solver options for kSolvability and kDecisionTable jobs (the latter
  /// forces build_table on).
  SolvabilityOptions solve;
  /// Per-depth options for kDepthSeries jobs; `analysis.depth` is the
  /// maximum depth of the series (the series stops early on truncation).
  AnalysisOptions analysis;
};

struct JobOutcome {
  std::string family;
  std::string label;
  int n = 2;
  JobKind kind = JobKind::kSolvability;
  /// Filled for kSolvability and kDecisionTable jobs.
  SolvabilityResult result;
  /// Filled for kDepthSeries jobs: one entry per completed depth.
  std::vector<DepthStats> series;
  /// Wall-clock seconds of this job (informational; never serialized --
  /// it is the one thread-count-dependent field).
  double wall_seconds = 0;
  /// Per-job telemetry snapshot; present only when the sweep ran with a
  /// telemetry surface enabled (SweepHooks). The counters inside are
  /// deterministic across thread counts; the timings are not.
  std::optional<telemetry::JobTelemetry> telemetry;
};

struct SweepSpec {
  /// Name under which the outcomes are recorded (JSON "name" field).
  std::string name;
  std::vector<SweepJob> jobs;
  /// Incremental-checkpoint hook: invoked as each job finishes, with its
  /// index into `jobs` and the finished outcome. Calls are serialized by
  /// an engine-internal mutex but arrive in completion order, which
  /// depends on the thread count -- checkpoint consumers must therefore
  /// key on the job index, never on arrival order. Superseded by
  /// SweepHooks::on_job_done (api::Observer); kept for compatibility and
  /// honored alongside it.
  std::function<void(std::size_t, const JobOutcome&)> on_job_done;
};

/// Streaming hooks into a running sweep -- the engine-level form of
/// api::Observer. All are invoked under one engine-internal mutex (so
/// implementations need no locking of their own) but in completion
/// order: only on_depth/on_chunk calls of the SAME job are ordered
/// relative to each other, and a job's on_job_done follows all its other
/// calls. Consumers must key on the job index, never on arrival order.
struct SweepHooks {
  std::function<void(std::size_t, const SweepJob&)> on_job_start;
  std::function<void(std::size_t, const DepthStats&)> on_depth;
  /// Per-chunk expansion progress inside a job's current depth pass
  /// (core/frontier.hpp) -- the finest-grained signal, intended for
  /// progress display. Counters only; chunk completion order is
  /// thread-count-dependent.
  std::function<void(std::size_t, const ChunkProgress&)> on_chunk;
  /// Fired once per job with its telemetry snapshot, before the job's
  /// on_job_done. Setting it (or `collect_telemetry`, or `trace`) makes
  /// every job run with a MetricsRegistry and fill
  /// JobOutcome::telemetry; otherwise collection is off at zero cost.
  std::function<void(std::size_t, const telemetry::JobTelemetry&)>
      on_job_telemetry;
  std::function<void(std::size_t, const JobOutcome&)> on_job_done;
  /// Collect telemetry into JobOutcome::telemetry even without an
  /// on_job_telemetry consumer (e.g. for the JSON "telemetry" section).
  bool collect_telemetry = false;
  /// Chrome-trace span writer shared by every job of the sweep
  /// (telemetry/trace.hpp); must outlive the run. Null = no tracing.
  telemetry::TraceWriter* trace = nullptr;
};

/// Runs all jobs of the spec on an existing pool. Outcomes are indexed
/// like spec.jobs; interners inside the outcomes are re-homed to the
/// calling thread. Does NOT record into the global registry -- callers
/// that retain outcomes do so themselves (api::Session records into its
/// own history). Inside every job the level driver (core/shard_set.hpp)
/// chunk-shards the expansion over `pool` with the process-default
/// chunk size (default_chunk_states(), core/frontier.hpp).
std::vector<JobOutcome> run_sweep_on(const SweepSpec& spec, ThreadPool& pool,
                                     const SweepHooks& hooks = {});

/// Default thread count for api::Session and the examples: set from
/// --sweep-threads; 0 (the initial value) resolves to
/// hardware_concurrency().
void set_default_num_threads(int threads);
int default_num_threads();

/// What the registry retains (and the JSON contains) per job: the
/// aggregate statistics only, never the heavyweight analysis levels or
/// decision tables a JobOutcome may carry.
struct JobRecord {
  std::string family;
  std::string label;
  int n = 2;
  JobKind kind = JobKind::kSolvability;
  std::string verdict;
  int certified_depth = -1;
  bool closure_only = false;
  std::vector<DepthStats> per_depth;  // kSolvability
  std::vector<DepthStats> series;     // kDepthSeries
  struct FinalAnalysis {
    int depth = 0;
    std::uint64_t leaf_classes = 0;
    /// Total component count; `components` holds at most the JSON cap.
    std::uint64_t num_components = 0;
    std::vector<ComponentInfo> components;

    friend bool operator==(const FinalAnalysis&,
                           const FinalAnalysis&) = default;
  };
  std::optional<FinalAnalysis> final_analysis;
  struct Table {
    std::uint64_t entries = 0;
    int worst_decision_round = 0;

    friend bool operator==(const Table&, const Table&) = default;
  };
  std::optional<Table> table;
  /// kDecisionTable only: entries becoming applicable per round (index =
  /// round, sums to table->entries). Empty when no table was extracted.
  std::vector<std::uint64_t> round_entries;
  /// The optional JSON "telemetry" section: the job's deterministic
  /// counters. Present only when summarize() ran with include_telemetry
  /// (off by default so existing artifacts stay byte-identical).
  std::optional<telemetry::TelemetryCounters> telemetry;

  /// Field-wise equality; with json_reader this makes "record -> JSON ->
  /// record" round-trips checkable.
  friend bool operator==(const JobRecord&, const JobRecord&) = default;
};

/// Extracts the JSON-visible aggregates of an outcome. When
/// include_telemetry is set and the outcome carries a telemetry snapshot,
/// its counters (only -- never the timings, which are thread-count-
/// dependent) become the record's "telemetry" section.
JobRecord summarize(const JobOutcome& outcome,
                    bool include_telemetry = false);

/// Serializes one record as a JSON object (the "jobs" array element
/// format; also the checkpoint line format, see checkpoint.hpp).
void write_job_record_json(JsonWriter& writer, const JobRecord& record);

/// Serializes records/outcomes as one {"name": ..., "jobs": [...]} object.
void write_sweep_json(JsonWriter& writer, const std::string& name,
                      const std::vector<JobRecord>& records);
void write_sweep_json(JsonWriter& writer, const std::string& name,
                      const std::vector<JobOutcome>& outcomes);

/// Process-global accumulation of every recorded sweep, in run order.
/// Disabled by default so sweeps cost no retained memory; enabled by
/// consume_sweep_args when --sweep-json is requested (or explicitly via
/// set_enabled). While disabled, record() is a no-op.
class SweepRegistry {
 public:
  static SweepRegistry& instance();

  void set_enabled(bool enabled);
  bool enabled() const;

  void record(const std::string& name, const std::vector<JobOutcome>& outcomes);
  void record(const std::string& name, std::vector<JobRecord> records);
  bool empty() const;
  void clear();

  /// {"schema": "topocon-sweep-v1", "sweeps": [...]} of everything
  /// recorded so far.
  void write_json(std::ostream& out) const;

 private:
  mutable std::mutex mutex_;
  bool enabled_ = false;
  std::vector<std::pair<std::string, std::vector<JobRecord>>> sweeps_;
};

}  // namespace topocon::sweep
