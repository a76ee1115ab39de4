// Session: the one entry point every front end shares.
//
// A Session owns, for its lifetime, the two resources consecutive solver
// runs share -- so they amortize them instead of rebuilding them per
// call (run_sweep's historical behavior):
//
//   * the work-helping ThreadPool jobs and their root shards execute on;
//   * the outcome history: the JSON-visible record of every named run,
//     serializable as one topocon-sweep-v1 document (write_json).
//
// The Session retains no interner. The ViewInterner behind a certificate
// (decision table, final analysis) is shared-owned by the objects that
// refer to it, so it lives exactly as long as the last outcome, analysis,
// or table holding it, and a table copied out of an outcome stays
// replayable after the outcome is gone.
//
// Determinism contract (inherited from the engine): for a fixed query
// list, every field of the outcomes and every byte of the serialized
// records are independent of the thread count AND of whatever the
// Session ran before -- two consecutive run() calls on one Session
// produce byte-identical artifacts to two fresh Sessions (enforced by
// api_session_test).
//
// Streaming: an Observer watches a run as it executes -- job start, each
// completed expansion chunk (the frontier engine's finest-grained
// signal, for progress display), each completed depth, job completion --
// generalizing the single on_job_done checkpoint hook of SweepSpec.
// Callbacks arrive serialized (no locking needed inside) but in
// completion order; key on the job index, never on arrival order.
// Observers cannot change results.
//
// Sessions are not thread-safe: one run() at a time, from one thread
// (the parallelism lives inside the pool). Create one Session per
// concurrent operator instead.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "api/query.hpp"
#include "runtime/sweep/engine.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon::api {

struct SessionOptions {
  /// Pool size; 0 = sweep::default_num_threads() (--sweep-threads or
  /// hardware concurrency). Results never depend on this.
  int num_threads = 0;
  /// Mirror every named run into the process-global sweep::SweepRegistry
  /// (the --sweep-json surface of the bench binaries). The registry still
  /// applies its own enabled() gate.
  bool record_global = true;
  /// Collect per-job telemetry (telemetry/metrics.hpp) into
  /// JobOutcome::telemetry. Off by default: collection is zero-cost when
  /// no surface below (or an Observer::on_job_telemetry override) wants
  /// it. The counters are deterministic across thread counts; the
  /// timings are not.
  bool collect_telemetry = false;
  /// Additionally embed each record's counters as the JSON "telemetry"
  /// section of the history (implies collect_telemetry). Off by default
  /// so existing artifacts stay byte-identical.
  bool telemetry_in_records = false;
  /// Chrome-trace span writer shared by every run of this session
  /// (telemetry/trace.hpp); must outlive the Session. Non-null implies
  /// collect_telemetry. Null = no tracing.
  telemetry::TraceWriter* trace = nullptr;
  /// Out-of-core spill knobs for every run of this session (core/spill.*),
  /// overriding the per-query options and the process default. nullopt =
  /// inherit (query options, then --spill-* defaults). Execution detail:
  /// results and artifacts are byte-identical at any setting.
  std::optional<SpillOptions> spill = std::nullopt;
};

/// Streaming view of a running Session (see the header comment).
class Observer {
 public:
  virtual ~Observer() = default;

  /// A worker picked up job `job` of the current run.
  virtual void on_job_start(std::size_t job, const Query& query);
  /// Job `job` completed the depth described by `stats` (solvability
  /// deepening step or series entry), in depth order per job.
  virtual void on_depth(std::size_t job, const DepthStats& stats);
  /// Finer-grained sibling of the overload above: job `job` finished one
  /// expansion chunk inside its current depth pass (core/frontier.hpp).
  /// Many per depth, level by level; intended for progress display.
  /// Counters only -- chunk completion order is thread-count-dependent.
  virtual void on_depth(std::size_t job, const ChunkProgress& progress);
  /// Job `job`'s telemetry snapshot: deterministic counters plus
  /// (thread-count-dependent) per-level timings. Fired before the job's
  /// on_job_done, and only when the session has a telemetry surface
  /// enabled (SessionOptions::collect_telemetry / telemetry_in_records /
  /// trace) -- a default-constructed session never pays for collection.
  virtual void on_job_telemetry(std::size_t job,
                                const telemetry::JobTelemetry& snapshot);
  /// Job `job` finished; `outcome` carries its final aggregates. Follows
  /// every on_depth of the same job.
  virtual void on_job_done(std::size_t job,
                           const sweep::JobOutcome& outcome);
};

/// A named batch of queries -- what a scenario expands to and a Session
/// runs. Pure data, like the queries themselves.
struct Plan {
  std::string name;
  std::vector<Query> queries;
};

class Session {
 public:
  explicit Session(SessionOptions options = {});

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  int num_threads() const { return pool_.num_threads(); }

  /// The session's pool, for interop with the engine primitives
  /// (parallel_analyze_depth and friends) when a front end needs raw
  /// DepthAnalysis objects beyond what queries record. Do not destroy or
  /// detach it; do not call run() while a borrowed reference is mid-use
  /// on another thread.
  sweep::ThreadPool& pool() { return pool_; }

  /// Runs the queries on the session pool; outcomes are indexed like
  /// `queries`, with every interner re-homed to the calling thread and
  /// owned by the outcome. Appends the run's records to the
  /// history under `name`. Throws std::invalid_argument on an invalid
  /// grid point (before anything runs).
  std::vector<sweep::JobOutcome> run(const std::string& name,
                                     const std::vector<Query>& queries,
                                     Observer* observer = nullptr);
  std::vector<sweep::JobOutcome> run(const Plan& plan,
                                     Observer* observer = nullptr);

  /// Single-query convenience: runs it under its point label as the run
  /// name and returns the one outcome.
  sweep::JobOutcome run_one(const Query& query, Observer* observer = nullptr);

  /// Every named run of this session, in run order, as the JSON-visible
  /// records (the same projection the registry and checkpoints use).
  using History =
      std::vector<std::pair<std::string, std::vector<sweep::JobRecord>>>;
  const History& history() const { return history_; }
  void clear_history() { history_.clear(); }

  /// Serializes the history as one {"schema": "topocon-sweep-v1", ...}
  /// document -- byte-identical to the global registry's dump of the
  /// same runs.
  void write_json(std::ostream& out) const;

 private:
  SessionOptions options_;
  sweep::ThreadPool pool_;
  History history_;
};

}  // namespace topocon::api
