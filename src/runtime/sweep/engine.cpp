#include "runtime/sweep/engine.hpp"

#include <algorithm>
#include <chrono>
#include <mutex>
#include <ostream>

#include "core/solvability.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "telemetry/trace.hpp"

namespace topocon::sweep {

namespace {

/// Components above this count are aggregated in JSON to keep documents
/// bounded; the elision is recorded explicitly (components_elided).
constexpr std::size_t kMaxJsonComponents = 64;

void write_telemetry_counters(JsonWriter& writer,
                              const telemetry::TelemetryCounters& counters) {
  writer.key("telemetry");
  writer.begin_object();
  writer.member("states_expanded", counters.states_expanded);
  writer.member("states_committed", counters.states_committed);
  writer.member("pending_views", counters.pending_views);
  writer.member("views_interned", counters.views_interned);
  writer.member("chunks_expanded", counters.chunks_expanded);
  writer.member("wordseq_rehashes", counters.wordseq_rehashes);
  writer.member("levels_committed", counters.levels_committed);
  writer.member("budget_early_aborts", counters.budget_early_aborts);
  writer.member("frontier_high_water", counters.frontier_high_water);
  writer.end_object();
}

void write_depth_stats(JsonWriter& writer, const DepthStats& stats) {
  writer.begin_object();
  writer.member("depth", stats.depth);
  writer.member("leaf_classes", stats.num_leaf_classes);
  writer.member("components", stats.num_components);
  writer.member("merged", stats.merged_components);
  writer.member("separated", stats.separated);
  writer.member("valent_broadcastable", stats.valent_broadcastable);
  writer.member("strong_assignable", stats.strong_assignable);
  writer.member("interner_views", stats.interner_views);
  writer.end_object();
}

}  // namespace

void write_job_record_json(JsonWriter& writer, const JobRecord& record) {
  writer.begin_object();
  writer.member("family", record.family);
  writer.member("label", record.label);
  writer.member("n", record.n);
  writer.member("kind", to_string(record.kind));
  if (record.kind == JobKind::kSolvability) {
    writer.member("verdict", record.verdict);
    writer.member("certified_depth", record.certified_depth);
    writer.member("closure_only", record.closure_only);
    writer.key("per_depth");
    writer.begin_array();
    for (const DepthStats& stats : record.per_depth) {
      write_depth_stats(writer, stats);
    }
    writer.end_array();
    if (record.final_analysis.has_value()) {
      const JobRecord::FinalAnalysis& final_analysis =
          *record.final_analysis;
      writer.key("final_analysis");
      writer.begin_object();
      writer.member("final_depth", final_analysis.depth);
      writer.member("leaf_classes", final_analysis.leaf_classes);
      writer.member("num_components", final_analysis.num_components);
      if (final_analysis.components.size() <
          final_analysis.num_components) {
        writer.member("components_elided",
                      final_analysis.num_components -
                          final_analysis.components.size());
      }
      writer.key("components");
      writer.begin_array();
      for (const ComponentInfo& info : final_analysis.components) {
        writer.begin_object();
        writer.member("leaves", static_cast<std::int64_t>(info.num_leaves));
        writer.member("valence_mask",
                      static_cast<std::int64_t>(info.valence_mask));
        writer.member("common_broadcast",
                      static_cast<std::int64_t>(info.common_broadcast));
        writer.member("broadcasters",
                      static_cast<std::int64_t>(info.broadcasters));
        writer.member("common_input_values",
                      static_cast<std::int64_t>(info.common_input_values));
        writer.member("assigned_value", info.assigned_value);
        writer.member("assigned_value_strong", info.assigned_value_strong);
        writer.end_object();
      }
      writer.end_array();
      writer.end_object();
    }
    if (record.table.has_value()) {
      writer.key("table");
      writer.begin_object();
      writer.member("entries", record.table->entries);
      writer.member("worst_decision_round",
                    record.table->worst_decision_round);
      writer.end_object();
    }
  } else if (record.kind == JobKind::kDecisionTable) {
    writer.member("verdict", record.verdict);
    writer.member("certified_depth", record.certified_depth);
    writer.member("closure_only", record.closure_only);
    if (record.table.has_value()) {
      writer.key("table");
      writer.begin_object();
      writer.member("entries", record.table->entries);
      writer.member("worst_decision_round",
                    record.table->worst_decision_round);
      writer.end_object();
      writer.key("round_entries");
      writer.begin_array();
      for (const std::uint64_t entries : record.round_entries) {
        writer.value(entries);
      }
      writer.end_array();
    }
  } else {
    writer.key("series");
    writer.begin_array();
    for (const DepthStats& stats : record.series) {
      write_depth_stats(writer, stats);
    }
    writer.end_array();
  }
  if (record.telemetry.has_value()) {
    write_telemetry_counters(writer, *record.telemetry);
  }
  writer.end_object();
}

JobRecord summarize(const JobOutcome& outcome, bool include_telemetry) {
  JobRecord record;
  record.family = outcome.family;
  record.label = outcome.label;
  record.n = outcome.n;
  record.kind = outcome.kind;
  if (include_telemetry && outcome.telemetry.has_value()) {
    record.telemetry = outcome.telemetry->counters;
  }
  // Only the kind's own fields are filled, so a record is exactly the
  // JSON-visible projection and survives a write/parse round trip.
  if (outcome.kind == JobKind::kDepthSeries) {
    record.series = outcome.series;
    return record;
  }
  record.verdict = to_string(outcome.result.verdict);
  record.certified_depth = outcome.result.certified_depth;
  record.closure_only = outcome.result.closure_only;
  if (outcome.result.table.has_value()) {
    JobRecord::Table table;
    table.entries =
        static_cast<std::uint64_t>(outcome.result.table->size());
    table.worst_decision_round =
        outcome.result.table->worst_case_decision_round();
    record.table = table;
  }
  if (outcome.kind == JobKind::kDecisionTable) {
    // The extraction record is about the certificate artifact: the table
    // shape, not the per-depth search statistics.
    if (outcome.result.table.has_value()) {
      for (const std::size_t entries :
           outcome.result.table->entries_per_round()) {
        record.round_entries.push_back(
            static_cast<std::uint64_t>(entries));
      }
    }
    return record;
  }
  record.per_depth = outcome.result.per_depth;
  if (outcome.result.analysis.has_value()) {
    const DepthAnalysis& analysis = *outcome.result.analysis;
    JobRecord::FinalAnalysis final_analysis;
    final_analysis.depth = analysis.depth;
    final_analysis.leaf_classes =
        static_cast<std::uint64_t>(analysis.leaves().size());
    final_analysis.num_components =
        static_cast<std::uint64_t>(analysis.components.size());
    final_analysis.components.assign(
        analysis.components.begin(),
        analysis.components.begin() +
            static_cast<std::ptrdiff_t>(std::min(analysis.components.size(),
                                                 kMaxJsonComponents)));
    record.final_analysis = std::move(final_analysis);
  }
  return record;
}

const char* to_string(JobKind kind) {
  switch (kind) {
    case JobKind::kSolvability: return "solvability";
    case JobKind::kDepthSeries: return "depth_series";
    case JobKind::kDecisionTable: return "decision_table";
  }
  return "?";
}

std::optional<JobKind> parse_job_kind(std::string_view name) {
  if (name == "solvability") return JobKind::kSolvability;
  if (name == "depth_series") return JobKind::kDepthSeries;
  if (name == "decision_table") return JobKind::kDecisionTable;
  return std::nullopt;
}

std::vector<JobOutcome> run_sweep_on(std::span<const SweepJob> jobs,
                                     ThreadPool& pool,
                                     const SweepHooks& hooks) {
  std::vector<JobOutcome> outcomes(jobs.size());
  std::mutex hook_mutex;

  const bool want_telemetry = hooks.collect_telemetry ||
                              hooks.trace != nullptr ||
                              static_cast<bool>(hooks.on_job_telemetry);

  pool.parallel_for(jobs.size(), [&](std::size_t j) {
    const SweepJob& job = jobs[j];
    JobOutcome& outcome = outcomes[j];
    outcome.family = job.point.family;
    outcome.label = family_point_label(job.point);
    outcome.n = job.point.n;
    outcome.kind = job.kind;
    // One registry per job, on the job's stack: counter flushes arrive
    // concurrently from the commit parallel_for, snapshot() only after
    // the solver returned.
    std::optional<telemetry::MetricsRegistry> registry;
    if (want_telemetry) registry.emplace(hooks.trace);
    if (hooks.on_job_start) {
      const std::lock_guard<std::mutex> lock(hook_mutex);
      hooks.on_job_start(j, job);
    }
    DepthProgressFn on_depth;
    if (hooks.on_depth) {
      on_depth = [&, j](const DepthStats& stats) {
        const std::lock_guard<std::mutex> lock(hook_mutex);
        hooks.on_depth(j, stats);
      };
    }
    ShardingOptions sharding;
    sharding.chunk_states = hooks.chunk_states;
    if (hooks.on_chunk) {
      sharding.on_chunk = [&, j](const ChunkProgress& progress) {
        const std::lock_guard<std::mutex> lock(hook_mutex);
        hooks.on_chunk(j, progress);
      };
    }
    const auto start = std::chrono::steady_clock::now();
    const std::uint64_t span_start =
        hooks.trace != nullptr ? hooks.trace->now_us() : 0;
    const std::unique_ptr<MessageAdversary> adversary =
        make_family_adversary(job.point);
    if (job.kind == JobKind::kSolvability ||
        job.kind == JobKind::kDecisionTable) {
      SolvabilityOptions solve = job.solve;
      if (job.kind == JobKind::kDecisionTable) solve.build_table = true;
      if (registry.has_value()) solve.metrics = &*registry;
      outcome.result = check_solvability(*adversary, solve,
                                         pool.as_parallel_for(), on_depth,
                                         sharding);
    } else {
      AnalysisOptions series = job.analysis;
      if (registry.has_value()) series.metrics = &*registry;
      outcome.series = depth_series(*adversary, series,
                                    pool.as_parallel_for(), on_depth,
                                    sharding);
    }
    outcome.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      start)
            .count();
    if (hooks.trace != nullptr) {
      hooks.trace->complete(
          outcome.label, "job", span_start,
          hooks.trace->now_us() - span_start,
          {telemetry::TraceArg::str("family", outcome.family),
           telemetry::TraceArg::str("kind", to_string(outcome.kind)),
           telemetry::TraceArg::num("job", j)});
    }
    if (registry.has_value()) {
      registry->set_wall_seconds(outcome.wall_seconds);
      outcome.telemetry = registry->snapshot();
      if (hooks.on_job_telemetry) {
        const std::lock_guard<std::mutex> lock(hook_mutex);
        hooks.on_job_telemetry(j, *outcome.telemetry);
      }
    }
    if (hooks.on_job_done) {
      const std::lock_guard<std::mutex> lock(hook_mutex);
      hooks.on_job_done(j, outcome);
    }
  });

  // Jobs ran on pool threads; re-home their interners so the caller can
  // replay tables and analyses directly.
  for (JobOutcome& outcome : outcomes) {
    if (outcome.result.analysis.has_value() &&
        outcome.result.analysis->interner) {
      outcome.result.analysis->interner->attach_to_current_thread();
    }
    if (outcome.result.table.has_value()) {
      outcome.result.table->interner()->attach_to_current_thread();
    }
  }
  return outcomes;
}

void write_sweep_json(JsonWriter& writer, const std::string& name,
                      const std::vector<JobRecord>& records) {
  writer.begin_object();
  writer.member("name", name);
  writer.key("jobs");
  writer.begin_array();
  for (const JobRecord& record : records) {
    write_job_record_json(writer, record);
  }
  writer.end_array();
  writer.end_object();
}

void write_sweep_json(JsonWriter& writer, const std::string& name,
                      const std::vector<JobOutcome>& outcomes) {
  std::vector<JobRecord> records;
  records.reserve(outcomes.size());
  for (const JobOutcome& outcome : outcomes) {
    records.push_back(summarize(outcome));
  }
  write_sweep_json(writer, name, records);
}

SweepRegistry& SweepRegistry::instance() {
  static SweepRegistry registry;
  return registry;
}

void SweepRegistry::set_enabled(bool enabled) {
  std::lock_guard<std::mutex> lock(mutex_);
  enabled_ = enabled;
}

bool SweepRegistry::enabled() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return enabled_;
}

void SweepRegistry::record(const std::string& name,
                           const std::vector<JobOutcome>& outcomes) {
  // Summarize outside the lock: only the JSON-visible aggregates are
  // retained, never the analysis levels or decision tables.
  {
    std::lock_guard<std::mutex> lock(mutex_);
    if (!enabled_) return;
  }
  std::vector<JobRecord> records;
  records.reserve(outcomes.size());
  for (const JobOutcome& outcome : outcomes) {
    records.push_back(summarize(outcome));
  }
  record(name, std::move(records));
}

void SweepRegistry::record(const std::string& name,
                           std::vector<JobRecord> records) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!enabled_) return;
  sweeps_.emplace_back(name, std::move(records));
}

bool SweepRegistry::empty() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return sweeps_.empty();
}

void SweepRegistry::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  sweeps_.clear();
}

void SweepRegistry::write_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mutex_);
  JsonWriter writer(out);
  writer.begin_object();
  writer.member("schema", "topocon-sweep-v1");
  writer.key("sweeps");
  writer.begin_array();
  for (const auto& [name, records] : sweeps_) {
    write_sweep_json(writer, name, records);
  }
  writer.end_array();
  writer.end_object();
  out << '\n';
}

}  // namespace topocon::sweep
