// The telemetry subsystem: MetricsRegistry aggregation under concurrent
// flushes, the determinism contract of the per-job counters (identical
// across thread counts, including the budget-abort path), the opt-in
// "telemetry" JSON section and its round-trip, and artifact
// byte-stability with telemetry surfaces enabled.
#include <cstdint>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/checkpoint.hpp"
#include "telemetry/metrics.hpp"

namespace topocon {
namespace {

using api::Query;
using api::Session;
using telemetry::JobTelemetry;
using telemetry::MetricsRegistry;
using telemetry::PendingStats;
using telemetry::TelemetryCounters;

// ---- MetricsRegistry ------------------------------------------------------

TEST(Telemetry, RegistryAggregatesConcurrentFlushes) {
  MetricsRegistry registry;
  constexpr int kThreads = 4;
  constexpr int kFlushes = 1000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&registry, t] {
      for (int i = 0; i < kFlushes; ++i) {
        PendingStats stats;
        stats.chunks = 1;
        stats.emissions = 10;
        stats.pending_views = 3;
        stats.rehashes = 1;
        registry.add_pending(stats);
        registry.add_commit(8, 3);
        registry.note_frontier(static_cast<std::uint64_t>(t * kFlushes + i));
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
  registry.add_budget_abort();

  const TelemetryCounters counters = registry.snapshot().counters;
  constexpr std::uint64_t kTotal = kThreads * kFlushes;
  EXPECT_EQ(counters.states_expanded, 10 * kTotal);
  EXPECT_EQ(counters.states_committed, 8 * kTotal);
  EXPECT_EQ(counters.pending_views, 3 * kTotal);
  EXPECT_EQ(counters.views_interned, 3 * kTotal);
  EXPECT_EQ(counters.chunks_expanded, kTotal);
  EXPECT_EQ(counters.wordseq_rehashes, kTotal);
  EXPECT_EQ(counters.budget_early_aborts, 1u);
  EXPECT_EQ(counters.frontier_high_water, kTotal - 1);
}

TEST(Telemetry, AddLevelCountsAndRecordsTimings) {
  MetricsRegistry registry;
  registry.add_level(3, 1, 100, 0.5);
  registry.add_level(3, 2, 400, 1.5);
  registry.set_wall_seconds(2.5);
  const JobTelemetry snapshot = registry.snapshot();
  EXPECT_EQ(snapshot.counters.levels_committed, 2u);
  EXPECT_EQ(snapshot.counters.frontier_high_water, 400u);
  ASSERT_EQ(snapshot.levels.size(), 2u);
  EXPECT_EQ(snapshot.levels[0].depth, 3);
  EXPECT_EQ(snapshot.levels[0].level, 1);
  EXPECT_EQ(snapshot.levels[0].states, 100u);
  EXPECT_EQ(snapshot.levels[1].level, 2);
  EXPECT_DOUBLE_EQ(snapshot.wall_seconds, 2.5);
}

// ---- Counter determinism through the Session ------------------------------

/// Captures every on_job_telemetry snapshot by overall job index.
class TelemetryCapture : public api::Observer {
 public:
  explicit TelemetryCapture(std::size_t jobs) : snapshots(jobs) {}

  void on_job_telemetry(std::size_t job,
                        const JobTelemetry& snapshot) override {
    snapshots[job] = snapshot;
  }

  std::vector<std::optional<JobTelemetry>> snapshots;
};

std::vector<Query> telemetry_queries() {
  std::vector<Query> queries;
  SolvabilityOptions solve;
  solve.max_depth = 6;
  queries.push_back(api::solvability({"omission", 3, 1}, solve));
  queries.push_back(api::solvability({"lossy_link", 2, 7}, solve));
  AnalysisOptions series;
  series.depth = 3;
  queries.push_back(api::depth_series({"lossy_link", 2, 3}, series));
  queries.push_back(api::decision_table({"lossy_link", 2, 1}));
  return queries;
}

std::vector<std::optional<JobTelemetry>> run_with_telemetry(
    int threads, const std::vector<Query>& queries) {
  Session session({.num_threads = threads,
                   .record_global = false,
                   .collect_telemetry = true});
  TelemetryCapture capture(queries.size());
  session.run("telemetry", queries, &capture);
  return capture.snapshots;
}

// The tentpole determinism contract: every counter of every job is
// identical at 1, 2, and 8 threads (timings are exempt and ignored).
TEST(Telemetry, CountersIdenticalAcrossThreadCounts) {
  const std::vector<Query> queries = telemetry_queries();
  const auto base = run_with_telemetry(1, queries);
  ASSERT_EQ(base.size(), queries.size());
  for (const auto& snapshot : base) {
    ASSERT_TRUE(snapshot.has_value());
    EXPECT_GT(snapshot->counters.states_expanded, 0u);
    EXPECT_GT(snapshot->counters.states_committed, 0u);
    EXPECT_GT(snapshot->counters.levels_committed, 0u);
    EXPECT_GT(snapshot->counters.frontier_high_water, 0u);
  }
  for (const int threads : {2, 8}) {
    const auto other = run_with_telemetry(threads, queries);
    ASSERT_EQ(other.size(), base.size());
    for (std::size_t j = 0; j < base.size(); ++j) {
      ASSERT_TRUE(other[j].has_value());
      EXPECT_EQ(other[j]->counters, base[j]->counters)
          << "job " << j << " at " << threads << " threads";
    }
  }
}

// The budget-abort path is deterministic too: a RESOURCE-LIMIT query
// reports the same single abort tick (and every other counter) at every
// thread count.
TEST(Telemetry, BudgetAbortCountersIdenticalAcrossThreadCounts) {
  SolvabilityOptions solve;
  solve.max_depth = 6;
  solve.max_states = 5000;  // omission n=3 f=6 blows past this quickly
  std::vector<Query> queries;
  queries.push_back(api::solvability({"omission", 3, 6}, solve));

  const auto base = run_with_telemetry(1, queries);
  ASSERT_TRUE(base[0].has_value());
  EXPECT_GE(base[0]->counters.budget_early_aborts, 1u);
  for (const int threads : {2, 8}) {
    const auto other = run_with_telemetry(threads, queries);
    ASSERT_TRUE(other[0].has_value());
    EXPECT_EQ(other[0]->counters, base[0]->counters);
  }
}

// The serial checker reports through the same registry type.
TEST(Telemetry, SerialCheckerFillsRegistry) {
  MetricsRegistry registry;
  SolvabilityOptions options;
  options.max_depth = 6;
  options.metrics = &registry;
  const auto adversary = make_family_adversary({"lossy_link", 2, 7});
  const SolvabilityResult result = check_solvability(*adversary, options);
  EXPECT_NE(result.verdict, SolvabilityVerdict::kResourceLimit);
  const TelemetryCounters counters = registry.snapshot().counters;
  EXPECT_GT(counters.states_expanded, 0u);
  EXPECT_GT(counters.states_committed, 0u);
  EXPECT_GT(counters.levels_committed, 0u);
  EXPECT_EQ(counters.budget_early_aborts, 0u);
}

// ---- The opt-in JSON section ----------------------------------------------

TEST(Telemetry, OffByDefaultEverywhere) {
  Session session({.num_threads = 2, .record_global = false});
  SolvabilityOptions solve;
  solve.max_depth = 5;
  const auto outcomes = session.run(
      "plain", {api::solvability({"lossy_link", 2, 3}, solve)});
  EXPECT_FALSE(outcomes[0].telemetry.has_value());
  std::ostringstream out;
  session.write_json(out);
  EXPECT_EQ(out.str().find("telemetry"), std::string::npos);
}

TEST(Telemetry, RecordsCarryCountersWhenOptedIn) {
  Session session({.num_threads = 2,
                   .record_global = false,
                   .telemetry_in_records = true});
  const std::vector<Query> queries = telemetry_queries();
  const auto outcomes = session.run("telemetry", queries, nullptr);
  const std::vector<sweep::JobRecord>& records =
      session.history().back().second;
  ASSERT_EQ(records.size(), queries.size());
  for (std::size_t j = 0; j < records.size(); ++j) {
    ASSERT_TRUE(outcomes[j].telemetry.has_value()) << "job " << j;
    ASSERT_TRUE(records[j].telemetry.has_value()) << "job " << j;
    EXPECT_EQ(*records[j].telemetry, outcomes[j].telemetry->counters);
  }

  // The document round-trips: parsing the serialized history reproduces
  // the records, counters included, for every query kind.
  std::ostringstream out;
  session.write_json(out);
  const sweep::SweepDocument doc = sweep::read_sweep_document(out.str());
  ASSERT_EQ(doc.sweeps.size(), 1u);
  EXPECT_EQ(doc.sweeps[0].second, records);
}

// Telemetry surfaces must never change the artifact bytes: the same run
// with collection on (but telemetry_in_records off) serializes
// byte-identically to a default run.
TEST(Telemetry, CollectionDoesNotChangeArtifactBytes) {
  const std::vector<Query> queries = telemetry_queries();
  Session plain({.num_threads = 2, .record_global = false});
  plain.run("stable", queries);
  Session collecting({.num_threads = 2,
                      .record_global = false,
                      .collect_telemetry = true});
  TelemetryCapture capture(queries.size());
  collecting.run("stable", queries, &capture);
  std::ostringstream plain_json;
  plain.write_json(plain_json);
  std::ostringstream collecting_json;
  collecting.write_json(collecting_json);
  EXPECT_EQ(plain_json.str(), collecting_json.str());
  EXPECT_TRUE(capture.snapshots[0].has_value());
}

}  // namespace
}  // namespace topocon
