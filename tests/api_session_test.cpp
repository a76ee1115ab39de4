// The api facade: Session execution semantics, Observer streaming, the
// decision-table extraction query, and the Session-reuse determinism
// contract -- two consecutive run() calls on one Session produce
// byte-identical artifacts to two fresh Sessions, at 1 and 4 threads.
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "api/api.hpp"
#include "core/frontier.hpp"
#include "core/solvability.hpp"

namespace topocon {
namespace {

using api::Query;
using api::Session;
using sweep::JobOutcome;

std::vector<Query> atlas_queries() {
  std::vector<Query> queries;
  SolvabilityOptions options;
  options.max_depth = 5;
  for (const int mask : {1, 3, 7}) {
    queries.push_back(api::solvability({"lossy_link", 2, mask}, options));
  }
  return queries;
}

std::vector<Query> mixed_queries() {
  std::vector<Query> queries = atlas_queries();
  AnalysisOptions series;
  series.depth = 4;
  queries.push_back(api::depth_series({"lossy_link", 2, 7}, series));
  queries.push_back(api::decision_table({"lossy_link", 2, 3}));
  return queries;
}

std::string history_json(const Session& session) {
  std::ostringstream out;
  session.write_json(out);
  return out.str();
}

TEST(ApiSession, OutcomesMatchTheSerialChecker) {
  Session session({.num_threads = 2, .record_global = false});
  const std::vector<JobOutcome> outcomes =
      session.run("atlas", atlas_queries());
  ASSERT_EQ(outcomes.size(), 3u);
  SolvabilityOptions options;
  options.max_depth = 5;
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    const auto ma =
        make_family_adversary(api::point_of(atlas_queries()[j]));
    const SolvabilityResult serial = check_solvability(*ma, options);
    EXPECT_EQ(outcomes[j].result.verdict, serial.verdict)
        << outcomes[j].label;
    EXPECT_EQ(outcomes[j].result.certified_depth, serial.certified_depth);
  }
  EXPECT_EQ(outcomes[0].label, "{<-}");
  EXPECT_EQ(outcomes[2].label, "{<-, ->, <->}");
}

// Satellite requirement: Session reuse changes nothing. Two consecutive
// runs on one Session == the same two runs on two fresh Sessions,
// byte-for-byte, at 1 and 4 threads.
TEST(ApiSession, ReuseProducesByteIdenticalArtifactsToFreshSessions) {
  for (const int threads : {1, 4}) {
    Session reused({.num_threads = threads, .record_global = false});
    reused.run("first", mixed_queries());
    reused.run("second", atlas_queries());
    const std::string reused_json = history_json(reused);

    Session fresh_first({.num_threads = threads, .record_global = false});
    fresh_first.run("first", mixed_queries());
    Session fresh_second({.num_threads = threads, .record_global = false});
    fresh_second.run("second", atlas_queries());

    // Per-run records are identical...
    ASSERT_EQ(reused.history().size(), 2u);
    EXPECT_EQ(reused.history()[0].second, fresh_first.history()[0].second)
        << "first run differs at " << threads << " threads";
    EXPECT_EQ(reused.history()[1].second, fresh_second.history()[0].second)
        << "second run differs at " << threads << " threads";

    // ... and so is the serialized document (fresh histories concatenated
    // == reused session's two-sweep document).
    Session combined({.num_threads = threads, .record_global = false});
    combined.run("first", mixed_queries());
    combined.run("second", atlas_queries());
    EXPECT_EQ(history_json(combined), reused_json)
        << "document differs at " << threads << " threads";
  }
}

TEST(ApiSession, ThreadCountNeverChangesTheDocument) {
  Session serial({.num_threads = 1, .record_global = false});
  serial.run("mixed", mixed_queries());
  const std::string base = history_json(serial);
  for (const int threads : {2, 4}) {
    Session session({.num_threads = threads, .record_global = false});
    session.run("mixed", mixed_queries());
    EXPECT_EQ(history_json(session), base)
        << "JSON differs at " << threads << " threads";
  }
}

TEST(ApiSession, ObserverStreamsStartDepthAndDoneForEveryJob) {
  class CountingObserver : public api::Observer {
   public:
    void on_job_start(std::size_t job, const Query& query) override {
      ++starts[job];
      labels[job] = api::label_of(query);
    }
    void on_depth(std::size_t job, const DepthStats& stats) override {
      depths[job].push_back(stats.depth);
    }
    void on_job_done(std::size_t job, const JobOutcome& outcome) override {
      ++dones[job];
      done_labels[job] = outcome.label;
    }
    std::vector<int> starts = std::vector<int>(5, 0);
    std::vector<int> dones = std::vector<int>(5, 0);
    std::vector<std::string> labels = std::vector<std::string>(5);
    std::vector<std::string> done_labels = std::vector<std::string>(5);
    std::vector<std::vector<int>> depths =
        std::vector<std::vector<int>>(5);
  };

  for (const int threads : {1, 4}) {
    Session session({.num_threads = threads, .record_global = false});
    CountingObserver observer;
    const std::vector<JobOutcome> outcomes =
        session.run("observed", mixed_queries(), &observer);
    ASSERT_EQ(outcomes.size(), 5u);
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      EXPECT_EQ(observer.starts[j], 1) << "job " << j;
      EXPECT_EQ(observer.dones[j], 1) << "job " << j;
      EXPECT_EQ(observer.labels[j], outcomes[j].label);
      EXPECT_EQ(observer.done_labels[j], outcomes[j].label);
      const std::vector<DepthStats>& stats =
          outcomes[j].kind == sweep::JobKind::kDepthSeries
              ? outcomes[j].series
              : outcomes[j].result.per_depth;
      ASSERT_EQ(observer.depths[j].size(), stats.size()) << "job " << j;
      for (std::size_t d = 0; d < stats.size(); ++d) {
        EXPECT_EQ(observer.depths[j][d], stats[d].depth) << "job " << j;
      }
    }
  }
}

TEST(ApiSession, ObserverStreamsChunkProgressAndItNeverChangesResults) {
  class ChunkObserver : public api::Observer {
   public:
    void on_depth(std::size_t job, const ChunkProgress& progress) override {
      ++chunk_events;
      EXPECT_LT(job, 5u);
      EXPECT_GE(progress.level, 1);
      EXPECT_LE(progress.level, progress.depth);
      EXPECT_GE(progress.chunks_done, 1u);
      EXPECT_LE(progress.chunks_done, progress.chunks_total);
    }
    int chunk_events = 0;
  };

  // Force the finest sub-root sharding; the document must not change.
  Session base({.num_threads = 2, .record_global = false});
  base.run("chunked", mixed_queries());
  set_default_chunk_states(1);
  Session session({.num_threads = 2, .record_global = false});
  ChunkObserver observer;
  session.run("chunked", mixed_queries(), &observer);
  set_default_chunk_states(0);
  EXPECT_GT(observer.chunk_events, 0);
  EXPECT_EQ(history_json(session), history_json(base));
}

TEST(ApiSession, DecisionTableQueryRecordsTheCertificateShape) {
  Session session({.num_threads = 2, .record_global = false});
  const JobOutcome outcome =
      session.run_one(api::decision_table({"lossy_link", 2, 0b011}));
  ASSERT_TRUE(outcome.result.table.has_value());
  const sweep::JobRecord record = sweep::summarize(outcome);
  EXPECT_EQ(record.kind, sweep::JobKind::kDecisionTable);
  ASSERT_TRUE(record.table.has_value());
  EXPECT_EQ(record.table->entries, outcome.result.table->size());
  std::uint64_t total = 0;
  for (const std::uint64_t entries : record.round_entries) total += entries;
  EXPECT_EQ(total, record.table->entries);
  // The unsolvable full set yields a verdict but no shape.
  const JobOutcome merged =
      session.run_one(api::decision_table({"lossy_link", 2, 0b111},
                                          {.max_depth = 4}));
  const sweep::JobRecord merged_record = sweep::summarize(merged);
  EXPECT_EQ(merged_record.verdict, "NOT-SEPARATED");
  EXPECT_FALSE(merged_record.table.has_value());
  EXPECT_TRUE(merged_record.round_entries.empty());
}

TEST(ApiSession, CertificatesOutliveTheRunViaSharedInterners) {
  Session session({.num_threads = 2, .record_global = false});
  // Take a decision table out of a run, drop the outcome vector, and use
  // the table afterwards: the table shares ownership of its interner.
  std::optional<DecisionTable> table;
  {
    const JobOutcome outcome =
        session.run_one(api::solvability({"lossy_link", 2, 0b011}));
    table = outcome.result.table;
  }
  session.run("later", atlas_queries());  // more work on the same pool
  ASSERT_TRUE(table.has_value());
  EXPECT_GT(table->size(), 0u);
  EXPECT_EQ(table->worst_case_decision_round(), 1);

  // The Session retains no interner: an outcome's interner dies with the
  // last outcome, analysis, or table that refers to it.
  std::weak_ptr<ViewInterner> interner;
  {
    const JobOutcome outcome =
        session.run_one(api::solvability({"lossy_link", 2, 0b011}));
    ASSERT_TRUE(outcome.result.analysis.has_value());
    interner = outcome.result.analysis->interner;
    EXPECT_FALSE(interner.expired());
  }
  EXPECT_TRUE(interner.expired());
}

TEST(ApiSession, InvalidQueryThrowsBeforeRunning) {
  Session session({.num_threads = 1, .record_global = false});
  EXPECT_THROW(session.run("bad", {api::solvability({"nope", 2, 0})}),
               std::invalid_argument);
  EXPECT_TRUE(session.history().empty());
}

}  // namespace
}  // namespace topocon
