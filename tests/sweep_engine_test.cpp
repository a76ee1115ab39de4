// Unit tests for the parallel sweep engine: thread-pool semantics
// (including nesting), exact agreement of the chunk-sharded depth
// analysis with the serial one (at several forced chunk sizes), the
// incremental deepening on shards kept across depths against the
// single-scan reference, SweepSpec execution with deterministic result
// ordering, and byte-identical JSON across thread counts.
#include <atomic>
#include <functional>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "adversary/heard_of.hpp"
#include "adversary/lossy_link.hpp"
#include "adversary/omission.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/engine.hpp"
#include "runtime/sweep/json.hpp"
#include "runtime/sweep/parallel_solver.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace topocon {
namespace {

using sweep::JobKind;
using sweep::JobOutcome;
using sweep::JsonWriter;
using sweep::ShardingOptions;
using sweep::SweepSpec;
using sweep::ThreadPool;

// ---- ThreadPool ---------------------------------------------------------

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 4}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<int>> hits(97);
    pool.parallel_for(hits.size(),
                      [&](std::size_t i) { hits[i].fetch_add(1); });
    for (const auto& hit : hits) {
      EXPECT_EQ(hit.load(), 1);
    }
  }
}

TEST(ThreadPool, EmptyBatchReturnsImmediately) {
  ThreadPool pool(2);
  bool ran = false;
  pool.parallel_for(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(ThreadPool, NestedParallelForCompletes) {
  ThreadPool pool(3);
  std::atomic<int> total{0};
  pool.parallel_for(5, [&](std::size_t) {
    pool.parallel_for(7, [&](std::size_t) { total.fetch_add(1); });
  });
  EXPECT_EQ(total.load(), 35);
}

TEST(ThreadPool, PropagatesExceptions) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(8,
                                 [](std::size_t i) {
                                   if (i == 3) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
}

TEST(ThreadPool, ResolveThreads) {
  EXPECT_EQ(sweep::resolve_threads(4), 4);
  EXPECT_GE(sweep::resolve_threads(0), 1);
}

// ---- parallel_analyze_depth vs analyze_depth ----------------------------

void expect_analysis_equal(const DepthAnalysis& serial,
                           const DepthAnalysis& parallel) {
  ASSERT_EQ(serial.depth, parallel.depth);
  ASSERT_EQ(serial.truncated, parallel.truncated);
  ASSERT_EQ(serial.levels.size(), parallel.levels.size());
  for (std::size_t s = 0; s < serial.levels.size(); ++s) {
    ASSERT_EQ(serial.levels[s].size(), parallel.levels[s].size())
        << "level " << s;
    for (std::size_t i = 0; i < serial.levels[s].size(); ++i) {
      const PrefixState& a = serial.levels[s][i];
      const PrefixState& b = parallel.levels[s][i];
      EXPECT_EQ(a.inputs, b.inputs) << "level " << s << " state " << i;
      EXPECT_EQ(a.reach, b.reach);
      EXPECT_EQ(a.adv_state, b.adv_state);
    }
  }
  EXPECT_EQ(serial.first_parent, parallel.first_parent);
  EXPECT_EQ(serial.children, parallel.children);
  EXPECT_EQ(serial.leaf_component, parallel.leaf_component);
  ASSERT_EQ(serial.components.size(), parallel.components.size());
  for (std::size_t c = 0; c < serial.components.size(); ++c) {
    const ComponentInfo& a = serial.components[c];
    const ComponentInfo& b = parallel.components[c];
    EXPECT_EQ(a.num_leaves, b.num_leaves) << "component " << c;
    EXPECT_EQ(a.valence_mask, b.valence_mask);
    EXPECT_EQ(a.common_broadcast, b.common_broadcast);
    EXPECT_EQ(a.broadcasters, b.broadcasters);
    EXPECT_EQ(a.common_input_values, b.common_input_values);
    EXPECT_EQ(a.assigned_value, b.assigned_value);
    EXPECT_EQ(a.assigned_value_strong, b.assigned_value_strong);
  }
  EXPECT_EQ(serial.valence_separated, parallel.valence_separated);
  EXPECT_EQ(serial.merged_components, parallel.merged_components);
  EXPECT_EQ(serial.valent_broadcastable, parallel.valent_broadcastable);
  EXPECT_EQ(serial.strong_assignable, parallel.strong_assignable);
  // Interner ids are a relabeling, but equality structure must agree:
  // two leaves share process p's view serially iff they do in parallel.
  const auto& sl = serial.leaves();
  const auto& pl = parallel.leaves();
  for (std::size_t i = 0; i < sl.size(); ++i) {
    for (std::size_t j = i + 1; j < sl.size() && j < i + 16; ++j) {
      for (std::size_t p = 0; p < sl[i].views.size(); ++p) {
        EXPECT_EQ(sl[i].views[p] == sl[j].views[p],
                  pl[i].views[p] == pl[j].views[p]);
      }
    }
  }
}

TEST(ParallelAnalyze, MatchesSerialOnLossyLink) {
  for (const unsigned mask : {0b011u, 0b101u, 0b111u}) {
    const auto ma = make_lossy_link(mask);
    for (const bool keep_levels : {false, true}) {
      AnalysisOptions options;
      options.depth = 4;
      options.keep_levels = keep_levels;
      const DepthAnalysis serial = analyze_depth(*ma, options);
      for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        expect_analysis_equal(
            serial, sweep::parallel_analyze_depth(*ma, options, pool));
      }
    }
  }
}

TEST(ParallelAnalyze, MatchesSerialAtEveryChunkSize) {
  // Sub-root sharding forced down to one-state chunks must reproduce the
  // serial analysis exactly -- including tree links.
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 4;
  options.keep_levels = true;
  const DepthAnalysis serial = analyze_depth(*ma, options);
  for (const std::size_t chunk_states : {std::size_t{1}, std::size_t{2},
                                         std::size_t{7}, std::size_t{64}}) {
    for (const int threads : {1, 3}) {
      ThreadPool pool(threads);
      ShardingOptions sharding;
      sharding.chunk_states = chunk_states;
      expect_analysis_equal(serial,
                            sweep::parallel_analyze_depth(
                                *ma, options, pool, nullptr, sharding));
    }
  }
}

TEST(ParallelAnalyze, MatchesSerialOnOmissionN3) {
  const auto ma = make_omission_adversary(3, 1);
  AnalysisOptions options;
  options.depth = 2;
  options.max_states = 6'000'000;
  options.keep_levels = false;
  const DepthAnalysis serial = analyze_depth(*ma, options);
  ThreadPool pool(3);
  expect_analysis_equal(serial,
                        sweep::parallel_analyze_depth(*ma, options, pool));
  ShardingOptions fine;
  fine.chunk_states = 1;
  expect_analysis_equal(serial, sweep::parallel_analyze_depth(
                                    *ma, options, pool, nullptr, fine));
}

TEST(ParallelAnalyze, TruncationMatchesSerial) {
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 6;
  options.max_states = 50;  // overflows at some level > 1
  const DepthAnalysis serial = analyze_depth(*ma, options);
  ASSERT_TRUE(serial.truncated);
  for (const std::size_t chunk_states : {std::size_t{0}, std::size_t{1}}) {
    for (const int threads : {1, 3}) {
      ThreadPool pool(threads);
      ShardingOptions sharding;
      sharding.chunk_states = chunk_states;
      const DepthAnalysis parallel = sweep::parallel_analyze_depth(
          *ma, options, pool, nullptr, sharding);
      EXPECT_TRUE(parallel.truncated);
      EXPECT_EQ(parallel.depth, serial.depth);
      EXPECT_EQ(parallel.leaves().size(), serial.leaves().size());
    }
  }
}

// One budgeted pass decides truncation exactly: omission(3,2) has 176
// classes at level 1 and exactly 3872 at level 2, so a cap of 3872 fits
// and 3871 truncates -- at every chunk size and thread count, with one
// abort tick and the interner left at its depth-1 size, like the serial
// analysis.
TEST(ParallelAnalyze, BudgetBoundaryIsExactInOnePass) {
  const auto ma = make_omission_adversary(3, 2);
  AnalysisOptions options;
  options.depth = 2;
  options.keep_levels = false;
  AnalysisOptions depth_one = options;
  depth_one.depth = 1;
  const std::size_t depth_one_views =
      analyze_depth(*ma, depth_one).interner->size();
  for (const std::size_t max_states : {std::size_t{3872}, std::size_t{3871}}) {
    options.max_states = max_states;
    const DepthAnalysis serial = analyze_depth(*ma, options);
    const bool fits = max_states == 3872;
    ASSERT_EQ(serial.truncated, !fits);
    for (const std::size_t chunk_states : {std::size_t{1}, std::size_t{0}}) {
      for (const int threads : {1, 4}) {
        ThreadPool pool(threads);
        ShardingOptions sharding;
        sharding.chunk_states = chunk_states;
        telemetry::MetricsRegistry registry;
        AnalysisOptions traced = options;
        traced.metrics = &registry;
        const DepthAnalysis parallel = sweep::parallel_analyze_depth(
            *ma, traced, pool, nullptr, sharding);
        SCOPED_TRACE(testing::Message()
                     << "max_states " << max_states << " chunk "
                     << chunk_states << " threads " << threads);
        EXPECT_EQ(parallel.truncated, !fits);
        EXPECT_EQ(parallel.depth, fits ? 2 : 1);
        EXPECT_EQ(parallel.leaves().size(), fits ? 3872u : 176u);
        EXPECT_EQ(registry.snapshot().counters.budget_early_aborts,
                  fits ? 0u : 1u);
        EXPECT_EQ(parallel.interner->size(), serial.interner->size());
        if (!fits) {
          EXPECT_EQ(parallel.interner->size(), depth_one_views);
        }
        expect_analysis_equal(serial, parallel);
      }
    }
  }
}

TEST(ParallelAnalyze, ChunkProgressCountsEveryChunkOfEveryLevel) {
  const auto ma = make_omission_adversary(2, 1);
  AnalysisOptions options;
  options.depth = 3;
  ThreadPool pool(2);
  ShardingOptions sharding;
  sharding.chunk_states = 4;  // force sub-root splitting on a skewed level
  std::vector<ChunkProgress> events;
  sharding.on_chunk = [&](const ChunkProgress& progress) {
    events.push_back(progress);
  };
  const DepthAnalysis analysis =
      sweep::parallel_analyze_depth(*ma, options, pool, nullptr, sharding);
  const DepthAnalysis serial = analyze_depth(*ma, options);
  expect_analysis_equal(serial, analysis);

  // Per level: chunks_done runs 1..chunks_total, and at least one level
  // of this skewed workload splits a root into several chunks (more
  // chunks than the 4 input-vector roots).
  bool split_below_root = false;
  std::size_t seen_for_level = 0;
  int level = 0;
  for (const ChunkProgress& event : events) {
    EXPECT_EQ(event.depth, 3);
    if (event.level != level) {
      EXPECT_EQ(seen_for_level, 0u) << "level change mid-count";
      level = event.level;
    }
    ++seen_for_level;
    EXPECT_EQ(event.chunks_done, seen_for_level);
    EXPECT_GT(event.chunks_total, 0u);
    if (event.chunks_done == event.chunks_total) seen_for_level = 0;
    if (event.chunks_total > 4u) split_below_root = true;
  }
  EXPECT_EQ(seen_for_level, 0u) << "last level's chunk count incomplete";
  EXPECT_TRUE(split_below_root)
      << "chunk_states=4 never split a root; workload not skewed enough";
}

TEST(ParallelCheck, AgreesWithSerialVerdicts) {
  for (const unsigned mask : {0b011u, 0b100u, 0b111u}) {
    const auto ma = make_lossy_link(mask);
    SolvabilityOptions options;
    options.max_depth = 5;
    const SolvabilityResult serial = check_solvability(*ma, options);
    ThreadPool pool(2);
    const SolvabilityResult parallel =
        sweep::parallel_check_solvability(*ma, options, pool);
    EXPECT_EQ(parallel.verdict, serial.verdict);
    EXPECT_EQ(parallel.certified_depth, serial.certified_depth);
    EXPECT_EQ(parallel.per_depth.size(), serial.per_depth.size());
    for (std::size_t d = 0; d < serial.per_depth.size(); ++d) {
      EXPECT_EQ(parallel.per_depth[d].num_leaf_classes,
                serial.per_depth[d].num_leaf_classes);
      EXPECT_EQ(parallel.per_depth[d].num_components,
                serial.per_depth[d].num_components);
      EXPECT_EQ(parallel.per_depth[d].interner_views,
                serial.per_depth[d].interner_views);
    }
    EXPECT_EQ(parallel.table.has_value(), serial.table.has_value());
    if (serial.table.has_value()) {
      EXPECT_EQ(parallel.table->size(), serial.table->size());
      EXPECT_EQ(parallel.table->worst_case_decision_round(),
                serial.table->worst_case_decision_round());
    }
  }
}

TEST(ParallelCheck, ChunkedVerdictAndStatsMatchUnchunked) {
  const auto ma = make_lossy_link(0b011);
  SolvabilityOptions options;
  options.max_depth = 5;
  ThreadPool pool(2);
  const SolvabilityResult base =
      sweep::parallel_check_solvability(*ma, options, pool);
  ShardingOptions fine;
  fine.chunk_states = 1;
  const SolvabilityResult chunked =
      sweep::parallel_check_solvability(*ma, options, pool, {}, fine);
  EXPECT_EQ(chunked.verdict, base.verdict);
  EXPECT_EQ(chunked.certified_depth, base.certified_depth);
  ASSERT_EQ(chunked.per_depth.size(), base.per_depth.size());
  for (std::size_t d = 0; d < base.per_depth.size(); ++d) {
    EXPECT_EQ(chunked.per_depth[d], base.per_depth[d]) << "depth " << d + 1;
  }
  ASSERT_TRUE(chunked.table.has_value());
  EXPECT_EQ(chunked.table->size(), base.table->size());
}

// ---- ParallelDeepening: one shard set across all depths of a check -------

/// Runs `body` at threads {1, 4} x chunk {1, default}.
void for_each_execution(
    const std::function<void(ThreadPool&, const ShardingOptions&)>& body) {
  for (const int threads : {1, 4}) {
    ThreadPool pool(threads);
    for (const std::size_t chunk_states : {std::size_t{1}, std::size_t{0}}) {
      ShardingOptions sharding;
      sharding.chunk_states = chunk_states;
      SCOPED_TRACE(testing::Message()
                   << "threads " << threads << " chunk " << chunk_states);
      body(pool, sharding);
    }
  }
}

void expect_same_check(const SolvabilityResult& oracle,
                       const SolvabilityResult& parallel) {
  EXPECT_EQ(parallel.verdict, oracle.verdict);
  EXPECT_EQ(parallel.certified_depth, oracle.certified_depth);
  EXPECT_EQ(parallel.per_depth, oracle.per_depth);
  ASSERT_EQ(parallel.analysis.has_value(), oracle.analysis.has_value());
  if (oracle.analysis.has_value()) {
    expect_analysis_equal(*oracle.analysis, *parallel.analysis);
  }
}

// Each depth of the incremental check expands one new level on the shards
// kept from the previous depth; every per-depth row (interned-view counts
// included) and the final analysis must still equal the single-scan
// reference, which re-expands every depth from scratch.
TEST(ParallelDeepening, MatchesOracleAtEveryDepth) {
  struct Case {
    std::unique_ptr<MessageAdversary> adversary;
    int max_depth;
  };
  std::vector<Case> cases;
  cases.push_back({make_lossy_link(0b111), 6});
  cases.push_back({make_heard_of_adversary(2, 1), 5});
  for (const Case& c : cases) {
    SolvabilityOptions options;
    options.max_depth = c.max_depth;
    const SolvabilityResult oracle =
        check_solvability_oracle(*c.adversary, options);
    ASSERT_EQ(oracle.verdict, SolvabilityVerdict::kNotSeparated);
    ASSERT_EQ(oracle.per_depth.size(),
              static_cast<std::size_t>(c.max_depth));
    for_each_execution([&](ThreadPool& pool, const ShardingOptions& sharding) {
      expect_same_check(oracle, sweep::parallel_check_solvability(
                                    *c.adversary, options, pool, {},
                                    sharding));
    });
  }
}

// The work counters prove the saving: six depths commit six levels, each
// exactly once, instead of 1 + 2 + ... + 6.
TEST(ParallelDeepening, CommitsEveryLevelOnce) {
  const auto ma = make_lossy_link(0b111);
  SolvabilityOptions options;
  options.max_depth = 6;
  const SolvabilityResult oracle = check_solvability_oracle(*ma, options);
  std::uint64_t level_sizes = 0;
  for (const DepthStats& stats : oracle.per_depth) {
    level_sizes += stats.num_leaf_classes;
  }
  for_each_execution([&](ThreadPool& pool, const ShardingOptions& sharding) {
    telemetry::MetricsRegistry registry;
    SolvabilityOptions traced = options;
    traced.metrics = &registry;
    sweep::parallel_check_solvability(*ma, traced, pool, {}, sharding);
    const telemetry::TelemetryCounters counters = registry.snapshot().counters;
    EXPECT_EQ(counters.levels_committed, 6u);
    EXPECT_EQ(counters.states_committed, level_sizes);
  });
}

// omission(3,2) has 176 classes at level 1 and 3872 at level 2: the second
// depth's one new level overflows a 3871 cap on the kept shards, and the
// result carries the depth-1 analysis exactly as the reference does.
TEST(ParallelDeepening, TruncationKeepsTheLastCompleteDepth) {
  const auto ma = make_omission_adversary(3, 2);
  SolvabilityOptions options;
  options.max_depth = 4;
  options.max_states = 3871;
  const SolvabilityResult oracle = check_solvability_oracle(*ma, options);
  ASSERT_EQ(oracle.verdict, SolvabilityVerdict::kResourceLimit);
  ASSERT_EQ(oracle.analysis->depth, 1);
  for_each_execution([&](ThreadPool& pool, const ShardingOptions& sharding) {
    const SolvabilityResult parallel =
        sweep::parallel_check_solvability(*ma, options, pool, {}, sharding);
    expect_same_check(oracle, parallel);
    EXPECT_TRUE(parallel.analysis->truncated);
  });
}

// The certify pass runs from scratch after the kept shards are released;
// its table must decide every prefix exactly like the serial checker's.
TEST(ParallelDeepening, CertifiedTableMatchesSerial) {
  const auto ma = make_lossy_link(0b011);
  SolvabilityOptions options;
  options.max_depth = 5;
  options.build_table = true;
  const SolvabilityResult serial = check_solvability(*ma, options);
  ASSERT_EQ(serial.verdict, SolvabilityVerdict::kSolvable);
  ASSERT_TRUE(serial.table.has_value());
  for_each_execution([&](ThreadPool& pool, const ShardingOptions& sharding) {
    const SolvabilityResult parallel =
        sweep::parallel_check_solvability(*ma, options, pool, {}, sharding);
    expect_same_check(serial, parallel);
    ASSERT_TRUE(parallel.table.has_value());
    const DecisionTable& a = *serial.table;
    const DecisionTable& b = *parallel.table;
    EXPECT_EQ(b.depth(), a.depth());
    EXPECT_EQ(b.size(), a.size());
    EXPECT_EQ(b.entries_per_round(), a.entries_per_round());
    EXPECT_EQ(b.decided_fraction(), a.decided_fraction());
    // Ids differ between the interners; decisions per prefix may not.
    const auto& levels_a = serial.analysis->levels;
    const auto& levels_b = parallel.analysis->levels;
    ASSERT_EQ(levels_b.size(), levels_a.size());
    for (std::size_t s = 0; s < levels_a.size(); ++s) {
      ASSERT_EQ(levels_b[s].size(), levels_a[s].size());
      for (std::size_t i = 0; i < levels_a[s].size(); ++i) {
        for (std::size_t p = 0; p < levels_a[s][i].views.size(); ++p) {
          EXPECT_EQ(b.decide(static_cast<int>(s), static_cast<ProcessId>(p),
                             levels_b[s][i].views[p]),
                    a.decide(static_cast<int>(s), static_cast<ProcessId>(p),
                             levels_a[s][i].views[p]))
              << "level " << s << " state " << i << " process " << p;
        }
      }
    }
  });
}

// ---- SweepSpec / run_sweep_on -------------------------------------------

sweep::SweepJob make_solvability_job(const FamilyPoint& point,
                                     const SolvabilityOptions& options) {
  sweep::SweepJob job;
  job.point = point;
  job.kind = JobKind::kSolvability;
  job.solve = options;
  return job;
}

sweep::SweepJob make_series_job(const FamilyPoint& point,
                                const AnalysisOptions& options) {
  sweep::SweepJob job;
  job.point = point;
  job.kind = JobKind::kDepthSeries;
  job.analysis = options;
  return job;
}

SweepSpec small_spec() {
  SweepSpec spec;
  spec.name = "unit";
  SolvabilityOptions options;
  options.max_depth = 5;
  for (const int mask : {1, 2, 3, 5, 7}) {
    spec.jobs.push_back(
        make_solvability_job({"lossy_link", 2, mask}, options));
  }
  AnalysisOptions series;
  series.depth = 4;
  spec.jobs.push_back(make_series_job({"lossy_link", 2, 7}, series));
  return spec;
}

std::string spec_json(const std::vector<JobOutcome>& outcomes) {
  std::ostringstream out;
  JsonWriter writer(out);
  sweep::write_sweep_json(writer, "unit", outcomes);
  return out.str();
}

std::vector<JobOutcome> run_small_spec(int threads) {
  ThreadPool pool(threads);
  return sweep::run_sweep_on(small_spec(), pool);
}

TEST(RunSweepOn, DeterministicOrderingAndJsonAcrossThreadCounts) {
  const std::vector<JobOutcome> base = run_small_spec(1);
  ASSERT_EQ(base.size(), 6u);
  EXPECT_EQ(base[0].label, "{<-}");
  EXPECT_EQ(base[5].kind, JobKind::kDepthSeries);
  const std::string base_json = spec_json(base);
  for (const int threads : {2, int(std::thread::hardware_concurrency())}) {
    const std::vector<JobOutcome> outcomes =
        run_small_spec(std::max(threads, 1));
    EXPECT_EQ(spec_json(outcomes), base_json)
        << "JSON differs at " << threads << " threads";
  }
}

TEST(RunSweepOn, JsonIdenticalUnderFinestChunking) {
  const std::string base_json = spec_json(run_small_spec(2));
  sweep::set_default_chunk_states(1);
  const std::string chunked_json = spec_json(run_small_spec(2));
  sweep::set_default_chunk_states(0);
  EXPECT_EQ(chunked_json, base_json);
}

TEST(RunSweepOn, OnJobDoneHookSeesEveryJobExactlyOnceWithFinalAggregates) {
  for (const int threads : {1, 4}) {
    SweepSpec spec = small_spec();
    std::vector<int> calls(spec.jobs.size(), 0);
    std::vector<sweep::JobRecord> from_hook(spec.jobs.size());
    spec.on_job_done = [&](std::size_t j, const JobOutcome& outcome) {
      // Serialized by the engine's internal mutex; j indexes spec.jobs.
      ++calls[j];
      from_hook[j] = sweep::summarize(outcome);
    };
    ThreadPool pool(threads);
    const std::vector<JobOutcome> outcomes =
        sweep::run_sweep_on(spec, pool);
    ASSERT_EQ(outcomes.size(), from_hook.size());
    for (std::size_t j = 0; j < outcomes.size(); ++j) {
      EXPECT_EQ(calls[j], 1) << "job " << j << " at " << threads;
      EXPECT_EQ(from_hook[j], sweep::summarize(outcomes[j]))
          << "job " << j << " at " << threads;
    }
  }
}

TEST(RunSweepOn, SeriesContinuesPastSeparation) {
  SweepSpec spec;
  spec.name = "series";
  AnalysisOptions series;
  series.depth = 3;
  spec.jobs.push_back(make_series_job({"lossy_link", 2, 0b011}, series));
  ThreadPool pool(2);
  const auto outcomes = sweep::run_sweep_on(spec, pool);
  ASSERT_EQ(outcomes.size(), 1u);
  // The solvable pair separates at depth 1 but the series keeps going.
  ASSERT_EQ(outcomes[0].series.size(), 3u);
  EXPECT_TRUE(outcomes[0].series[0].separated);
  EXPECT_TRUE(outcomes[0].series[2].separated);
}

TEST(SweepRegistry, DisabledByDefaultAndRecordsInRunOrderWhenEnabled) {
  sweep::SweepRegistry::instance().clear();
  sweep::SweepRegistry::instance().set_enabled(false);
  ThreadPool pool(2);
  SweepSpec disabled_spec = small_spec();
  disabled_spec.jobs.resize(1);
  sweep::SweepRegistry::instance().record(
      disabled_spec.name, sweep::run_sweep_on(disabled_spec, pool));
  EXPECT_TRUE(sweep::SweepRegistry::instance().empty())
      << "registry retained outcomes while disabled";

  sweep::SweepRegistry::instance().set_enabled(true);
  SweepSpec spec = small_spec();
  spec.jobs.resize(2);
  const std::vector<JobOutcome> outcomes = sweep::run_sweep_on(spec, pool);
  sweep::SweepRegistry::instance().record("first", outcomes);
  sweep::SweepRegistry::instance().record("second", outcomes);
  std::ostringstream out;
  sweep::SweepRegistry::instance().write_json(out);
  const std::string json = out.str();
  EXPECT_NE(json.find("topocon-sweep-v1"), std::string::npos);
  EXPECT_LT(json.find("\"first\""), json.find("\"second\""));
  sweep::SweepRegistry::instance().clear();
  sweep::SweepRegistry::instance().set_enabled(false);
}

TEST(FamilyAdapters, BuildAndLabelEveryFamily) {
  EXPECT_EQ(family_point_label({"lossy_link", 2, 0b011}), "{<-, ->}");
  EXPECT_EQ(family_point_label({"omission", 3, 1}), "n=3 f=1");
  EXPECT_EQ(family_point_label({"heard_of", 2, 2}), "n=2 k=2");
  EXPECT_EQ(family_point_label({"windowed_lossy_link", 2, 3}), "w=3");
  EXPECT_EQ(family_point_label({"vssc", 2, 4}), "n=2 stability=4");
  EXPECT_EQ(make_family_adversary({"omission", 3, 1})->num_processes(), 3);
  EXPECT_FALSE(make_family_adversary({"vssc", 2, 2})->is_compact());
  EXPECT_THROW(make_family_adversary({"nope", 2, 0}), std::invalid_argument);
  EXPECT_THROW(make_family_adversary({"lossy_link", 3, 1}),
               std::invalid_argument);
}

TEST(JsonWriterTest, EscapesAndNests) {
  std::ostringstream out;
  JsonWriter writer(out);
  writer.begin_object();
  writer.member("a\"b\\c\n", 1);
  writer.key("list");
  writer.begin_array();
  writer.value("x");
  writer.value(true);
  writer.value(-7);
  writer.end_array();
  writer.end_object();
  EXPECT_EQ(out.str(),
            "{\n  \"a\\\"b\\\\c\\n\": 1,\n  \"list\": [\n    \"x\",\n"
            "    true,\n    -7\n  ]\n}");
}

// ---- run_sweep_on hooks -------------------------------------------------

TEST(RunSweepOn, StreamsHooksInOrder) {
  SweepSpec spec = small_spec();
  ThreadPool pool(2);
  std::vector<int> starts(spec.jobs.size(), 0);
  std::vector<std::vector<int>> depths(spec.jobs.size());
  std::vector<int> chunks(spec.jobs.size(), 0);
  std::vector<int> dones(spec.jobs.size(), 0);
  sweep::SweepHooks hooks;
  hooks.on_job_start = [&](std::size_t j, const sweep::SweepJob&) {
    ++starts[j];
  };
  hooks.on_depth = [&](std::size_t j, const DepthStats& stats) {
    depths[j].push_back(stats.depth);
  };
  hooks.on_chunk = [&](std::size_t j, const ChunkProgress& progress) {
    EXPECT_GT(progress.chunks_total, 0u);
    ++chunks[j];
  };
  hooks.on_job_done = [&](std::size_t j, const JobOutcome&) { ++dones[j]; };
  const std::vector<JobOutcome> outcomes =
      sweep::run_sweep_on(spec, pool, hooks);
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    EXPECT_EQ(starts[j], 1) << "job " << j;
    EXPECT_EQ(dones[j], 1) << "job " << j;
    EXPECT_GT(chunks[j], 0) << "job " << j << " streamed no chunk events";
    // One on_depth per completed depth, in depth order.
    const std::vector<DepthStats>& stats =
        outcomes[j].kind == JobKind::kDepthSeries
            ? outcomes[j].series
            : outcomes[j].result.per_depth;
    ASSERT_EQ(depths[j].size(), stats.size()) << "job " << j;
    for (std::size_t d = 0; d < stats.size(); ++d) {
      EXPECT_EQ(depths[j][d], stats[d].depth);
    }
  }
}

TEST(RunSweepOn, DecisionTableJobExtractsRoundProfile) {
  SweepSpec spec;
  spec.name = "extract";
  sweep::SweepJob job;
  job.point = {"lossy_link", 2, 0b011};
  job.kind = sweep::JobKind::kDecisionTable;
  job.solve.max_depth = 5;
  job.solve.build_table = false;  // forced on by the engine for this kind
  spec.jobs.push_back(job);
  ThreadPool pool(2);
  const std::vector<JobOutcome> outcomes = sweep::run_sweep_on(spec, pool);
  ASSERT_EQ(outcomes.size(), 1u);
  ASSERT_TRUE(outcomes[0].result.table.has_value());
  const sweep::JobRecord record = sweep::summarize(outcomes[0]);
  ASSERT_TRUE(record.table.has_value());
  std::uint64_t total = 0;
  for (const std::uint64_t entries : record.round_entries) {
    total += entries;
  }
  EXPECT_EQ(total, record.table->entries);
  EXPECT_EQ(record.per_depth.size(), 0u)
      << "extraction records carry the table shape, not search stats";
}

}  // namespace
}  // namespace topocon
