// The out-of-core frontier tier (core/spill.*): the spill knobs resolve
// like every other execution-detail default, the per-run temp directory
// never outlives its FrontierSpill, and -- the contract everything else
// rests on -- forcing every chunk through the spill files produces the
// IDENTICAL DepthAnalysis and SolvabilityResult as the in-RAM path, at
// every chunk size and thread count. These tests are the unit-level
// enforcement of the golden --spill-budget-mb CI lanes.
#include <cstdint>
#include <filesystem>
#include <limits>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/omission.hpp"
#include "core/epsilon_approx.hpp"
#include "core/spill.hpp"
#include "runtime/sweep/parallel_solver.hpp"
#include "runtime/sweep/thread_pool.hpp"
#include "telemetry/metrics.hpp"

namespace topocon {
namespace {

/// Restores the process-wide default on scope exit, like the frontier
/// mode guard in frontier_mode_test.cpp.
class DefaultSpillGuard {
 public:
  DefaultSpillGuard() : saved_(default_spill()) {}
  ~DefaultSpillGuard() { set_default_spill(saved_); }

 private:
  SpillOptions saved_;
};

void expect_analyses_identical(const DepthAnalysis& a, const DepthAnalysis& b,
                               const char* what) {
  EXPECT_EQ(a.depth, b.depth) << what;
  EXPECT_EQ(a.truncated, b.truncated) << what;
  ASSERT_EQ(a.levels.size(), b.levels.size()) << what;
  for (std::size_t s = 0; s < a.levels.size(); ++s) {
    ASSERT_EQ(a.levels[s].size(), b.levels[s].size()) << what << " level "
                                                      << s;
    for (std::size_t i = 0; i < a.levels[s].size(); ++i) {
      EXPECT_EQ(a.levels[s][i].inputs, b.levels[s][i].inputs)
          << what << " level " << s << " state " << i;
      // Identical interner insertion order => identical view ids: the
      // spilled tables must re-intern in exactly the in-RAM order.
      EXPECT_EQ(a.levels[s][i].views, b.levels[s][i].views)
          << what << " level " << s << " state " << i;
      EXPECT_EQ(a.levels[s][i].reach, b.levels[s][i].reach)
          << what << " level " << s << " state " << i;
      EXPECT_EQ(a.levels[s][i].adv_state, b.levels[s][i].adv_state)
          << what << " level " << s << " state " << i;
    }
  }
  EXPECT_EQ(a.children, b.children) << what;
  EXPECT_EQ(a.first_parent, b.first_parent) << what;
  EXPECT_EQ(a.leaf_component, b.leaf_component) << what;
  EXPECT_EQ(a.components, b.components) << what;
  EXPECT_EQ(a.valence_separated, b.valence_separated) << what;
  EXPECT_EQ(a.merged_components, b.merged_components) << what;
  EXPECT_EQ(a.valent_broadcastable, b.valent_broadcastable) << what;
  EXPECT_EQ(a.strong_assignable, b.strong_assignable) << what;
  ASSERT_NE(a.interner, nullptr) << what;
  ASSERT_NE(b.interner, nullptr) << what;
  EXPECT_EQ(a.interner->size(), b.interner->size()) << what;
}

TEST(SpillKnobs, BudgetMbToBytesSaturates) {
  EXPECT_EQ(spill_budget_mb_to_bytes(0), 0u);  // 0 = disabled/inherit
  EXPECT_EQ(spill_budget_mb_to_bytes(1), std::uint64_t{1} << 20);
  EXPECT_EQ(spill_budget_mb_to_bytes(1024), std::uint64_t{1} << 30);
  EXPECT_EQ(spill_budget_mb_to_bytes(std::numeric_limits<std::uint64_t>::max()),
            std::numeric_limits<std::uint64_t>::max());
}

TEST(SpillKnobs, ResolveFallsBackToProcessDefault) {
  DefaultSpillGuard guard;
  set_default_spill(SpillOptions{});
  EXPECT_EQ(resolve_spill({}).budget_bytes, 0u);  // initial: disabled

  SpillOptions pinned;
  pinned.budget_bytes = 123;
  pinned.dir = "/tmp/topocon-spill-test-default";
  set_default_spill(pinned);
  // budget 0 inherits the whole default.
  const SpillOptions inherited = resolve_spill({});
  EXPECT_EQ(inherited.budget_bytes, 123u);
  EXPECT_EQ(inherited.dir, pinned.dir);
  // An explicit budget wins; an empty dir still falls back.
  SpillOptions partial;
  partial.budget_bytes = 456;
  const SpillOptions resolved = resolve_spill(partial);
  EXPECT_EQ(resolved.budget_bytes, 456u);
  EXPECT_EQ(resolved.dir, pinned.dir);
  // Fully explicit options pass through untouched.
  SpillOptions full;
  full.budget_bytes = 789;
  full.dir = "/tmp/topocon-spill-test-explicit";
  EXPECT_EQ(resolve_spill(full).budget_bytes, 789u);
  EXPECT_EQ(resolve_spill(full).dir, full.dir);
}

TEST(SpillLifecycle, TempSubdirIsUniqueAndRemovedOnDestruction) {
  const std::filesystem::path base =
      std::filesystem::temp_directory_path() / "topocon-spill-lifecycle";
  std::filesystem::remove_all(base);
  std::filesystem::create_directories(base);
  SpillOptions options;
  options.budget_bytes = 1;
  options.dir = base.string();
  std::string dir_a;
  {
    FrontierSpill spill_a(options);
    FrontierSpill spill_b(options);
    dir_a = spill_a.dir();
    EXPECT_TRUE(std::filesystem::is_directory(spill_a.dir()));
    EXPECT_TRUE(std::filesystem::is_directory(spill_b.dir()));
    EXPECT_NE(spill_a.dir(), spill_b.dir());
    // The per-run subdirectory lives under the requested base.
    EXPECT_EQ(std::filesystem::path(spill_a.dir()).parent_path(), base);
  }
  EXPECT_FALSE(std::filesystem::exists(dir_a));
  std::filesystem::remove_all(base);
}

TEST(SpillDifferential, ParallelAnalysisIdenticalWithSpillForced) {
  // The tentpole workload shape: omission n=3 f=2 grows heavy levels
  // whose chunks all exceed a 1-byte budget, so EVERY chunk round-trips
  // through the spill files.
  const auto ma = make_omission_adversary(3, 2);
  AnalysisOptions options;
  options.depth = 3;
  options.max_states = 6'000'000;
  sweep::ThreadPool pool(4);
  const DepthAnalysis in_ram =
      sweep::parallel_analyze_depth(*ma, options, pool);

  AnalysisOptions spilled_options = options;
  spilled_options.spill.budget_bytes = 1;
  const DepthAnalysis spilled =
      sweep::parallel_analyze_depth(*ma, spilled_options, pool);
  expect_analyses_identical(in_ram, spilled, "spill vs in-RAM");
  EXPECT_GT(spilled.leaves().size(), 10'000u);  // non-trivial workload

  // ... and with sub-root sharding forced to its finest setting, the
  // worst case for per-chunk file counts.
  sweep::ShardingOptions finest;
  finest.chunk_states = 1;
  const DepthAnalysis spilled_finest = sweep::parallel_analyze_depth(
      *ma, spilled_options, pool, nullptr, finest);
  expect_analyses_identical(in_ram, spilled_finest,
                            "spill chunk=1 vs in-RAM");
}

TEST(SpillDifferential, SolvabilityResultIdenticalAcrossBudgets) {
  const auto ma = make_omission_adversary(3, 1);
  SolvabilityOptions options;
  options.max_depth = 3;
  options.max_states = 6'000'000;
  sweep::ThreadPool pool(2);
  const SolvabilityResult in_ram =
      sweep::parallel_check_solvability(*ma, options, pool);

  for (const std::uint64_t budget : {std::uint64_t{1}, std::uint64_t{1} << 20}) {
    SolvabilityOptions spilled_options = options;
    spilled_options.spill.budget_bytes = budget;
    const SolvabilityResult spilled =
        sweep::parallel_check_solvability(*ma, spilled_options, pool);
    EXPECT_EQ(spilled.verdict, in_ram.verdict) << budget;
    EXPECT_EQ(spilled.certified_depth, in_ram.certified_depth) << budget;
    EXPECT_EQ(spilled.closure_only, in_ram.closure_only) << budget;
    EXPECT_EQ(spilled.per_depth, in_ram.per_depth) << budget;
    ASSERT_TRUE(spilled.analysis.has_value()) << budget;
    ASSERT_TRUE(in_ram.analysis.has_value()) << budget;
    expect_analyses_identical(*in_ram.analysis, *spilled.analysis,
                              "solvability final analysis");
  }
}

TEST(SpillTelemetry, CountersAreCommitOnlyAndThreadCountInvariant) {
  const auto ma = make_omission_adversary(3, 1);
  AnalysisOptions options;
  options.depth = 2;
  options.max_states = 6'000'000;
  options.frontier = FrontierMode::kAuto;  // pin: counters may depend on it

  // In-RAM run: the spill section must stay all-zero.
  telemetry::MetricsRegistry dry;
  options.metrics = &dry;
  sweep::ThreadPool pool(4);
  sweep::parallel_analyze_depth(*ma, options, pool);
  EXPECT_EQ(dry.snapshot().spill.chunks_spilled, 0u);
  EXPECT_EQ(dry.snapshot().spill.bytes_written, 0u);

  // Forced spill: every committed level replays what it wrote.
  options.spill.budget_bytes = 1;
  telemetry::MetricsRegistry wet;
  options.metrics = &wet;
  sweep::parallel_analyze_depth(*ma, options, pool);
  const telemetry::SpillStats stats = wet.snapshot().spill;
  EXPECT_GT(stats.chunks_spilled, 0u);
  EXPECT_GT(stats.bytes_written, 0u);
  EXPECT_EQ(stats.bytes_replayed, stats.bytes_written);
  EXPECT_GE(stats.replay_passes, 1u);

  // Deterministic at any thread count (for fixed chunk/frontier knobs).
  sweep::ThreadPool serial(1);
  telemetry::MetricsRegistry again;
  options.metrics = &again;
  sweep::parallel_analyze_depth(*ma, options, serial);
  const telemetry::SpillStats repeat = again.snapshot().spill;
  EXPECT_EQ(repeat.chunks_spilled, stats.chunks_spilled);
  EXPECT_EQ(repeat.bytes_written, stats.bytes_written);
  EXPECT_EQ(repeat.bytes_replayed, stats.bytes_replayed);
  EXPECT_EQ(repeat.replay_passes, stats.replay_passes);
}

}  // namespace
}  // namespace topocon
