// Long-running determinism stress for the sweep engine (ctest label:
// stress; excluded from the default CI matrix, run by the dedicated
// stress/TSan lanes). Repeats the acceptance checks at full scale: the
// E5-style omission family sweep must produce byte-identical JSON at 1
// thread, 8 threads, and hardware_concurrency, and heavyweight analyses
// on an oversubscribed pool must match the calling thread's exactly.
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "adversary/family.hpp"
#include "api/api.hpp"
#include "core/solvability.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon {
namespace {

std::vector<sweep::JobOutcome> run_omission_bench(int threads) {
  api::Session session({.num_threads = threads, .record_global = false});
  std::vector<api::Query> queries;
  SolvabilityOptions options;
  options.max_depth = 3;
  options.max_states = 6'000'000;
  options.build_table = false;
  for (int f = 0; f <= 4; ++f) {
    queries.push_back(api::solvability({"omission", 3, f}, options));
  }
  return session.run("stress-omission-n3", queries);
}

std::string sweep_json(const std::vector<sweep::JobOutcome>& outcomes) {
  std::ostringstream out;
  sweep::JsonWriter writer(out);
  sweep::write_sweep_json(writer, "stress-omission-n3", outcomes);
  return out.str();
}

// The PR acceptance criterion, as a regression test: the full n = 3
// omission bench sweep yields byte-identical JSON at 1 vs 8 vs
// hardware_concurrency threads.
TEST(SweepStress, OmissionBenchJsonByteIdenticalAcrossThreadCounts) {
  const std::string base = sweep_json(run_omission_bench(1));
  EXPECT_FALSE(base.empty());
  for (const int threads :
       {8, static_cast<int>(std::thread::hardware_concurrency())}) {
    const std::string json = sweep_json(run_omission_bench(std::max(threads, 1)));
    EXPECT_EQ(json, base) << "JSON differs at " << threads << " threads";
  }
}

// Deep windowed analysis (26k leaf classes at w = 1) under an
// oversubscribed pool: exact agreement with the same driver on one lane.
TEST(SweepStress, DeepWindowedAnalysisMatchesOneLaneOversubscribed) {
  const auto ma = make_family_adversary({"windowed_lossy_link", 2, 1});
  AnalysisOptions options;
  options.depth = 8;
  options.keep_levels = false;
  options.max_states = 6'000'000;
  const DepthAnalysis serial = analyze_depth(*ma, options);
  const int hw = sweep::resolve_threads(0);
  sweep::ThreadPool pool(2 * hw + 1);
  const DepthAnalysis parallel =
      analyze_depth(*ma, options, nullptr, pool.as_parallel_for());
  EXPECT_EQ(parallel.leaf_component, serial.leaf_component);
  EXPECT_EQ(parallel.components.size(), serial.components.size());
  EXPECT_EQ(parallel.merged_components, serial.merged_components);
  EXPECT_EQ(parallel.valence_separated, serial.valence_separated);
}

// Repeated mixed-family sweeps: run the same heterogeneous spec many
// times on different pools and require identical JSON every time (hunts
// scheduling-dependent nondeterminism that single runs can miss).
TEST(SweepStress, RepeatedMixedSweepsAreStable) {
  const auto run_mixed = [](int threads) {
    api::Session session({.num_threads = threads, .record_global = false});
    std::vector<api::Query> queries;
    SolvabilityOptions solve;
    solve.max_depth = 5;
    for (int mask = 1; mask < 8; ++mask) {
      queries.push_back(api::solvability({"lossy_link", 2, mask}, solve));
    }
    SolvabilityOptions heard;
    heard.max_depth = 2;
    heard.max_states = 6'000'000;
    heard.build_table = false;
    queries.push_back(api::solvability({"heard_of", 3, 2}, heard));
    AnalysisOptions series;
    series.depth = 6;
    series.keep_levels = false;
    queries.push_back(api::depth_series({"lossy_link", 2, 7}, series));
    queries.push_back(api::decision_table({"lossy_link", 2, 5}, solve));
    return session.run("stress-mixed", queries);
  };
  std::ostringstream base_out;
  sweep::JsonWriter base_writer(base_out);
  sweep::write_sweep_json(base_writer, "stress-mixed", run_mixed(1));
  const std::string base = base_out.str();
  for (int round = 0; round < 6; ++round) {
    std::ostringstream out;
    sweep::JsonWriter writer(out);
    sweep::write_sweep_json(writer, "stress-mixed", run_mixed(2 + round));
    ASSERT_EQ(out.str(), base) << "round " << round;
  }
}

}  // namespace
}  // namespace topocon
