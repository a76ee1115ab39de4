// Forwards to the level driver (core/shard_set.hpp) under the names
// perfbench/ calls; they go once perfbench calls core directly. Every
// other caller uses analyze_depth / check_solvability / depth_series with
// ThreadPool::as_parallel_for().
#pragma once

#include "core/epsilon_approx.hpp"
#include "core/frontier.hpp"
#include "runtime/sweep/thread_pool.hpp"

namespace topocon::sweep {

using topocon::kDefaultChunkStates;

/// analyze_depth on `pool`; kept for perfbench/.
inline DepthAnalysis parallel_analyze_depth(const MessageAdversary& adversary,
                                            const AnalysisOptions& options,
                                            ThreadPool& pool) {
  return analyze_depth(adversary, options, nullptr, pool.as_parallel_for());
}

}  // namespace topocon::sweep
