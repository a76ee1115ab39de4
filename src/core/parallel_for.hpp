// The fork-join shape the core layer parallelizes over, without
// depending on the runtime layer's ThreadPool: a ParallelFor runs
// fn(0), ..., fn(count - 1), possibly concurrently, and returns when all
// have finished (sweep::ThreadPool::parallel_for binds to it). Callers
// confine each index's effects to per-index state, so their results can
// never depend on scheduling. An empty ParallelFor is a plain loop on the
// calling thread -- the same code with one lane.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>

namespace topocon {

using ParallelFor = std::function<void(
    std::size_t count, const std::function<void(std::size_t)>& fn)>;

inline void run_parallel(const ParallelFor& parallel_for, std::size_t count,
                         const std::function<void(std::size_t)>& fn) {
  if (parallel_for) {
    parallel_for(count, fn);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) fn(i);
}

/// Indices per task of run_parallel_blocks.
inline constexpr std::size_t kParallelBlock = std::size_t{1} << 15;

inline std::size_t num_parallel_blocks(std::size_t n) {
  return (n + kParallelBlock - 1) / kParallelBlock;
}

/// Cuts [0, n) into num_parallel_blocks(n) consecutive blocks of
/// kParallelBlock indices and runs fn(block, begin, end) for each on
/// `parallel_for`.
inline void run_parallel_blocks(
    const ParallelFor& parallel_for, std::size_t n,
    const std::function<void(std::size_t, std::size_t, std::size_t)>& fn) {
  run_parallel(parallel_for, num_parallel_blocks(n), [&](std::size_t block) {
    const std::size_t begin = block * kParallelBlock;
    fn(block, begin, std::min(n, begin + kParallelBlock));
  });
}

}  // namespace topocon
