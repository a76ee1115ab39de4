#include "telemetry/metrics.hpp"

#include "telemetry/trace.hpp"

namespace topocon::telemetry {

void PendingStats::add(const PendingStats& other) {
  chunks += other.chunks;
  emissions += other.emissions;
  pending_views += other.pending_views;
  rehashes += other.rehashes;
}

void MetricsRegistry::add_pending(const PendingStats& stats) {
  states_expanded_.fetch_add(stats.emissions, std::memory_order_relaxed);
  pending_views_.fetch_add(stats.pending_views, std::memory_order_relaxed);
  chunks_expanded_.fetch_add(stats.chunks, std::memory_order_relaxed);
  wordseq_rehashes_.fetch_add(stats.rehashes, std::memory_order_relaxed);
}

void MetricsRegistry::add_commit(std::uint64_t states,
                                 std::uint64_t new_views) {
  states_committed_.fetch_add(states, std::memory_order_relaxed);
  views_interned_.fetch_add(new_views, std::memory_order_relaxed);
}

void MetricsRegistry::add_budget_abort() {
  budget_early_aborts_.fetch_add(1, std::memory_order_relaxed);
}

void MetricsRegistry::note_frontier(std::uint64_t states) {
  std::uint64_t seen = frontier_high_water_.load(std::memory_order_relaxed);
  while (seen < states &&
         !frontier_high_water_.compare_exchange_weak(
             seen, states, std::memory_order_relaxed)) {
  }
}

void MetricsRegistry::add_level(int depth, int level, std::uint64_t states,
                                double seconds) {
  levels_committed_.fetch_add(1, std::memory_order_relaxed);
  note_frontier(states);
  levels_.push_back(LevelTiming{depth, level, states, seconds});
  if (trace_ != nullptr) trace_->counter("frontier_states", states);
}

JobTelemetry MetricsRegistry::snapshot() const {
  JobTelemetry out;
  out.counters.states_expanded =
      states_expanded_.load(std::memory_order_relaxed);
  out.counters.states_committed =
      states_committed_.load(std::memory_order_relaxed);
  out.counters.pending_views = pending_views_.load(std::memory_order_relaxed);
  out.counters.views_interned =
      views_interned_.load(std::memory_order_relaxed);
  out.counters.chunks_expanded =
      chunks_expanded_.load(std::memory_order_relaxed);
  out.counters.wordseq_rehashes =
      wordseq_rehashes_.load(std::memory_order_relaxed);
  out.counters.levels_committed =
      levels_committed_.load(std::memory_order_relaxed);
  out.counters.budget_early_aborts =
      budget_early_aborts_.load(std::memory_order_relaxed);
  out.counters.frontier_high_water =
      frontier_high_water_.load(std::memory_order_relaxed);
  out.levels = levels_;
  out.wall_seconds = wall_seconds_;
  return out;
}

}  // namespace topocon::telemetry
