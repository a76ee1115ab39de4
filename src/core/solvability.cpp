#include "core/solvability.hpp"

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/shard_set.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {

const char* to_string(SolvabilityVerdict verdict) {
  switch (verdict) {
    case SolvabilityVerdict::kSolvable: return "SOLVABLE";
    case SolvabilityVerdict::kNotSeparated: return "NOT-SEPARATED";
    case SolvabilityVerdict::kResourceLimit: return "RESOURCE-LIMIT";
  }
  return "?";
}

std::optional<SolvabilityVerdict> parse_solvability_verdict(
    std::string_view name) {
  if (name == "SOLVABLE") return SolvabilityVerdict::kSolvable;
  if (name == "NOT-SEPARATED") return SolvabilityVerdict::kNotSeparated;
  if (name == "RESOURCE-LIMIT") return SolvabilityVerdict::kResourceLimit;
  return std::nullopt;
}

DepthStats depth_stats(const DepthAnalysis& analysis) {
  DepthStats stats;
  stats.depth = analysis.depth;
  stats.num_leaf_classes = analysis.leaves().size();
  stats.num_components = static_cast<int>(analysis.components.size());
  stats.merged_components = analysis.merged_components;
  stats.separated = analysis.valence_separated;
  stats.valent_broadcastable = analysis.valent_broadcastable;
  stats.strong_assignable = analysis.strong_assignable;
  stats.interner_views = analysis.interner->size();
  return stats;
}

SolvabilityResult check_solvability(const MessageAdversary& adversary,
                                    const SolvabilityOptions& options,
                                    const ParallelFor& parallel_for,
                                    const DepthProgressFn& on_depth,
                                    const ShardingOptions& sharding) {
  std::optional<ShardSet> shards;
  return check_solvability_with(
      adversary, options,
      [&](const AnalysisOptions& depth_options,
          const std::shared_ptr<ViewInterner>& interner) {
        if (depth_options.keep_levels) {
          shards.reset();
          return analyze_depth(adversary, depth_options, interner,
                               parallel_for, sharding);
        }
        if (!shards) {
          shards.emplace(adversary, depth_options, parallel_for, interner,
                         sharding);
        }
        return shards->analyze(depth_options.depth);
      },
      on_depth);
}

SolvabilityResult check_solvability_oracle(const MessageAdversary& adversary,
                                           const SolvabilityOptions& options) {
  return check_solvability_with(
      adversary, options,
      [&adversary](const AnalysisOptions& analysis_options,
                   const std::shared_ptr<ViewInterner>& interner) {
        return analyze_depth_oracle(adversary, analysis_options, interner);
      });
}

std::vector<DepthStats> depth_series(const MessageAdversary& adversary,
                                     const AnalysisOptions& options,
                                     const ParallelFor& parallel_for,
                                     const DepthProgressFn& on_depth,
                                     const ShardingOptions& sharding) {
  AnalysisOptions cheap = options;
  cheap.keep_levels = false;
  ShardSet shards(adversary, cheap, parallel_for, nullptr, sharding);
  std::vector<DepthStats> series;
  for (int depth = 1; depth <= options.depth; ++depth) {
    const DepthAnalysis analysis = shards.analyze(depth);
    if (analysis.truncated) break;
    series.push_back(depth_stats(analysis));
    if (on_depth) on_depth(series.back());
  }
  return series;
}

SolvabilityResult check_solvability_with(const MessageAdversary& adversary,
                                         const SolvabilityOptions& options,
                                         const DepthAnalyzeFn& analyze,
                                         const DepthProgressFn& on_depth) {
  SolvabilityResult result;
  result.closure_only = !adversary.is_compact();
  auto interner = std::make_shared<ViewInterner>();
  telemetry::TraceWriter* trace =
      options.metrics != nullptr ? options.metrics->trace() : nullptr;

  for (int depth = 1; depth <= options.max_depth; ++depth) {
    AnalysisOptions analysis_options;
    analysis_options.depth = depth;
    analysis_options.num_values = options.num_values;
    analysis_options.max_states = options.max_states;
    analysis_options.keep_levels = false;  // cheap pass first
    analysis_options.metrics = options.metrics;
    const std::uint64_t span_start =
        trace != nullptr ? trace->now_us() : 0;
    DepthAnalysis cheap = analyze(analysis_options, interner);
    if (trace != nullptr) {
      trace->complete(
          "depth " + std::to_string(depth), "depth", span_start,
          trace->now_us() - span_start,
          {telemetry::TraceArg::num("depth", static_cast<std::uint64_t>(depth)),
           telemetry::TraceArg::num("leaf_classes", cheap.leaves().size())});
    }
    if (cheap.truncated) {
      result.verdict = SolvabilityVerdict::kResourceLimit;
      result.analysis = std::move(cheap);
      return result;
    }

    const DepthStats stats = depth_stats(cheap);
    result.per_depth.push_back(stats);
    if (on_depth) on_depth(stats);

    const bool certified =
        cheap.valence_separated &&
        (!options.require_broadcastable || cheap.valent_broadcastable) &&
        (!options.strong_validity || cheap.strong_assignable);
    if (certified) {
      result.verdict = SolvabilityVerdict::kSolvable;
      result.certified_depth = depth;
      if (options.build_table) {
        analysis_options.keep_levels = true;
        const std::uint64_t certify_start =
            trace != nullptr ? trace->now_us() : 0;
        DepthAnalysis full = analyze(analysis_options, interner);
        if (trace != nullptr) {
          trace->complete("depth " + std::to_string(depth) + " (certify)",
                          "depth", certify_start,
                          trace->now_us() - certify_start,
                          {telemetry::TraceArg::num(
                              "depth", static_cast<std::uint64_t>(depth))});
        }
        result.table = DecisionTable::build(full, options.strong_validity);
        result.analysis = std::move(full);
      } else {
        result.analysis = std::move(cheap);
      }
      return result;
    }
    if (depth == options.max_depth) {
      result.analysis = std::move(cheap);
    }
  }
  result.verdict = SolvabilityVerdict::kNotSeparated;
  return result;
}

}  // namespace topocon
