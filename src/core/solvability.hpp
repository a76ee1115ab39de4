// Iterative-deepening consensus-solvability checker.
//
// For a message adversary MA this driver runs the depth-t analysis of
// Definition 6.2 for t = 1, 2, ... and stops with:
//
//  * kSolvable(t): the epsilon = 2^-t components separate the valences
//    (Corollary 5.6 / Theorem 6.6). The certificate is constructive -- a
//    DecisionTable implementing the universal algorithm of Theorem 5.5 that
//    decides every admissible sequence by round t.
//  * kNotSeparated: valences still merged at max_depth. For a compact
//    adversary this is evidence of impossibility (it is conclusive in the
//    limit: by Theorem 6.6, solvability implies separation at some finite
//    depth; the benchmarked families' ground truths are encoded in
//    analysis/oracles.*). For a non-compact adversary the checker only ever
//    sees the closure, and Section 6.3 of the paper *predicts* permanent
//    mergedness even for solvable adversaries -- reproduced in bench E7.
//  * kResourceLimit: the state space exceeded options.max_states.
//
// Solvability is in general only semi-decidable from prefix information;
// this mirrors the structure of the paper, which characterizes solvability
// topologically but does not (and cannot, for black-box adversaries)
// provide a uniform decision procedure.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

#include "core/decision_table.hpp"
#include "core/epsilon_approx.hpp"

namespace topocon {

enum class SolvabilityVerdict {
  kSolvable,
  kNotSeparated,
  kResourceLimit,
};

const char* to_string(SolvabilityVerdict verdict);
/// Inverse of to_string(SolvabilityVerdict); nullopt for unknown names.
std::optional<SolvabilityVerdict> parse_solvability_verdict(
    std::string_view name);

struct SolvabilityOptions {
  int max_depth = 10;
  int num_values = 2;
  std::size_t max_states = 2'000'000;
  /// Build the universal-algorithm decision table on success.
  bool build_table = true;
  /// Additionally require Theorem 6.6's broadcastability of all valent
  /// components, witnessed within the certifying depth.
  bool require_broadcastable = false;
  /// Certify (and extract the table for) strong validity: every decision
  /// value must be some process's input. Deepening remains sound: once a
  /// component is broadcastable its broadcaster's uniform input provides a
  /// strong assignment, so solvable adversaries certify eventually.
  bool strong_validity = false;
  /// Optional per-job telemetry sink, copied into every depth's
  /// AnalysisOptions (telemetry/metrics.hpp). An execution detail: never
  /// serialized, never changes a verdict byte; null = no collection.
  telemetry::MetricsRegistry* metrics = nullptr;
  /// Out-of-core spill knobs, copied into every depth's AnalysisOptions
  /// (core/spill.*). Same execution-detail contract as `metrics`.
  SpillOptions spill = {};
};

struct DepthStats {
  int depth = 0;
  std::size_t num_leaf_classes = 0;
  int num_components = 0;
  int merged_components = 0;
  bool separated = false;
  bool valent_broadcastable = false;
  bool strong_assignable = false;
  std::size_t interner_views = 0;

  friend bool operator==(const DepthStats&, const DepthStats&) = default;
};

/// The statistics row of a completed (untruncated) depth analysis.
/// interner_views is the size of the analysis's interner, which the
/// deepening driver shares across all depths of one check.
DepthStats depth_stats(const DepthAnalysis& analysis);

struct SolvabilityResult {
  SolvabilityVerdict verdict = SolvabilityVerdict::kNotSeparated;
  /// Depth of the certificate when solvable; -1 otherwise.
  int certified_depth = -1;
  /// True iff the adversary is non-compact, i.e. the analysis covered the
  /// topological closure rather than the adversary itself.
  bool closure_only = false;
  /// Per-depth statistics, depth 1..last analyzed (series for bench E6).
  std::vector<DepthStats> per_depth;
  /// The final (certifying or deepest) analysis, with levels retained when
  /// a certificate was produced.
  std::optional<DepthAnalysis> analysis;
  /// Universal algorithm (Theorem 5.5) when solvable and build_table.
  std::optional<DecisionTable> table;
};

SolvabilityResult check_solvability(const MessageAdversary& adversary,
                                    const SolvabilityOptions& options = {});

/// REFERENCE implementation of check_solvability(): the same iterative-
/// deepening driver (check_solvability_with) over analyze_depth_oracle,
/// the single-scan expansion, instead of the chunked FrontierEngine.
/// Verdict, certified depth, per-depth statistics (including interned-
/// view counts), and the final analysis must be identical to the serial
/// checker and to parallel_check_solvability at every chunk size and
/// thread count; the fuzz differential harness asserts exactly that.
SolvabilityResult check_solvability_oracle(
    const MessageAdversary& adversary, const SolvabilityOptions& options = {});

/// The iterative-deepening driver behind check_solvability, parameterized
/// over the per-depth analysis: `analyze` receives the depth's
/// AnalysisOptions and the interner shared across all depths of this
/// check, and returns the DepthAnalysis. The parallel sweep engine passes
/// its sharded analysis here; check_solvability passes analyze_depth.
/// Keeping one driver guarantees serial and parallel verdicts can only
/// differ if the analyses differ.
///
/// Call order, which stateful analyses may rely on: one call per depth
/// 1, 2, ... in increasing order with keep_levels = false, each with the
/// same interner and otherwise identical options, stopping at the first
/// truncated, certified, or max_depth analysis; then, only for a
/// certified depth with build_table, at most one keep_levels = true call
/// at that depth. The parallel solver keeps its root shards alive
/// between the cheap calls and expands one new level per call.
using DepthAnalyzeFn = std::function<DepthAnalysis(
    const AnalysisOptions&, const std::shared_ptr<ViewInterner>&)>;
/// Streaming progress callback: invoked once per completed depth with the
/// depth's aggregate statistics, in depth order, before the verdict is
/// known. Purely observational -- the result is identical with or without
/// it. Feeds api::Observer::on_depth.
using DepthProgressFn = std::function<void(const DepthStats&)>;
SolvabilityResult check_solvability_with(const MessageAdversary& adversary,
                                         const SolvabilityOptions& options,
                                         const DepthAnalyzeFn& analyze,
                                         const DepthProgressFn& on_depth = {});

}  // namespace topocon
