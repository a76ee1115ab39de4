// The universal consensus algorithm of Theorem 5.5, in executable form.
//
// The paper's construction: process p maintains its view (the causal cone
// of (p, t)) and decides value v in round t as soon as every admissible
// sequence compatible with its view lies in the decision set PS(v). Given a
// valence-separated depth analysis (core/epsilon_approx.hpp), this module
// precomputes that rule into per-round lookup tables:
//
//   decide(s, p, view-id)  =  v  iff all depth-t leaves b with
//                             pi_p(b^s) = view lie in components with
//                             assigned value v.
//
// By construction every process can decide at the latest in round t = the
// analysis depth (leaves sharing a view id are in one component), so the
// table is a total, terminating consensus algorithm for every admissible
// sequence of the analyzed adversary; runtime/universal_runner.* executes
// it in the round simulator, and the tests verify termination, agreement
// and validity exhaustively at small depth.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "core/epsilon_approx.hpp"
#include "ptg/view_intern.hpp"

namespace topocon {

class DecisionTable {
 public:
  /// Builds the table from a valence-separated analysis (keep_levels must
  /// have been set). Asserts on merged analyses. With strong_validity the
  /// component values of the strong assignment are used (the analysis must
  /// be strong_assignable); the resulting algorithm then also guarantees
  /// that every decision value is some process's input in that run.
  static DecisionTable build(const DepthAnalysis& analysis,
                             bool strong_validity = false);

  int depth() const { return depth_; }
  int num_values() const { return num_values_; }

  /// Shared interner; runtime view ids must come from it.
  const std::shared_ptr<ViewInterner>& interner() const { return interner_; }

  /// Decision of process p holding view id `view` at the end of round
  /// `round` (0 = initial state), or nullopt if p cannot decide yet.
  std::optional<Value> decide(int round, ProcessId p, ViewId view) const;

  /// Fraction of the admissible prefixes of length `round` in which all
  /// processes have decided by the end of that round; index = round.
  const std::vector<double>& decided_fraction() const {
    return decided_fraction_;
  }

  /// Earliest round at which every admissible sequence has fully decided.
  int worst_case_decision_round() const;

  /// Total number of (round, process, view) -> value entries.
  std::size_t size() const;

  /// Entry count per round (index = round, size = depth + 1): how many
  /// (process, view) -> value rules become applicable at each round. The
  /// integer-valued shape of the decision profile, summing to size();
  /// serialized by the sweep engine's decision-table extraction query
  /// (decided_fraction() is float-valued and therefore never serialized).
  std::vector<std::size_t> entries_per_round() const;

  /// Serializes the table together with the view-interner structure it
  /// references (a self-contained consensus-algorithm artifact: compile
  /// the certificate once, ship it to every process). Text format,
  /// versioned.
  void save(std::ostream& out) const;

  /// Loads a table written by save(). The interner is reconstructed with
  /// identical view ids (structural interning is insertion-ordered).
  /// Throws std::runtime_error on malformed input.
  static DecisionTable load(std::istream& in);

 private:
  static std::uint64_t key(ProcessId p, ViewId view) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(p)) << 32) |
           static_cast<std::uint32_t>(view);
  }

  int depth_ = 0;
  int num_values_ = 2;
  std::shared_ptr<ViewInterner> interner_;
  /// by_level_[s][key(p, view)] = decided value.
  std::vector<std::unordered_map<std::uint64_t, Value>> by_level_;
  std::vector<double> decided_fraction_;
};

}  // namespace topocon
