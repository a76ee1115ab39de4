// Heard-Of style oblivious adversaries (Charron-Bost & Schiper [7]): the
// admissible graphs are those in which every process "hears of" at least
// `min_heard` processes per round (its own in-degree, self included).
//
// For n = 2, min_heard = 1 this is exactly the full lossy link
// {<-, ->, <->} (impossible); min_heard = n leaves only the complete graph
// (trivially solvable). In between, each receiver may lose up to
// n - min_heard incoming messages per round -- the per-receiver analogue
// of the per-round total budget of the omission adversaries [21, 22],
// and impossible for every min_heard < n by the same silencing argument
// (each other receiver can drop the same sender every round).
#pragma once

#include <memory>

#include "adversary/oblivious.hpp"

namespace topocon {

/// Builds the oblivious adversary of all graphs with per-process in-degree
/// >= min_heard (1 <= min_heard <= n; self-loops count). n <= 4.
std::unique_ptr<ObliviousAdversary> make_heard_of_adversary(int n,
                                                            int min_heard);

/// Rounds-based heard-of adversary (the "at least one uniform round every
/// Phi rounds" communication predicates of the heard-of literature): the
/// per-round alphabet is every graph in which each receiver misses at most
/// one sender (in-degree >= n - 1, self included; n^n graphs), and the
/// safety automaton demands that every window of `period` consecutive
/// rounds contains at least one *uniform* round -- the complete graph.
/// Unlike heard_of (oblivious, per-round guarantee only), this family is
/// non-oblivious but compact: the automaton counts rounds since the last
/// uniform round and rejects at `period`. period = 1 leaves only the
/// complete graph (trivially solvable); large periods approach the
/// impossible per-receiver-loss adversary.
class HeardOfRoundsAdversary : public MessageAdversary {
 public:
  /// n in [2, 4] (the alphabet enumerates all_graphs(n)); period >= 1.
  HeardOfRoundsAdversary(int n, int period);

  AdvState initial_state() const override { return 0; }
  /// State s in [0, period): rounds since the last uniform round.
  AdvState transition(AdvState state, int letter) const override;
  /// Exact liveness for lassos: a cycle with no uniform round drifts the
  /// counter past any period, so the default two-unrolling check is not
  /// enough.
  bool admits_lasso(const std::vector<int>& stem,
                    const std::vector<int>& cycle) const override;

  int period() const { return period_; }
  /// Letter index of the complete graph within alphabet().
  int uniform_letter() const { return uniform_letter_; }

 private:
  int period_;
  int uniform_letter_;
};

/// Builds the rounds-based heard-of adversary (family "heard_of_rounds").
std::unique_ptr<HeardOfRoundsAdversary> make_heard_of_rounds_adversary(
    int n, int period);

}  // namespace topocon
