// Mobile-failure message adversary (Santoro & Widmayer's mobile omission
// faults, as phrased in the heard-of literature's communication
// predicates): in every round at most ONE process is send-faulty -- an
// arbitrary nonempty subset of its outgoing messages to other processes
// is lost while every other edge is delivered -- and the faulty process
// may MOVE between rounds but may not stay: no process is faulty for
// more than `persistence` consecutive rounds.
//
// The per-round alphabet is therefore the complete graph (a clean round)
// plus, for each sender p, the 2^(n-1) - 1 graphs missing a nonempty
// subset of p's outgoing non-self edges; each faulty letter names its
// sender uniquely, so the safety automaton is deterministic: it tracks
// (current faulty sender, streak length) and rejects when a streak would
// exceed `persistence`. persistence = 1 forces the fault to move every
// round; large persistence approaches the oblivious one-mobile-fault
// adversary. Compact (pure safety), like heard_of_rounds.
#pragma once

#include <memory>

#include "adversary/adversary.hpp"

namespace topocon {

class MobileFailureAdversary : public MessageAdversary {
 public:
  /// n in [2, 6] (the alphabet has 1 + n * (2^(n-1) - 1) graphs);
  /// persistence >= 1.
  MobileFailureAdversary(int n, int persistence);

  AdvState initial_state() const override { return 0; }
  /// State 0: the previous round was clean (or initial). State
  /// 1 + p * persistence + (len - 1): process p has been faulty for the
  /// last `len` consecutive rounds, 1 <= len <= persistence.
  AdvState transition(AdvState state, int letter) const override;
  /// Exact liveness for lassos: a cycle faulting one process in every
  /// letter drifts the streak across unrollings (rejected here); every
  /// other cycle resets the streak mid-pass, for which the base
  /// two-unrolling check is exact.
  bool admits_lasso(const std::vector<int>& stem,
                    const std::vector<int>& cycle) const override;

  int persistence() const { return persistence_; }
  /// Faulty sender of a letter, -1 for the clean (complete) round.
  int fault_of(int letter) const {
    return fault_of_[static_cast<std::size_t>(letter)];
  }

 private:
  int persistence_;
  std::vector<int> fault_of_;
};

/// Builds the mobile-failure adversary (family "mobile_failure").
std::unique_ptr<MobileFailureAdversary> make_mobile_failure_adversary(
    int n, int persistence);

}  // namespace topocon
