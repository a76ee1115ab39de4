#include "adversary/mobile_failure.hpp"

#include <cassert>
#include <cstdint>
#include <string>
#include <utility>

namespace topocon {

namespace {

/// The clean round first (letter 0), then for each sender p in process
/// order every nonempty dropped subset of its outgoing non-self edges in
/// subset order -- a deterministic letter numbering, like every other
/// family's alphabet.
std::pair<std::vector<Digraph>, std::vector<int>> build_alphabet(int n) {
  std::vector<Digraph> graphs;
  std::vector<int> faults;
  graphs.push_back(Digraph::complete(n));
  faults.push_back(-1);
  for (ProcessId p = 0; p < n; ++p) {
    // `drop` enumerates subsets of the n - 1 other processes, mapped to
    // actual receiver ids by skipping p itself.
    for (unsigned drop = 1; drop < (1u << (n - 1)); ++drop) {
      Digraph g = Digraph::complete(n);
      int bit = 0;
      for (ProcessId q = 0; q < n; ++q) {
        if (q == p) continue;
        if ((drop >> bit) & 1u) g.remove_edge(p, q);
        ++bit;
      }
      graphs.push_back(std::move(g));
      faults.push_back(p);
    }
  }
  return {std::move(graphs), std::move(faults)};
}

}  // namespace

MobileFailureAdversary::MobileFailureAdversary(int n, int persistence)
    : MessageAdversary(n, build_alphabet(n).first,
                       "mobile-failure(n=" + std::to_string(n) +
                           ",r=" + std::to_string(persistence) + ")"),
      persistence_(persistence),
      fault_of_(build_alphabet(n).second) {
  assert(n >= 2 && n <= 6);
  assert(persistence >= 1);
  // The state encoding 1 + p * persistence + (len - 1) must fit AdvState
  // for every p < n; family_param_range caps the parameter accordingly.
  assert(static_cast<long long>(n) * persistence < INT32_MAX);
}

AdvState MobileFailureAdversary::transition(AdvState state,
                                            int letter) const {
  const int sender = fault_of(letter);
  if (sender < 0) return 0;  // clean round resets every streak
  if (state != 0) {
    const AdvState streak_of = (state - 1) / persistence_;
    const AdvState len = (state - 1) % persistence_ + 1;
    if (streak_of == sender) {
      if (len >= persistence_) return kRejectState;
      return state + 1;  // same sender: (p, len) -> (p, len + 1)
    }
  }
  return 1 + sender * persistence_;  // new streak (sender, 1)
}

bool MobileFailureAdversary::admits_lasso(
    const std::vector<int>& stem, const std::vector<int>& cycle) const {
  if (cycle.empty()) return false;
  // A cycle whose every letter faults the SAME process grows that streak
  // by |cycle| per unrolling, so it rejects eventually regardless of the
  // stem. Any other cycle contains a "break" letter (clean, or a second
  // sender) after which the state no longer depends on the entry state,
  // making the post-cycle state constant from the first pass on -- the
  // base two-unrolling check is then exact.
  const int first = fault_of(cycle.front());
  bool single_sender = first >= 0;
  for (const int letter : cycle) {
    if (fault_of(letter) != first) {
      single_sender = false;
      break;
    }
  }
  if (single_sender) return false;
  return MessageAdversary::admits_lasso(stem, cycle);
}

std::unique_ptr<MobileFailureAdversary> make_mobile_failure_adversary(
    int n, int persistence) {
  return std::make_unique<MobileFailureAdversary>(n, persistence);
}

}  // namespace topocon
