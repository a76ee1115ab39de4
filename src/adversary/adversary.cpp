#include "adversary/adversary.hpp"

#include <algorithm>
#include <cassert>
#include <numeric>
#include <stdexcept>

namespace topocon {

namespace {

/// Throws std::invalid_argument naming the first letter that repeats an
/// earlier one. Sorting the letter indices by in-masks (ties by index)
/// brings equal graphs together in O(m log m).
void require_distinct_letters(const std::vector<Digraph>& alphabet, int n,
                              const std::string& name) {
  std::vector<int> order(alphabet.size());
  std::iota(order.begin(), order.end(), 0);
  const auto graph_of = [&](int letter) -> const Digraph& {
    return alphabet[static_cast<std::size_t>(letter)];
  };
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    for (int q = 0; q < n; ++q) {
      const NodeMask ma = graph_of(a).in_mask(q);
      const NodeMask mb = graph_of(b).in_mask(q);
      if (ma != mb) return ma < mb;
    }
    return a < b;
  });
  // The smallest repeating letter is the second of its run, so the
  // letter sorted just before it is that graph's first occurrence.
  int first = -1;
  int repeat = -1;
  for (std::size_t k = 1; k < order.size(); ++k) {
    if (graph_of(order[k - 1]) == graph_of(order[k]) &&
        (repeat < 0 || order[k] < repeat)) {
      first = order[k - 1];
      repeat = order[k];
    }
  }
  if (repeat >= 0) {
    throw std::invalid_argument(
        "message adversary '" + name + "': letters " + std::to_string(first) +
        " and " + std::to_string(repeat) + " are the same graph " +
        graph_of(repeat).to_string());
  }
}

}  // namespace

MessageAdversary::MessageAdversary(int n, std::vector<Digraph> alphabet,
                                   std::string name)
    : n_(n), alphabet_(std::move(alphabet)), name_(std::move(name)) {
  assert(!alphabet_.empty());
  for (const Digraph& g : alphabet_) {
    assert(g.num_processes() == n_);
    (void)g;
  }
  require_distinct_letters(alphabet_, n_, name_);
}

bool MessageAdversary::admits_lasso(const std::vector<int>& stem,
                                    const std::vector<int>& cycle) const {
  if (cycle.empty()) return false;
  AdvState s = initial_state();
  for (const int letter : stem) {
    s = transition(s, letter);
    if (s == kRejectState) return false;
  }
  // The safety automata in this library have finitely many states, so if
  // the cycle survives |stem| + enough unrollings it survives forever; all
  // concrete families here have monotone or memoryless safety, for which
  // two unrollings suffice (covered by tests).
  for (int round = 0; round < 2; ++round) {
    for (const int letter : cycle) {
      s = transition(s, letter);
      if (s == kRejectState) return false;
    }
  }
  return true;
}

std::vector<int> MessageAdversary::sample(std::mt19937_64& rng,
                                          int horizon) const {
  std::vector<int> letters;
  letters.reserve(static_cast<std::size_t>(horizon));
  AdvState s = initial_state();
  std::uniform_int_distribution<int> pick(0, alphabet_size() - 1);
  for (int t = 0; t < horizon; ++t) {
    // Rejection-sample an allowed letter; adversaries are non-blocking.
    int letter = pick(rng);
    AdvState next = transition(s, letter);
    [[maybe_unused]] int attempts = 0;
    while (next == kRejectState) {
      letter = (letter + 1) % alphabet_size();
      next = transition(s, letter);
      assert(++attempts <= alphabet_size() && "blocking adversary state");
    }
    letters.push_back(letter);
    s = next;
  }
  return letters;
}

bool MessageAdversary::safety_rejects(const std::vector<int>& letters) const {
  AdvState s = initial_state();
  for (const int letter : letters) {
    s = transition(s, letter);
    if (s == kRejectState) return true;
  }
  return false;
}

}  // namespace topocon
