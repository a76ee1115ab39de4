// Message adversaries (paper, Sections 1-2): a message adversary is a set of
// infinite sequences of communication graphs; sequences in the set are
// *admissible*.
//
// Representation. Every adversary in this library is given by
//   (1) a finite *alphabet* of communication graphs,
//   (2) a *safety automaton*: a deterministic finite-state acceptor over the
//       alphabet whose non-rejecting infinite runs form the topological
//       closure of the adversary (the prefix-extension structure), and
//   (3) an optional *liveness* predicate on ultimately periodic sequences,
//       used for the non-compact adversaries of Section 6.3.
//
// An adversary is *compact* (limit-closed, Section 6.2) iff the liveness
// predicate is trivial: then the admissible set is exactly the set of
// infinite words along non-rejecting automaton paths, which is closed in the
// product topology. Oblivious adversaries (one state, constant alphabet) are
// the canonical compact examples. The finite-loss and VSSC adversaries
// override the liveness hooks and report is_compact() == false.
//
// Every adversary here is *non-blocking*: each reachable state has at least
// one allowed letter, so every admissible prefix extends to an admissible
// prefix of any length (and, for the families implemented here, to an
// admissible infinite sequence — they are machine-closed). The solvability
// checker in core/ relies on this: the depth-t prefix space it analyzes is
// exactly the set of length-t prefixes of admissible sequences of the
// adversary's closure.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace topocon {

/// State of the safety automaton. State 0 is initial.
using AdvState = std::int32_t;

/// Returned by transition() for disallowed letters.
inline constexpr AdvState kRejectState = -1;

/// Abstract message adversary. Thread-compatible; concrete subclasses are
/// immutable after construction.
class MessageAdversary {
 public:
  /// Throws std::invalid_argument if two letters are the same graph.
  /// Distinct letters are an invariant the depth-t analysis relies on
  /// (core/epsilon_approx.hpp): together with the mandatory self-loops
  /// they make every (parent, letter) expansion a new prefix class.
  MessageAdversary(int n, std::vector<Digraph> alphabet, std::string name);
  virtual ~MessageAdversary() = default;

  MessageAdversary(const MessageAdversary&) = delete;
  MessageAdversary& operator=(const MessageAdversary&) = delete;

  int num_processes() const { return n_; }

  /// The graphs the adversary may play, indexed by "letter".
  const std::vector<Digraph>& alphabet() const { return alphabet_; }
  int alphabet_size() const { return static_cast<int>(alphabet_.size()); }
  const Digraph& graph(int letter) const {
    return alphabet_[static_cast<std::size_t>(letter)];
  }

  const std::string& name() const { return name_; }

  /// Initial safety-automaton state.
  virtual AdvState initial_state() const { return 0; }

  /// Successor state, or kRejectState if `letter` is not allowed in s.
  virtual AdvState transition(AdvState state, int letter) const = 0;

  /// True iff the adversary is limit-closed (trivial liveness).
  virtual bool is_compact() const { return true; }

  /// Liveness check for the ultimately periodic sequence stem . cycle^w.
  /// The default accepts every safety-consistent lasso (compact adversaries).
  virtual bool admits_lasso(const std::vector<int>& stem,
                            const std::vector<int>& cycle) const;

  /// Samples `horizon` letters of an admissible sequence; for non-compact
  /// adversaries the liveness obligation is discharged within the horizon
  /// (e.g. losses stop / the stable window occurs before the end).
  virtual std::vector<int> sample(std::mt19937_64& rng, int horizon) const;

  /// True iff stem (read from the initial state) violates safety.
  bool safety_rejects(const std::vector<int>& letters) const;

 private:
  int n_;
  std::vector<Digraph> alphabet_;
  std::string name_;
};

}  // namespace topocon
