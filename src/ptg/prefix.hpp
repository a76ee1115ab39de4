// Finite run prefixes: an assignment of input values plus a finite sequence
// of communication graphs. A run prefix determines the process-time graph
// PT^t (paper, Section 3) up to its length t, and hence every process view
// V_p(a^s), s <= t.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "graph/digraph.hpp"

namespace topocon {

/// Input/output values of consensus. The paper allows any finite domain; the
/// library uses small non-negative integers.
using Value = int;

/// An assignment of one input value per process.
using InputVector = std::vector<Value>;

/// A finite execution prefix: inputs plus the first graphs of the sequence.
struct RunPrefix {
  InputVector inputs;
  std::vector<Digraph> graphs;

  int num_processes() const { return static_cast<int>(inputs.size()); }
  int length() const { return static_cast<int>(graphs.size()); }

  std::string to_string() const;
};

/// True iff all inputs equal v ("v-valent" starting point z_v, Section 5.1).
bool is_valent(std::span<const Value> inputs, Value v);
// The InputVector forms take brace lists, which do not convert to a span.
inline bool is_valent(const InputVector& inputs, Value v) {
  return is_valent(std::span<const Value>(inputs), v);
}

/// If the inputs are uniform, returns that value; otherwise -1.
Value uniform_value(std::span<const Value> inputs);
inline Value uniform_value(const InputVector& inputs) {
  return uniform_value(std::span<const Value>(inputs));
}

/// All input vectors over {0, ..., num_values-1}^n, in lexicographic order.
std::vector<InputVector> all_input_vectors(int n, int num_values);

/// Dense index of an input vector in all_input_vectors(n, num_values).
int input_vector_index(const InputVector& inputs, int num_values);

}  // namespace topocon
