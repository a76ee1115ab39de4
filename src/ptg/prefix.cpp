#include "ptg/prefix.hpp"

#include <cassert>
#include <sstream>

namespace topocon {

std::string RunPrefix::to_string() const {
  std::ostringstream out;
  out << "x=(";
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    if (i > 0) out << ',';
    out << inputs[i];
  }
  out << ") ";
  for (const Digraph& g : graphs) {
    out << g.to_string();
  }
  return out.str();
}

bool is_valent(std::span<const Value> inputs, Value v) {
  for (const Value x : inputs) {
    if (x != v) return false;
  }
  return !inputs.empty();
}

Value uniform_value(std::span<const Value> inputs) {
  if (inputs.empty()) return -1;
  const Value v = inputs.front();
  return is_valent(inputs, v) ? v : -1;
}

std::vector<InputVector> all_input_vectors(int n, int num_values) {
  assert(n >= 1 && num_values >= 1);
  std::vector<InputVector> result;
  InputVector current(static_cast<std::size_t>(n), 0);
  while (true) {
    result.push_back(current);
    int i = n - 1;
    while (i >= 0 && current[static_cast<std::size_t>(i)] == num_values - 1) {
      current[static_cast<std::size_t>(i)] = 0;
      --i;
    }
    if (i < 0) break;
    ++current[static_cast<std::size_t>(i)];
  }
  return result;
}

int input_vector_index(const InputVector& inputs, int num_values) {
  int index = 0;
  for (const Value x : inputs) {
    assert(x >= 0 && x < num_values);
    index = index * num_values + x;
  }
  return index;
}

}  // namespace topocon
