// Oblivious message adversaries (paper, Sections 1 and 6.2; [6, 8, 21]):
// the admissible sequences are all combinations D^w of a fixed set D of
// communication graphs. Oblivious adversaries are compact.
#pragma once

#include <string>
#include <vector>

#include "adversary/adversary.hpp"

namespace topocon {

class ObliviousAdversary : public MessageAdversary {
 public:
  ObliviousAdversary(int n, std::vector<Digraph> graphs, std::string name);

  AdvState transition(AdvState state, int letter) const override;
};

}  // namespace topocon
