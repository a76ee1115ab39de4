#include "graph/scc.hpp"

#include <algorithm>
#include <bit>

namespace topocon {

namespace {

// Iterative Tarjan over the out-edge view of the graph.
struct TarjanState {
  const Digraph& g;
  std::vector<NodeMask> out;
  std::vector<int> index, lowlink;
  std::vector<bool> on_stack;
  std::vector<int> stack;
  int next_index = 0;
  SccDecomposition result;

  explicit TarjanState(const Digraph& graph)
      : g(graph),
        out(static_cast<std::size_t>(graph.num_processes())),
        index(static_cast<std::size_t>(graph.num_processes()), -1),
        lowlink(static_cast<std::size_t>(graph.num_processes()), 0),
        on_stack(static_cast<std::size_t>(graph.num_processes()), false) {
    const int n = g.num_processes();
    for (int p = 0; p < n; ++p) {
      out[static_cast<std::size_t>(p)] = g.out_mask(p);
    }
    result.comp.assign(static_cast<std::size_t>(n), -1);
  }

  void run(int start) {
    struct Frame {
      int v;
      NodeMask pending;  // unexplored out-neighbours
    };
    std::vector<Frame> frames;
    frames.push_back({start, out[static_cast<std::size_t>(start)]});
    index[static_cast<std::size_t>(start)] =
        lowlink[static_cast<std::size_t>(start)] = next_index++;
    stack.push_back(start);
    on_stack[static_cast<std::size_t>(start)] = true;

    while (!frames.empty()) {
      Frame& f = frames.back();
      const auto v = static_cast<std::size_t>(f.v);
      if (f.pending != 0) {
        const int w = std::countr_zero(f.pending);
        f.pending &= f.pending - 1;
        const auto wi = static_cast<std::size_t>(w);
        if (index[wi] < 0) {
          index[wi] = lowlink[wi] = next_index++;
          stack.push_back(w);
          on_stack[wi] = true;
          frames.push_back({w, out[wi]});
        } else if (on_stack[wi]) {
          lowlink[v] = std::min(lowlink[v], index[wi]);
        }
        continue;
      }
      // v finished: maybe close a component, then propagate lowlink up.
      if (lowlink[v] == index[v]) {
        const int c = result.num_components++;
        NodeMask members = 0;
        int w;
        do {
          w = stack.back();
          stack.pop_back();
          on_stack[static_cast<std::size_t>(w)] = false;
          result.comp[static_cast<std::size_t>(w)] = c;
          members |= NodeMask{1} << w;
        } while (w != f.v);
        result.members.push_back(members);
      }
      const int finished = f.v;
      frames.pop_back();
      if (!frames.empty()) {
        const auto parent = static_cast<std::size_t>(frames.back().v);
        lowlink[parent] =
            std::min(lowlink[parent],
                     lowlink[static_cast<std::size_t>(finished)]);
      }
    }
  }
};

}  // namespace

SccDecomposition strongly_connected_components(const Digraph& g) {
  TarjanState state(g);
  const int n = g.num_processes();
  for (int p = 0; p < n; ++p) {
    if (state.index[static_cast<std::size_t>(p)] < 0) state.run(p);
  }
  SccDecomposition result = std::move(state.result);
  // Mark root components: those with no in-edge from a different component.
  result.is_root.assign(static_cast<std::size_t>(result.num_components),
                        true);
  for (int q = 0; q < n; ++q) {
    const int cq = result.comp[static_cast<std::size_t>(q)];
    NodeMask senders = g.in_mask(q);
    while (senders != 0) {
      const int p = std::countr_zero(senders);
      senders &= senders - 1;
      const int cp = result.comp[static_cast<std::size_t>(p)];
      if (cp != cq) result.is_root[static_cast<std::size_t>(cq)] = false;
    }
  }
  return result;
}

NodeMask root_members(const Digraph& g) {
  const SccDecomposition scc = strongly_connected_components(g);
  NodeMask roots = 0;
  for (int c = 0; c < scc.num_components; ++c) {
    if (scc.is_root[static_cast<std::size_t>(c)]) {
      roots |= scc.members[static_cast<std::size_t>(c)];
    }
  }
  return roots;
}

bool is_rooted(const Digraph& g) {
  const SccDecomposition scc = strongly_connected_components(g);
  int roots = 0;
  for (int c = 0; c < scc.num_components; ++c) {
    roots += scc.is_root[static_cast<std::size_t>(c)] ? 1 : 0;
  }
  return roots == 1;
}

NodeMask broadcasters(const Digraph& g) {
  // p reaches everyone iff p lies in the unique root component.
  if (!is_rooted(g)) return 0;
  return root_members(g);
}

std::vector<NodeMask> propagate(const Digraph& g,
                                std::span<const NodeMask> know) {
  const int n = g.num_processes();
  std::vector<NodeMask> next(static_cast<std::size_t>(n), 0);
  for (int q = 0; q < n; ++q) {
    NodeMask acc = 0;
    NodeMask senders = g.in_mask(q);
    while (senders != 0) {
      const int p = std::countr_zero(senders);
      senders &= senders - 1;
      acc |= know[static_cast<std::size_t>(p)];
    }
    next[static_cast<std::size_t>(q)] = acc;
  }
  return next;
}

}  // namespace topocon
