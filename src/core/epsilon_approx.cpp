#include "core/epsilon_approx.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cassert>
#include <cstdint>
#include <map>
#include <unordered_map>

#include "core/shard_set.hpp"
#include "core/union_find.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace topocon {

namespace {

// Dedup key of a prefix class: safety state plus all interned views. The
// views determine the inputs (every view contains its own input) and the
// reach masks (the cone determines who has been heard), so this key
// identifies the class exactly. The frontier engine never dedups states
// (no two emissions share a key; see core/frontier.hpp); the reference
// expansion keeps this map so the differential tests would catch a
// violation of that invariant.
struct StateKey {
  AdvState adv_state;
  ViewVector views;
  bool operator==(const StateKey&) const = default;
};

struct StateKeyHash {
  std::size_t operator()(const StateKey& k) const noexcept {
    std::size_t h = static_cast<std::size_t>(k.adv_state) + 1u;
    for (const ViewId id : k.views) {
      h ^= static_cast<std::size_t>(id) + 0x9e3779b9u + (h << 6) + (h >> 2);
    }
    return h;
  }
};

}  // namespace

std::vector<PrefixState> initial_frontier(const MessageAdversary& adversary,
                                          const AnalysisOptions& options,
                                          ViewInterner& interner,
                                          int first_root, int last_root) {
  const int n = adversary.num_processes();
  const std::vector<InputVector> roots =
      all_input_vectors(n, options.num_values);
  assert(0 <= first_root && first_root <= last_root &&
         static_cast<std::size_t>(last_root) <= roots.size());
  std::vector<PrefixState> frontier;
  frontier.reserve(static_cast<std::size_t>(last_root - first_root));
  for (int r = first_root; r < last_root; ++r) {
    const InputVector& x = roots[static_cast<std::size_t>(r)];
    PrefixState state;
    state.inputs.assign(x);
    state.views.assign(interner.initial(x));
    state.reach.assign(initial_reach(n));
    state.adv_state = adversary.initial_state();
    frontier.push_back(std::move(state));
  }
  return frontier;
}

FrontierLevel expand_frontier(const MessageAdversary& adversary,
                              ViewInterner& interner,
                              const std::vector<PrefixState>& current,
                              std::size_t max_states) {
  FrontierLevel level;
  std::unordered_map<StateKey, int, StateKeyHash> index;

  for (std::size_t i = 0; i < current.size() && !level.overflow; ++i) {
    const PrefixState& parent = current[i];
    for (int letter = 0; letter < adversary.alphabet_size(); ++letter) {
      const AdvState adv_next = adversary.transition(parent.adv_state, letter);
      if (adv_next == kRejectState) continue;
      const Digraph& g = adversary.graph(letter);
      StateKey key{adv_next, interner.advance(parent.views, g)};
      auto [it, inserted] = index.try_emplace(
          std::move(key), static_cast<int>(level.states.size()));
      if (inserted) {
        PrefixState child;
        child.inputs = parent.inputs;
        child.views.assign(it->first.views);
        child.reach.assign(advance_reach(parent.reach, g));
        child.adv_state = adv_next;
        level.states.push_back(std::move(child));
        level.parent.emplace_back(static_cast<int>(i), letter);
        if (level.states.size() > max_states) {
          level.overflow = true;
          break;
        }
      }
    }
  }
  return level;
}

void compute_components(const AnalysisOptions& options,
                        DepthAnalysis& analysis,
                        const ParallelFor& parallel_for) {
  telemetry::TraceWriter* trace =
      options.metrics != nullptr ? options.metrics->trace() : nullptr;
  const std::uint64_t span_start = trace != nullptr ? trace->now_us() : 0;
  const int n = analysis.num_processes;
  const Level& leaves = analysis.leaves();
  UnionFind uf(leaves.size());
  if (options.topology == AdjacencyTopology::kMin) {
    // Minimum topology: union leaves sharing any process's view id. The
    // first leaf to claim an id's slot represents it; every later leaf
    // with that id joins it. Ids are dense, so the slots are a flat
    // array over the interner, reset per process.
    std::vector<int> first_leaf(analysis.interner->size());
    for (int p = 0; p < n; ++p) {
      std::fill(first_leaf.begin(), first_leaf.end(), -1);
      run_parallel_blocks(
          parallel_for, leaves.size(),
          [&](std::size_t, std::size_t begin, std::size_t end) {
            Level::Cursor leaf = leaves.at(begin);
            for (std::size_t i = begin; i < end; ++i, ++leaf) {
              const ViewId id = leaf->views[static_cast<std::size_t>(p)];
              std::atomic_ref<int> slot(
                  first_leaf[static_cast<std::size_t>(id)]);
              int claimed = slot.load(std::memory_order_relaxed);
              if (claimed < 0 &&
                  slot.compare_exchange_strong(claimed, static_cast<int>(i),
                                               std::memory_order_relaxed)) {
                continue;
              }
              uf.unite(claimed, static_cast<int>(i));
            }
          });
    }
  } else {
    // P-view topology: union leaves with equal JOINT P-views (the exact
    // tuple of member views is the map key).
    assert(options.pview_set != 0);
    std::map<std::vector<ViewId>, int> first_leaf;
    std::vector<ViewId> tuple;
    int i = 0;
    for (const PrefixState& leaf : leaves) {
      tuple.clear();
      NodeMask rest = options.pview_set & full_mask(n);
      while (rest != 0) {
        const int p = std::countr_zero(rest);
        rest &= rest - 1;
        tuple.push_back(leaf.views[static_cast<std::size_t>(p)]);
      }
      const auto [it, inserted] = first_leaf.try_emplace(tuple, i);
      if (!inserted) uf.unite(it->second, i);
      ++i;
    }
  }
  analysis.leaf_component = uf.component_ids(parallel_for);
  const int num_components = uf.num_sets();

  // ---- Component summaries, by leaf ranges. Each block summarizes its
  // runs of consecutive same-component leaves with order-free reductions
  // only (sum, OR, AND, and the OR of input bits per process, which
  // records "two distinct inputs seen"), so reducing the runs in any
  // grouping gives the serial result.
  struct Run {
    int component = 0;
    std::int64_t leaves = 0;
    std::uint32_t valences = 0;
    std::uint32_t common_inputs = ~std::uint32_t{0};
    NodeMask common_broadcast = 0;
  };
  const std::size_t blocks = num_parallel_blocks(leaves.size());
  std::vector<std::vector<Run>> runs(blocks);
  // run_inputs[block][k * n + p] = OR of 1 << input of p over run k.
  std::vector<std::vector<std::uint32_t>> run_inputs(blocks);
  run_parallel_blocks(parallel_for, leaves.size(), [&](std::size_t block,
                                                      std::size_t begin,
                                                      std::size_t end) {
    std::vector<Run>& mine = runs[block];
    std::vector<std::uint32_t>& seen = run_inputs[block];
    Level::Cursor cursor = leaves.at(begin);
    for (std::size_t i = begin; i < end; ++i, ++cursor) {
      const PrefixState& leaf = *cursor;
      const int c = analysis.leaf_component[i];
      if (mine.empty() || mine.back().component != c) {
        mine.push_back(Run{c, 0, 0, ~std::uint32_t{0}, full_mask(n)});
        seen.resize(seen.size() + static_cast<std::size_t>(n), 0);
      }
      Run& run = mine.back();
      run.leaves += 1;
      const Value v = uniform_value(leaf.inputs);
      if (v >= 0) run.valences |= 1u << v;
      std::uint32_t* inputs = seen.data() + seen.size() - n;
      std::uint32_t present = 0;
      for (int p = 0; p < n; ++p) {
        const std::uint32_t bit = 1u
                                  << leaf.inputs[static_cast<std::size_t>(p)];
        present |= bit;
        inputs[p] |= bit;
      }
      run.common_inputs &= present;
      run.common_broadcast &= broadcast_complete(leaf.reach);
    }
  });
  ComponentInfo empty;
  empty.common_broadcast = full_mask(n);
  empty.common_input_values = ~std::uint32_t{0};
  analysis.components.assign(static_cast<std::size_t>(num_components), empty);
  std::vector<std::uint32_t> inputs_seen(
      static_cast<std::size_t>(num_components) * static_cast<std::size_t>(n),
      0);
  for (std::size_t block = 0; block < blocks; ++block) {
    for (std::size_t k = 0; k < runs[block].size(); ++k) {
      const Run& run = runs[block][k];
      const auto c = static_cast<std::size_t>(run.component);
      ComponentInfo& info = analysis.components[c];
      info.num_leaves += run.leaves;
      info.valence_mask |= run.valences;
      info.common_input_values &= run.common_inputs;
      info.common_broadcast &= run.common_broadcast;
      for (std::size_t p = 0; p < static_cast<std::size_t>(n); ++p) {
        inputs_seen[c * static_cast<std::size_t>(n) + p] |=
            run_inputs[block][k * static_cast<std::size_t>(n) + p];
      }
    }
  }

  analysis.valence_separated = true;
  analysis.merged_components = 0;
  analysis.valent_broadcastable = true;
  analysis.strong_assignable = true;
  for (std::size_t c = 0; c < analysis.components.size(); ++c) {
    ComponentInfo& info = analysis.components[c];
    NodeMask nonuniform = 0;
    for (int p = 0; p < n; ++p) {
      if (std::popcount(inputs_seen[c * static_cast<std::size_t>(n) +
                                    static_cast<std::size_t>(p)]) >= 2) {
        nonuniform |= NodeMask{1} << p;
      }
    }
    info.broadcasters = info.common_broadcast & ~nonuniform;
    if (info.num_valences() >= 2) {
      analysis.valence_separated = false;
      ++analysis.merged_components;
      info.assigned_value = -1;
      info.assigned_value_strong = -1;
    } else if (info.valence_mask != 0) {
      info.assigned_value = std::countr_zero(info.valence_mask);
      // Strong validity must still decide the valence; feasible iff that
      // value occurs in every leaf of the component.
      info.assigned_value_strong =
          (info.common_input_values & info.valence_mask) != 0
              ? info.assigned_value
              : -1;
      if (info.broadcasters == 0) analysis.valent_broadcastable = false;
    } else {
      info.assigned_value = 0;  // meta-procedure step 3: default value
      info.assigned_value_strong =
          info.common_input_values != 0
              ? std::countr_zero(info.common_input_values)
              : -1;
    }
    if (info.assigned_value_strong < 0) analysis.strong_assignable = false;
  }
  analysis.strong_assignable &= analysis.valence_separated;
  if (trace != nullptr) {
    trace->complete(
        "components", "components", span_start, trace->now_us() - span_start,
        {telemetry::TraceArg::num("depth",
                                  static_cast<std::uint64_t>(analysis.depth)),
         telemetry::TraceArg::num("leaves", leaves.size()),
         telemetry::TraceArg::num("components", analysis.components.size())});
  }
}

DepthAnalysis analyze_depth(const MessageAdversary& adversary,
                            const AnalysisOptions& options,
                            std::shared_ptr<ViewInterner> interner,
                            const ParallelFor& parallel_for,
                            const ShardingOptions& sharding) {
  return ShardSet(adversary, options, parallel_for, std::move(interner),
                  sharding)
      .analyze(options.depth);
}

DepthAnalysis analyze_depth_oracle(const MessageAdversary& adversary,
                                   const AnalysisOptions& options,
                                   std::shared_ptr<ViewInterner> interner) {
  const int n = adversary.num_processes();
  DepthAnalysis analysis;
  analysis.num_values = options.num_values;
  analysis.num_processes = n;
  analysis.interner =
      interner ? std::move(interner) : std::make_shared<ViewInterner>();

  // The serial reference loop, mirroring the engine's bookkeeping exactly:
  // level 0 seeds the history with {-1, -1} parents (FrontierEngine's
  // constructor does the same), an overflowing level sets truncated and
  // keeps the last complete frontier.
  const int num_roots =
      static_cast<int>(all_input_vectors(n, options.num_values).size());
  std::vector<PrefixState> frontier = initial_frontier(
      adversary, options, *analysis.interner, 0, num_roots);
  if (options.keep_levels) {
    analysis.levels.emplace_back(frontier);
    analysis.parent.push_back(
        std::vector<std::pair<int, int>>(frontier.size(), {-1, -1}));
  }
  int level = 0;
  for (int s = 1; s <= options.depth; ++s) {
    FrontierLevel next = expand_frontier(adversary, *analysis.interner,
                                         frontier, options.max_states);
    if (next.overflow) {
      analysis.truncated = true;
      break;
    }
    frontier = std::move(next.states);
    ++level;
    if (options.keep_levels) {
      analysis.levels.emplace_back(frontier);
      analysis.parent.push_back(std::move(next.parent));
    }
  }
  analysis.depth = level;
  if (!options.keep_levels) {
    analysis.levels.emplace_back(frontier);
  }

  compute_components(options, analysis);
  return analysis;
}

std::optional<RunPrefix> reconstruct_prefix(const MessageAdversary& adversary,
                                            const DepthAnalysis& analysis,
                                            int leaf_index) {
  assert(!analysis.parent.empty() &&
         "reconstruct_prefix requires keep_levels");
  const std::size_t last = analysis.levels.size() - 1;
  if (leaf_index < 0 ||
      static_cast<std::size_t>(leaf_index) >= analysis.levels[last].size()) {
    return std::nullopt;
  }
  std::vector<int> letters;
  int index = leaf_index;
  for (std::size_t s = last; s >= 1; --s) {
    const auto [parent, letter] =
        analysis.parent[s][static_cast<std::size_t>(index)];
    letters.push_back(letter);
    index = parent;
  }
  std::reverse(letters.begin(), letters.end());
  RunPrefix prefix;
  const auto& inputs =
      analysis.levels[last][static_cast<std::size_t>(leaf_index)].inputs;
  prefix.inputs.assign(inputs.begin(), inputs.end());
  prefix.graphs.reserve(letters.size());
  for (const int letter : letters) {
    prefix.graphs.push_back(adversary.graph(letter));
  }
  return prefix;
}

}  // namespace topocon
