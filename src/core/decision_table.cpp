#include "core/decision_table.hpp"

#include <bit>
#include <cassert>
#include <istream>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>

namespace topocon {

DecisionTable DecisionTable::build(const DepthAnalysis& analysis,
                                   bool strong_validity) {
  assert(analysis.valence_separated &&
         "decision tables require a valence-separated analysis");
  assert((!strong_validity || analysis.strong_assignable) &&
         "strong tables require a strong-assignable analysis");
  assert(analysis.levels.size() ==
             static_cast<std::size_t>(analysis.depth) + 1 &&
         "decision tables require keep_levels");
  DecisionTable table;
  table.depth_ = analysis.depth;
  table.num_values_ = analysis.num_values;
  table.interner_ = analysis.interner;

  const std::size_t num_levels = analysis.levels.size();
  // value_mask[i] at the current level: bitmask of component values
  // reachable from prefix class i.
  std::vector<std::uint32_t> value_mask;

  // Bottom-up over levels; build the per-level aggregation maps.
  std::vector<std::vector<std::uint32_t>> masks_per_level(num_levels);
  {
    value_mask.resize(analysis.leaves().size());
    for (std::size_t i = 0; i < value_mask.size(); ++i) {
      const int comp = analysis.leaf_component[i];
      const ComponentInfo& info =
          analysis.components[static_cast<std::size_t>(comp)];
      const Value v =
          strong_validity ? info.assigned_value_strong : info.assigned_value;
      assert(v >= 0);
      value_mask[i] = 1u << v;
    }
    masks_per_level[num_levels - 1] = value_mask;
  }
  // Fold up the parent column: each child ORs its mask into its parent's.
  // OR is order-free, so one linear pass over the child level suffices.
  for (std::size_t s = num_levels - 1; s-- > 0;) {
    const std::vector<std::pair<int, int>>& parent = analysis.parent[s + 1];
    std::vector<std::uint32_t> up(analysis.levels[s].size(), 0);
    for (std::size_t j = 0; j < parent.size(); ++j) {
      up[static_cast<std::size_t>(parent[j].first)] |=
          masks_per_level[s + 1][j];
    }
    masks_per_level[s] = std::move(up);
  }

  // Aggregate per level by (process, view id): the ball around a local view
  // is the union over *all* classes at this level sharing that view.
  const int n = analysis.num_processes;
  table.by_level_.resize(num_levels);
  table.decided_fraction_.assign(num_levels, 0.0);
  for (std::size_t s = 0; s < num_levels; ++s) {
    std::unordered_map<std::uint64_t, std::uint32_t> agg;
    const Level& level = analysis.levels[s];
    std::size_t i = 0;
    for (const PrefixState& state : level) {
      for (int p = 0; p < n; ++p) {
        agg[key(p, state.views[static_cast<std::size_t>(p)])] |=
            masks_per_level[s][i];
      }
      ++i;
    }
    for (const auto& [k, mask] : agg) {
      if (std::popcount(mask) == 1) {
        table.by_level_[s].emplace(k, std::countr_zero(mask));
      }
    }
    // Diagnostics: fraction of prefixes whose every process has decided
    // by the end of this round.
    std::uint64_t decided = 0;
    for (const PrefixState& state : level) {
      bool all = true;
      for (int p = 0; p < n; ++p) {
        const auto it = table.by_level_[s].find(
            key(p, state.views[static_cast<std::size_t>(p)]));
        if (it == table.by_level_[s].end()) {
          all = false;
          break;
        }
      }
      if (all) ++decided;
    }
    table.decided_fraction_[s] =
        level.empty() ? 0.0
                      : static_cast<double>(decided) /
                            static_cast<double>(level.size());
  }
  return table;
}

std::optional<Value> DecisionTable::decide(int round, ProcessId p,
                                           ViewId view) const {
  if (round < 0 || static_cast<std::size_t>(round) >= by_level_.size()) {
    return std::nullopt;
  }
  const auto& level = by_level_[static_cast<std::size_t>(round)];
  const auto it = level.find(key(p, view));
  if (it == level.end()) return std::nullopt;
  return it->second;
}

int DecisionTable::worst_case_decision_round() const {
  for (std::size_t s = 0; s < decided_fraction_.size(); ++s) {
    if (decided_fraction_[s] >= 1.0) return static_cast<int>(s);
  }
  return depth_;
}

std::size_t DecisionTable::size() const {
  std::size_t total = 0;
  for (const auto& level : by_level_) {
    total += level.size();
  }
  return total;
}

std::vector<std::size_t> DecisionTable::entries_per_round() const {
  std::vector<std::size_t> per_round;
  per_round.reserve(by_level_.size());
  for (const auto& level : by_level_) {
    per_round.push_back(level.size());
  }
  return per_round;
}

namespace {
constexpr const char* kMagic = "topocon-decision-table-v1";
}

void DecisionTable::save(std::ostream& out) const {
  out << kMagic << '\n';
  out << depth_ << ' ' << num_values_ << '\n';
  const ViewInterner& interner = *interner_;
  out << "interner " << interner.size() << '\n';
  for (std::size_t id = 0; id < interner.size(); ++id) {
    const ViewInterner::Node node = interner.node(static_cast<ViewId>(id));
    if (node.depth == 0) {
      out << "B " << node.process << ' ' << node.input << '\n';
    } else {
      out << "S " << node.process << ' ' << node.mask << ' '
          << node.senders.size();
      for (const ViewId sender : node.senders) {
        out << ' ' << sender;
      }
      out << '\n';
    }
  }
  out << "levels " << by_level_.size() << '\n';
  for (const auto& level : by_level_) {
    out << "level " << level.size() << '\n';
    // Deterministic order for reproducible artifacts.
    std::map<std::uint64_t, Value> sorted(level.begin(), level.end());
    for (const auto& [k, v] : sorted) {
      out << k << ' ' << v << '\n';
    }
  }
  out << "fractions " << decided_fraction_.size();
  for (const double f : decided_fraction_) {
    out << ' ' << f;
  }
  out << '\n';
}

DecisionTable DecisionTable::load(std::istream& in) {
  // A count read from the stream only bounds a loop, never sizes a
  // container, so a huge count in a short stream fails as truncated
  // input. Every precondition ViewInterner::base/step assert or abort on
  // is checked before the call.
  auto fail = [](const char* what) -> void {
    throw std::runtime_error(std::string("DecisionTable::load: ") + what);
  };
  auto read = [&](auto&... values) {
    if (!(in >> ... >> values)) fail("truncated input");
  };
  std::string token;
  in >> token;
  if (token != kMagic) fail("bad magic");
  DecisionTable table;
  in >> table.depth_ >> table.num_values_;
  in >> token;
  if (token != "interner") fail("expected interner section");
  std::size_t num_nodes = 0;
  read(num_nodes);
  table.interner_ = std::make_shared<ViewInterner>();
  ViewInterner& interner = *table.interner_;
  std::vector<ViewId> senders;
  for (std::size_t id = 0; id < num_nodes; ++id) {
    read(token);
    ViewId created = -1;
    if (token == "B") {
      ProcessId p;
      Value x;
      read(p, x);
      if (p < 0 || x < 0) fail("negative base view");
      created = interner.base(p, x);
    } else if (token == "S") {
      ProcessId q;
      NodeMask mask;
      std::size_t count;
      read(q, mask, count);
      if (q < 0 || q >= kMaxProcesses || !mask_contains(mask, q)) {
        fail("step view without its self-loop");
      }
      if (count != static_cast<std::size_t>(std::popcount(mask))) {
        fail("sender count does not match the in-mask");
      }
      senders.clear();
      for (NodeMask rest = mask; rest != 0; rest &= rest - 1) {
        ViewId sender;
        read(sender);
        if (sender < 0 || static_cast<std::size_t>(sender) >= id) {
          fail("forward sender reference");
        }
        const ViewInterner::Node node = interner.node(sender);
        if (node.process != std::countr_zero(rest)) {
          fail("senders not in increasing process order");
        }
        if (!senders.empty() &&
            node.depth != interner.node(senders.front()).depth) {
          fail("senders at mixed depths");
        }
        senders.push_back(sender);
      }
      created = interner.step(q, mask, senders);
    } else {
      fail("unknown node kind");
    }
    if (created != static_cast<ViewId>(id)) fail("id mismatch");
  }
  in >> token;
  if (token != "levels") fail("expected levels section");
  std::size_t num_levels = 0;
  read(num_levels);
  for (std::size_t s = 0; s < num_levels; ++s) {
    read(token);
    if (token != "level") fail("expected level header");
    std::size_t entries = 0;
    read(entries);
    auto& level = table.by_level_.emplace_back();
    for (std::size_t e = 0; e < entries; ++e) {
      std::uint64_t k;
      Value v;
      read(k, v);
      level.emplace(k, v);
    }
  }
  in >> token;
  if (token != "fractions") fail("expected fractions section");
  std::size_t count = 0;
  read(count);
  for (std::size_t i = 0; i < count; ++i) {
    double f;
    read(f);
    table.decided_fraction_.push_back(f);
  }
  return table;
}

}  // namespace topocon
