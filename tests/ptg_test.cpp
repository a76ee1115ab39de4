// Tests for process-time graphs and view interning. The central property
// cross-validated here is the exactness of hash-consed views: interned ids
// are equal iff the paper-faithful causal-cone sub-DAGs are equal.
#include <algorithm>
#include <random>

#include <gtest/gtest.h>

#include "graph/enumerate.hpp"
#include "ptg/prefix.hpp"
#include "ptg/process_time_graph.hpp"
#include "ptg/reach.hpp"
#include "ptg/view_intern.hpp"

namespace topocon {
namespace {

// The exact process-time graph of Figure 2: n = 3, x = (1, 0, 1), t = 2.
// Figure 2 (1-indexed): round 1 edges 1->2, 2->3, 3->3...; we reproduce a
// concrete instance with the same shape used by bench_fig2_ptg: round 1 =
// {0->1, 1->2}, round 2 = {1->0, 2->1}.
RunPrefix figure2_prefix() {
  RunPrefix prefix;
  prefix.inputs = {1, 0, 1};
  prefix.graphs = {Digraph::from_edges(3, {{0, 1}, {1, 2}}),
                   Digraph::from_edges(3, {{1, 0}, {2, 1}})};
  return prefix;
}

TEST(ProcessTimeGraph, NodesAndEdges) {
  const ProcessTimeGraph ptg(figure2_prefix());
  EXPECT_EQ(ptg.num_processes(), 3);
  EXPECT_EQ(ptg.depth(), 2);
  EXPECT_EQ(ptg.input(0), 1);
  EXPECT_EQ(ptg.input(1), 0);
  EXPECT_EQ(ptg.input(2), 1);
  // Round 1: 0->1 plus self-loops.
  EXPECT_EQ(ptg.in_mask(1, 1), NodeMask{0b011});
  EXPECT_EQ(ptg.in_mask(2, 1), NodeMask{0b110});
  // Round 2: 1->0 and 2->1 plus self-loops.
  EXPECT_EQ(ptg.in_mask(0, 2), NodeMask{0b011});
  EXPECT_EQ(ptg.in_mask(1, 2), NodeMask{0b110});
}

TEST(ProcessTimeGraph, ViewConeGrowsBackwards) {
  const ProcessTimeGraph ptg(figure2_prefix());
  // View of process 0 at time 2: (0,2) <- {(0,1),(1,1)} <- {(0,0),(1,0)}.
  const auto cone = ptg.view_nodes(0, 2);
  ASSERT_EQ(cone.size(), 3u);
  EXPECT_EQ(cone[2], NodeMask{0b001});
  EXPECT_EQ(cone[1], NodeMask{0b011});
  EXPECT_EQ(cone[0], NodeMask{0b011});
}

TEST(ProcessTimeGraph, ViewAtTimeZeroIsOwnNode) {
  const ProcessTimeGraph ptg(figure2_prefix());
  for (int p = 0; p < 3; ++p) {
    const auto cone = ptg.view_nodes(p, 0);
    ASSERT_EQ(cone.size(), 1u);
    EXPECT_EQ(cone[0], NodeMask{1} << p);
  }
}

TEST(ProcessTimeGraph, ViewsEqualIsReflexive) {
  const ProcessTimeGraph ptg(figure2_prefix());
  for (int p = 0; p < 3; ++p) {
    for (int t = 0; t <= 2; ++t) {
      EXPECT_TRUE(ProcessTimeGraph::views_equal(ptg, p, ptg, p, t));
    }
  }
}

TEST(ProcessTimeGraph, ViewsDifferWhenInputDiffers) {
  RunPrefix a = figure2_prefix();
  RunPrefix b = figure2_prefix();
  b.inputs[2] = 0;  // process 2's input changes
  const ProcessTimeGraph pa(a), pb(b);
  // Process 0 at time 2 has not heard from process 2: views equal.
  EXPECT_TRUE(ProcessTimeGraph::views_equal(pa, 0, pb, 0, 2));
  // Process 2's own view differs from time 0 on.
  EXPECT_FALSE(ProcessTimeGraph::views_equal(pa, 2, pb, 2, 0));
  // Process 1 heard 2 in round 2 (edge 2->1): differs at time 2 only.
  EXPECT_TRUE(ProcessTimeGraph::views_equal(pa, 1, pb, 1, 1));
  EXPECT_FALSE(ProcessTimeGraph::views_equal(pa, 1, pb, 1, 2));
}

TEST(ProcessTimeGraph, DotOutputMentionsHighlightedView) {
  const ProcessTimeGraph ptg(figure2_prefix());
  const std::string dot = ptg.to_dot(0);
  EXPECT_NE(dot.find("digraph PT"), std::string::npos);
  EXPECT_NE(dot.find("color=green"), std::string::npos);
}

// ------------------------------------------------------------- interning

TEST(ViewInterner, BaseIdsDistinguishProcessAndInput) {
  ViewInterner interner;
  EXPECT_EQ(interner.base(0, 1), interner.base(0, 1));
  EXPECT_NE(interner.base(0, 1), interner.base(0, 0));
  EXPECT_NE(interner.base(0, 1), interner.base(1, 1));
}

TEST(ViewInterner, AdvanceIsDeterministic) {
  ViewInterner interner;
  const RunPrefix prefix = figure2_prefix();
  const ViewVector v1 = interner.of_prefix(prefix);
  const ViewVector v2 = interner.of_prefix(prefix);
  EXPECT_EQ(v1, v2);
}

TEST(ViewInterner, DepthTracksRounds) {
  ViewInterner interner;
  const ViewVector views = interner.of_prefix(figure2_prefix());
  for (const ViewId id : views) {
    EXPECT_EQ(interner.node(id).depth, 2);
  }
}

// The exactness theorem: interned equality == cone equality, validated
// exhaustively over all pairs of depth-3 lossy-link prefixes and all
// binary inputs (n = 2), and by random sampling for n = 3.
TEST(ViewInterner, ExactnessExhaustiveLossyLink) {
  const auto graphs = lossy_link_graphs();
  std::vector<RunPrefix> prefixes;
  for (int x0 = 0; x0 < 2; ++x0) {
    for (int x1 = 0; x1 < 2; ++x1) {
      for (int a = 0; a < 3; ++a) {
        for (int b = 0; b < 3; ++b) {
          for (int c = 0; c < 3; ++c) {
            RunPrefix prefix;
            prefix.inputs = {x0, x1};
            prefix.graphs = {graphs[static_cast<std::size_t>(a)],
                             graphs[static_cast<std::size_t>(b)],
                             graphs[static_cast<std::size_t>(c)]};
            prefixes.push_back(std::move(prefix));
          }
        }
      }
    }
  }
  ViewInterner interner;
  std::vector<ViewVector> ids;
  std::vector<ProcessTimeGraph> ptgs;
  ids.reserve(prefixes.size());
  for (const RunPrefix& prefix : prefixes) {
    ids.push_back(interner.of_prefix(prefix));
    ptgs.emplace_back(prefix);
  }
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    for (std::size_t j = i; j < prefixes.size(); ++j) {
      for (int p = 0; p < 2; ++p) {
        const bool by_id = ids[i][static_cast<std::size_t>(p)] ==
                           ids[j][static_cast<std::size_t>(p)];
        const bool by_cone =
            ProcessTimeGraph::views_equal(ptgs[i], p, ptgs[j], p, 3);
        ASSERT_EQ(by_id, by_cone)
            << prefixes[i].to_string() << " vs " << prefixes[j].to_string()
            << " p=" << p;
      }
    }
  }
}

TEST(ViewInterner, ExactnessRandomN3) {
  std::mt19937_64 rng(42);
  const auto graphs = all_graphs(3);
  std::vector<RunPrefix> prefixes;
  for (int trial = 0; trial < 60; ++trial) {
    RunPrefix prefix;
    prefix.inputs = {static_cast<Value>(rng() % 2),
                     static_cast<Value>(rng() % 2),
                     static_cast<Value>(rng() % 2)};
    for (int t = 0; t < 4; ++t) {
      prefix.graphs.push_back(graphs[rng() % graphs.size()]);
    }
    prefixes.push_back(std::move(prefix));
  }
  ViewInterner interner;
  std::vector<ViewVector> ids;
  std::vector<ProcessTimeGraph> ptgs;
  for (const RunPrefix& prefix : prefixes) {
    ids.push_back(interner.of_prefix(prefix));
    ptgs.emplace_back(prefix);
  }
  for (std::size_t i = 0; i < prefixes.size(); ++i) {
    for (std::size_t j = i; j < prefixes.size(); ++j) {
      for (int p = 0; p < 3; ++p) {
        const bool by_id = ids[i][static_cast<std::size_t>(p)] ==
                           ids[j][static_cast<std::size_t>(p)];
        const bool by_cone =
            ProcessTimeGraph::views_equal(ptgs[i], p, ptgs[j], p, 4);
        ASSERT_EQ(by_id, by_cone) << i << " " << j << " p=" << p;
      }
    }
  }
}

// Views are cumulative (self-loop invariant): equal ids at time t+1 imply
// equal ids at time t.
TEST(ViewInterner, ViewsAreCumulative) {
  std::mt19937_64 rng(5);
  const auto graphs = all_graphs(3);
  ViewInterner interner;
  for (int trial = 0; trial < 100; ++trial) {
    RunPrefix a, b;
    a.inputs = {static_cast<Value>(rng() % 2), static_cast<Value>(rng() % 2),
                static_cast<Value>(rng() % 2)};
    b.inputs = {static_cast<Value>(rng() % 2), static_cast<Value>(rng() % 2),
                static_cast<Value>(rng() % 2)};
    ViewVector va = interner.initial(a.inputs);
    ViewVector vb = interner.initial(b.inputs);
    std::vector<ViewVector> history_a = {va}, history_b = {vb};
    for (int t = 0; t < 4; ++t) {
      const Digraph& ga = graphs[rng() % graphs.size()];
      const Digraph& gb = graphs[rng() % graphs.size()];
      va = interner.advance(va, ga);
      vb = interner.advance(vb, gb);
      history_a.push_back(va);
      history_b.push_back(vb);
    }
    for (std::size_t t = 1; t < history_a.size(); ++t) {
      for (int p = 0; p < 3; ++p) {
        if (history_a[t][static_cast<std::size_t>(p)] ==
            history_b[t][static_cast<std::size_t>(p)]) {
          EXPECT_EQ(history_a[t - 1][static_cast<std::size_t>(p)],
                    history_b[t - 1][static_cast<std::size_t>(p)]);
        }
      }
    }
  }
}

// absorb_from() in steps, once per depth on shards that keep growing (the
// serial reference of topocon::absorb_depth), must assign exactly the ids
// that re-absorbing each whole shard at every step assigns, and one
// absorb() of a finished shard assigns them too.
TEST(ViewInterner, IncrementalAbsorbMatchesWholeAbsorb) {
  std::mt19937_64 rng(11);
  const auto graphs = all_graphs(3);
  constexpr int kShards = 3;
  std::vector<ViewInterner> shards(kShards);
  std::vector<std::vector<ViewVector>> runs(kShards);
  for (int r = 0; r < kShards; ++r) {
    for (int run = 0; run < 4; ++run) {
      runs[static_cast<std::size_t>(r)].push_back(
          shards[static_cast<std::size_t>(r)].initial(
              {static_cast<Value>(rng() % 2), static_cast<Value>(rng() % 2),
               static_cast<Value>(rng() % 2)}));
    }
  }
  ViewInterner stepped;
  ViewInterner whole;
  std::vector<std::vector<ViewId>> remaps(kShards);
  ViewInterner solo;  // absorbs shard 0 alone, in steps
  std::vector<ViewId> solo_remap;
  for (int round = 0; round < 4; ++round) {
    solo.absorb_from(shards[0], solo_remap);
    for (int r = 0; r < kShards; ++r) {
      auto& shard = shards[static_cast<std::size_t>(r)];
      auto& remap = remaps[static_cast<std::size_t>(r)];
      stepped.absorb_from(shard, remap);
      EXPECT_EQ(whole.absorb(shard), remap) << "round " << round;
      ASSERT_EQ(stepped.size(), whole.size());
      for (ViewVector& views : runs[static_cast<std::size_t>(r)]) {
        views = shard.advance(views, graphs[rng() % graphs.size()]);
      }
    }
  }
  for (std::size_t id = 0; id < whole.size(); ++id) {
    const ViewInterner::Node a = stepped.node(static_cast<ViewId>(id));
    const ViewInterner::Node b = whole.node(static_cast<ViewId>(id));
    EXPECT_EQ(a.process, b.process);
    EXPECT_EQ(a.input, b.input);
    EXPECT_EQ(a.mask, b.mask);
    EXPECT_TRUE(std::ranges::equal(a.senders, b.senders));
  }
  // A single shard absorbed in steps or once at the end: same ids.
  solo.absorb_from(shards[0], solo_remap);
  ViewInterner once;
  EXPECT_EQ(once.absorb(shards[0]), solo_remap);
  EXPECT_EQ(once.size(), shards[0].size());
}

// ------------------------------------------------------------------ reach

TEST(Reach, MatchesConeTimeZeroLevel) {
  std::mt19937_64 rng(13);
  const auto graphs = all_graphs(3);
  for (int trial = 0; trial < 100; ++trial) {
    RunPrefix prefix;
    prefix.inputs = {0, 1, 0};
    const int len = 1 + static_cast<int>(rng() % 4);
    for (int t = 0; t < len; ++t) {
      prefix.graphs.push_back(graphs[rng() % graphs.size()]);
    }
    const ReachVector reach = reach_of_prefix(prefix);
    const ProcessTimeGraph ptg(prefix);
    for (int q = 0; q < 3; ++q) {
      EXPECT_EQ(reach[static_cast<std::size_t>(q)],
                ptg.view_nodes(q, len)[0]);
    }
  }
}

TEST(Reach, BroadcastCompleteUnderCompleteGraph) {
  RunPrefix prefix;
  prefix.inputs = {0, 1, 2};
  prefix.graphs = {Digraph::complete(3)};
  EXPECT_EQ(broadcast_complete(reach_of_prefix(prefix)), full_mask(3));
}

TEST(Reach, NoBroadcastUnderEmptyGraph) {
  RunPrefix prefix;
  prefix.inputs = {0, 1, 2};
  prefix.graphs = {Digraph::empty(3), Digraph::empty(3)};
  EXPECT_EQ(broadcast_complete(reach_of_prefix(prefix)), NodeMask{0});
}

TEST(Reach, MonotoneOverRounds) {
  std::mt19937_64 rng(17);
  const auto graphs = all_graphs(3);
  ReachVector reach = initial_reach(3);
  for (int t = 0; t < 10; ++t) {
    const ReachVector next =
        advance_reach(reach, graphs[rng() % graphs.size()]);
    for (int q = 0; q < 3; ++q) {
      EXPECT_EQ(next[static_cast<std::size_t>(q)] &
                    reach[static_cast<std::size_t>(q)],
                reach[static_cast<std::size_t>(q)]);
    }
    reach = next;
  }
}

// ------------------------------------------------------------------ misc

TEST(Prefix, ValenceHelpers) {
  EXPECT_TRUE(is_valent({1, 1, 1}, 1));
  EXPECT_FALSE(is_valent({1, 0, 1}, 1));
  EXPECT_EQ(uniform_value({2, 2}), 2);
  EXPECT_EQ(uniform_value({0, 1}), -1);
}

TEST(Prefix, AllInputVectorsLexicographic) {
  const auto vectors = all_input_vectors(2, 3);
  ASSERT_EQ(vectors.size(), 9u);
  EXPECT_EQ(vectors.front(), (InputVector{0, 0}));
  EXPECT_EQ(vectors.back(), (InputVector{2, 2}));
  for (std::size_t i = 0; i < vectors.size(); ++i) {
    EXPECT_EQ(input_vector_index(vectors[i], 3), static_cast<int>(i));
  }
}

}  // namespace
}  // namespace topocon
