// Edge-case tests for library entry points that examples/CLI rely on, and
// assorted small-surface behaviours not covered elsewhere: reconstruction
// error paths, interner node metadata, adversary naming, RunPrefix
// printing, and Digraph string/decode edges.
#include <gtest/gtest.h>

#include "adversary/lossy_link.hpp"
#include "core/epsilon_approx.hpp"
#include "graph/enumerate.hpp"
#include "ptg/view_intern.hpp"

namespace topocon {
namespace {

TEST(EdgeCases, ReconstructPrefixRejectsBadIndex) {
  const auto ma = make_lossy_link(0b011);
  AnalysisOptions options;
  options.depth = 2;
  const DepthAnalysis analysis = analyze_depth(*ma, options);
  EXPECT_FALSE(reconstruct_prefix(*ma, analysis, -1).has_value());
  EXPECT_FALSE(
      reconstruct_prefix(*ma, analysis,
                         static_cast<int>(analysis.leaves().size()))
          .has_value());
  EXPECT_TRUE(reconstruct_prefix(*ma, analysis, 0).has_value());
}

TEST(EdgeCases, InternerNodeMetadata) {
  ViewInterner interner;
  const ViewId base_id = interner.base(1, 7);
  const ViewInterner::Node base_node = interner.node(base_id);
  EXPECT_EQ(base_node.process, 1);
  EXPECT_EQ(base_node.depth, 0);
  EXPECT_EQ(base_node.input, 7);

  const ViewId other = interner.base(0, 3);
  const ViewId step_id =
      interner.step(1, 0b11, {other, base_id});  // senders 0 then 1
  const ViewInterner::Node step_node = interner.node(step_id);
  EXPECT_EQ(step_node.process, 1);
  EXPECT_EQ(step_node.depth, 1);
  EXPECT_EQ(step_node.mask, NodeMask{0b11});
  ASSERT_EQ(step_node.senders.size(), 2u);
  EXPECT_EQ(step_node.senders[0], other);
  EXPECT_EQ(step_node.senders[1], base_id);
}

TEST(EdgeCases, AdversaryNames) {
  EXPECT_EQ(make_lossy_link(0b011)->name(), "lossy-link{<-, ->}");
  EXPECT_EQ(lossy_link_subset_name(0b111), "{<-, ->, <->}");
}

TEST(EdgeCases, RunPrefixToString) {
  RunPrefix prefix;
  prefix.inputs = {1, 0};
  prefix.graphs = {Digraph::from_edges(2, {{0, 1}})};
  EXPECT_EQ(prefix.to_string(), "x=(1,0) {0->1}");
}

TEST(EdgeCases, EmptyGraphToString) {
  EXPECT_EQ(Digraph::empty(3).to_string(), "{}");
}

TEST(EdgeCases, DepthZeroAnalysisHasInputLeavesOnly) {
  const auto ma = make_lossy_link(0b111);
  AnalysisOptions options;
  options.depth = 0;
  options.num_values = 3;
  const DepthAnalysis analysis = analyze_depth(*ma, options);
  EXPECT_EQ(analysis.leaves().size(), 9u);  // 3^2 input vectors
  EXPECT_EQ(analysis.depth, 0);
}

TEST(EdgeCases, AnalysisWithSharedInternerIsDeterministic) {
  const auto ma = make_lossy_link(0b101);
  AnalysisOptions options;
  options.depth = 3;
  options.keep_levels = false;
  const DepthAnalysis a = analyze_depth(*ma, options);
  const DepthAnalysis b = analyze_depth(*ma, options);
  ASSERT_EQ(a.leaves().size(), b.leaves().size());
  EXPECT_EQ(a.components.size(), b.components.size());
  EXPECT_EQ(a.leaf_component, b.leaf_component);
}

}  // namespace
}  // namespace topocon
