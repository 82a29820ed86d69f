#include "ctmc/graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "util/error.hpp"

namespace csrl {
namespace {

/// Adjacency: 0 -> 1 -> 2 -> 0 (a cycle), 2 -> 3, 3 -> 4, 4 -> 3.
/// SCCs: {0,1,2}, {3,4}; only {3,4} is bottom.
CsrMatrix cycle_then_sink() {
  CsrBuilder b(5, 5);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  b.add(2, 0, 1.0);
  b.add(2, 3, 1.0);
  b.add(3, 4, 1.0);
  b.add(4, 3, 1.0);
  return b.build();
}

StateSet of(std::size_t n, std::initializer_list<std::size_t> xs) {
  StateSet s(n);
  for (std::size_t x : xs) s.insert(x);
  return s;
}

TEST(ForwardReachable, FollowsEdges) {
  const CsrMatrix g = cycle_then_sink();
  EXPECT_EQ(forward_reachable(g, of(5, {0})).count(), 5u);
  EXPECT_EQ(forward_reachable(g, of(5, {3})).members(),
            (std::vector<std::size_t>{3, 4}));
  EXPECT_TRUE(forward_reachable(g, StateSet(5)).empty());
}

TEST(BackwardReachable, RespectsThroughSet) {
  const CsrMatrix g = cycle_then_sink();
  // Everything can reach {3} when all intermediates are allowed.
  EXPECT_EQ(backward_reachable(g, of(5, {3}), StateSet(5, true)).count(), 5u);
  // Forbid state 2 as an intermediate: only 3 and 4 can still reach 3.
  StateSet through(5, true);
  through.erase(2);
  EXPECT_EQ(backward_reachable(g, of(5, {3}), through).members(),
            (std::vector<std::size_t>{3, 4}));
}

TEST(BackwardReachable, TargetsAlwaysIncluded) {
  const CsrMatrix g = cycle_then_sink();
  // Even with an empty through set, targets stay in the result.
  EXPECT_EQ(backward_reachable(g, of(5, {1}), StateSet(5)).members(),
            (std::vector<std::size_t>{1}));
}

TEST(Scc, FindsBothComponents) {
  const auto sccs = strongly_connected_components(cycle_then_sink());
  ASSERT_EQ(sccs.size(), 2u);
  std::vector<std::vector<std::size_t>> sorted = sccs;
  for (auto& c : sorted) std::sort(c.begin(), c.end());
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted[0], (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(sorted[1], (std::vector<std::size_t>{3, 4}));
}

TEST(Scc, SingletonsWithoutSelfLoops) {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  const auto sccs = strongly_connected_components(b.build());
  EXPECT_EQ(sccs.size(), 3u);
}

TEST(Scc, LongChainDoesNotOverflowStack) {
  // 200k-state path graph: a recursive Tarjan would crash here.
  const std::size_t n = 200'000;
  CsrBuilder b(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) b.add(i, i + 1, 1.0);
  EXPECT_EQ(strongly_connected_components(b.build()).size(), n);
}

TEST(BottomSccs, OnlyClosedComponents) {
  const auto bottoms = bottom_sccs(cycle_then_sink());
  ASSERT_EQ(bottoms.size(), 1u);
  EXPECT_EQ(bottoms[0].members(), (std::vector<std::size_t>{3, 4}));
}

TEST(BottomSccs, AbsorbingStatesAreBottom) {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(0, 2, 1.0);
  const auto bottoms = bottom_sccs(b.build());
  EXPECT_EQ(bottoms.size(), 2u);
}

TEST(BottomSccs, IrreducibleChainIsOneBottom) {
  CsrBuilder b(3, 3);
  b.add(0, 1, 1.0);
  b.add(1, 2, 1.0);
  b.add(2, 0, 1.0);
  const auto bottoms = bottom_sccs(b.build());
  ASSERT_EQ(bottoms.size(), 1u);
  EXPECT_EQ(bottoms[0].count(), 3u);
}

TEST(Graph, RectangularAdjacencyThrows) {
  EXPECT_THROW((void)forward_reachable(CsrMatrix(2, 3), StateSet(2)), ModelError);
  EXPECT_THROW((void)strongly_connected_components(CsrMatrix(2, 3)), ModelError);
}

}  // namespace
}  // namespace csrl
