#include "sweep/dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/priorities.hpp"
#include "sweep/instance.hpp"
#include "test_helpers.hpp"

namespace sweep::dag {
namespace {

TEST(SweepDag, EmptyGraph) {
  const SweepDag g(0, {});
  EXPECT_EQ(g.n_nodes(), 0u);
  EXPECT_EQ(g.n_edges(), 0u);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_EQ(test::one_direction(g).max_depth(), 0u);
}

TEST(SweepDag, CsrAdjacency) {
  const SweepDag g = test::make_dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}});
  EXPECT_EQ(g.n_nodes(), 4u);
  EXPECT_EQ(g.n_edges(), 4u);
  EXPECT_EQ(g.out_degree(0), 2u);
  EXPECT_EQ(g.out_degree(3), 0u);
  const auto succ0 = g.successors(0);
  EXPECT_EQ(std::set<NodeId>(succ0.begin(), succ0.end()),
            (std::set<NodeId>{1, 2}));
  // Indegrees live in the instance's TaskGraph, counted from the targets.
  const SweepInstance inst = test::one_direction(g);
  const TaskGraph& tg = inst.task_graph();
  EXPECT_EQ(tg.in_degree(0), 0u);
  EXPECT_EQ(tg.in_degree(3), 2u);
  std::set<std::size_t> pred3;
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    for (const TaskGraph::Task s : tg.successors(t)) {
      if (s == 3) pred3.insert(t);
    }
  }
  EXPECT_EQ(pred3, (std::set<std::size_t>{1, 2}));
}

TEST(SweepDag, RejectsOutOfRangeEdges) {
  std::vector<std::pair<NodeId, NodeId>> edges = {{0, 5}};
  EXPECT_THROW(SweepDag(3, edges), std::invalid_argument);
}

TEST(SweepDag, AcyclicityDetection) {
  EXPECT_TRUE(test::make_dag(3, {{0, 1}, {1, 2}}).is_acyclic());
  EXPECT_FALSE(test::make_dag(3, {{0, 1}, {1, 2}, {2, 0}}).is_acyclic());
  EXPECT_FALSE(test::make_dag(2, {{0, 1}, {1, 0}}).is_acyclic());
}

TEST(SweepDag, LevelsAreLongestPathFromRoots) {
  const SweepDag g = test::figure1_dag();
  const auto levels = g.levels();
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 0u);
  EXPECT_EQ(levels[3], 0u);
  EXPECT_EQ(levels[6], 0u);
  EXPECT_EQ(levels[2], 1u);
  EXPECT_EQ(levels[4], 1u);
  EXPECT_EQ(levels[5], 2u);
  EXPECT_EQ(levels[7], 2u);
  EXPECT_EQ(levels[8], 3u);
  EXPECT_EQ(test::one_direction(g).max_depth(), 4u);
}

TEST(SweepDag, LevelsSkipEdges) {
  // Edge 0->3 skips a level: levels are longest paths, so 3 sits at level 2.
  const SweepDag g = test::make_dag(4, {{0, 1}, {1, 3}, {0, 3}, {0, 2}});
  const auto levels = g.levels();
  EXPECT_EQ(levels[0], 0u);
  EXPECT_EQ(levels[1], 1u);
  EXPECT_EQ(levels[2], 1u);
  EXPECT_EQ(levels[3], 2u);
}

TEST(SweepDag, LevelsThrowOnCycle) {
  const SweepDag g = test::make_dag(3, {{0, 1}, {1, 2}, {2, 0}});
  EXPECT_THROW(g.levels(), std::logic_error);
  // An instance computes the levels on construction, so it cannot hold one.
  EXPECT_THROW(test::one_direction(g), std::logic_error);
}

TEST(SweepDag, BLevelsCountNodesToSink) {
  // b-levels are blevel_priorities negated (deeper runs first).
  const auto prio = core::blevel_priorities(test::one_direction(test::figure1_dag()));
  EXPECT_EQ(-prio[8], 1);  // sink
  EXPECT_EQ(-prio[5], 2);
  EXPECT_EQ(-prio[7], 2);
  EXPECT_EQ(-prio[2], 3);
  EXPECT_EQ(-prio[4], 3);
  EXPECT_EQ(-prio[0], 4);
  EXPECT_EQ(-prio[1], 4);
  EXPECT_EQ(-prio[6], 3);
}

TEST(SweepDag, TopologicalOrderRespectsEdges) {
  const SweepDag g = test::figure1_dag();
  const auto order = topological_order(test::one_direction(g), 0);
  ASSERT_EQ(order.size(), 9u);
  std::vector<std::size_t> pos(9);
  for (std::size_t i = 0; i < order.size(); ++i) pos[order[i]] = i;
  for (NodeId u = 0; u < 9; ++u) {
    for (NodeId v : g.successors(u)) {
      EXPECT_LT(pos[u], pos[v]);
    }
  }
}

TEST(SweepDag, IsolatedNodesAreRootsAndLeaves) {
  const SweepDag g = test::make_dag(3, {{0, 1}});
  const auto levels = g.levels();
  EXPECT_EQ(levels[2], 0u);
  EXPECT_EQ(core::blevel_priorities(test::one_direction(g))[2], -1);
}

TEST(TopologicalOrder, PopsReadyCellsLastInFirstOut) {
  // Roots 0,1,3,6 are pushed in cell order and popped from the back; a cell
  // is pushed when its last predecessor pops, successors in edge order.
  const auto order =
      topological_order(test::one_direction(test::figure1_dag()), 0);
  EXPECT_EQ(order, (std::vector<NodeId>{6, 3, 1, 4, 7, 0, 2, 5, 8}));
}

}  // namespace
}  // namespace sweep::dag
