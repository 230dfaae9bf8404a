#include "sweep/random_dag.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sweep/instance.hpp"
#include "test_helpers.hpp"

namespace sweep::dag {
namespace {

/// Edges of direction i, read from the task graph's offsets.
std::size_t direction_edges(const SweepInstance& inst, std::size_t i) {
  const auto offsets = inst.task_graph().offsets();
  const std::size_t n = inst.n_cells();
  return offsets[(i + 1) * n] - offsets[i * n];
}

TEST(RandomLayeredDag, AcyclicWithRequestedShape) {
  util::Rng rng(1);
  const SweepDag g = random_layered_dag(500, 12, 3.0, rng);
  EXPECT_EQ(g.n_nodes(), 500u);
  EXPECT_TRUE(g.is_acyclic());
  // One seed node per layer guarantees full depth.
  EXPECT_EQ(test::one_direction(g).max_depth(), 12u);
  // Average out-degree should be near 3 (all but last layer emit edges).
  const double avg =
      static_cast<double>(g.n_edges()) / static_cast<double>(g.n_nodes());
  EXPECT_GT(avg, 1.5);
  EXPECT_LT(avg, 3.5);
}

TEST(RandomLayeredDag, LayersClampToN) {
  util::Rng rng(2);
  const SweepDag g = random_layered_dag(5, 100, 1.0, rng);
  EXPECT_TRUE(g.is_acyclic());
  EXPECT_EQ(test::one_direction(g).max_depth(), 5u);
}

TEST(RandomLayeredDag, RejectsEmpty) {
  util::Rng rng(3);
  EXPECT_THROW(random_layered_dag(0, 3, 1.0, rng), std::invalid_argument);
}

TEST(RandomOrderDag, AcyclicAtAllLocalities) {
  for (std::size_t locality : {1u, 5u, 1000u}) {
    util::Rng rng(4);
    const SweepDag g = random_order_dag(300, 2.0, locality, rng);
    EXPECT_TRUE(g.is_acyclic()) << "locality " << locality;
  }
}

TEST(RandomOrderDag, SmallLocalityMakesDeepDags) {
  util::Rng rng_deep(5);
  const SweepDag deep = random_order_dag(400, 2.0, 1, rng_deep);
  util::Rng rng_flat(5);
  const SweepDag flat = random_order_dag(400, 2.0, 400, rng_flat);
  EXPECT_GT(test::one_direction(deep).max_depth(),
            test::one_direction(flat).max_depth());
}

TEST(ChainDag, IsOnePath) {
  util::Rng rng(6);
  const SweepDag g = chain_dag(50, rng);
  EXPECT_EQ(g.n_edges(), 49u);
  EXPECT_EQ(test::one_direction(g).max_depth(), 50u);
  // Every node has in/out degree <= 1.
  const SweepInstance inst = test::one_direction(g);
  for (NodeId v = 0; v < 50; ++v) {
    EXPECT_LE(g.out_degree(v), 1u);
    EXPECT_LE(inst.task_graph().in_degree(v), 1u);
  }
}

TEST(RandomInstance, ShapeAndIndependence) {
  const SweepInstance inst = random_instance(200, 6, 8, 2.0, 77);
  EXPECT_EQ(inst.n_cells(), 200u);
  EXPECT_EQ(inst.n_directions(), 6u);
  EXPECT_EQ(inst.n_tasks(), 1200u);
  // Acyclic: every edge goes up at least one level.
  const TaskGraph& tg = inst.task_graph();
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    for (const TaskGraph::Task s : tg.successors(t)) {
      EXPECT_GT(tg.level(s), tg.level(t));
    }
  }
  // Directions should differ (independent randomness): at least one of the
  // other DAGs has a different edge count than the first.
  bool any_different = false;
  for (std::size_t i = 1; i < inst.n_directions(); ++i) {
    any_different = any_different ||
                    direction_edges(inst, i) != direction_edges(inst, 0);
  }
  EXPECT_TRUE(any_different);
}

TEST(RandomInstance, DeterministicBySeed) {
  const SweepInstance a = random_instance(100, 3, 5, 1.5, 9);
  const SweepInstance b = random_instance(100, 3, 5, 1.5, 9);
  const auto ta = a.task_graph().targets();
  const auto tb = b.task_graph().targets();
  EXPECT_TRUE(std::equal(ta.begin(), ta.end(), tb.begin(), tb.end()));
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(direction_edges(a, i), direction_edges(b, i));
  }
}

TEST(ChainInstance, WorstCaseShape) {
  const SweepInstance inst = chain_instance(40, 4, 11);
  EXPECT_EQ(inst.max_depth(), 40u);
  for (std::size_t i = 0; i < inst.n_directions(); ++i) {
    EXPECT_EQ(direction_edges(inst, i), 39u);
  }
}

TEST(SweepInstance, RejectsMismatchedDags) {
  util::Rng rng(12);
  std::vector<SweepDag> dags;
  dags.push_back(chain_dag(10, rng));
  dags.push_back(chain_dag(11, rng));
  EXPECT_THROW(SweepInstance(10, std::move(dags)), std::invalid_argument);
}

TEST(SweepInstance, ZeroDirectionsIsLegal) {
  // k == 0 instances are valid (and round-trip through instance_io): the
  // schedulers degrade to the empty schedule instead of the constructor
  // rejecting them.
  const SweepInstance inst(10, {});
  EXPECT_EQ(inst.n_directions(), 0u);
  EXPECT_EQ(inst.n_cells(), 10u);
  EXPECT_EQ(inst.task_graph().n_tasks(), 0u);
}

}  // namespace
}  // namespace sweep::dag
