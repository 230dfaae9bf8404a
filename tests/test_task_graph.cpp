#include "sweep/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

#include "core/types.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/directions.hpp"
#include "sweep/instance.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::dag {
namespace {

/// The TaskGraph must agree edge-for-edge with walking the per-direction
/// SweepDags and translating node ids by hand — on every instance shape.
void expect_matches_dags(const SweepInstance& inst) {
  const TaskGraph& tg = inst.task_graph();
  const std::size_t n = inst.n_cells();
  ASSERT_EQ(tg.n_tasks(), inst.n_tasks());
  ASSERT_EQ(tg.n_cells(), n);
  ASSERT_EQ(tg.n_directions(), inst.n_directions());
  ASSERT_EQ(tg.n_edges(), inst.total_edges());

  std::uint32_t max_level = 0;
  std::uint32_t max_indegree = 0;
  for (std::size_t i = 0; i < inst.n_directions(); ++i) {
    const SweepDag& g = inst.dag(i);
    const auto levels = g.levels();
    const std::size_t base = i * n;
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t t = base + v;
      // Successors: same direction, node ids shifted into task-id space.
      std::vector<TaskGraph::Task> expected;
      for (NodeId w : g.successors(v)) {
        expected.push_back(static_cast<TaskGraph::Task>(base + w));
      }
      const auto got = tg.successors(t);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                             expected.end()))
          << "direction " << i << " cell " << v;
      EXPECT_EQ(tg.out_degree(t), expected.size());
      EXPECT_EQ(tg.in_degree(t), g.in_degree(v));
      EXPECT_EQ(tg.level(t), levels[v]);
      EXPECT_EQ(tg.cell(t), v);
      max_level = std::max(max_level, levels[v]);
      max_indegree =
          std::max(max_indegree, static_cast<std::uint32_t>(g.in_degree(v)));
    }
  }
  EXPECT_EQ(tg.max_level(), max_level);
  EXPECT_EQ(tg.max_indegree(), max_indegree);

  // The contiguous arrays are just flat views of the same data.
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    EXPECT_EQ(tg.indegrees()[t], tg.in_degree(t));
    EXPECT_EQ(tg.levels()[t], tg.level(t));
    EXPECT_EQ(tg.cells()[t], tg.cell(t));
  }
}

TEST(TaskGraph, MatchesGeometricInstance) {
  const auto mesh = test::small_tet_mesh(5, 5, 3);
  const auto inst = build_instance(mesh, level_symmetric(2));
  expect_matches_dags(inst);
}

TEST(TaskGraph, MatchesRandomInstance) {
  expect_matches_dags(random_instance(80, 5, 7, 2.0, 42));
}

TEST(TaskGraph, MatchesChainInstance) {
  const auto inst = chain_instance(25, 3, 4);
  expect_matches_dags(inst);
  // A chain's structure is fully known: indegree 1 except sources.
  EXPECT_EQ(inst.task_graph().max_indegree(), 1u);
}

TEST(TaskGraph, CachedOnInstance) {
  const auto inst = random_instance(30, 2, 4, 1.5, 7);
  const TaskGraph* first = &inst.task_graph();
  EXPECT_EQ(first, &inst.task_graph());
  // An instance converts to that same cached graph, with no copy.
  const TaskGraph& converted = inst;
  EXPECT_EQ(&converted, first);
}

TEST(TaskGraph, CopyGetsFreshCache) {
  const auto inst = random_instance(30, 2, 4, 1.5, 7);
  const TaskGraph* original = &inst.task_graph();
  const SweepInstance copy = inst;  // NOLINT(performance-unnecessary-copy)
  const TaskGraph* copied = &copy.task_graph();
  EXPECT_NE(original, copied);
  EXPECT_EQ(original->n_edges(), copied->n_edges());
}

TEST(TaskGraph, ConcurrentFirstAccessBuildsOnce) {
  const auto inst = random_instance(60, 4, 6, 2.0, 11);
  std::vector<const TaskGraph*> seen(8, nullptr);
  {
    std::vector<std::thread> threads;
    threads.reserve(seen.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      threads.emplace_back([&, i] { seen[i] = &inst.task_graph(); });
    }
    for (auto& t : threads) t.join();
  }
  for (const TaskGraph* p : seen) EXPECT_EQ(p, seen[0]);
}

}  // namespace
}  // namespace sweep::dag
