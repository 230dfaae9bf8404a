#include "sweep/task_graph.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <vector>

#include "fuzz/scenario.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/descendants.hpp"
#include "sweep/directions.hpp"
#include "sweep/instance.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sweep::dag {
namespace {

/// The instance's TaskGraph must agree row for row with the per-direction
/// SweepDags it was built from, built again here independently of the
/// instance, with node ids translated into task ids by hand.
void expect_matches_dags(const SweepInstance& inst,
                         const std::vector<SweepDag>& dags) {
  const TaskGraph& tg = inst.task_graph();
  const std::size_t n = inst.n_cells();
  ASSERT_EQ(dags.size(), inst.n_directions());
  ASSERT_EQ(tg.n_tasks(), inst.n_tasks());
  ASSERT_EQ(tg.n_cells(), n);
  ASSERT_EQ(tg.n_directions(), inst.n_directions());

  std::size_t edges = 0;
  std::uint32_t max_level = 0;
  std::vector<std::uint32_t> indegree(tg.n_tasks(), 0);
  for (std::size_t i = 0; i < dags.size(); ++i) {
    const SweepDag& g = dags[i];
    ASSERT_EQ(g.n_nodes(), n);
    edges += g.n_edges();
    const auto levels = g.levels();
    const std::size_t base = i * n;
    for (NodeId v = 0; v < n; ++v) {
      const std::size_t t = base + v;
      // Successors: same direction, node ids shifted into task-id space.
      std::vector<TaskGraph::Task> expected;
      for (NodeId w : g.successors(v)) {
        expected.push_back(static_cast<TaskGraph::Task>(base + w));
        ++indegree[base + w];
      }
      const auto got = tg.successors(t);
      ASSERT_TRUE(std::equal(got.begin(), got.end(), expected.begin(),
                             expected.end()))
          << "direction " << i << " cell " << v;
      EXPECT_EQ(tg.out_degree(t), expected.size());
      EXPECT_EQ(tg.level(t), levels[v]);
      EXPECT_EQ(tg.cell(t), v);
      max_level = std::max(max_level, levels[v]);
    }
  }
  EXPECT_EQ(tg.n_edges(), edges);
  EXPECT_EQ(inst.total_edges(), edges);
  EXPECT_EQ(tg.max_level(), max_level);
  std::uint32_t max_indegree = 0;
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    EXPECT_EQ(tg.in_degree(t), indegree[t]) << "task " << t;
    max_indegree = std::max(max_indegree, indegree[t]);
  }
  EXPECT_EQ(tg.max_indegree(), max_indegree);

  // The contiguous arrays are just flat views of the same data.
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    EXPECT_EQ(tg.indegrees()[t], tg.in_degree(t));
    EXPECT_EQ(tg.levels()[t], tg.level(t));
    EXPECT_EQ(tg.cells()[t], tg.cell(t));
  }
}

template <typename T>
bool same_array(std::span<const T> a, std::span<const T> b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end());
}

TEST(TaskGraph, MatchesGeometricInstance) {
  const auto mesh = test::small_tet_mesh(5, 5, 3);
  const DirectionSet dirs = level_symmetric(2);
  const auto inst = build_instance(mesh, dirs);
  std::vector<SweepDag> dags;
  for (const Vec3& d : dirs.directions) {
    dags.push_back(build_sweep_dag(mesh, d).dag);
  }
  expect_matches_dags(inst, dags);
}

TEST(TaskGraph, MatchesRandomInstance) {
  // random_instance draws one forked stream per direction from the seed.
  util::Rng rng(42);
  std::vector<SweepDag> dags;
  for (int i = 0; i < 5; ++i) {
    util::Rng child = rng.fork();
    dags.push_back(random_layered_dag(80, 7, 2.0, child));
  }
  expect_matches_dags(random_instance(80, 5, 7, 2.0, 42), dags);
}

TEST(TaskGraph, MatchesChainInstance) {
  util::Rng rng(4);
  std::vector<SweepDag> dags;
  for (int i = 0; i < 3; ++i) {
    util::Rng child = rng.fork();
    dags.push_back(chain_dag(25, child));
  }
  const auto inst = chain_instance(25, 3, 4);
  expect_matches_dags(inst, dags);
  // A chain's structure is fully known: indegree 1 except sources.
  EXPECT_EQ(inst.task_graph().max_indegree(), 1u);
}

TEST(TaskGraph, CachedOnInstance) {
  const auto inst = random_instance(30, 2, 4, 1.5, 7);
  const TaskGraph* first = &inst.task_graph();
  EXPECT_EQ(first, &inst.task_graph());
  // An instance converts to that same graph, with no copy.
  const TaskGraph& converted = inst;
  EXPECT_EQ(&converted, first);
}

TEST(TaskGraph, CopyHoldsAnEqualGraphAndAnEmptyCountCache) {
  const auto inst = random_instance(30, 2, 4, 1.5, 7);
  (void)inst.exact_descendant_counts(0);
  const SweepInstance copy = inst;  // NOLINT(performance-unnecessary-copy)
  const TaskGraph& a = inst.task_graph();
  const TaskGraph& b = copy.task_graph();
  EXPECT_NE(&a, &b);
  EXPECT_FALSE(b.borrows());
  EXPECT_EQ(b.n_cells(), a.n_cells());
  EXPECT_EQ(b.n_directions(), a.n_directions());
  EXPECT_TRUE(same_array(a.offsets(), b.offsets()));
  EXPECT_TRUE(same_array(a.targets(), b.targets()));
  EXPECT_TRUE(same_array(a.indegrees(), b.indegrees()));
  EXPECT_TRUE(same_array(a.levels(), b.levels()));
  EXPECT_TRUE(same_array(a.cells(), b.cells()));
  EXPECT_EQ(b.max_level(), a.max_level());
  EXPECT_EQ(b.max_indegree(), a.max_indegree());
  EXPECT_NE(b.targets().data(), a.targets().data());
  EXPECT_EQ(copy.name(), inst.name());
#if !defined(SWEEP_OBS_DISABLE)
  // The copy's count cache starts empty: its first request computes the
  // closure again, and its second is served from its own cache.
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  EXPECT_EQ(copy.exact_descendant_counts(0), inst.exact_descendant_counts(0));
  EXPECT_EQ(test::counter_value_of("dag.descendant_counts.builds"), 1u);
  (void)copy.exact_descendant_counts(0);
  EXPECT_EQ(test::counter_value_of("dag.descendant_counts.builds"), 1u);
  obs::set_metrics_enabled(false);
#endif
}

TEST(TaskGraph, MoveKeepsTheGraphAddress) {
  auto inst = random_instance(30, 2, 4, 1.5, 7);
  const TaskGraph* graph = &inst.task_graph();
  const SweepInstance moved = std::move(inst);
  EXPECT_EQ(&moved.task_graph(), graph);
  SweepInstance assigned = chain_instance(5, 1, 1);
  assigned = SweepInstance(moved);
  const TaskGraph* copied = &assigned.task_graph();
  SweepInstance target = chain_instance(5, 1, 1);
  target = std::move(assigned);
  EXPECT_EQ(&target.task_graph(), copied);
}

TEST(TaskGraph, ConcurrentCountRequestsBuildOnce) {
  const auto inst = random_instance(60, 4, 6, 2.0, 11);
  std::vector<const std::vector<std::uint64_t>*> seen(8, nullptr);
  {
    std::vector<std::thread> threads;
    threads.reserve(seen.size());
    for (std::size_t i = 0; i < seen.size(); ++i) {
      threads.emplace_back(
          [&, i] { seen[i] = &inst.exact_descendant_counts(i % 2); });
    }
    for (auto& t : threads) t.join();
  }
  for (std::size_t i = 0; i < seen.size(); ++i) {
    EXPECT_EQ(seen[i], seen[i % 2]);
  }
  EXPECT_EQ(*seen[0], exact_descendant_counts(inst, 0));
  EXPECT_EQ(*seen[1], exact_descendant_counts(inst, 1));
}

/// topological_order(graph, i) must list every cell of direction i once, and
/// put every edge's source before its target.
void expect_topological_orders(const TaskGraph& graph) {
  const std::size_t n = graph.n_cells();
  for (std::size_t i = 0; i < graph.n_directions(); ++i) {
    const std::vector<NodeId> order = topological_order(graph, i);
    ASSERT_EQ(order.size(), n);
    std::vector<std::size_t> pos(n, n);
    for (std::size_t p = 0; p < n; ++p) {
      ASSERT_LT(order[p], n);
      ASSERT_EQ(pos[order[p]], n) << "cell " << order[p] << " listed twice";
      pos[order[p]] = p;
    }
    for (NodeId v = 0; v < n; ++v) {
      for (const TaskGraph::Task s : graph.successors(i * n + v)) {
        EXPECT_LT(pos[v], pos[s - i * n])
            << "direction " << i << " edge " << v << " -> " << s - i * n;
      }
    }
  }
  EXPECT_THROW((void)topological_order(graph, graph.n_directions()),
               std::out_of_range);
}

TEST(TaskGraph, TopologicalOrderIsValidOnEveryFamily) {
  for (std::uint32_t family = 0; family <= 7; ++family) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      fuzz::Scenario s;
      s.family = static_cast<fuzz::Family>(family);
      s.seed = seed;
      s.n = static_cast<std::uint32_t>(10 + 40 * seed);
      s.k = static_cast<std::uint32_t>(seed);
      s.layers = static_cast<std::uint32_t>(2 + seed);
      s.out_degree = 0.5 * static_cast<double>(seed);
      SCOPED_TRACE("family " + std::to_string(family) + " seed " +
                   std::to_string(seed));
      expect_topological_orders(fuzz::materialize(s));
    }
  }
  const auto mesh = test::small_mixed_mesh();
  expect_topological_orders(build_instance(mesh, level_symmetric(4)));
}

TEST(TaskGraph, TopologicalOrderThrowsOnBorrowedCycle) {
  // Only a borrowed graph can hold a cycle (0 <-> 1); the walk never reaches
  // its cells and refuses to return a short order.
  const std::vector<std::uint32_t> offsets = {0, 1, 2, 2};
  const std::vector<TaskGraph::Task> targets = {1, 0};
  const std::vector<std::uint32_t> indegree = {1, 1, 0};
  const std::vector<std::uint32_t> level = {0, 1, 0};
  const std::vector<std::uint32_t> cell = {0, 1, 2};
  const TaskGraph g = TaskGraph::from_views(3, 1, offsets, targets, indegree,
                                            level, cell, 1, 1);
  EXPECT_THROW((void)topological_order(g, 0), std::logic_error);
}

}  // namespace
}  // namespace sweep::dag
