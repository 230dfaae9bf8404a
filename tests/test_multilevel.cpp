#include "partition/multilevel.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "partition/simple_partitioners.hpp"
#include "test_helpers.hpp"

namespace sweep::partition {
namespace {

Graph mesh_graph() {
  static const Graph g = graph_from_mesh(test::small_tet_mesh(9, 9, 4));
  return g;
}

TEST(Multilevel, BisectionIsBalancedAndCutsWell) {
  const Graph g = mesh_graph();
  MultilevelOptions opts;
  opts.n_parts = 2;
  opts.seed = 3;
  const Partition part = multilevel_partition(g, opts);
  EXPECT_EQ(count_blocks(part), 2u);
  EXPECT_LE(imbalance(g, part, 2), 1.12);

  // Against random 2-partition, multilevel must be dramatically better.
  const Partition random = random_partition(g.n_vertices(), 2, 17);
  EXPECT_LT(edge_cut(g, part), edge_cut(g, random) / 3);
}

TEST(Multilevel, SinglePartIsTrivial) {
  const Graph g = mesh_graph();
  MultilevelOptions opts;
  opts.n_parts = 1;
  const Partition part = multilevel_partition(g, opts);
  EXPECT_EQ(count_blocks(part), 1u);
  EXPECT_EQ(edge_cut(g, part), 0);
}

TEST(Multilevel, RejectsZeroParts) {
  const Graph g = mesh_graph();
  MultilevelOptions opts;
  opts.n_parts = 0;
  EXPECT_THROW(multilevel_partition(g, opts), std::invalid_argument);
}

TEST(Multilevel, DeterministicPerSeed) {
  const Graph g = mesh_graph();
  MultilevelOptions opts;
  opts.n_parts = 8;
  opts.seed = 5;
  EXPECT_EQ(multilevel_partition(g, opts), multilevel_partition(g, opts));
}

class KWaySweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(KWaySweep, BalancedNonEmptyAndBetterThanRandom) {
  const std::size_t k = GetParam();
  const Graph g = mesh_graph();
  MultilevelOptions opts;
  opts.n_parts = k;
  opts.seed = 11;
  const Partition part = multilevel_partition(g, opts);
  ASSERT_EQ(part.size(), g.n_vertices());
  for (std::uint32_t b : part) EXPECT_LT(b, k);
  EXPECT_EQ(count_blocks(part), k);
  // Recursive bisection compounds tolerance; allow some slack.
  EXPECT_LE(imbalance(g, part, k), 1.35) << "k=" << k;
  const Partition random = random_partition(g.n_vertices(), k, 29);
  EXPECT_LT(edge_cut(g, part), edge_cut(g, random)) << "k=" << k;
}

INSTANTIATE_TEST_SUITE_P(PartCounts, KWaySweep,
                         ::testing::Values(2, 3, 4, 7, 8, 16, 31, 64));

TEST(Multilevel, ParallelBitIdenticalToSerial) {
  // The pool-task recursion must produce the same cuts as the serial
  // recursion (jobs = 1) for every seed and fan-out width: per-subproblem
  // seeding by bisection-tree node id makes branch order irrelevant.
  const Graph g = mesh_graph();
  for (const std::uint64_t seed : {3u, 11u, 23u}) {
    MultilevelOptions opts;
    opts.n_parts = 16;
    opts.seed = seed;
    opts.jobs = 1;
    const Partition serial = multilevel_partition(g, opts);
    for (const std::size_t jobs : {0u, 2u, 8u}) {
      opts.jobs = jobs;
#if !defined(SWEEP_OBS_DISABLE)
      // The comparison means something only if a branch ran on the pool.
      obs::MetricsRegistry::instance().reset();
      obs::set_metrics_enabled(true);
#endif
      EXPECT_EQ(multilevel_partition(g, opts), serial)
          << "seed=" << seed << " jobs=" << jobs;
#if !defined(SWEEP_OBS_DISABLE)
      obs::set_metrics_enabled(false);
      EXPECT_GE(test::counter_value_of("partition.parallel_branches"), 1u)
          << "seed=" << seed << " jobs=" << jobs;
#endif
    }
  }
}

TEST(PartitionIntoBlocks, BlockSizesRoughlyRespected) {
  const Graph g = mesh_graph();
  for (std::size_t block_size : {16u, 64u, 256u}) {
    const Partition part = partition_into_blocks(g, block_size);
    const std::size_t expected_blocks =
        (g.n_vertices() + block_size - 1) / block_size;
    EXPECT_EQ(count_blocks(part), expected_blocks) << "bs=" << block_size;
    // Largest block should not exceed ~1.5x the nominal size.
    std::vector<std::size_t> sizes(expected_blocks, 0);
    for (std::uint32_t b : part) ++sizes[b];
    EXPECT_LE(*std::max_element(sizes.begin(), sizes.end()),
              block_size + block_size / 2 + 2)
        << "bs=" << block_size;
  }
}

TEST(PartitionIntoBlocks, HugeBlockGivesOnePart) {
  const Graph g = mesh_graph();
  const Partition part = partition_into_blocks(g, g.n_vertices() * 10);
  EXPECT_EQ(count_blocks(part), 1u);
  EXPECT_THROW(partition_into_blocks(g, 0), std::invalid_argument);
}

TEST(Multilevel, WorksOnDisconnectedGraphs) {
  // Two disjoint cliques of 6.
  std::vector<std::pair<VertexId, VertexId>> edges;
  for (VertexId i = 0; i < 6; ++i) {
    for (VertexId j = i + 1; j < 6; ++j) {
      edges.push_back({i, j});
      edges.push_back({i + 6, j + 6});
    }
  }
  const Graph g(12, edges);
  MultilevelOptions opts;
  opts.n_parts = 2;
  opts.seed = 2;
  const Partition part = multilevel_partition(g, opts);
  EXPECT_EQ(count_blocks(part), 2u);
  // The natural split (clique vs clique, cut 0) should be found.
  EXPECT_EQ(edge_cut(g, part), 0);
}

TEST(Multilevel, MorePartsThanVerticesClamps) {
  const Graph g(3, std::vector<std::pair<VertexId, VertexId>>{{0, 1}, {1, 2}});
  MultilevelOptions opts;
  opts.n_parts = 10;
  const Partition part = multilevel_partition(g, opts);
  EXPECT_EQ(part.size(), 3u);
  EXPECT_EQ(count_blocks(part), 3u);
}

}  // namespace
}  // namespace sweep::partition
