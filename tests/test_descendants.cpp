#include "sweep/descendants.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::dag {
namespace {

TEST(ExactDescendants, HandcraftedDag) {
  // 0 -> {1,2}, 1 -> 3, 2 -> 3: desc(0)=3, desc(1)=1, desc(2)=1, desc(3)=0.
  const SweepInstance g = test::one_direction(
      test::make_dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  const auto counts = exact_descendant_counts(g, 0);
  EXPECT_EQ(counts[0], 3u);
  EXPECT_EQ(counts[1], 1u);
  EXPECT_EQ(counts[2], 1u);
  EXPECT_EQ(counts[3], 0u);
}

TEST(ExactDescendants, SharedDescendantsNotDoubleCounted) {
  // Diamond into a long tail: naive child-sum would overcount the tail.
  const SweepInstance g = test::one_direction(test::make_dag(
      6, {{0, 1}, {0, 2}, {1, 3}, {2, 3}, {3, 4}, {4, 5}}));
  const auto counts = exact_descendant_counts(g, 0);
  EXPECT_EQ(counts[0], 5u);
  EXPECT_EQ(counts[1], 3u);
  EXPECT_EQ(counts[2], 3u);
  EXPECT_EQ(counts[3], 2u);
}

TEST(ExactDescendants, Chain) {
  util::Rng rng(1);
  const SweepInstance g = test::one_direction(chain_dag(20, rng));
  const auto counts = exact_descendant_counts(g, 0);
  std::vector<std::uint64_t> sorted(counts);
  std::sort(sorted.begin(), sorted.end());
  for (std::uint64_t i = 0; i < 20; ++i) EXPECT_EQ(sorted[i], i);
}

TEST(ExactDescendants, RejectOutOfRangeDirections) {
  // Both counters and the instance's cache throw before touching any
  // per-direction state, with cells and without.
  for (const std::size_t n : {0u, 4u}) {
    std::vector<SweepDag> dags;
    dags.push_back(test::make_dag(n, {}));
    dags.push_back(test::make_dag(n, {}));
    const SweepInstance g(n, std::move(dags));
    EXPECT_THROW((void)g.exact_descendant_counts(2), std::out_of_range)
        << "n=" << n;
    EXPECT_THROW((void)g.exact_descendant_counts(5), std::out_of_range)
        << "n=" << n;
    EXPECT_THROW(exact_descendant_counts(g, 5), std::out_of_range)
        << "n=" << n;
    EXPECT_THROW(exact_descendant_counts_reference(g, 5), std::out_of_range)
        << "n=" << n;
    EXPECT_EQ(g.exact_descendant_counts(1).size(), n);
  }
}

TEST(ExactDescendants, TiledMatchesReferenceOnRandomDags) {
  // Node counts straddle the strip width (kTileWords * 64 = 512 columns)
  // and the 64-bit word width: below/at/past one word, below/at/past one
  // strip, and a multi-strip graph not a multiple of either.
  for (const std::size_t n : {1u, 63u, 64u, 65u, 511u, 512u, 513u, 1200u}) {
    util::Rng rng(n);
    const SweepInstance g = test::one_direction(
        random_layered_dag(n, std::max<std::size_t>(n / 20, 2), 2.5, rng));
    EXPECT_EQ(exact_descendant_counts(g, 0),
              exact_descendant_counts_reference(g, 0))
        << "n=" << n;
  }
}

TEST(ExactDescendants, TiledSpansSeveralStrips) {
  // 1500 nodes take three 512-column strips, so strip reuse is exercised.
  // Strip [c0, c1) walks only the rows below c1: 512 + 1024 + 1500 row
  // visits, where walking every row in every strip would take 3 * 1500.
  util::Rng rng(4);
  const SweepInstance g =
      test::one_direction(random_layered_dag(1500, 12, 2.0, rng));
#if !defined(SWEEP_OBS_DISABLE)
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
#endif
  const auto tiled = exact_descendant_counts(g, 0);
#if !defined(SWEEP_OBS_DISABLE)
  obs::set_metrics_enabled(false);
  EXPECT_EQ(test::counter_value_of("descendants.tiled.strips"), 3u);
  EXPECT_EQ(test::counter_value_of("descendants.tiled.rows"), 3036u);
#endif
  EXPECT_EQ(tiled, exact_descendant_counts_reference(g, 0));
}

TEST(ExactDescendants, TiledEmptyDag) {
  const SweepInstance g = test::one_direction(test::make_dag(0, {}));
  EXPECT_TRUE(exact_descendant_counts(g, 0).empty());
  EXPECT_TRUE(exact_descendant_counts_reference(g, 0).empty());
}

TEST(EstimatedDescendants, RejectsTooFewRounds) {
  const SweepInstance g = test::one_direction(test::make_dag(3, {{0, 1}}));
  util::Rng rng(2);
  EXPECT_THROW(estimated_descendant_counts(g, 0, rng, 1),
               std::invalid_argument);
}

TEST(EstimatedDescendants, CloseToExactOnRandomDags) {
  util::Rng rng(3);
  const SweepInstance g =
      test::one_direction(random_layered_dag(600, 20, 2.5, rng));
  const auto exact = exact_descendant_counts(g, 0);
  // Within one labeling run the errors of overlapping reachable sets are
  // strongly correlated, so average several independent estimator runs
  // before comparing per-node.
  std::vector<double> estimated(g.n_cells(), 0.0);
  constexpr int kRuns = 4;
  for (int run = 0; run < kRuns; ++run) {
    util::Rng est_rng(100 + static_cast<std::uint64_t>(run));
    const auto one = estimated_descendant_counts(g, 0, est_rng, 48);
    for (std::size_t v = 0; v < g.n_cells(); ++v) estimated[v] += one[v] / kRuns;
  }
  for (std::size_t v = 0; v < g.n_cells(); ++v) {
    const double truth = static_cast<double>(exact[v]);
    if (truth >= 20.0) {
      EXPECT_NEAR(estimated[v], truth, truth * 0.35) << "node " << v;
    } else {
      EXPECT_LE(estimated[v], 60.0) << "node " << v;
    }
  }
}

TEST(EstimatedDescendants, PreservesCoarseRanking) {
  // Spearman-style check: top-descendant nodes by estimate should be
  // mostly the true top nodes.
  util::Rng rng(5);
  const SweepInstance g =
      test::one_direction(random_layered_dag(400, 15, 2.0, rng));
  const auto exact = exact_descendant_counts(g, 0);
  util::Rng est_rng(6);
  const auto estimated = estimated_descendant_counts(g, 0, est_rng, 32);

  auto top_decile = [&](auto&& values) {
    std::vector<std::size_t> ids(g.n_cells());
    for (std::size_t i = 0; i < ids.size(); ++i) ids[i] = i;
    std::sort(ids.begin(), ids.end(), [&](std::size_t a, std::size_t b) {
      return values[a] > values[b];
    });
    ids.resize(g.n_cells() / 10);
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  const auto true_top = top_decile(exact);
  const auto est_top = top_decile(estimated);
  std::vector<std::size_t> overlap;
  std::set_intersection(true_top.begin(), true_top.end(), est_top.begin(),
                        est_top.end(), std::back_inserter(overlap));
  EXPECT_GE(overlap.size(), true_top.size() / 2);
}

}  // namespace
}  // namespace sweep::dag
