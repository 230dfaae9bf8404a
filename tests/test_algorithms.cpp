#include "core/algorithms.hpp"

#include <gtest/gtest.h>

#include "core/validate.hpp"
#include "partition/multilevel.hpp"
#include "core/assignment.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

TEST(AlgorithmNames, RoundTrip) {
  for (Algorithm a : all_algorithms()) {
    EXPECT_EQ(algorithm_from_name(algorithm_name(a)), a);
  }
  EXPECT_THROW(algorithm_from_name("bogus"), std::invalid_argument);
  EXPECT_EQ(all_algorithms().size(), 9u);
}

class AlgorithmSweep
    : public ::testing::TestWithParam<std::tuple<Algorithm, std::size_t>> {};

TEST_P(AlgorithmSweep, ValidOnGeometricInstance) {
  const auto [algorithm, m] = GetParam();
  static const auto mesh = test::small_tet_mesh(5, 5, 2);
  static const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  util::Rng rng(7);
  const Schedule s = run_algorithm(algorithm, inst, m, rng);
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << algorithm_name(algorithm) << " m=" << m << ": "
                     << valid.error;
  const LowerBounds lb = compute_lower_bounds(inst, m);
  EXPECT_GE(approximation_ratio(s, lb), 1.0 - 1e-12);
}

INSTANTIATE_TEST_SUITE_P(
    AllAlgorithmsAllM, AlgorithmSweep,
    ::testing::Combine(::testing::ValuesIn(all_algorithms()),
                       ::testing::Values(1, 3, 8, 32)),
    [](const auto& param_info) {
      return algorithm_name(std::get<0>(param_info.param)) + "_m" +
             std::to_string(std::get<1>(param_info.param));
    });

TEST(Algorithms, BlockAssignmentIsHonored) {
  static const auto mesh = test::small_tet_mesh(6, 6, 2);
  static const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  const auto g = partition::graph_from_mesh(mesh);
  const auto blocks = partition::partition_into_blocks(g, 32);
  util::Rng rng(11);
  const Assignment a = block_assignment(blocks, 8, rng);
  for (Algorithm algorithm : all_algorithms()) {
    util::Rng run_rng(13);
    const Schedule s = run_algorithm(algorithm, inst, 8, run_rng, a);
    EXPECT_EQ(s.assignment(), a) << algorithm_name(algorithm);
    const auto valid = validate_schedule(inst, s);
    EXPECT_TRUE(valid) << algorithm_name(algorithm) << ": " << valid.error;
  }
}

TEST(Algorithms, RdPrioritiesBeatsPlainRdAtHighProcessorCounts) {
  // Section 5.1 observation 3 (the compaction win). Use a mid-size mesh and
  // many processors; Algorithm 2 should produce a strictly better makespan.
  static const auto mesh = test::small_tet_mesh(8, 8, 3);
  static const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  const std::size_t m = 64;
  util::Rng rng1(17);
  const auto plain = run_algorithm(Algorithm::kRandomDelay, inst, m, rng1);
  util::Rng rng2(17);
  const auto prio =
      run_algorithm(Algorithm::kRandomDelayPriorities, inst, m, rng2);
  EXPECT_LT(prio.makespan(), plain.makespan());
}

TEST(LowerBounds, InstanceWithoutCellsHasBoundZero) {
  // n = 0, k = 3: every schedule, the optimum included, has makespan 0, so
  // neither the k term nor the D term may apply.
  std::vector<dag::SweepDag> dags;
  for (int i = 0; i < 3; ++i) dags.push_back(test::make_dag(0, {}));
  const dag::SweepInstance inst(0, std::move(dags), "no-cells");
  const LowerBounds lb = compute_lower_bounds(inst, 4);
  EXPECT_EQ(lb.directions, 0u);
  EXPECT_EQ(lb.depth, 0u);
  EXPECT_EQ(lb.value(), 0.0);
  for (Algorithm algorithm : all_algorithms()) {
    util::Rng rng(5);
    const Schedule s = run_algorithm(algorithm, inst, 4, rng);
    EXPECT_GE(static_cast<double>(s.makespan()), lb.value())
        << algorithm_name(algorithm);
  }
}

TEST(ApproximationRatio, ZeroLowerBoundIsSafe) {
  Schedule s(1, 1, 1, Assignment{0});
  s.set_start(0, 0);
  LowerBounds lb;  // all zero
  EXPECT_EQ(approximation_ratio(s, lb), 0.0);
}

}  // namespace
}  // namespace sweep::core
