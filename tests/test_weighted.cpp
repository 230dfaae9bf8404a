#include "core/weighted_scheduler.hpp"

#include <gtest/gtest.h>

#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

TEST(WeightedScheduler, UnitWeightsMatchUnitEngineMakespan) {
  const auto inst = dag::random_instance(60, 4, 8, 2.0, 3);
  util::Rng rng(4);
  const Assignment assignment = random_assignment(60, 6, rng);
  const std::vector<double> unit(60, 1.0);
  const auto delays = random_delays(4, rng);
  const auto priorities = random_delay_priorities(inst, delays);

  ListScheduleOptions unit_options;
  unit_options.priorities = priorities;
  const Schedule unit_schedule = list_schedule(inst, assignment, 6, unit_options);

  WeightedScheduleOptions weighted_options;
  weighted_options.priorities = priorities;
  const WeightedSchedule weighted = weighted_list_schedule(
      inst, assignment, 6, unit, weighted_options);

  EXPECT_DOUBLE_EQ(weighted.makespan,
                   static_cast<double>(unit_schedule.makespan()));
  EXPECT_EQ(validate_weighted_schedule(inst, weighted, unit), "");
}

TEST(WeightedScheduler, FeasibleOnHeterogeneousWeights) {
  const auto mesh = test::small_mixed_mesh();  // prisms + tets
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  const auto weights = face_count_weights(mesh);
  // Prisms (5 faces) must cost more than tets (4 faces).
  double min_w = 1e30;
  double max_w = 0.0;
  for (double w : weights) {
    min_w = std::min(min_w, w);
    max_w = std::max(max_w, w);
  }
  EXPECT_DOUBLE_EQ(min_w, 1.0);   // 4 faces * 0.25
  EXPECT_DOUBLE_EQ(max_w, 1.25);  // 5 faces * 0.25

  util::Rng rng(5);
  const Assignment assignment = random_assignment(mesh.n_cells(), 8, rng);
  const WeightedSchedule schedule =
      weighted_list_schedule(inst, assignment, 8, weights);
  EXPECT_EQ(validate_weighted_schedule(inst, schedule, weights), "");
  EXPECT_GE(schedule.makespan,
            weighted_lower_bound(inst, 8, weights) - 1e-9);
}

TEST(WeightedScheduler, SerialEqualsTotalWeight) {
  const auto inst = dag::random_instance(20, 2, 4, 1.0, 6);
  std::vector<double> weights(20);
  double total = 0.0;
  util::Rng rng(7);
  for (auto& w : weights) {
    w = rng.next_double(0.5, 2.0);
    total += w;
  }
  const WeightedSchedule schedule =
      weighted_list_schedule(inst, Assignment(20, 0), 1, weights);
  EXPECT_NEAR(schedule.makespan, 2.0 * total, 1e-9);
}

TEST(WeightedScheduler, LowerBoundComponents) {
  // Chain of 3 with weights 1,2,3 on one direction: critical path = 6.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(3, {{0, 1}, {1, 2}}));
  dag::SweepInstance inst(3, std::move(dags), "wchain");
  const std::vector<double> weights = {1.0, 2.0, 3.0};
  // With many processors the path bound dominates.
  EXPECT_DOUBLE_EQ(weighted_lower_bound(inst, 100, weights), 6.0);
  // With one processor the load bound dominates: total = 6 = path; equal.
  EXPECT_DOUBLE_EQ(weighted_lower_bound(inst, 1, weights), 6.0);
}

TEST(WeightedScheduler, MakespanAtLeastCriticalPath) {
  const auto inst = dag::chain_instance(15, 3, 8);
  std::vector<double> weights(15, 2.0);
  util::Rng rng(9);
  const Assignment assignment = random_assignment(15, 4, rng);
  const WeightedSchedule schedule =
      weighted_list_schedule(inst, assignment, 4, weights);
  // Each direction is a chain over all 15 cells: path = 30.
  EXPECT_GE(schedule.makespan, 30.0 - 1e-9);
  EXPECT_EQ(validate_weighted_schedule(inst, schedule, weights), "");
}

TEST(WeightedScheduler, RejectsBadInput) {
  const auto inst = dag::random_instance(5, 1, 2, 1.0, 10);
  const std::vector<double> weights(5, 1.0);
  EXPECT_THROW(weighted_list_schedule(inst, Assignment{0, 0}, 2, weights),
               std::invalid_argument);
  EXPECT_THROW(
      weighted_list_schedule(inst, Assignment(5, 0), 0, weights),
      std::invalid_argument);
  const std::vector<double> bad = {1.0, 0.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(weighted_list_schedule(inst, Assignment(5, 0), 1, bad),
               std::invalid_argument);
  const std::vector<double> short_weights(3, 1.0);
  EXPECT_THROW(weighted_list_schedule(inst, Assignment(5, 0), 1, short_weights),
               std::invalid_argument);

  // The lower bound reads one weight per cell and divides by m.
  const auto six = dag::random_instance(6, 2, 3, 1.0, 12);
  const std::vector<double> two_weights(2, 1.0);
  EXPECT_THROW(weighted_lower_bound(six, 2, two_weights),
               std::invalid_argument);
  EXPECT_THROW(weighted_lower_bound(six, 0, std::vector<double>(6, 1.0)),
               std::invalid_argument);
}

TEST(WeightedScheduler, ValidatorCatchesCorruption) {
  const auto inst = dag::chain_instance(5, 1, 11);
  const std::vector<double> weights(5, 1.5);
  WeightedSchedule schedule =
      weighted_list_schedule(inst, Assignment(5, 0), 1, weights);
  ASSERT_EQ(validate_weighted_schedule(inst, schedule, weights), "");
  WeightedSchedule foreign = schedule;
  schedule.start[2] = schedule.start[1];  // overlap + precedence break
  EXPECT_NE(validate_weighted_schedule(inst, schedule, weights), "");

  // An assignment naming a processor >= n_processors, or of the wrong
  // size, is reported instead of indexing past the interval lists.
  foreign.assignment[3] = 1;
  EXPECT_EQ(validate_weighted_schedule(inst, foreign, weights),
            "assignment names a processor >= n_processors");
  foreign.assignment.pop_back();
  EXPECT_EQ(validate_weighted_schedule(inst, foreign, weights),
            "shape mismatch");
}

}  // namespace
}  // namespace sweep::core
