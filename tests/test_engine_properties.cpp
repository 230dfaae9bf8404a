// Cross-cutting engine properties, swept over instance shapes — the
// invariants that must hold for EVERY list schedule regardless of priority
// scheme, mesh, or processor count.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/algorithms.hpp"
#include "core/analysis.hpp"
#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/comm_rounds.hpp"
#include "core/random_delay.hpp"
#include "core/validate.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

struct PropertyCase {
  std::size_t n;
  std::size_t k;
  std::size_t m;
  std::size_t layers;
  double degree;
};

class PropertySweep : public ::testing::TestWithParam<PropertyCase> {};

TEST_P(PropertySweep, UniversalScheduleInvariants) {
  const auto& p = GetParam();
  const auto inst = dag::random_instance(p.n, p.k, p.layers, p.degree, 1234);
  for (Algorithm algorithm :
       {Algorithm::kRandomDelayPriorities, Algorithm::kLevelPriorities,
        Algorithm::kDescendantDelays, Algorithm::kDfdsPriorities,
        Algorithm::kDfdsDelays, Algorithm::kBLevelPriorities}) {
    util::Rng rng(99);
    std::vector<TimeStep> releases;
    const auto schedule =
        run_algorithm(algorithm, inst, p.m, rng, {}, &releases);
    const auto valid = validate_schedule(inst, schedule);
    ASSERT_TRUE(valid) << algorithm_name(algorithm) << ": " << valid.error;

    // 1. Work conservation: no processor idles while one of its tasks is
    //    released and ready. The delay variants gate tasks on the release
    //    times run_algorithm drew and reported.
    const auto analysis = analyze_schedule(inst, schedule, releases);
    EXPECT_EQ(analysis.avoidable_idle_slots, 0u) << algorithm_name(algorithm);
    // 2. Makespan bounded below by every component of the lower bound and
    //    by the busiest processor's load.
    const auto lb = compute_lower_bounds(inst, p.m);
    EXPECT_GE(static_cast<double>(schedule.makespan()), lb.value() - 1e-9);
    EXPECT_GE(schedule.makespan(), analysis.max_load);
    // 3. Makespan bounded above by serial execution.
    EXPECT_LE(schedule.makespan(), inst.n_tasks());
    // 4. Realized critical path can't exceed the DAG depth bound.
    EXPECT_LE(analysis.realized_critical_path, schedule.makespan());
    // 5. Communication accounting is internally consistent:
    //    realized rounds cover C2 and messages equal C1.
    const auto c1 = comm_cost_c1(inst, schedule.assignment());
    const auto c2 = comm_cost_c2(inst, schedule);
    const auto rounds = realize_c2_rounds(inst, schedule);
    EXPECT_EQ(rounds.total_messages, c1.cross_edges);
    EXPECT_GE(rounds.total_rounds, c2.total_delay);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PropertySweep,
    ::testing::Values(PropertyCase{30, 2, 2, 4, 1.0},
                      PropertyCase{60, 3, 7, 10, 2.0},
                      PropertyCase{100, 5, 16, 4, 3.0},
                      PropertyCase{40, 8, 40, 20, 1.5},
                      PropertyCase{150, 2, 3, 30, 1.2}));

TEST(EngineProperties, MoreProcessorsNeverHurtRandomDelayLayers) {
  // Algorithm 1's layered construction is monotone in m for a FIXED delay
  // and assignment refinement: with the same seeds, doubling m can only
  // spread each layer across more processors.
  const auto inst = dag::random_instance(200, 6, 10, 2.0, 777);
  std::size_t prev = std::numeric_limits<std::size_t>::max();
  for (std::size_t m : {2u, 4u, 8u, 16u, 32u}) {
    util::Rng rng(555);  // same delays + assignment pattern per m
    const auto result = random_delay_schedule(inst, m, rng);
    EXPECT_LE(result.schedule.makespan(), prev) << "m=" << m;
    prev = result.schedule.makespan();
  }
}

TEST(EngineProperties, AddingDirectionsIncreasesMakespan) {
  // Instances are nested: the first k directions of the larger instance are
  // identical (same seeds), so makespan must not decrease.
  const std::size_t n = 120;
  const auto small = dag::random_instance(n, 3, 8, 2.0, 31);
  const auto big = dag::random_instance(n, 6, 8, 2.0, 31);
  // Note: random_instance forks per direction from the same parent, so the
  // first 3 DAGs coincide.
  const auto small_offsets = small.task_graph().offsets();
  const auto small_targets = small.task_graph().targets();
  ASSERT_TRUE(std::equal(small_offsets.begin(), small_offsets.end(),
                         big.task_graph().offsets().begin()));
  ASSERT_TRUE(std::equal(small_targets.begin(), small_targets.end(),
                         big.task_graph().targets().begin()));
  util::Rng rng_a(41);
  util::Rng rng_b(41);
  const Assignment assignment = random_assignment(n, 8, rng_a);
  util::Rng run_a(43);
  util::Rng run_b(43);
  const auto s_small = run_algorithm(Algorithm::kLevelPriorities, small, 8,
                                     run_a, assignment);
  const auto s_big =
      run_algorithm(Algorithm::kLevelPriorities, big, 8, run_b, assignment);
  EXPECT_GE(s_big.makespan(), s_small.makespan());
}

TEST(EngineProperties, DeterministicGivenSeeds) {
  const auto mesh = test::small_tet_mesh(5, 5, 2);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  for (Algorithm algorithm : all_algorithms()) {
    util::Rng a(7);
    util::Rng b(7);
    const auto s1 = run_algorithm(algorithm, inst, 8, a);
    const auto s2 = run_algorithm(algorithm, inst, 8, b);
    EXPECT_EQ(s1.starts(), s2.starts()) << algorithm_name(algorithm);
    EXPECT_EQ(s1.assignment(), s2.assignment()) << algorithm_name(algorithm);
  }
}

}  // namespace
}  // namespace sweep::core
