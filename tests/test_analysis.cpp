#include "core/analysis.hpp"

#include <gtest/gtest.h>

#include "core/algorithms.hpp"
#include "core/list_scheduler.hpp"
#include "core/assignment.hpp"
#include "core/priorities.hpp"
#include "core/random_delay.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

TEST(Analysis, ListSchedulesHaveNoAvoidableIdle) {
  // Work conservation is THE property of Algorithm 2; the analyzer must
  // report zero avoidable idle slots for every list schedule.
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto inst = dag::random_instance(80, 4, 8, 2.0, seed);
    util::Rng rng(seed * 17);
    const auto schedule = run_algorithm(Algorithm::kRandomDelayPriorities,
                                        inst, 8, rng);
    const auto analysis = analyze_schedule(inst, schedule);
    EXPECT_EQ(analysis.avoidable_idle_slots, 0u) << "seed " << seed;
    EXPECT_EQ(analysis.makespan, schedule.makespan());
    EXPECT_EQ(analysis.total_idle_slots, schedule.idle_slots());
  }
}

TEST(Analysis, CrossMessageDelayIsNotAvoidableIdle) {
  // Cell 0 feeds cell 1 on another processor; with c = 3 the engine holds
  // cell 1 back until step 0 + 1 + 3. Counted from precedence alone, those
  // three idle steps look avoidable; counted under the gate, they are not.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(2, {{0, 1}}));
  const dag::SweepInstance inst(2, std::move(dags), "pair");
  ListScheduleOptions options;
  options.cross_message_delay = 3;
  const Schedule s = list_schedule(inst, Assignment{0, 1}, 2, options);
  ASSERT_EQ(s.start(1), 4u);
  EXPECT_EQ(analyze_schedule(inst, s).avoidable_idle_slots, 3u);
  EXPECT_EQ(analyze_schedule(inst, s, {}, 3).avoidable_idle_slots, 0u);
  // The same cells on one processor need no message, so no wait.
  const Schedule local = list_schedule(inst, Assignment{0, 0}, 2, options);
  EXPECT_EQ(local.start(1), 1u);
  EXPECT_EQ(analyze_schedule(inst, local, {}, 3).avoidable_idle_slots, 0u);
}

TEST(Analysis, GatedListSchedulesHaveNoAvoidableIdleUnderTheirGates) {
  // Release times and cross-message delay: the engine idles only while
  // every one of a processor's tasks is gated, so the gate-aware count is
  // zero, while the precedence-only count is not.
  std::size_t precedence_only = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    const auto inst = dag::random_instance(80, 4, 8, 2.0, seed);
    util::Rng rng(seed * 13);
    const std::size_t m = 3 + seed;
    const auto assignment = random_assignment(inst.n_cells(), m, rng);
    const auto priorities = level_priorities(inst);
    const auto releases =
        delay_release_times(inst, random_delays(inst.n_directions(), rng));
    for (const TimeStep c : {TimeStep{0}, TimeStep{1}, TimeStep{3}}) {
      ListScheduleOptions options;
      options.priorities = priorities;
      options.release_times = releases;
      options.cross_message_delay = c;
      const Schedule s = list_schedule(inst, assignment, m, options);
      EXPECT_EQ(analyze_schedule(inst, s, releases, c).avoidable_idle_slots,
                0u)
          << "seed " << seed << " c " << c;
      precedence_only += analyze_schedule(inst, s).avoidable_idle_slots;
    }
  }
  EXPECT_GT(precedence_only, 0u);
}

TEST(Analysis, RejectsReleaseTimesOfTheWrongSize) {
  const auto inst = dag::random_instance(5, 1, 2, 1.0, 10);
  const Schedule s = list_schedule(inst, Assignment(5, 0), 1);
  const std::vector<TimeStep> short_releases(4, 0);
  EXPECT_THROW(analyze_schedule(inst, s, short_releases),
               std::invalid_argument);
}

TEST(Analysis, LayerSynchronousAlgorithmHasAvoidableIdle) {
  // Algorithm 1 processes layers synchronously, so processors with light
  // layers wait — the compaction headroom the paper exploits in Algorithm 2.
  const auto mesh = test::small_tet_mesh(7, 7, 3);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  util::Rng rng(3);
  const auto result = random_delay_schedule(inst, 16, rng);
  const auto analysis = analyze_schedule(inst, result.schedule);
  EXPECT_GT(analysis.avoidable_idle_slots, 0u);
}

TEST(Analysis, LoadsAndUtilization) {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {}));
  dag::SweepInstance inst(4, std::move(dags), "indep");
  const Schedule s = list_schedule(inst, Assignment{0, 0, 0, 1}, 2);
  const auto analysis = analyze_schedule(inst, s);
  EXPECT_EQ(analysis.min_load, 1u);
  EXPECT_EQ(analysis.max_load, 3u);
  EXPECT_EQ(analysis.makespan, 3u);
  EXPECT_NEAR(analysis.mean_utilization, 4.0 / 6.0, 1e-12);
}

TEST(Analysis, RealizedCriticalPathOnChain) {
  const auto inst = dag::chain_instance(10, 1, 7);
  util::Rng rng(8);
  const auto assignment = random_assignment(10, 3, rng);
  const Schedule s = list_schedule(inst, assignment, 3);
  const auto analysis = analyze_schedule(inst, s);
  // A chain executes back-to-back: the realized critical path is all of it.
  EXPECT_EQ(analysis.realized_critical_path, 10u);
  ASSERT_EQ(analysis.direction_finish.size(), 1u);
  EXPECT_EQ(analysis.direction_finish[0], 10u);
}

TEST(Analysis, DirectionFinishTimesAreOrderedByDelay) {
  const auto mesh = test::small_tet_mesh(5, 5, 2);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  util::Rng rng(9);
  const auto schedule =
      run_algorithm(Algorithm::kRandomDelayPriorities, inst, 4, rng);
  const auto analysis = analyze_schedule(inst, schedule);
  ASSERT_EQ(analysis.direction_finish.size(), 8u);
  for (std::size_t finish : analysis.direction_finish) {
    EXPECT_GT(finish, 0u);
    EXPECT_LE(finish, analysis.makespan);
  }
  // At least one direction finishes strictly before the makespan (pipelining).
  bool any_early = false;
  for (std::size_t finish : analysis.direction_finish) {
    any_early = any_early || finish < analysis.makespan;
  }
  EXPECT_TRUE(any_early);
}

TEST(Analysis, RejectsIncompleteSchedule) {
  const auto inst = dag::random_instance(5, 1, 2, 1.0, 10);
  Schedule s(5, 1, 2, Assignment(5, 0));
  EXPECT_THROW(analyze_schedule(inst, s), std::invalid_argument);
}

TEST(Analysis, ToStringMentionsKeyFields) {
  const auto inst = dag::random_instance(20, 2, 4, 1.5, 11);
  util::Rng rng(12);
  const auto schedule =
      run_algorithm(Algorithm::kLevelPriorities, inst, 4, rng);
  const std::string text = to_string(analyze_schedule(inst, schedule));
  EXPECT_NE(text.find("makespan="), std::string::npos);
  EXPECT_NE(text.find("avoidable"), std::string::npos);
  EXPECT_NE(text.find("utilization="), std::string::npos);
}

}  // namespace
}  // namespace sweep::core
