#include "core/priorities.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

std::vector<dag::SweepDag> two_dags() {
  return {test::figure1_dag(), test::make_dag(9, {{8, 7}, {7, 6}, {6, 5}})};
}

dag::SweepInstance two_dag_instance() {
  return dag::SweepInstance(9, two_dags(), "two");
}

TEST(RandomDelays, InRangeAndDeterministic) {
  util::Rng rng(1);
  const auto delays = random_delays(24, rng);
  ASSERT_EQ(delays.size(), 24u);
  for (TimeStep x : delays) EXPECT_LT(x, 24u);
  util::Rng rng2(1);
  EXPECT_EQ(random_delays(24, rng2), delays);
}

TEST(RandomDelays, CoversRange) {
  util::Rng rng(2);
  std::vector<int> seen(8, 0);
  for (int trial = 0; trial < 200; ++trial) {
    for (TimeStep x : random_delays(8, rng)) ++seen[x];
  }
  for (int s : seen) EXPECT_GT(s, 0);
}

TEST(LevelPriorities, MatchDagLevels) {
  const auto inst = two_dag_instance();
  const auto prio = level_priorities(inst);
  const std::vector<dag::SweepDag> dags = two_dags();
  for (DirectionId i = 0; i < 2; ++i) {
    const auto levels = dags[i].levels();
    for (CellId v = 0; v < 9; ++v) {
      EXPECT_EQ(prio[task_id(v, i, 9)], levels[v]);
    }
  }
}

TEST(RandomDelayPriorities, ShiftLevelsByDelay) {
  const auto inst = two_dag_instance();
  const std::vector<TimeStep> delays = {3, 11};
  const auto prio = random_delay_priorities(inst, delays);
  const auto base = level_priorities(inst);
  for (DirectionId i = 0; i < 2; ++i) {
    for (CellId v = 0; v < 9; ++v) {
      EXPECT_EQ(prio[task_id(v, i, 9)],
                base[task_id(v, i, 9)] + delays[i]);
    }
  }
  EXPECT_THROW(random_delay_priorities(inst, {1}), std::invalid_argument);
}

TEST(DescendantPriorities, MoreDescendantsRunFirst) {
  const auto inst = two_dag_instance();
  util::Rng rng(3);
  const auto prio = descendant_priorities(inst, rng);
  // In the chain 8->7->6->5, node 8 has 3 descendants, 5 has none.
  EXPECT_LT(prio[task_id(8, 1, 9)], prio[task_id(5, 1, 9)]);
  // Figure-1 DAG: node 1 (4 descendants) before node 8 (none).
  EXPECT_LT(prio[task_id(1, 0, 9)], prio[task_id(8, 0, 9)]);
}

TEST(DfdsPriorities, MatchesPaperRulesOnHandcraftedCase) {
  // Chain 0->1->2->3 with assignment {0,0,1,1}: the off-processor edge is
  // 1->2. b-levels: 4,3,2,1; depth C=4.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {{0, 1}, {1, 2}, {2, 3}}));
  auto inst = dag::SweepInstance(4, std::move(dags), "chain");
  const Assignment assignment = {0, 0, 1, 1};
  const auto prio = dfds_priorities(inst, assignment);
  // Engine convention negates: recover the paper's values.
  // Node 1 has off-processor child 2 (b-level 2): prio = C + 2 = 6.
  EXPECT_EQ(-prio[task_id(1, 0, 4)], 6);
  // Node 0: no off-proc children, child 1 has prio 6 -> 5.
  EXPECT_EQ(-prio[task_id(0, 0, 4)], 5);
  // Nodes 2,3: no off-processor descendants -> 0.
  EXPECT_EQ(-prio[task_id(2, 0, 4)], 0);
  EXPECT_EQ(-prio[task_id(3, 0, 4)], 0);
}

TEST(DfdsPriorities, AllOnOneProcessorIsAllZero) {
  const auto inst = two_dag_instance();
  const auto prio = dfds_priorities(inst, Assignment(9, 0));
  for (std::int64_t p : prio) EXPECT_EQ(p, 0);
}

TEST(DfdsPriorities, RejectsBadAssignment) {
  const auto inst = two_dag_instance();
  EXPECT_THROW(dfds_priorities(inst, Assignment{0, 1}), std::invalid_argument);
}

TEST(DelayReleaseTimes, PerDirectionConstants) {
  const auto inst = two_dag_instance();
  const std::vector<TimeStep> delays = {4, 9};
  const auto releases = delay_release_times(inst, delays);
  for (CellId v = 0; v < 9; ++v) {
    EXPECT_EQ(releases[task_id(v, 0, 9)], 4u);
    EXPECT_EQ(releases[task_id(v, 1, 9)], 9u);
  }
  EXPECT_THROW(delay_release_times(inst, {1, 2, 3}), std::invalid_argument);
}

}  // namespace
}  // namespace sweep::core
