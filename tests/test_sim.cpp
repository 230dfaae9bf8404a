#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "core/algorithms.hpp"
#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "partition/multilevel.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::sim {
namespace {

using core::Assignment;

dag::SweepInstance chain4() {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {{0, 1}, {1, 2}, {2, 3}}));
  return dag::SweepInstance(4, std::move(dags), "chain4");
}

TEST(MachineSim, ZeroCommMatchesMakespan) {
  const auto inst = dag::random_instance(80, 4, 8, 2.0, 5);
  util::Rng rng(6);
  const auto schedule = core::run_algorithm(
      core::Algorithm::kRandomDelayPriorities, inst, 8, rng);
  MachineModel model;
  model.latency = 0.0;
  model.byte_time = 0.0;
  const auto result = simulate_execution(inst, schedule, model);
  // With free communication, replaying the schedule cannot take longer than
  // the step count, and work conservation means it cannot take less than
  // the critical-path-respecting compaction of the same order.
  EXPECT_LE(result.completion_time,
            static_cast<double>(schedule.makespan()) + 1e-9);
  EXPECT_GT(result.completion_time, 0.0);
  EXPECT_DOUBLE_EQ(result.total_blocked_time, 0.0);
  EXPECT_EQ(result.messages_sent,
            core::comm_cost_c1(inst, schedule.assignment()).cross_edges);
}

TEST(MachineSim, SingleProcessorIsPureCompute) {
  const auto inst = dag::random_instance(30, 2, 5, 1.5, 7);
  const auto schedule = core::list_schedule(inst, Assignment(30, 0), 1);
  const auto result = simulate_execution(inst, schedule, MachineModel{});
  EXPECT_DOUBLE_EQ(result.completion_time, 60.0);  // 60 unit tasks
  EXPECT_EQ(result.messages_sent, 0u);
  EXPECT_DOUBLE_EQ(result.total_wait_time, 0.0);
  EXPECT_DOUBLE_EQ(result.efficiency(1), 1.0);
}

TEST(MachineSim, AlternatingChainPaysFullLatencyPerHop) {
  const auto inst = chain4();
  const auto schedule = core::list_schedule(inst, Assignment{0, 1, 0, 1}, 2);
  MachineModel model;
  model.task_time = 1.0;
  model.latency = 2.0;
  model.byte_time = 0.5;
  const auto result = simulate_execution(inst, schedule, model);
  // Each of the 3 hops costs 1 (compute) + 0.5 (transfer) + 2 (latency);
  // final task adds its own compute: 3 * 3.5 + 1 = 11.5.
  EXPECT_NEAR(result.completion_time, 11.5, 1e-9);
  EXPECT_EQ(result.messages_sent, 3u);
  // Wait accounting: task i's wait is measured against when its processor
  // became free, so the two processors accumulate 3.5 + 6 + 6 = 15.5.
  EXPECT_NEAR(result.total_wait_time, 15.5, 1e-9);
}

TEST(MachineSim, SynchronousSendsBlockTheCpu) {
  // Star 0 -> {1,2,3} with every child elsewhere plus a second local task on
  // the sender's processor: with sends_in_flight=0 the sender must wait for
  // all three deliveries before running its next task.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(5, {{0, 1}, {0, 2}, {0, 3}}));
  auto inst = dag::SweepInstance(5, std::move(dags), "star+");
  const Assignment assignment = {0, 1, 2, 3, 0};  // cell 4 also on proc 0
  const auto schedule = core::list_schedule(inst, assignment, 4);
  MachineModel blocking;
  blocking.latency = 1.0;
  blocking.byte_time = 1.0;
  blocking.sends_in_flight = 0;
  MachineModel overlapped = blocking;
  overlapped.sends_in_flight = 8;
  const auto sync = simulate_execution(inst, schedule, blocking);
  const auto async = simulate_execution(inst, schedule, overlapped);
  EXPECT_GT(sync.total_blocked_time, 0.0);
  EXPECT_DOUBLE_EQ(async.total_blocked_time, 0.0);
  EXPECT_LE(async.completion_time, sync.completion_time);
}

TEST(MachineSim, MonotoneInLatencyAndBandwidth) {
  const auto mesh = test::small_tet_mesh(6, 6, 3);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  util::Rng rng(8);
  const auto schedule = core::run_algorithm(
      core::Algorithm::kRandomDelayPriorities, inst, 8, rng);
  double prev = 0.0;
  for (double latency : {0.0, 0.05, 0.2, 1.0}) {
    MachineModel model;
    model.latency = latency;
    model.byte_time = latency / 10.0;
    const auto result = simulate_execution(inst, schedule, model);
    EXPECT_GE(result.completion_time, prev);
    prev = result.completion_time;
  }
}

TEST(MachineSim, BlockAssignmentWinsOnRealMachine) {
  // The end-to-end justification of Section 5.1's partitioning: on a machine
  // with nonzero per-message cost, the block schedule (fewer messages)
  // finishes sooner even though its zero-comm makespan is a bit worse.
  const auto mesh = test::small_tet_mesh(8, 8, 3);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  const std::size_t m = 8;
  util::Rng rng(9);
  const auto cell_schedule = core::run_algorithm(
      core::Algorithm::kRandomDelayPriorities, inst, m, rng);

  const auto graph = partition::graph_from_mesh(mesh);
  const auto blocks =
      partition::partition_into_blocks(graph, mesh.n_cells() / (m * 8));
  util::Rng rng2(9);
  const auto block_assignment = core::block_assignment(blocks, m, rng2);
  util::Rng rng3(9);
  const auto block_schedule =
      core::run_algorithm(core::Algorithm::kRandomDelayPriorities, inst, m,
                          rng3, block_assignment);

  // Bandwidth-bound regime: per-processor message volume exceeds its
  // compute, so the NIC is the bottleneck and message count decides.
  MachineModel expensive;
  expensive.latency = 0.2;
  expensive.byte_time = 1.5;
  expensive.sends_in_flight = 4;
  const auto cell_time = simulate_execution(inst, cell_schedule, expensive);
  const auto block_time = simulate_execution(inst, block_schedule, expensive);
  EXPECT_LT(block_time.messages_sent, cell_time.messages_sent);
  EXPECT_LT(block_time.completion_time, cell_time.completion_time);
}

TEST(MachineSim, RejectsBadInput) {
  const auto inst = chain4();
  core::Schedule incomplete(4, 1, 2, Assignment{0, 1, 0, 1});
  EXPECT_THROW(simulate_execution(inst, incomplete, MachineModel{}),
               std::invalid_argument);
  const auto schedule = core::list_schedule(inst, Assignment{0, 1, 0, 1}, 2);
  MachineModel bad;
  bad.task_time = 0.0;
  EXPECT_THROW(simulate_execution(inst, schedule, bad), std::invalid_argument);

  // Same task count, other shape: a 4-cell x 6-direction schedule against a
  // 6-cell x 4-direction instance would read past the schedule's
  // 4-entry assignment.
  const auto six_by_four = dag::random_instance(6, 4, 2, 1.0, 3);
  const auto four_by_six = dag::random_instance(4, 6, 2, 1.0, 3);
  const auto foreign =
      core::list_schedule(four_by_six, Assignment{0, 1, 0, 1}, 2);
  ASSERT_EQ(foreign.n_tasks(), six_by_four.n_tasks());
  EXPECT_THROW(simulate_execution(six_by_four, foreign, MachineModel{}),
               std::invalid_argument);

  // An assignment entry >= m would index past the per-processor arrays.
  core::Schedule out_of_range(4, 1, 2, Assignment{0, 5, 0, 1});
  for (core::TaskId t = 0; t < 4; ++t) out_of_range.set_start(t, t);
  EXPECT_THROW(simulate_execution(inst, out_of_range, MachineModel{}),
               std::invalid_argument);
}

}  // namespace
}  // namespace sweep::sim
