#include "core/comm_cost.hpp"

#include <gtest/gtest.h>

#include <string>

#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "obs/obs.hpp"
#include "partition/graph.hpp"
#include "partition/multilevel.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

dag::SweepInstance chain4() {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {{0, 1}, {1, 2}, {2, 3}}));
  return dag::SweepInstance(4, std::move(dags), "chain4");
}

void expect_c2_matches_reference(const dag::SweepInstance& inst,
                                 const Schedule& s, const std::string& what) {
  const auto c2 = comm_cost_c2(inst, s);
  const auto reference = comm_cost_c2_reference(inst, s);
  EXPECT_EQ(c2.total_delay, reference.total_delay) << what;
  EXPECT_EQ(c2.max_step_degree, reference.max_step_degree) << what;
  EXPECT_EQ(c2.busy_steps, reference.busy_steps) << what;
  // Both passes count every message, and so does C1.
  EXPECT_EQ(c2.cross_edges, reference.cross_edges) << what;
  EXPECT_EQ(comm_cost_c1(inst, s.assignment()).cross_edges,
            reference.cross_edges)
      << what;
}

struct C2Case {
  dag::SweepInstance inst;
  Schedule schedule;
};

// Cells 0 and 1 both run at step 0 on processor 0 and send to processor 1:
// task 0 two messages, task 1 one. No engine would share a slot like that.
C2Case shared_slot() {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {{0, 2}, {0, 3}, {1, 3}}));
  C2Case c{dag::SweepInstance(4, std::move(dags), "shared_slot"),
           Schedule(4, 1, 2, Assignment{0, 0, 1, 1})};
  for (TaskId t = 0; t < 4; ++t) {
    c.schedule.set_start(t, static_cast<TimeStep>(t / 2));
  }
  return c;
}

// An engine schedule whose cells use processors 0..7 of m = 8192: its
// horizon is modest (at most n_tasks), but horizon * m is far above
// 64 * n_tasks slots.
C2Case wide_slot_space() {
  auto inst = dag::random_instance(300, 3, 6, 2.0, 4);
  util::Rng rng(8);
  const Assignment a = random_assignment(300, 8, rng);
  Schedule s = list_schedule(inst, a, 8192);
  return {std::move(inst), std::move(s)};
}

TEST(C1, HandcraftedCounts) {
  const auto inst = chain4();
  EXPECT_EQ(comm_cost_c1(inst, {0, 0, 0, 0}).cross_edges, 0u);
  EXPECT_EQ(comm_cost_c1(inst, {0, 0, 1, 1}).cross_edges, 1u);
  EXPECT_EQ(comm_cost_c1(inst, {0, 1, 0, 1}).cross_edges, 3u);
  EXPECT_EQ(comm_cost_c1(inst, {0, 1, 0, 1}).total_edges, 3u);
  EXPECT_DOUBLE_EQ(comm_cost_c1(inst, {0, 1, 0, 1}).fraction(), 1.0);
  EXPECT_THROW(comm_cost_c1(inst, {0, 1}), std::invalid_argument);
}

TEST(C1, RandomAssignmentFractionNearMMinus1OverM) {
  // Section 5.1 observation 1: per-cell random assignment crosses about
  // (m-1)/m of all edges.
  const auto inst = dag::random_instance(800, 6, 10, 2.0, 3);
  for (std::size_t m : {2u, 8u, 32u}) {
    util::Rng rng(4);
    const auto a = random_assignment(800, m, rng);
    const double expected = static_cast<double>(m - 1) / static_cast<double>(m);
    EXPECT_NEAR(comm_cost_c1(inst, a).fraction(), expected, 0.03) << "m=" << m;
  }
}

TEST(C2, SingleProcessorIsFree) {
  const auto inst = chain4();
  const Schedule s = list_schedule(inst, Assignment(4, 0), 1);
  const auto c2 = comm_cost_c2(inst, s);
  EXPECT_EQ(c2.total_delay, 0u);
  EXPECT_EQ(c2.max_step_degree, 0u);
  EXPECT_EQ(c2.busy_steps, 0u);
}

TEST(C2, HandcraftedAlternatingChain) {
  // Chain 0->1->2->3 with alternating processors: every step (except the
  // last) sends exactly one message; the round length is always 1.
  const auto inst = chain4();
  const Assignment a = {0, 1, 0, 1};
  const Schedule s = list_schedule(inst, a, 2);
  const auto c2 = comm_cost_c2(inst, s);
  EXPECT_EQ(c2.total_delay, 3u);
  EXPECT_EQ(c2.max_step_degree, 1u);
  EXPECT_EQ(c2.busy_steps, 3u);
}

TEST(C2, CountsParallelSendsFromOneProcessor) {
  // Star: 0 -> {1,2,3}, all children elsewhere. When 0 finishes it must send
  // 3 messages in one round.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {{0, 1}, {0, 2}, {0, 3}}));
  auto inst = dag::SweepInstance(4, std::move(dags), "star");
  const Assignment a = {0, 1, 1, 2};
  const Schedule s = list_schedule(inst, a, 3);
  const auto c2 = comm_cost_c2(inst, s);
  EXPECT_EQ(c2.max_step_degree, 3u);
}

TEST(C2, RejectsIncompleteSchedule) {
  const auto inst = chain4();
  Schedule s(4, 1, 2, Assignment{0, 1, 0, 1});
  s.set_start(0, 0);  // others unscheduled
  EXPECT_THROW(comm_cost_c2(inst, s), std::invalid_argument);
}

TEST(C2, RejectsZeroProcessorSchedule) {
  // A zero-processor schedule would divide by zero in the (step, sender)
  // key arithmetic.
  const auto inst = chain4();
  Schedule s(4, 1, 0, Assignment{0, 0, 0, 0});
  for (TaskId t = 0; t < 4; ++t) s.set_start(t, static_cast<TimeStep>(t));
  EXPECT_THROW(comm_cost_c2(inst, s), std::invalid_argument);
}

TEST(C2, RejectsTruncatedSchedule) {
  // Schedule built for 3 cells against a 4-cell instance: reading task 3
  // would run off the end of the start/assignment arrays.
  const auto inst = chain4();
  Schedule s(3, 1, 2, Assignment{0, 1, 0});
  for (TaskId t = 0; t < 3; ++t) s.set_start(t, static_cast<TimeStep>(t));
  EXPECT_THROW(comm_cost_c2(inst, s), std::invalid_argument);
  // Right shape, but an assignment of 2 cells: reading cells 2 and 3 would
  // run off its end.
  Schedule short_assignment(4, 1, 2, Assignment{0, 1});
  for (TaskId t = 0; t < 4; ++t) {
    short_assignment.set_start(t, static_cast<TimeStep>(t));
  }
  EXPECT_THROW(comm_cost_c2(inst, short_assignment), std::invalid_argument);
}

TEST(C2, RejectsForeignDirectionCount) {
  // Right cell count, wrong direction count: n_tasks mismatch must throw
  // rather than index the task graph with foreign task ids.
  const auto inst = chain4();
  Schedule s(4, 2, 2, Assignment{0, 1, 0, 1});
  for (TaskId t = 0; t < 8; ++t) s.set_start(t, 0);
  EXPECT_THROW(comm_cost_c2(inst, s), std::invalid_argument);
}

TEST(C2, RejectsProcessorOutOfRange) {
  // Processors 2 and 3 do not exist for m = 2. Unchecked, task 1's key
  // 1 * 2 + 2 lands in step 2, and steps 0, 1 and 2, one message each,
  // read as two busy steps with a total delay of 2 instead of 3.
  const auto inst = chain4();
  Schedule s(4, 1, 2, Assignment{0, 2, 1, 3});
  for (TaskId t = 0; t < 4; ++t) s.set_start(t, static_cast<TimeStep>(t));
  EXPECT_THROW(comm_cost_c2(inst, s), std::invalid_argument);
  EXPECT_THROW(comm_cost_c2_reference(inst, s), std::invalid_argument);
}

TEST(C1, MatchesC2ReferenceCrossEdgesForAnyJobs) {
  // C1's cross-edge count is the message count of the hash-map C2
  // reference, whatever schedule carries the assignment.
  const auto inst = dag::random_instance(400, 4, 8, 2.0, 5);
  for (const std::size_t m : {2u, 7u, 16u}) {
    util::Rng rng(m);
    const auto a = random_assignment(400, m, rng);
    const Schedule s = list_schedule(inst, a, m);
    const auto reference = comm_cost_c2_reference(inst, s);
    EXPECT_EQ(comm_cost_c2(inst, s).cross_edges, reference.cross_edges)
        << "m=" << m;
    for (const std::size_t jobs : {0u, 1u, 2u, 8u}) {
      const auto c1 = comm_cost_c1(inst, a, jobs);
      EXPECT_EQ(c1.cross_edges, reference.cross_edges)
          << "m=" << m << " jobs=" << jobs;
      EXPECT_EQ(c1.total_edges, inst.total_edges());
    }
  }
}

TEST(C2, FlatMatchesReferenceOnRandomInstances) {
  // comm_cost_c2 must agree with the preserved unordered_map implementation
  // on every field, under per-cell random and per-block assignments, from
  // two processors up to more processors than blocks.
  const auto mesh = test::small_tet_mesh(6, 6, 3);
  const auto mesh_inst = dag::build_instance(mesh, dag::level_symmetric(2));
  const auto blocks =
      partition::partition_into_blocks(partition::graph_from_mesh(mesh), 8);
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    const auto inst = dag::random_instance(300, 3, 6, 2.0, seed);
    for (const std::size_t m : {2u, 16u, 256u}) {
      const std::string at =
          "seed=" + std::to_string(seed) + " m=" + std::to_string(m);
      util::Rng rng(seed + 50);
      const auto per_cell = random_assignment(300, m, rng);
      expect_c2_matches_reference(inst, list_schedule(inst, per_cell, m),
                                  "random " + at);
      const auto per_block = block_assignment(blocks, m, rng);
      expect_c2_matches_reference(
          mesh_inst, list_schedule(mesh_inst, per_block, m), "block " + at);
    }
  }
}

TEST(C2, SharedSlotChargesTheSenderSum) {
  // Processor 0's round at step 0 carries both senders' messages: 2 + 1.
  // A per-task maximum would read 2.
  const auto c = shared_slot();
  const auto c2 = comm_cost_c2(c.inst, c.schedule);
  EXPECT_EQ(c2.total_delay, 3u);
  EXPECT_EQ(c2.max_step_degree, 3u);
  EXPECT_EQ(c2.busy_steps, 1u);
  expect_c2_matches_reference(c.inst, c.schedule, "shared slot");
}

TEST(C2, WideSlotSpaceMatchesReference) {
  const auto c = wide_slot_space();
  const std::size_t horizon = c.schedule.makespan();
  ASSERT_LE(horizon, c.inst.n_tasks());
  ASSERT_GT(horizon * c.schedule.n_processors(), 64 * c.inst.n_tasks());
  expect_c2_matches_reference(c.inst, c.schedule, "wide slot space");
}

#if !defined(SWEEP_OBS_DISABLE)
TEST(C2, CountsSortedFallbacks) {
  // An engine schedule within the bounds takes the dense pass; a shared slot
  // and a slot space past 64 per task each fall back to the sorted
  // reduction once.
  const auto inst = dag::random_instance(300, 3, 6, 2.0, 1);
  util::Rng rng(51);
  const Assignment a = random_assignment(300, 16, rng);
  const Schedule engine = list_schedule(inst, a, 16);
  const auto shared = shared_slot();
  const auto wide = wide_slot_space();
  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  comm_cost_c2(inst, engine);
  EXPECT_EQ(test::counter_value_of("comm.c2.sorted_fallbacks"), 0u);
  comm_cost_c2(shared.inst, shared.schedule);
  EXPECT_EQ(test::counter_value_of("comm.c2.sorted_fallbacks"), 1u);
  comm_cost_c2(wide.inst, wide.schedule);
  EXPECT_EQ(test::counter_value_of("comm.c2.sorted_fallbacks"), 2u);
  obs::set_metrics_enabled(false);
}
#endif  // SWEEP_OBS_DISABLE

TEST(C2, RejectsKeySpaceOverflow) {
  // A schedule whose makespan * n_processors exceeds 2^64 cannot pack its
  // (step, sender) pairs into the 64-bit key; it must be rejected up front
  // instead of wrapping and silently merging unrelated send records. The
  // horizon here is the TimeStep maximum (~2^32) and m is 2^33, so the
  // product overflows while each value alone is representable.
  const auto inst = chain4();
  Schedule s(4, 1, std::size_t{1} << 33, Assignment{0, 1, 0, 1});
  for (TaskId t = 0; t < 4; ++t) {
    s.set_start(t, kUnscheduled - 1);  // horizon = 2^32 - 1
  }
  EXPECT_THROW(comm_cost_c2(inst, s), std::invalid_argument);
}

TEST(C2, HugeSparseHorizonStaysCheap) {
  // Starts near the top of the TimeStep range: the flat accumulator must
  // handle a ~2^32 horizon without allocating a dense per-step array (the
  // reference would need 16 GiB here). Also pins the grouped reduction on a
  // sparse far-apart step pattern.
  const auto inst = chain4();
  Schedule s(4, 1, 2, Assignment{0, 1, 0, 1});
  for (TaskId t = 0; t < 4; ++t) {
    s.set_start(t, static_cast<TimeStep>(1000000000u * (t + 1)));
  }
  const auto c2 = comm_cost_c2(inst, s);
  EXPECT_EQ(c2.total_delay, 3u);
  EXPECT_EQ(c2.max_step_degree, 1u);
  EXPECT_EQ(c2.busy_steps, 3u);
}

TEST(C2, MuchSmallerThanC1OnRealInstances) {
  // The paper's Section 5.1 observation 2: C2 is far below C1.
  const auto m = test::small_tet_mesh(6, 6, 3);
  const auto inst = dag::build_instance(m, dag::level_symmetric(2));
  util::Rng rng(9);
  const auto a = random_assignment(m.n_cells(), 8, rng);
  const Schedule s = list_schedule(inst, a, 8);
  const auto c1 = comm_cost_c1(inst, a);
  const auto c2 = comm_cost_c2(inst, s);
  EXPECT_LT(c2.total_delay, c1.cross_edges / 2);
}

}  // namespace
}  // namespace sweep::core
