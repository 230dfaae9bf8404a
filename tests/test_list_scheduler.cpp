#include "core/list_scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>

#include "core/assignment.hpp"
#include "core/priorities.hpp"
#include "core/validate.hpp"
#include "obs/obs.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/directions.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"

namespace sweep::core {
namespace {

dag::SweepInstance tiny_instance() {
  // Two directions over 4 cells: a diamond and a chain.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
  dags.push_back(test::make_dag(4, {{3, 2}, {2, 1}, {1, 0}}));
  return dag::SweepInstance(4, std::move(dags), "tiny");
}

/// One direction over n cells: every cell but the last feeds the last one,
/// whose indegree is n - 1.
dag::SweepInstance star_instance(std::size_t n) {
  std::vector<std::pair<dag::NodeId, dag::NodeId>> edges;
  for (dag::NodeId v = 0; v + 1 < n; ++v) {
    edges.emplace_back(v, static_cast<dag::NodeId>(n - 1));
  }
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(n, std::move(edges)));
  return dag::SweepInstance(n, std::move(dags), "star");
}

/// The mirror of star_instance: one direction over n cells in which cell 0
/// feeds every other cell, so the root's step resolves n - 1 edges at once.
dag::SweepInstance fan_out_instance(std::size_t n) {
  std::vector<std::pair<dag::NodeId, dag::NodeId>> edges;
  for (dag::NodeId v = 1; v < n; ++v) edges.emplace_back(0, v);
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(n, std::move(edges)));
  return dag::SweepInstance(n, std::move(dags), "fan-out");
}

TEST(ListScheduler, ProducesValidSchedule) {
  const auto inst = tiny_instance();
  const Assignment assignment = {0, 1, 0, 1};
  const Schedule s = list_schedule(inst, assignment, 2);
  EXPECT_TRUE(s.complete());
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << valid.error;
}

TEST(ListScheduler, SingleProcessorIsSerial) {
  const auto inst = tiny_instance();
  const Schedule s = list_schedule(inst, Assignment{0, 0, 0, 0}, 1);
  EXPECT_EQ(s.makespan(), inst.n_tasks());
  EXPECT_EQ(s.idle_slots(), 0u);
}

TEST(ListScheduler, ChainInstanceIsSequentialPerDirection) {
  // k=1 chain: the makespan must be exactly n regardless of m.
  const auto inst = dag::chain_instance(30, 1, 5);
  util::Rng rng(1);
  const Assignment assignment = random_assignment(30, 4, rng);
  const Schedule s = list_schedule(inst, assignment, 4);
  EXPECT_EQ(s.makespan(), 30u);
}

TEST(ListScheduler, WorkConservingNoIdleWithReadyTasks) {
  // With one processor and no releases, a work-conserving schedule has no
  // holes: every t < makespan is used.
  const auto inst = dag::random_instance(50, 3, 6, 1.5, 7);
  const Schedule s = list_schedule(inst, Assignment(50, 0), 1);
  std::vector<char> used(s.makespan(), 0);
  for (TaskId t = 0; t < s.n_tasks(); ++t) used[s.start(t)] = 1;
  for (char u : used) EXPECT_TRUE(u);
}

TEST(ListScheduler, PrioritiesControlOrder) {
  // Two independent tasks on one processor: the lower-priority-value task
  // must run first.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(2, {}));
  auto inst = dag::SweepInstance(2, std::move(dags), "pair");
  const std::vector<std::int64_t> prefer_cell1 = {10, 5};
  ListScheduleOptions options;
  options.priorities = prefer_cell1;
  const Schedule s = list_schedule(inst, Assignment{0, 0}, 1, options);
  EXPECT_LT(s.start(1, 0), s.start(0, 0));
}

TEST(ListScheduler, ReleaseTimesAreRespected) {
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(3, {}));
  auto inst = dag::SweepInstance(3, std::move(dags), "released");
  const std::vector<TimeStep> releases = {5, 0, 7};
  ListScheduleOptions options;
  options.release_times = releases;
  const Schedule s = list_schedule(inst, Assignment{0, 0, 0}, 2, options);
  EXPECT_GE(s.start(0, 0), 5u);
  EXPECT_EQ(s.start(1, 0), 0u);
  EXPECT_GE(s.start(2, 0), 7u);
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << valid.error;
}

TEST(ListScheduler, ThrowsOnCyclicInstance) {
  // The instance computes levels on construction, so a cycle is caught
  // there, before any scheduler could deadlock on it.
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(3, {{0, 1}, {1, 2}, {2, 0}}));
  EXPECT_THROW(dag::SweepInstance(3, std::move(dags), "cycle"),
               std::logic_error);
}

TEST(ListScheduler, RejectsBadArguments) {
  const auto inst = tiny_instance();
  EXPECT_THROW(list_schedule(inst, Assignment{0}, 2), std::invalid_argument);
  EXPECT_THROW(list_schedule(inst, Assignment{0, 0, 0, 0}, 0),
               std::invalid_argument);
  EXPECT_THROW(list_schedule(inst, Assignment{0, 0, 0, 9}, 2),
               std::invalid_argument);
  std::vector<std::int64_t> bad_prio = {1, 2, 3};
  ListScheduleOptions options;
  options.priorities = bad_prio;
  EXPECT_THROW(list_schedule(inst, Assignment{0, 0, 0, 0}, 2, options),
               std::invalid_argument);
}

struct EngineCase {
  std::size_t n;
  std::size_t k;
  std::size_t m;
  std::size_t layers;
};

class EngineSweep : public ::testing::TestWithParam<EngineCase> {};

TEST_P(EngineSweep, RandomInstancesAlwaysValid) {
  const auto& p = GetParam();
  const auto inst = dag::random_instance(p.n, p.k, p.layers, 2.0, 97);
  util::Rng rng(13);
  const Assignment assignment = random_assignment(p.n, p.m, rng);
  const Schedule s = list_schedule(inst, assignment, p.m);
  const auto valid = validate_schedule(inst, s);
  EXPECT_TRUE(valid) << valid.error;
  // Trivial bounds: serial above, average load below.
  EXPECT_LE(s.makespan(), inst.n_tasks());
  EXPECT_GE(s.makespan() * p.m, inst.n_tasks());
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, EngineSweep,
    ::testing::Values(EngineCase{1, 1, 1, 1}, EngineCase{20, 1, 4, 5},
                      EngineCase{50, 4, 2, 8}, EngineCase{50, 4, 64, 8},
                      EngineCase{200, 8, 16, 10}, EngineCase{100, 2, 100, 3},
                      EngineCase{64, 6, 7, 20}));

// ---------------------------------------------------------------------------
// Engine-identity tests: the engine, on whichever slot-order path and word
// width the input picks, and the per-direction-walk reference implementation
// must produce the exact same schedule — same start time for every task, not
// merely the same makespan — under every priority scheme and gating variant.

/// The same (priority, task id) order with a span no histogram or counting
/// sort takes: p * 2^20, or t * 2^20 when p is empty. Any span > 0 becomes
/// at least 2^20 — past both the histogram bounds and the task count of
/// these instances — so the call orders its slots by a comparison sort,
/// and the schedule may not change.
std::vector<std::int64_t> comparison_sorted_priorities(
    std::span<const std::int64_t> p, std::size_t n_tasks) {
  std::vector<std::int64_t> q(n_tasks);
  for (std::size_t t = 0; t < n_tasks; ++t) {
    q[t] = (p.empty() ? static_cast<std::int64_t>(t) : p[t]) *
           (std::int64_t{1} << 20);
  }
  return q;
}

/// max - min of `p` (0 when empty), as the engine computes it.
std::uint64_t priority_span(std::span<const std::int64_t> p) {
  if (p.empty()) return 0;
  const auto [lo, hi] = std::minmax_element(p.begin(), p.end());
  return static_cast<std::uint64_t>(*hi) - static_cast<std::uint64_t>(*lo);
}

void expect_identical_engines(const dag::SweepInstance& inst,
                              const Assignment& assignment, std::size_t m,
                              ListScheduleOptions options, const char* what) {
  const Schedule reference = list_schedule_reference(inst, assignment, m,
                                                     options);
  const Schedule fast = list_schedule(inst, assignment, m, options);
  const auto rescaled =
      comparison_sorted_priorities(options.priorities, inst.n_tasks());
  options.priorities = rescaled;
  const Schedule sorted = list_schedule(inst, assignment, m, options);
  ASSERT_EQ(fast.n_tasks(), reference.n_tasks());
  for (TaskId t = 0; t < reference.n_tasks(); ++t) {
    ASSERT_EQ(fast.start(t), reference.start(t))
        << what << ": engine diverges at task " << t;
    ASSERT_EQ(sorted.start(t), reference.start(t))
        << what << ": comparison-sorted slots diverge at task " << t;
  }
}

class EngineIdentity : public ::testing::TestWithParam<std::size_t> {};

TEST_P(EngineIdentity, AllPrioritySchemesMatchReference) {
  const auto inst = dag::random_instance(90, 5, 8, 2.0, 31);
  const std::size_t m = GetParam();
  util::Rng rng(5);
  const Assignment assignment = random_assignment(inst.n_cells(), m, rng);

  expect_identical_engines(inst, assignment, m, {}, "no priorities");

  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  expect_identical_engines(inst, assignment, m, options, "level");

  const auto delays = random_delays(inst.n_directions(), rng);
  const auto rd = random_delay_priorities(inst, delays);
  options.priorities = rd;
  expect_identical_engines(inst, assignment, m, options, "random delay");

  const auto blevel = blevel_priorities(inst);
  options.priorities = blevel;
  expect_identical_engines(inst, assignment, m, options, "b-level");

  const auto desc = descendant_priorities(inst, rng);
  options.priorities = desc;
  expect_identical_engines(inst, assignment, m, options, "descendants");

  const auto dfds = dfds_priorities(inst, assignment);
  options.priorities = dfds;
  expect_identical_engines(inst, assignment, m, options, "DFDS");
}

TEST_P(EngineIdentity, GatedVariantsMatchReference) {
  const auto inst = dag::random_instance(70, 4, 6, 1.8, 23);
  const std::size_t m = GetParam();
  util::Rng rng(9);
  const Assignment assignment = random_assignment(inst.n_cells(), m, rng);
  const auto delays = random_delays(inst.n_directions(), rng);
  const auto releases = delay_release_times(inst, delays);
  const auto level = level_priorities(inst);

  ListScheduleOptions options;
  options.priorities = level;
  options.release_times = releases;
  expect_identical_engines(inst, assignment, m, options, "release times");

  options.release_times = {};
  options.cross_message_delay = 3;
  expect_identical_engines(inst, assignment, m, options, "cross delay");

  options.release_times = releases;
  expect_identical_engines(inst, assignment, m, options,
                           "release + cross delay");
}

INSTANTIATE_TEST_SUITE_P(ProcessorCounts, EngineIdentity,
                         ::testing::Values(1, 2, 7, 32, 90));

TEST(EngineIdentity, GeometricInstanceMatches) {
  const auto mesh = test::small_tet_mesh(5, 5, 3);
  const auto inst = dag::build_instance(mesh, dag::level_symmetric(2));
  util::Rng rng(3);
  const Assignment assignment = random_assignment(inst.n_cells(), 8, rng);
  const auto delays = random_delays(inst.n_directions(), rng);
  const auto rd = random_delay_priorities(inst, delays);
  ListScheduleOptions options;
  options.priorities = rd;
  expect_identical_engines(inst, assignment, 8, options, "geometric");
}

TEST(EngineIdentity, HugeSpanComparisonSortMatches) {
  // A span of 6,000,000 exceeds both the histogram bounds and the task
  // count, so the slots are ordered by a comparison sort.
  const auto inst = dag::random_instance(60, 3, 5, 1.5, 17);
  util::Rng rng(21);
  const Assignment assignment = random_assignment(inst.n_cells(), 6, rng);
  std::vector<std::int64_t> wide(inst.n_tasks());
  for (std::size_t t = 0; t < wide.size(); ++t) {
    wide[t] = static_cast<std::int64_t>((t % 7) * 1000000) - 2000000;
  }
  ASSERT_GE(priority_span(wide), inst.n_tasks());
  ListScheduleOptions options;
  options.priorities = wide;
  expect_identical_engines(inst, assignment, 6, options, "wide range");
}

TEST(EngineIdentity, DescendantSpanPastHistogramCountingSortMatches) {
  // Descendant counts span a few hundred values here: (span + 1) * m
  // exceeds the 2^20-counter histogram at m = 4096, but the span stays
  // below the task count, so the slots are ordered by a counting sort.
  const auto inst = dag::random_instance(600, 3, 40, 2.0, 43);
  const std::size_t m = 4096;
  util::Rng rng(8);
  const Assignment assignment = random_assignment(inst.n_cells(), m, rng);
  const auto desc = descendant_priorities(inst, rng);
  const std::uint64_t span = priority_span(desc);
  ASSERT_GT((span + 1) * m, std::uint64_t{1} << 20);
  ASSERT_LT(span, inst.n_tasks());
  ListScheduleOptions options;
  options.priorities = desc;
  expect_identical_engines(inst, assignment, m, options, "descendants");
  options.cross_message_delay = 2;
  expect_identical_engines(inst, assignment, m, options,
                           "descendants + cross delay");
}

TEST(EngineIdentity, FullInt64PriorityRangeMatches) {
  // max - min overflows int64 here; the comparison sort must still order
  // the slots exactly as the reference heaps pop them.
  const auto inst = dag::random_instance(30, 2, 4, 1.5, 19);
  util::Rng rng(4);
  const Assignment assignment = random_assignment(inst.n_cells(), 3, rng);
  std::vector<std::int64_t> extreme(inst.n_tasks());
  for (std::size_t t = 0; t < extreme.size(); ++t) {
    extreme[t] = t % 3 == 0   ? std::numeric_limits<std::int64_t>::min()
                 : t % 3 == 1 ? std::numeric_limits<std::int64_t>::max()
                              : 0;
  }
  ListScheduleOptions options;
  options.priorities = extreme;
  EXPECT_EQ(list_schedule(inst, assignment, 3, options).starts(),
            list_schedule_reference(inst, assignment, 3, options).starts());
}

TEST(EngineIdentity, NegativePrioritiesMatch) {
  // Descendant/DFDS schemes are stored negated; exercise rebasing explicitly.
  const auto inst = dag::random_instance(40, 2, 5, 1.5, 29);
  util::Rng rng(2);
  const Assignment assignment = random_assignment(inst.n_cells(), 4, rng);
  std::vector<std::int64_t> negative(inst.n_tasks());
  for (std::size_t t = 0; t < negative.size(); ++t) {
    negative[t] = -static_cast<std::int64_t>(t % 11);
  }
  ListScheduleOptions options;
  options.priorities = negative;
  expect_identical_engines(inst, assignment, 4, options, "negative");
}

TEST(EngineIdentity, CornerShapesMatch) {
  util::Rng rng(77);

  // Single direction (k = 1).
  {
    const auto inst = dag::random_instance(40, 1, 6, 1.5, 11);
    const Assignment assignment = random_assignment(40, 4, rng);
    expect_identical_engines(inst, assignment, 4, {}, "k=1");
  }
  // Single processor: the schedule is serial.
  {
    const auto inst = dag::random_instance(30, 3, 5, 1.5, 13);
    expect_identical_engines(inst, Assignment(30, 0), 1, {}, "m=1");
  }
  // Far more processors than tasks: most processors are permanently idle.
  {
    const auto inst = dag::random_instance(6, 2, 3, 1.0, 17);
    const Assignment assignment = random_assignment(6, 90, rng);
    expect_identical_engines(inst, assignment, 90, {}, "m >> nk");
  }
  // Empty instance: zero cells (one direction — the minimum), zero tasks.
  {
    std::vector<dag::SweepDag> dags;
    dags.push_back(test::make_dag(0, {}));
    auto inst = dag::SweepInstance(0, std::move(dags), "empty");
    expect_identical_engines(inst, Assignment{}, 3, {}, "empty");
  }
}

TEST(EngineIdentity, StarIndegreePast16BitsUses64BitWords) {
  // One hub with 69,999 predecessors needs a 17-bit indegree field, which
  // leaves 15 bits of a 32-bit word for the slot: too few for 70,000 tasks,
  // so the packed words are 64 bits wide.
  const auto inst = star_instance(70000);
  ASSERT_GE(inst.task_graph().max_indegree(), 1u << 16);
  util::Rng rng(6);
  const Assignment assignment = random_assignment(inst.n_cells(), 5, rng);
  expect_identical_engines(inst, assignment, 5, {}, "star");
  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  expect_identical_engines(inst, assignment, 5, options, "star, level");
}

TEST(EngineIdentity, FanOutStarResolvesOneStep) {
  // The root's step gathers 69,999 edges into the per-step successor
  // buffer, and at m = 4096 it makes every processor active at once, so the
  // unconditional active-list append runs with the list full.
  const auto inst = fan_out_instance(70000);
  ASSERT_EQ(inst.task_graph().out_degree(0), 69999u);
  const auto level = level_priorities(inst);
  std::vector<TimeStep> release(inst.n_tasks());
  for (std::size_t t = 0; t < release.size(); ++t) {
    release[t] = static_cast<TimeStep>((t * 7) % 11);
  }
  for (const std::size_t m : {std::size_t{5}, std::size_t{4096}}) {
    util::Rng rng(12);
    const Assignment assignment = random_assignment(inst.n_cells(), m, rng);
    const std::string at = " at m=" + std::to_string(m);
    expect_identical_engines(inst, assignment, m, {},
                             ("fan-out" + at).c_str());
    ListScheduleOptions options;
    options.priorities = level;
    expect_identical_engines(inst, assignment, m, options,
                             ("fan-out, level" + at).c_str());
    options.release_times = release;
    options.cross_message_delay = 2;
    expect_identical_engines(inst, assignment, m, options,
                             ("fan-out, release + cross delay" + at).c_str());
  }
}

TEST(EngineIdentity, EveryCellOnProcessor0OfAMillion) {
  // m = 2^20 with every cell on processor 0: ~1,200 tasks would pad a
  // power-of-two region to 2^11 slots per processor (2^31 slots); with
  // regions rounded to 64-slot words only processor 0 has any. No priorities
  // take the histogram (2^20 buckets exactly), level priorities the counting
  // sort and their x2^20 rescale the comparison sort.
  const auto inst = dag::random_instance(300, 4, 6, 1.5, 41);
  ASSERT_GT(inst.n_tasks(), 1024u);
  const std::size_t m = std::size_t{1} << 20;
  const Assignment all_on_0(inst.n_cells(), 0);
  expect_identical_engines(inst, all_on_0, m, {}, "no priorities");
  ListScheduleOptions options;
  const auto level = level_priorities(inst);
  options.priorities = level;
  expect_identical_engines(inst, all_on_0, m, options, "level");
}

#if !defined(SWEEP_OBS_DISABLE)
TEST(ListScheduler, EveryCallRunsTheSlotEngine) {
  // Histogram, counting sort, comparison sort and 64-bit words: every call
  // is one slot-engine run.
  const auto inst = dag::random_instance(40, 2, 5, 1.5, 7);
  util::Rng rng(3);
  const Assignment assignment = random_assignment(inst.n_cells(), 4, rng);
  const auto level = level_priorities(inst);
  const auto rescaled = comparison_sorted_priorities(level, inst.n_tasks());
  const auto star = star_instance(70000);
  const auto star_assignment = random_assignment(star.n_cells(), 3, rng);

  obs::MetricsRegistry::instance().reset();
  obs::set_metrics_enabled(true);
  ListScheduleOptions options;
  options.priorities = level;
  list_schedule(inst, assignment, 4, options);
  list_schedule(inst, Assignment(inst.n_cells(), 0), 1 << 20, options);
  options.priorities = rescaled;
  list_schedule(inst, assignment, 4, options);
  list_schedule(star, star_assignment, 3);
  obs::set_metrics_enabled(false);
  EXPECT_EQ(test::counter_value_of("engine.slot.runs"), 4u);
}

TEST(ListScheduler, EngineCountersCountRunsPopsAndSteps) {
  // One run per call, one pop per task and one step per timestep up to the
  // makespan, ungated and gated. The release gap leaves steps in which no
  // processor has a ready task; the gated loop jumps over them, and they
  // still count as steps.
  const auto inst = dag::random_instance(60, 3, 6, 1.5, 37);
  util::Rng rng(4);
  const Assignment assignment = random_assignment(inst.n_cells(), 5, rng);
  const auto level = level_priorities(inst);
  std::vector<TimeStep> release(inst.n_tasks(), 0);
  for (std::size_t t = 2 * inst.n_cells(); t < inst.n_tasks(); ++t) {
    release[t] = 1000;
  }
  ListScheduleOptions ungated;
  ungated.priorities = level;
  ListScheduleOptions gated = ungated;
  gated.release_times = release;
  for (const ListScheduleOptions& options : {ungated, gated}) {
    obs::MetricsRegistry::instance().reset();
    obs::set_metrics_enabled(true);
    const Schedule s = list_schedule(inst, assignment, 5, options);
    obs::set_metrics_enabled(false);
    EXPECT_EQ(test::counter_value_of("engine.slot.runs"), 1u);
    EXPECT_EQ(test::counter_value_of("engine.pops"), inst.n_tasks());
    EXPECT_EQ(test::counter_value_of("engine.steps"), s.makespan());
  }
  // The gap is real: the gated makespan passes the release.
  const Schedule gated_schedule = list_schedule(inst, assignment, 5, gated);
  EXPECT_GT(gated_schedule.makespan(), 1000u);
}
#endif  // SWEEP_OBS_DISABLE

TEST(GreedyUnionSchedule, RespectsPrecedenceAndWidth) {
  const auto inst = dag::random_instance(120, 4, 10, 2.0, 55);
  std::size_t makespan = 0;
  const auto step = greedy_union_schedule(inst, 8, &makespan);
  // Width <= m per step.
  std::vector<std::size_t> width(makespan, 0);
  for (TaskId t = 0; t < step.size(); ++t) {
    ASSERT_NE(step[t], kUnscheduled);
    ASSERT_LT(step[t], makespan);
    ++width[step[t]];
  }
  for (std::size_t w : width) EXPECT_LE(w, 8u);
  // Precedence.
  const dag::TaskGraph& graph = inst.task_graph();
  for (TaskId t = 0; t < graph.n_tasks(); ++t) {
    for (const TaskId s : graph.successors(t)) {
      EXPECT_LT(step[t], step[s]);
    }
  }
}

TEST(GreedyUnionSchedule, GrahamBound) {
  // Graham's guarantee: makespan <= total/m + critical path.
  const auto inst = dag::random_instance(200, 3, 12, 2.0, 77);
  for (std::size_t m : {2u, 8u, 32u}) {
    std::size_t makespan = 0;
    greedy_union_schedule(inst, m, &makespan);
    const std::size_t bound = inst.n_tasks() / m + 1 + inst.max_depth();
    EXPECT_LE(makespan, bound) << "m=" << m;
  }
}

TEST(GreedyUnionSchedule, SerialEqualsTaskCount) {
  const auto inst = dag::random_instance(40, 2, 5, 1.0, 3);
  std::size_t makespan = 0;
  greedy_union_schedule(inst, 1, &makespan);
  EXPECT_EQ(makespan, inst.n_tasks());
}

}  // namespace
}  // namespace sweep::core
