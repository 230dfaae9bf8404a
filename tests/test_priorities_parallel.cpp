// Identity tests for the parallel preprocessing pipeline (DESIGN.md §11):
// every parallel priority constructor must be byte-identical to its own
// serial (jobs = 1) output for any fan-out width, because experiment results
// are keyed by seed and must not depend on --jobs. The descendant builder's
// two paths are pinned separately: the exact path to the naive closure, the
// estimator path to its per-direction streams.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <vector>

#include "core/assignment.hpp"
#include "core/priorities.hpp"
#include "sweep/descendants.hpp"
#include "sweep/directions.hpp"
#include "sweep/instance.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sweep::core {
namespace {

constexpr std::size_t kJobs[] = {0, 2, 8};

dag::SweepInstance mesh_instance() {
  static const dag::SweepInstance inst =
      dag::build_instance(test::small_tet_mesh(6, 6, 3), dag::level_symmetric(2));
  return inst;
}

dag::SweepInstance empty_instance() {
  // Zero cells (SweepInstance requires at least one direction).
  std::vector<dag::SweepDag> dags;
  dags.push_back(test::make_dag(0, {}));
  return dag::SweepInstance(0, std::move(dags), "empty");
}

dag::SweepInstance single_cell_instance(std::size_t k) {
  std::vector<dag::SweepDag> dags;
  for (std::size_t i = 0; i < k; ++i) {
    dags.push_back(test::make_dag(1, {}));
  }
  return dag::SweepInstance(1, std::move(dags), "single_cell");
}

Assignment round_robin(std::size_t n, std::size_t m) {
  Assignment a(n);
  for (std::size_t v = 0; v < n; ++v) {
    a[v] = static_cast<ProcessorId>(v % m);
  }
  return a;
}

void expect_all_identical(const dag::SweepInstance& inst) {
  const std::size_t n = inst.n_cells();
  const std::size_t k = inst.n_directions();
  const Assignment a = round_robin(n, 3);

  util::Rng serial_rng(99);
  const auto descendant = descendant_priorities(inst, serial_rng, 1);
  const auto blevel = blevel_priorities(inst, 1);
  const auto dfds = dfds_priorities(inst, a, 1);
  std::vector<TimeStep> delays(k);
  for (std::size_t i = 0; i < k; ++i) {
    delays[i] = static_cast<TimeStep>((i * 7) % (k + 1));
  }
  const auto delay = random_delay_priorities(inst, delays, 1);

  for (const std::size_t jobs : kJobs) {
    util::Rng par_rng(99);
    EXPECT_EQ(descendant_priorities(inst, par_rng, jobs), descendant)
        << "jobs=" << jobs;
    EXPECT_EQ(blevel_priorities(inst, jobs), blevel) << "jobs=" << jobs;
    EXPECT_EQ(dfds_priorities(inst, a, jobs), dfds) << "jobs=" << jobs;
    EXPECT_EQ(random_delay_priorities(inst, delays, jobs), delay)
        << "jobs=" << jobs;
  }
}

TEST(PrioritiesParallel, MeshInstanceIdenticalForAnyJobs) {
  expect_all_identical(mesh_instance());
}

TEST(PrioritiesParallel, EmptyInstance) {
  expect_all_identical(empty_instance());
}

TEST(PrioritiesParallel, SingleDirection) {
  expect_all_identical(single_cell_instance(1));
}

TEST(PrioritiesParallel, SingleCellManyDirections) {
  expect_all_identical(single_cell_instance(8));
}

TEST(PrioritiesParallel, DescendantTakesOneDrawForAnyJobs) {
  // descendant_priorities consumes exactly one draw from the caller's Rng
  // regardless of k or jobs, so downstream draws stay aligned.
  const auto inst = mesh_instance();
  for (const std::size_t jobs : {1u, 2u}) {
    util::Rng a(7);
    util::Rng b(7);
    (void)descendant_priorities(inst, a, jobs);
    (void)b();
    EXPECT_EQ(a(), b()) << "jobs=" << jobs;
  }
}

TEST(PrioritiesParallel, DeterministicAcrossRepeatedCalls) {
  const auto inst = mesh_instance();
  util::Rng a(21);
  util::Rng b(21);
  EXPECT_EQ(descendant_priorities(inst, a, 8), descendant_priorities(inst, b, 8));
}

TEST(PrioritiesParallel, InstanceCountCacheMatchesDagLevel) {
  // The instance-level cache must return exactly the tiled counts and be
  // built once: the second call hands back the same buffer.
  const auto inst = mesh_instance();
  for (std::size_t i = 0; i < inst.n_directions(); ++i) {
    const auto& cached = inst.exact_descendant_counts(i);
    EXPECT_EQ(cached, dag::exact_descendant_counts(inst, i)) << "dir " << i;
    EXPECT_EQ(cached.data(), inst.exact_descendant_counts(i).data());
  }
}

TEST(PrioritiesParallel, ExactPathIsTheNegatedNaiveClosure) {
  // Up to and including the threshold, direction i's slice is its negated
  // exact counts.
  const dag::SweepInstance instances[] = {
      mesh_instance(),
      dag::random_instance(dag::kDefaultExactThreshold, 2, 40, 2.0, 19)};
  for (const dag::SweepInstance& inst : instances) {
    const std::size_t n = inst.n_cells();
    ASSERT_LE(n, dag::kDefaultExactThreshold);
    util::Rng rng(3);
    const auto prio = descendant_priorities(inst, rng, 4);
    ASSERT_EQ(prio.size(), inst.n_tasks());
    for (std::size_t i = 0; i < inst.n_directions(); ++i) {
      const auto naive = dag::exact_descendant_counts_reference(inst, i);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(prio[i * n + v], -static_cast<std::int64_t>(naive[v]))
            << "n=" << n << " dir " << i << " cell " << v;
      }
    }
  }
}

TEST(PrioritiesParallel, WarmCacheMatchesFreshCopyPerTrial) {
  // The figure harnesses rebuild descendant priorities once per trial, and
  // trials after the first read the instance's count cache. A copy starts
  // with an empty cache, so it recomputes the closure: every trial must be
  // byte-identical either way under that trial's own rng stream.
  const auto inst = mesh_instance();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    util::Rng warm_rng(5 + trial * 1000003);
    util::Rng fresh_rng(5 + trial * 1000003);
    const dag::SweepInstance fresh(inst);
    EXPECT_EQ(descendant_priorities(inst, warm_rng, 4),
              descendant_priorities(fresh, fresh_rng, 1))
        << "trial " << trial;
  }
}

TEST(PrioritiesParallel, EstimatorPathDrawsOneStreamPerDirection) {
  // One cell above the exact threshold: direction i's slice is the negated,
  // rounded Cohen estimate from Rng::for_stream(base, i), where base is the
  // caller's first draw, and the caller's rng advances by that one draw.
  const std::size_t n = dag::kDefaultExactThreshold + 1;
  const auto inst = dag::random_instance(n, 2, 40, 2.0, 17);
  for (const std::size_t jobs : {1u, 4u}) {
    util::Rng rng(23);
    util::Rng copy = rng;
    const auto prio = descendant_priorities(inst, rng, jobs);
    const std::uint64_t base = copy();
    EXPECT_EQ(rng(), copy()) << "jobs=" << jobs;
    ASSERT_EQ(prio.size(), 2 * n);
    for (std::size_t i = 0; i < 2; ++i) {
      util::Rng stream = util::Rng::for_stream(base, i);
      const auto counts = dag::estimated_descendant_counts(inst, i, stream);
      for (std::size_t v = 0; v < n; ++v) {
        ASSERT_EQ(prio[i * n + v],
                  -static_cast<std::int64_t>(std::llround(counts[v])))
            << "jobs=" << jobs << " dir " << i << " cell " << v;
      }
    }
  }
}

}  // namespace
}  // namespace sweep::core
