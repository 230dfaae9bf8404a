// Identity tests for the parallel preprocessing pipeline (DESIGN.md §11):
// every parallel priority constructor must be byte-identical to its preserved
// serial reference for any fan-out width, because experiment results are
// keyed by seed and must not depend on --jobs.

#include <gtest/gtest.h>

#include <vector>

#include "core/assignment.hpp"
#include "core/priorities.hpp"
#include "sweep/descendants.hpp"
#include "sweep/directions.hpp"
#include "sweep/instance.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace sweep::core {
namespace {

constexpr std::size_t kJobs[] = {0, 1, 2, 8};

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
  const Assignment a = round_robin(std::max<std::size_t>(n, 1), 3);

  util::Rng ref_rng(99);
  const auto ref_descendant = descendant_priorities_reference(inst, ref_rng);
  const auto ref_blevel = blevel_priorities_reference(inst);
  const auto ref_dfds =
      dfds_priorities_reference(inst, Assignment(a.begin(), a.begin() + n));
  std::vector<TimeStep> delays(k);
  for (std::size_t i = 0; i < k; ++i) {
    delays[i] = static_cast<TimeStep>((i * 7) % (k + 1));
  }
  const auto ref_delay = random_delay_priorities_reference(inst, delays);

  for (const std::size_t jobs : kJobs) {
    util::Rng par_rng(99);
    EXPECT_EQ(descendant_priorities(inst, par_rng, jobs), ref_descendant)
        << "jobs=" << jobs;
    EXPECT_EQ(blevel_priorities(inst, jobs), ref_blevel) << "jobs=" << jobs;
    EXPECT_EQ(dfds_priorities(inst, Assignment(a.begin(), a.begin() + n), jobs),
              ref_dfds)
        << "jobs=" << jobs;
    EXPECT_EQ(random_delay_priorities(inst, delays, jobs), ref_delay)
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

TEST(PrioritiesParallel, DescendantStreamIsOrderIndependent) {
  // The parallel path must consume exactly one draw from the caller's Rng
  // regardless of k or jobs, so downstream draws stay aligned with the
  // serial reference.
  const auto inst = mesh_instance();
  util::Rng a(7);
  util::Rng b(7);
  (void)descendant_priorities(inst, a, /*jobs=*/2);
  (void)descendant_priorities_reference(inst, b);
  EXPECT_EQ(a(), b());
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

TEST(PrioritiesParallel, TrialLoopMatchesReferencePerTrial) {
  // The figure harnesses rebuild descendant priorities once per trial; the
  // production path serves trials after the first from the instance cache.
  // Every trial must still be byte-identical to the recompute-everything
  // reference under that trial's own rng stream.
  const auto inst = mesh_instance();
  for (std::uint64_t trial = 0; trial < 4; ++trial) {
    util::Rng prod_rng(5 + trial * 1000003);
    util::Rng ref_rng(5 + trial * 1000003);
    EXPECT_EQ(descendant_priorities(inst, prod_rng, 4),
              descendant_priorities_reference(inst, ref_rng))
        << "trial " << trial;
  }
}

}  // namespace
}  // namespace sweep::core
