// Tests for Algorithms 1 and 3, including statistical checks of the
// structural lemmas that drive the O(log^2 n) analysis: Lemma 2 (few copies
// of any cell per combined layer) and Lemma 3 (bounded per-processor layer
// loads).

#include "core/random_delay.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "core/validate.hpp"
#include "sweep/random_dag.hpp"
#include "test_helpers.hpp"
#include "util/chernoff.hpp"

namespace sweep::core {
namespace {

TEST(RandomDelay, ProducesValidSchedules) {
  const auto inst = dag::random_instance(100, 8, 10, 2.0, 21);
  for (std::size_t m : {1u, 4u, 16u}) {
    util::Rng rng(31);
    const auto result = random_delay_schedule(inst, m, rng);
    const auto valid = validate_schedule(inst, result.schedule);
    EXPECT_TRUE(valid) << "m=" << m << ": " << valid.error;
    EXPECT_EQ(result.delays.size(), 8u);
    for (TimeStep x : result.delays) EXPECT_LT(x, 8u);
    // Combined layers R <= D + k - 1.
    EXPECT_LE(result.combined_layers, inst.max_depth() + 8);
  }
}

TEST(RandomDelay, RespectsProvidedAssignment) {
  const auto inst = dag::random_instance(60, 4, 6, 1.5, 22);
  util::Rng rng(33);
  const Assignment fixed(60, 2);  // everything on processor 2 of 5
  const auto result = random_delay_schedule(inst, 5, rng, fixed);
  EXPECT_EQ(result.schedule.assignment(), fixed);
  EXPECT_EQ(result.schedule.makespan(), inst.n_tasks());  // serial on proc 2
}

TEST(RandomDelay, RejectsOutOfRangeAssignment) {
  // Regression: an assignment entry >= m used to index past proc_cursor in
  // execute_layered and corrupt the heap. It must throw instead.
  const auto inst = dag::random_instance(20, 2, 4, 1.5, 23);
  Assignment bad(20, 0);
  bad[7] = 5;  // == m, one past the last valid processor
  {
    util::Rng rng(34);
    EXPECT_THROW(random_delay_schedule(inst, 5, rng, bad),
                 std::invalid_argument);
  }
  {
    util::Rng rng(34);
    EXPECT_THROW(improved_random_delay_schedule(inst, 5, rng, bad),
                 std::invalid_argument);
  }
}

TEST(RandomDelay, RejectsZeroProcessorsAndBadSize) {
  const auto inst = dag::random_instance(20, 2, 4, 1.5, 24);
  util::Rng rng(35);
  EXPECT_THROW(random_delay_schedule(inst, 0, rng), std::invalid_argument);
  EXPECT_THROW(improved_random_delay_schedule(inst, 0, rng),
               std::invalid_argument);
  const Assignment short_assignment(10, 0);
  EXPECT_THROW(random_delay_schedule(inst, 4, rng, short_assignment),
               std::invalid_argument);
  EXPECT_THROW(improved_random_delay_schedule(inst, 4, rng, short_assignment),
               std::invalid_argument);
}

TEST(RandomDelay, Lemma2FewCopiesPerLayer) {
  // Count copies of each cell per combined layer; Lemma 2 says the max is
  // O(log n) w.h.p. Use the concrete threshold 4*ln(nk)+4 which the proof's
  // constants comfortably satisfy.
  const std::size_t n = 400;
  const std::size_t k = 32;
  const auto inst = dag::random_instance(n, k, 12, 2.0, 44);
  const auto flat_levels = inst.task_graph().levels();
  std::vector<std::vector<std::uint32_t>> levels;
  for (DirectionId i = 0; i < k; ++i) {
    levels.emplace_back(flat_levels.begin() + i * n,
                        flat_levels.begin() + (i + 1) * n);
  }
  util::Rng rng(55);
  for (int trial = 0; trial < 5; ++trial) {
    const auto delays = random_delays(k, rng);
    std::size_t max_copies = 0;
    std::vector<std::uint32_t> copies;  // per (layer) for one cell
    for (CellId v = 0; v < n; ++v) {
      copies.assign(inst.max_depth() + k, 0);
      for (DirectionId i = 0; i < k; ++i) {
        ++copies[levels[i][v] + delays[i]];
      }
      max_copies = std::max<std::size_t>(
          max_copies, *std::max_element(copies.begin(), copies.end()));
    }
    const double threshold =
        4.0 * std::log(static_cast<double>(n * k)) + 4.0;
    EXPECT_LE(static_cast<double>(max_copies), threshold) << "trial " << trial;
  }
}

TEST(RandomDelay, Lemma3LayerLoadsBounded) {
  // Max per-processor per-layer load reported by the algorithm should stay
  // within the Lemma 3 style bound c * max(|V_r|/m, 1) * log^2(n) — checked
  // with the much tighter empirical constant of the paper's experiments:
  // loads stay small in absolute terms.
  const std::size_t n = 500;
  const std::size_t k = 16;
  const std::size_t m = 10;
  const auto inst = dag::random_instance(n, k, 20, 2.0, 66);
  util::Rng rng(77);
  const auto result = random_delay_schedule(inst, m, rng);
  // Average tasks per (layer, processor) is nk/(R*m); the observed max
  // should be within a polylog factor. Use a generous constant.
  const double avg = static_cast<double>(n * k) /
                     static_cast<double>(result.combined_layers * m);
  const double logn = std::log(static_cast<double>(n));
  EXPECT_LE(static_cast<double>(result.max_layer_load),
            8.0 * std::max(avg, 1.0) * logn * logn);
}

TEST(RandomDelay, MakespanWithinTheoremBoundAndAboveLB) {
  const auto inst = dag::random_instance(300, 12, 15, 2.0, 88);
  const std::size_t m = 8;
  util::Rng rng(99);
  const auto result = random_delay_schedule(inst, m, rng);
  const LowerBounds lb = compute_lower_bounds(inst, m);
  const double ratio =
      static_cast<double>(result.schedule.makespan()) / lb.value();
  EXPECT_GE(ratio, 1.0 - 1e-12);
  // Theorem 1 allows O(log^2 n); in practice the paper observes < 3, and
  // random layered instances behave similarly. Assert the loose end.
  const double logn = std::log(static_cast<double>(inst.n_cells()));
  EXPECT_LE(ratio, logn * logn);
}

TEST(ImprovedRandomDelay, ValidAndPreprocessingWidthAtMostM) {
  const auto inst = dag::random_instance(200, 6, 10, 2.0, 111);
  const std::size_t m = 7;
  // Preprocessing property: greedy union schedule has width <= m, so the
  // re-leveled layers used by Algorithm 3 have width <= m per direction.
  std::size_t pre_makespan = 0;
  const auto step = greedy_union_schedule(inst, m, &pre_makespan);
  std::vector<std::size_t> width(pre_makespan, 0);
  for (TimeStep s : step) ++width[s];
  for (std::size_t w : width) EXPECT_LE(w, m);

  util::Rng rng(121);
  const auto result = improved_random_delay_schedule(inst, m, rng);
  const auto valid = validate_schedule(inst, result.schedule);
  EXPECT_TRUE(valid) << valid.error;
  EXPECT_LE(result.combined_layers, pre_makespan + inst.n_directions());
}

TEST(ImprovedRandomDelay, ComparableOrBetterThanPlainOnWideInstances) {
  // On instances with very wide levels, Algorithm 3's re-leveling bounds the
  // per-layer contention; it should not be dramatically worse than Alg 1.
  const auto inst = dag::random_instance(600, 8, 4, 1.5, 131);  // wide: 150/level
  const std::size_t m = 6;
  util::Rng rng1(141);
  const auto plain = random_delay_schedule(inst, m, rng1);
  util::Rng rng2(141);
  const auto improved = improved_random_delay_schedule(inst, m, rng2);
  EXPECT_LE(improved.schedule.makespan(), plain.schedule.makespan() * 2);
}

TEST(RandomDelay, GeometricInstanceEndToEnd) {
  const auto m = test::small_tet_mesh(5, 5, 2);
  const auto dirs = dag::level_symmetric(2);
  const auto inst = dag::build_instance(m, dirs);
  util::Rng rng(151);
  const auto result = random_delay_schedule(inst, 4, rng);
  const auto valid = validate_schedule(inst, result.schedule);
  EXPECT_TRUE(valid) << valid.error;
  const LowerBounds lb = compute_lower_bounds(inst, 4);
  // The paper's headline empirical observation: makespan <= 3 nk/m. The
  // layer-synchronous Algorithm 1 is the weakest variant; allow 4x here
  // (Algorithm 2 is tested against 3x in the integration suite).
  EXPECT_LE(static_cast<double>(result.schedule.makespan()),
            4.0 * lb.average_load);
}

}  // namespace
}  // namespace sweep::core
