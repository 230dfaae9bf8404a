#pragma once
// Algorithm 1 ("Random Delay") and Algorithm 3 ("Improved Random Delay") —
// the paper's provable algorithms. Both build a combined DAG by shifting each
// direction's layers by a uniform random delay X_i, assign each cell to a
// uniform random processor, and process the combined layers synchronously
// (layer r+1 starts only after layer r completes). They differ in the layers
// used: Algorithm 1 uses the natural DAG levels (O(log^2 n)-approximation,
// Theorem 1); Algorithm 3 first re-levels each DAG with a greedy m-machine
// list schedule of the union DAG so every layer has width <= m
// (O(log m log log log m) expected, Theorem 3/Corollary 1).

#include <cstdint>

#include "core/schedule.hpp"
#include "sweep/task_graph.hpp"
#include "util/rng.hpp"

namespace sweep::core {

struct RandomDelayResult {
  Schedule schedule;
  std::vector<TimeStep> delays;     ///< X_i per direction
  std::size_t combined_layers = 0;  ///< R, number of layers in combined DAG
  std::size_t max_layer_load = 0;   ///< max tasks on one processor in one layer
};

/// Algorithm 1. `assignment` may be empty, in which case step 3's uniform
/// random per-cell assignment is drawn from `rng` (pass a block assignment to
/// reproduce the Section 5.1 block experiments).
RandomDelayResult random_delay_schedule(const dag::TaskGraph& graph,
                                        std::size_t n_processors,
                                        util::Rng& rng,
                                        Assignment assignment = {});

/// Algorithm 3: greedy union-DAG preprocessing then random delays.
RandomDelayResult improved_random_delay_schedule(
    const dag::TaskGraph& graph, std::size_t n_processors,
    util::Rng& rng, Assignment assignment = {});

}  // namespace sweep::core
