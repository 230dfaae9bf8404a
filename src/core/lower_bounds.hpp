#pragma once
// Lower bounds on the optimal sweep-schedule makespan (paper Sections 4-5):
//   - average load nk/m (the paper's main empirical yardstick),
//   - k (all k copies of one cell run on one processor),
//   - D = max level count over directions (critical path of unit tasks).
// OPT >= max of all three; the experiments report makespan / lower_bound.
// The k and D terms hold only when there is a task to run: an instance with
// no cells (or no directions) has makespan 0, and every term is 0.

#include <algorithm>

#include "sweep/task_graph.hpp"

namespace sweep::core {

struct LowerBounds {
  double average_load = 0.0;   ///< nk/m
  std::size_t directions = 0;  ///< k, or 0 without tasks
  std::size_t depth = 0;       ///< D, max #levels over directions

  [[nodiscard]] double value() const {
    double lb = average_load;
    lb = std::max(lb, static_cast<double>(directions));
    lb = std::max(lb, static_cast<double>(depth));
    return lb;
  }
};

LowerBounds compute_lower_bounds(const dag::TaskGraph& graph,
                                 std::size_t n_processors);

}  // namespace sweep::core
