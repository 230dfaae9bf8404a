#include "core/lower_bounds.hpp"

namespace sweep::core {

LowerBounds compute_lower_bounds(const dag::TaskGraph& graph,
                                 std::size_t n_processors) {
  LowerBounds lb;
  lb.average_load = static_cast<double>(graph.n_tasks()) /
                    static_cast<double>(n_processors);
  if (graph.n_tasks() > 0) {
    lb.directions = graph.n_directions();
    // max_level() is 0-based: a single level reads 0.
    lb.depth = static_cast<std::size_t>(graph.max_level()) + 1;
  }
  return lb;
}

}  // namespace sweep::core
