#include "core/kba.hpp"

#include <cmath>
#include <span>
#include <stdexcept>

#include "core/list_scheduler.hpp"
#include "core/types.hpp"

namespace sweep::core {

Assignment kba_assignment(const mesh::StructuredDims& dims, std::size_t px,
                          std::size_t py) {
  if (px == 0 || py == 0) {
    throw std::invalid_argument("kba_assignment: zero processor grid");
  }
  if (px > dims.nx || py > dims.ny) {
    throw std::invalid_argument(
        "kba_assignment: processor grid exceeds mesh columns");
  }
  Assignment assignment(dims.n_cells());
  for (CellId c = 0; c < assignment.size(); ++c) {
    const auto [i, j, k] = mesh::structured_cell_coords(c, dims);
    (void)k;  // KBA columns span all of z
    const std::size_t pi = i * px / dims.nx;
    const std::size_t pj = j * py / dims.ny;
    assignment[c] = static_cast<ProcessorId>(pi + px * pj);
  }
  return assignment;
}

std::vector<std::int64_t> kba_priorities(const dag::TaskGraph& tg,
                                         const dag::DirectionSet& directions) {
  if (directions.size() != tg.n_directions()) {
    throw std::invalid_argument("kba_priorities: direction count mismatch");
  }
  const std::size_t n = tg.n_cells();
  const std::size_t k = tg.n_directions();
  const std::span<const std::uint32_t> levels = tg.levels();
  // BIG must dominate any level so octants are strictly ordered.
  const std::int64_t big = static_cast<std::int64_t>(tg.max_level()) + 2;
  auto octant = [&](DirectionId i) -> std::int64_t {
    const auto& d = directions.directions[i];
    return (d.x >= 0 ? 0 : 1) + 2 * (d.y >= 0 ? 0 : 1) + 4 * (d.z >= 0 ? 0 : 1);
  };
  std::vector<std::int64_t> priorities(n * k);
  for (DirectionId i = 0; i < k; ++i) {
    const std::int64_t base = octant(i) * big;
    for (CellId v = 0; v < n; ++v) {
      const std::size_t t = task_id(v, i, n);
      priorities[t] = base + levels[t];
    }
  }
  return priorities;
}

Schedule kba_schedule(const dag::TaskGraph& graph,
                      const dag::DirectionSet& directions,
                      const mesh::StructuredDims& dims, std::size_t px,
                      std::size_t py) {
  if (graph.n_cells() != dims.n_cells()) {
    throw std::invalid_argument("kba_schedule: instance/grid size mismatch");
  }
  const Assignment assignment = kba_assignment(dims, px, py);
  const auto priorities = kba_priorities(graph, directions);
  ListScheduleOptions options;
  options.priorities = priorities;
  return list_schedule(graph, assignment, px * py, options);
}

std::pair<std::size_t, std::size_t> kba_processor_grid(std::size_t m) {
  if (m == 0) throw std::invalid_argument("kba_processor_grid: m must be >= 1");
  auto px = static_cast<std::size_t>(std::sqrt(static_cast<double>(m)));
  while (px > 1 && m % px != 0) --px;
  return {px, m / px};
}

}  // namespace sweep::core
