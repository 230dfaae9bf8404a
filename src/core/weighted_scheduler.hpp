#pragma once
// Weighted-task list scheduling — the natural extension the paper's model
// abstracts away ("we will assume that each task takes uniform time p").
// Real meshes mix element types with different local-solve costs (e.g. a
// prism's corner-balance solve costs more than a tet's), so this engine
// schedules tasks whose processing time is a per-cell weight, event-driven
// in continuous time, under the same three sweep-scheduling constraints.
//
// With all weights equal to 1 it reproduces the unit engine's makespan
// exactly (tested), so the unit-time analysis carries over as the special
// case.

#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "mesh/mesh.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::core {

struct WeightedScheduleOptions {
  /// Per-task priority; SMALLER runs first; ties broken by task id.
  std::span<const std::int64_t> priorities = {};
};

struct WeightedSchedule {
  std::vector<double> start;  ///< per task, continuous time
  Assignment assignment;
  std::size_t n_cells = 0;
  std::size_t n_directions = 0;
  std::size_t n_processors = 0;
  double makespan = 0.0;

  [[nodiscard]] double start_of(CellId v, DirectionId i) const {
    return start[task_id(v, i, n_cells)];
  }
};

/// Runs prioritized list scheduling with per-cell processing times
/// `cell_weights` (all > 0; task (v,i) costs cell_weights[v] for every i).
WeightedSchedule weighted_list_schedule(const dag::TaskGraph& graph,
                                        const Assignment& assignment,
                                        std::size_t n_processors,
                                        std::span<const double> cell_weights,
                                        const WeightedScheduleOptions& options = {});

/// Feasibility check for weighted schedules: shape, processor range,
/// precedence with durations, per-processor non-overlap. Returns an empty
/// string when feasible and the first problem found otherwise.
std::string validate_weighted_schedule(const dag::TaskGraph& graph,
                                       const WeightedSchedule& schedule,
                                       std::span<const double> cell_weights);

/// Lower bound: max{ total weighted load / m, max weighted path, k * min w }.
/// Throws std::invalid_argument unless there is one weight per cell and
/// n_processors >= 1.
double weighted_lower_bound(const dag::TaskGraph& graph,
                            std::size_t n_processors,
                            std::span<const double> cell_weights);

/// Cell weights from mesh element type: cells with more faces cost more.
/// weight(v) = base + per_face * faces(v); a cheap, physical cost model
/// (prisms have 5 faces, tets 4).
std::vector<double> face_count_weights(const mesh::UnstructuredMesh& mesh,
                                       double base = 0.0,
                                       double per_face = 0.25);

}  // namespace sweep::core
