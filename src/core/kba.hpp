#pragma once
// KBA-style baseline (Koch-Baker-Alcouffe [6], referenced in the paper's
// Related Work as "essentially optimal" on regular meshes).
//
// KBA decomposes a structured nx x ny x nz grid into px x py vertical
// columns, one per processor; sweeps pipeline along z so that wavefronts of
// different z-planes (and of different directions in the same octant)
// overlap. In this library the KBA baseline is expressed on top of the same
// list-scheduling engine as everything else: the KBA *column assignment*
// plus *octant-ordered level priorities*. This keeps the comparison with the
// randomized algorithms apples-to-apples (same engine, same feasibility
// constraints) while reproducing KBA's pipelining behaviour.

#include "core/schedule.hpp"
#include "mesh/structured.hpp"
#include "sweep/directions.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::core {

/// Column-block assignment: processor grid px x py over the x-y plane; cell
/// (i,j,k) goes to processor (i * px / nx) + px * (j * py / ny), for all k.
/// Throws if px * py processors cannot be laid out on the grid.
Assignment kba_assignment(const mesh::StructuredDims& dims, std::size_t px,
                          std::size_t py);

/// KBA priorities: directions are processed octant-major (all directions of
/// an octant share wavefronts), and within a direction by DAG level. Order:
/// Gamma(v, i) = octant(i) * BIG + level_i(v), which yields the classic
/// KBA pipelining when combined with kba_assignment and list scheduling.
std::vector<std::int64_t> kba_priorities(const dag::TaskGraph& graph,
                                         const dag::DirectionSet& directions);

/// Convenience: full KBA baseline schedule on a structured grid.
Schedule kba_schedule(const dag::TaskGraph& graph,
                      const dag::DirectionSet& directions,
                      const mesh::StructuredDims& dims, std::size_t px,
                      std::size_t py);

/// Choose a near-square px x py factorization of m (px * py == m).
std::pair<std::size_t, std::size_t> kba_processor_grid(std::size_t m);

}  // namespace sweep::core
