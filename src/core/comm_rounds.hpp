#pragma once
// Realizing the C2 communication model with edge coloring.
//
// The paper (Section 5, "Objective functions") notes that performing each
// step's communication within time equal to the max per-processor send count
// "is not trivial, and requires some extra coordination. One way this can be
// done in a distributed manner is to use an edge coloring algorithm [11]."
//
// This module does exactly that: for every timestep it builds the message
// multigraph on processors (one edge per cross-processor DAG edge whose
// source finished at that step), greedily edge-colors it (<= 2*Delta - 1
// colors, Delta = max total degree), and charges one round per color. The
// result is a *feasible* round-by-round communication plan whose total length
// can be compared against the optimistic C2 measure.

#include <cstdint>

#include "core/schedule.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::core {

struct CommRoundsResult {
  std::size_t total_rounds = 0;   ///< sum over steps of colors used
  std::size_t max_round_count = 0;  ///< worst single step
  std::size_t total_messages = 0;   ///< == C1 cross edges
  /// Largest total (send+receive) degree seen at any step; the greedy
  /// coloring guarantee is colors <= 2*max_degree - 1 per step.
  std::size_t max_total_degree = 0;
};

/// Builds the per-step message multigraphs of `schedule` and colors them.
/// The schedule must be complete.
CommRoundsResult realize_c2_rounds(const dag::TaskGraph& graph,
                                   const Schedule& schedule);

}  // namespace sweep::core
