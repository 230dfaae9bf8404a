#pragma once
// The paper's two extreme communication-cost measures (Section 5,
// "Objective functions"):
//
//   C1 — static: the number of DAG edges ((u,i),(v,i)) whose endpoints are
//        assigned to different processors (each such edge is a message that
//        must cross the network at some point).
//   C2 — synchronous-round: after every computation step there is a
//        communication round whose duration is the maximum number of
//        messages any single processor must send in that round; C2 is the
//        sum of those maxima over the schedule. (An optimistic model — the
//        paper notes it can be realized with distributed edge coloring.)
//
// Evaluation throughput (DESIGN.md §11): C1 fans the edge scan out across
// directions (each direction's tasks are a contiguous id range with
// same-direction successors, so per-direction cross-edge counts sum without
// synchronization); within direction i a successor's processor is
// assignment[succ - i*n], and the cross test is added to the count rather
// than branched on, since block assignments make it unpredictable. C2 is
// one linear pass over the tasks: each task's
// cross-processor successor count folds into its step's maximum, and a
// one-bit-per-(step, processor) occupancy bitmap confirms no two tasks
// share a slot, so the per-task maximum is the per-sender maximum the model
// charges. The pass runs when makespan <= n_tasks and makespan * m <=
// 64 * n_tasks (at most 12 bytes of scratch per task). Any other schedule,
// or one that puts two tasks in one slot (infeasible, so only hand-built
// or loaded schedules do), takes a sort over packed 64-bit step*m+sender
// records instead, which costs O(senders log senders) and never
// O(makespan); the comm.c2.sorted_fallbacks counter counts those calls.
// comm_cost_c2_reference preserves the original hash-map C2 as the
// differential oracle for both C2 paths and, through its cross-edge count,
// for C1.

#include <cstdint>

#include "core/schedule.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::core {

struct C1Cost {
  std::size_t cross_edges = 0;  ///< interprocessor edges over all DAGs
  std::size_t total_edges = 0;
  [[nodiscard]] double fraction() const {
    return total_edges == 0
               ? 0.0
               : static_cast<double>(cross_edges) / static_cast<double>(total_edges);
  }
};

/// C1 depends only on the assignment, not on start times. Counted in
/// parallel over directions; identical for any `jobs` (0 = all cores,
/// 1 = serial).
C1Cost comm_cost_c1(const dag::TaskGraph& graph, const Assignment& assignment,
                    std::size_t jobs = 0);

struct C2Cost {
  std::size_t total_delay = 0;       ///< sum over steps of max per-proc sends
  std::size_t max_step_degree = 0;   ///< worst single round
  std::size_t busy_steps = 0;        ///< steps with at least one message
  std::size_t cross_edges = 0;       ///< all messages: C1's cross-edge count
};

/// C2 requires the schedule (who finishes what when). A message is one cross-
/// processor DAG edge, charged to the sender at the step its source finishes.
/// The pass counts every message, so `cross_edges` equals
/// comm_cost_c1(graph, schedule.assignment()).cross_edges; a caller holding
/// the schedule gets C1 without a second walk over the edges.
/// Throws std::invalid_argument if an assignment entry is >= n_processors,
/// or if makespan * n_processors overflows the packed 64-bit (step, sender)
/// key space (a schedule that large is malformed, not merely expensive).
C2Cost comm_cost_c2(const dag::TaskGraph& graph, const Schedule& schedule);

/// Preserved unordered_map implementation (differential oracle). It
/// allocates an O(makespan) dense reduction array whatever the horizon
/// (comm_cost_c2 bounds its dense scratch by the task count and sorts
/// instead past that), so only feed it schedules with modest horizons.
C2Cost comm_cost_c2_reference(const dag::TaskGraph& graph,
                              const Schedule& schedule);

}  // namespace sweep::core
