#pragma once
// Discrete-event distributed-machine simulator.
//
// The paper brackets reality with two extreme communication measures (C1,
// C2) and notes that "in reality, interprocessor communication will increase
// the time until all tasks are processed in a way that is hard to model".
// This module models it the standard way HPC codes are modeled: each
// processor executes its assigned tasks in schedule order; every
// cross-processor DAG edge becomes a message with an alpha-beta cost
// (latency + size/bandwidth); a processor may overlap communication with
// computation up to `sends_in_flight` concurrent sends (0 = blocking sends).
// The simulator replays a *precomputed* Schedule (it keeps the schedule's
// per-processor task order) and reports when every task actually finishes —
// i.e. how the zero-communication makespan stretches on a real machine.
//
// This is the bridge between the paper's simulated study and an MPI
// implementation: C1 predicts the bandwidth term, C2 the round count, and
// the simulator shows where between those extremes a given network lands.

#include <cstdint>
#include <vector>

#include "core/schedule.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::sim {

struct MachineModel {
  double task_time = 1.0;       ///< execution time of one (cell,direction) task
  double latency = 0.1;         ///< alpha: per-message latency
  double byte_time = 0.01;      ///< beta: per-message transfer time (1 "unit" payload)
  /// Max concurrent outstanding sends per processor; further sends block the
  /// sender. 0 means fully synchronous (send blocks until delivered).
  std::size_t sends_in_flight = 4;
};

struct SimulationResult {
  double completion_time = 0.0;          ///< when the last task finished
  double total_busy_time = 0.0;          ///< sum of task execution times
  double total_blocked_time = 0.0;       ///< time processors spent send-blocked
  double total_wait_time = 0.0;          ///< time spent waiting for inputs
  std::size_t messages_sent = 0;         ///< == C1 cross edges
  /// completion_time / (total_busy_time / m): parallel efficiency denominator.
  [[nodiscard]] double efficiency(std::size_t n_processors) const {
    if (completion_time <= 0.0 || n_processors == 0) return 1.0;
    return total_busy_time /
           (static_cast<double>(n_processors) * completion_time);
  }
};

/// Replays `schedule` on the modeled machine. The schedule must be complete
/// and feasible; each processor executes its tasks in increasing scheduled
/// start order, waiting for upstream messages as needed. Throws
/// std::invalid_argument for an incomplete schedule, one whose shape differs
/// from the graph's, an assignment entry >= n_processors, or task_time <= 0.
SimulationResult simulate_execution(const dag::TaskGraph& graph,
                                    const core::Schedule& schedule,
                                    const MachineModel& model = {});

}  // namespace sweep::sim
