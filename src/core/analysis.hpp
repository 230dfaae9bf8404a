#pragma once
// Schedule analysis: where does the time go? Decomposes a schedule's idle
// slots into *unavoidable* (no ready task existed for that processor) and
// *avoidable* (a ready task was waiting while the processor idled — a
// work-conservation violation). Algorithm 2's defining property is zero
// avoidable idle; Algorithm 1's layer synchronization creates plenty, which
// is exactly the gap Figure 2(c) plots. Also reports load balance and
// per-direction completion ("pipeline drain") statistics used by the
// tournament example.
//
// A task is ready once the list-scheduling engine's gates let it run: at
// its release time, one step after each predecessor starts, and c steps
// later still after a predecessor on another processor (cross-message
// delay c). Given the release times and c a schedule was made with, every
// list schedule has zero avoidable idle; without them, a gated schedule's
// waits read as avoidable.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "core/schedule.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::core {

struct ScheduleAnalysis {
  std::size_t makespan = 0;
  std::size_t total_idle_slots = 0;
  std::size_t avoidable_idle_slots = 0;  ///< idle while a ready task waited
  std::size_t min_load = 0;              ///< tasks on least-loaded processor
  std::size_t max_load = 0;
  double mean_utilization = 0.0;         ///< busy slots / (m * makespan)
  /// Step at which the last task of each direction completes (+1).
  std::vector<std::size_t> direction_finish;
  /// Longest chain of tasks where each starts exactly one step after its
  /// predecessor finishes — the realized critical path.
  std::size_t realized_critical_path = 0;
};

/// Full analysis; requires a complete schedule. `release_times` (empty,
/// or one per task) and `cross_message_delay` are the gates the schedule
/// was made under (ListScheduleOptions); they set the ready times that
/// avoidable idle is counted against. O(nk log nk + edges + m*T/64) time.
ScheduleAnalysis analyze_schedule(const dag::TaskGraph& graph,
                                  const Schedule& schedule,
                                  std::span<const TimeStep> release_times = {},
                                  TimeStep cross_message_delay = 0);

std::string to_string(const ScheduleAnalysis& analysis);

}  // namespace sweep::core
