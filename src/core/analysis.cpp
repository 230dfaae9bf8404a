#include "core/analysis.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace sweep::core {

ScheduleAnalysis analyze_schedule(const dag::TaskGraph& graph,
                                  const Schedule& schedule,
                                  std::span<const TimeStep> release_times,
                                  TimeStep cross_message_delay) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  const std::size_t total = n * k;
  if (schedule.n_tasks() != total) {
    throw std::invalid_argument("analyze_schedule: shape mismatch");
  }
  if (!release_times.empty() && release_times.size() != total) {
    throw std::invalid_argument("analyze_schedule: release_times size != n*k");
  }
  if (!schedule.complete()) {
    throw std::invalid_argument("analyze_schedule: incomplete schedule");
  }

  ScheduleAnalysis result;
  result.makespan = schedule.makespan();
  const std::size_t m = schedule.n_processors();

  // Loads and busy bitmaps.
  const std::size_t words = (result.makespan + 63) / 64;
  std::vector<std::uint64_t> busy(m * words, 0);
  std::vector<std::size_t> loads(m, 0);
  for (TaskId t = 0; t < total; ++t) {
    const ProcessorId p = schedule.processor_of(t);
    const TimeStep s = schedule.start(t);
    busy[p * words + s / 64] |= 1ull << (s % 64);
    ++loads[p];
  }
  result.min_load = *std::min_element(loads.begin(), loads.end());
  result.max_load = *std::max_element(loads.begin(), loads.end());
  result.total_idle_slots = result.makespan * m - total;
  result.mean_utilization =
      result.makespan == 0
          ? 1.0
          : static_cast<double>(total) /
                static_cast<double>(result.makespan * m);

  // Ready times, by the engine's gates: the release time, and over
  // predecessors start + 1, plus the cross-message delay when the
  // predecessor ran on another processor.
  std::vector<TimeStep> ready(total, 0);
  if (!release_times.empty()) {
    ready.assign(release_times.begin(), release_times.end());
  }
  for (TaskId t = 0; t < total; ++t) {
    const TimeStep finish = schedule.start(t) + 1;
    const ProcessorId p = schedule.processor_of_cell(graph.cell(t));
    for (const dag::TaskGraph::Task succ : graph.successors(t)) {
      const TimeStep due =
          schedule.processor_of_cell(graph.cell(succ)) != p
              ? finish + cross_message_delay
              : finish;
      ready[succ] = std::max(ready[succ], due);
    }
  }

  // Avoidable idle: idle (proc, slot) pairs overlapping some waiting ready
  // task; flagged bitmap dedupes across tasks.
  std::vector<std::uint64_t> flagged(m * words, 0);
  for (TaskId t = 0; t < total; ++t) {
    const ProcessorId p = schedule.processor_of(t);
    for (TimeStep s = ready[t]; s < schedule.start(t); ++s) {
      const std::size_t idx = p * words + s / 64;
      const std::uint64_t bit = 1ull << (s % 64);
      if (!(busy[idx] & bit) && !(flagged[idx] & bit)) {
        flagged[idx] |= bit;
        ++result.avoidable_idle_slots;
      }
    }
  }

  // Per-direction finish times.
  result.direction_finish.assign(k, 0);
  for (DirectionId i = 0; i < k; ++i) {
    for (CellId v = 0; v < n; ++v) {
      result.direction_finish[i] = std::max<std::size_t>(
          result.direction_finish[i], schedule.start(v, i) + 1);
    }
  }

  // Realized critical path: longest chain of back-to-back dependent tasks.
  // A forward pass in start order: a back-to-back successor starts one step
  // later, so every task's chain is final before it extends its successors.
  std::vector<TaskId> order(total);
  for (TaskId t = 0; t < total; ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    return schedule.start(a) < schedule.start(b);
  });
  std::vector<std::uint32_t> chain(total, 1);
  for (const TaskId t : order) {
    const TimeStep next = schedule.start(t) + 1;
    for (const dag::TaskGraph::Task succ : graph.successors(t)) {
      if (schedule.start(succ) == next) {
        chain[succ] = std::max(chain[succ], chain[t] + 1);
      }
    }
    result.realized_critical_path =
        std::max<std::size_t>(result.realized_critical_path, chain[t]);
  }
  return result;
}

std::string to_string(const ScheduleAnalysis& a) {
  std::ostringstream out;
  out << "makespan=" << a.makespan << " idle=" << a.total_idle_slots
      << " (avoidable " << a.avoidable_idle_slots << ")"
      << " load[min/max]=" << a.min_load << "/" << a.max_load
      << " utilization=" << a.mean_utilization
      << " realized_critical_path=" << a.realized_critical_path;
  return out.str();
}

}  // namespace sweep::core
