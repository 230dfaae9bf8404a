#include "core/validate.hpp"

#include <algorithm>
#include <sstream>
#include <vector>

namespace sweep::core {
namespace {

ValidationResult fail(const std::string& message) {
  return ValidationResult{false, message};
}

}  // namespace

ValidationResult validate_schedule(const dag::TaskGraph& graph,
                                   const Schedule& schedule) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  if (schedule.n_cells() != n || schedule.n_directions() != k) {
    return fail("schedule shape does not match instance");
  }
  if (schedule.assignment().size() != n) {
    return fail("assignment size does not match cell count");
  }
  for (CellId v = 0; v < n; ++v) {
    if (schedule.assignment()[v] >= schedule.n_processors()) {
      std::ostringstream msg;
      msg << "cell " << v << " assigned to out-of-range processor "
          << schedule.assignment()[v];
      return fail(msg.str());
    }
  }

  // Completeness.
  for (TaskId t = 0; t < schedule.n_tasks(); ++t) {
    if (schedule.start(t) == kUnscheduled) {
      std::ostringstream msg;
      msg << "task " << t << " (cell " << task_cell(t, n) << ", dir "
          << task_direction(t, n) << ") was never scheduled";
      return fail(msg.str());
    }
  }

  // Precedence: start(u,i) < start(v,i) for every edge.
  for (TaskId t = 0; t < schedule.n_tasks(); ++t) {
    const TimeStep su = schedule.start(t);
    for (const dag::TaskGraph::Task succ : graph.successors(t)) {
      if (schedule.start(succ) <= su) {
        std::ostringstream msg;
        msg << "precedence violated in direction " << task_direction(t, n)
            << ": cell " << task_cell(t, n) << " at t=" << su
            << " must precede cell " << task_cell(succ, n)
            << " at t=" << schedule.start(succ);
        return fail(msg.str());
      }
    }
  }

  // One task per (processor, timestep).
  std::vector<std::pair<std::uint64_t, TaskId>> slots;
  slots.reserve(schedule.n_tasks());
  for (TaskId t = 0; t < schedule.n_tasks(); ++t) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(schedule.processor_of(t)) << 32) |
        schedule.start(t);
    slots.emplace_back(key, t);
  }
  std::sort(slots.begin(), slots.end());
  for (std::size_t i = 1; i < slots.size(); ++i) {
    if (slots[i].first == slots[i - 1].first) {
      std::ostringstream msg;
      msg << "processor " << (slots[i].first >> 32) << " runs tasks "
          << slots[i - 1].second << " and " << slots[i].second
          << " at the same timestep " << (slots[i].first & 0xffffffffu);
      return fail(msg.str());
    }
  }
  return ValidationResult{};
}

}  // namespace sweep::core
