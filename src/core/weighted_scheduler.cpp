#include "core/weighted_scheduler.hpp"

#include <algorithm>
#include <queue>
#include <sstream>
#include <stdexcept>

namespace sweep::core {

WeightedSchedule weighted_list_schedule(const dag::TaskGraph& graph,
                                        const Assignment& assignment,
                                        std::size_t n_processors,
                                        std::span<const double> cell_weights,
                                        const WeightedScheduleOptions& options) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  const std::size_t total = n * k;
  if (assignment.size() != n) {
    throw std::invalid_argument("weighted_list_schedule: assignment size != n");
  }
  if (cell_weights.size() != n) {
    throw std::invalid_argument("weighted_list_schedule: weights size != n");
  }
  if (n_processors == 0) {
    throw std::invalid_argument("weighted_list_schedule: need >= 1 processor");
  }
  for (double w : cell_weights) {
    if (!(w > 0.0)) {
      throw std::invalid_argument("weighted_list_schedule: weights must be > 0");
    }
  }
  for (ProcessorId p : assignment) {
    if (p >= n_processors) {
      throw std::invalid_argument("weighted_list_schedule: assignment out of range");
    }
  }
  if (!options.priorities.empty() && options.priorities.size() != total) {
    throw std::invalid_argument("weighted_list_schedule: priorities size != n*k");
  }

  auto priority_of = [&](TaskId t) -> std::int64_t {
    return options.priorities.empty() ? 0 : options.priorities[t];
  };

  WeightedSchedule result;
  result.start.assign(total, -1.0);
  result.assignment = assignment;
  result.n_cells = n;
  result.n_directions = k;
  result.n_processors = n_processors;

  std::vector<std::uint32_t> indegree(graph.indegrees().begin(),
                                      graph.indegrees().end());
  using ReadyEntry = std::pair<std::int64_t, TaskId>;
  using ReadyHeap =
      std::priority_queue<ReadyEntry, std::vector<ReadyEntry>, std::greater<>>;
  std::vector<ReadyHeap> ready(n_processors);
  std::vector<char> busy(n_processors, 0);

  using Completion = std::pair<double, TaskId>;
  std::priority_queue<Completion, std::vector<Completion>, std::greater<>>
      completions;

  auto dispatch = [&](ProcessorId p, double now) {
    if (busy[p] || ready[p].empty()) return;
    const TaskId t = ready[p].top().second;
    ready[p].pop();
    busy[p] = 1;
    result.start[t] = now;
    const double weight = cell_weights[task_cell(t, n)];
    completions.push({now + weight, t});
  };

  for (TaskId t = 0; t < total; ++t) {
    if (indegree[t] == 0) {
      ready[assignment[task_cell(t, n)]].push({priority_of(t), t});
    }
  }
  for (ProcessorId p = 0; p < n_processors; ++p) dispatch(p, 0.0);

  std::size_t done = 0;
  std::vector<ProcessorId> woken;
  while (!completions.empty()) {
    const double now = completions.top().first;
    // Drain every completion at this instant before dispatching, so that
    // simultaneous finishes release all their successors first (matching
    // the unit engine's step semantics).
    woken.clear();
    while (!completions.empty() && completions.top().first <= now) {
      const TaskId t = completions.top().second;
      completions.pop();
      ++done;
      const ProcessorId p = result.assignment[task_cell(t, n)];
      busy[p] = 0;
      woken.push_back(p);
      for (const TaskId succ : graph.successors(t)) {
        if (--indegree[succ] == 0) {
          const ProcessorId q = assignment[task_cell(succ, n)];
          ready[q].push({priority_of(succ), succ});
          woken.push_back(q);
        }
      }
      result.makespan = std::max(result.makespan, now);
    }
    for (ProcessorId p : woken) dispatch(p, now);
  }
  if (done != total) {
    throw std::logic_error("weighted_list_schedule: instance DAG has a cycle");
  }
  return result;
}

std::string validate_weighted_schedule(const dag::TaskGraph& graph,
                                       const WeightedSchedule& schedule,
                                       std::span<const double> cell_weights) {
  const std::size_t n = graph.n_cells();
  if (schedule.start.size() != graph.n_tasks() || cell_weights.size() != n ||
      schedule.assignment.size() != n) {
    return "shape mismatch";
  }
  for (ProcessorId p : schedule.assignment) {
    if (p >= schedule.n_processors) {
      return "assignment names a processor >= n_processors";
    }
  }
  constexpr double kEps = 1e-9;
  for (TaskId t = 0; t < schedule.start.size(); ++t) {
    if (schedule.start[t] < 0.0) return "task never scheduled";
  }
  // Precedence with durations.
  for (TaskId t = 0; t < schedule.start.size(); ++t) {
    const double finish = schedule.start[t] + cell_weights[task_cell(t, n)];
    for (const TaskId succ : graph.successors(t)) {
      if (schedule.start[succ] + kEps < finish) {
        std::ostringstream msg;
        msg << "precedence violated in direction " << task_direction(t, n)
            << ": " << task_cell(t, n) << " -> " << task_cell(succ, n);
        return msg.str();
      }
    }
  }
  // Per-processor non-overlap: sort each processor's intervals.
  std::vector<std::vector<std::pair<double, double>>> intervals(
      schedule.n_processors);
  for (TaskId t = 0; t < schedule.start.size(); ++t) {
    const CellId v = task_cell(t, n);
    intervals[schedule.assignment[v]].push_back(
        {schedule.start[t], schedule.start[t] + cell_weights[v]});
  }
  for (auto& list : intervals) {
    std::sort(list.begin(), list.end());
    for (std::size_t i = 1; i < list.size(); ++i) {
      if (list[i].first + kEps < list[i - 1].second) {
        return "processor runs two tasks at once";
      }
    }
  }
  return "";
}

double weighted_lower_bound(const dag::TaskGraph& graph,
                            std::size_t n_processors,
                            std::span<const double> cell_weights) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  if (cell_weights.size() != n) {
    throw std::invalid_argument("weighted_lower_bound: weights size != n");
  }
  if (n_processors == 0) {
    throw std::invalid_argument("weighted_lower_bound: need >= 1 processor");
  }
  double total = 0.0;
  double min_weight = cell_weights.empty() ? 0.0 : cell_weights[0];
  for (double w : cell_weights) {
    total += w;
    min_weight = std::min(min_weight, w);
  }
  double lb = total * static_cast<double>(k) / static_cast<double>(n_processors);
  lb = std::max(lb, static_cast<double>(k) * min_weight);

  // Longest weighted path per direction, by a DP over its topological order.
  std::vector<double> path(n);
  for (std::size_t i = 0; i < k; ++i) {
    const std::size_t base = i * n;
    std::fill(path.begin(), path.end(), 0.0);
    double longest = 0.0;
    for (dag::NodeId v : dag::topological_order(graph, i)) {
      path[v] += cell_weights[v];
      longest = std::max(longest, path[v]);
      for (const dag::TaskGraph::Task s : graph.successors(base + v)) {
        path[s - base] = std::max(path[s - base], path[v]);
      }
    }
    lb = std::max(lb, longest);
  }
  return lb;
}

std::vector<double> face_count_weights(const mesh::UnstructuredMesh& mesh,
                                       double base, double per_face) {
  std::vector<double> weights(mesh.n_cells());
  for (mesh::CellId c = 0; c < mesh.n_cells(); ++c) {
    weights[c] = base + per_face * static_cast<double>(mesh.faces_of(c).size());
  }
  return weights;
}

}  // namespace sweep::core
