#include "core/random_delay.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"

namespace sweep::core {
namespace {

/// Entry validation shared by Algorithms 1 and 3. The caller-supplied
/// assignment is untrusted: an entry >= n_processors would index past
/// proc_cursor in execute_layered and corrupt the heap, so reject it here
/// (mirrors validate_inputs in the list-scheduling engine).
void validate_rd_inputs(std::size_t n_cells, std::size_t n_processors,
                        const Assignment& assignment, const char* who) {
  if (n_processors == 0) {
    throw std::invalid_argument(std::string(who) + ": need >= 1 processor");
  }
  if (assignment.size() != n_cells) {
    throw std::invalid_argument(std::string(who) + ": bad assignment size");
  }
  for (ProcessorId p : assignment) {
    if (p >= n_processors) {
      throw std::invalid_argument(std::string(who) +
                                  ": assignment entry out of range");
    }
  }
}

/// Shared core of Algorithms 1 and 3: given per-task layer indices
/// (combined-DAG layers, already including the random delays), execute the
/// layers synchronously — within a layer each processor runs its tasks
/// back-to-back, and layer r+1 starts after the slowest processor of layer r.
RandomDelayResult execute_layered(const dag::TaskGraph& graph,
                                  std::size_t n_processors,
                                  const std::vector<std::uint32_t>& task_layer,
                                  std::vector<TimeStep> delays,
                                  Assignment assignment) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  const std::size_t total = n * k;

  std::uint32_t max_layer = 0;
  for (std::uint32_t l : task_layer) max_layer = std::max(max_layer, l);
  const std::size_t n_layers = total == 0 ? 0 : max_layer + 1;

  // Bucket tasks by layer (counting sort to keep it linear).
  std::vector<std::uint32_t> layer_offsets(n_layers + 1, 0);
  for (std::uint32_t l : task_layer) ++layer_offsets[l + 1];
  for (std::size_t r = 0; r < n_layers; ++r) {
    layer_offsets[r + 1] += layer_offsets[r];
  }
  std::vector<TaskId> layer_tasks(total);
  {
    std::vector<std::uint32_t> cursor(layer_offsets.begin(),
                                      layer_offsets.end() - 1);
    for (TaskId t = 0; t < total; ++t) {
      layer_tasks[cursor[task_layer[t]]++] = t;
    }
  }

  RandomDelayResult result{
      Schedule(n, k, n_processors, std::move(assignment)), std::move(delays),
      n_layers, 0};
  Schedule& schedule = result.schedule;

  std::vector<TimeStep> proc_cursor(n_processors, 0);
  TimeStep layer_start = 0;
  for (std::size_t r = 0; r < n_layers; ++r) {
    std::fill(proc_cursor.begin(), proc_cursor.end(), layer_start);
    TimeStep layer_end = layer_start;
    for (std::uint32_t idx = layer_offsets[r]; idx < layer_offsets[r + 1];
         ++idx) {
      const TaskId t = layer_tasks[idx];
      const ProcessorId p = schedule.processor_of(t);
      schedule.set_start(t, proc_cursor[p]);
      ++proc_cursor[p];
      layer_end = std::max(layer_end, proc_cursor[p]);
      result.max_layer_load =
          std::max<std::size_t>(result.max_layer_load,
                                proc_cursor[p] - layer_start);
    }
    layer_start = layer_end;
  }
  return result;
}

}  // namespace

RandomDelayResult random_delay_schedule(const dag::TaskGraph& graph,
                                        std::size_t n_processors,
                                        util::Rng& rng, Assignment assignment) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  if (assignment.empty() && n > 0) {
    if (n_processors == 0) {
      throw std::invalid_argument("random_delay_schedule: need >= 1 processor");
    }
    assignment = random_assignment(n, n_processors, rng);
  }
  validate_rd_inputs(n, n_processors, assignment, "random_delay_schedule");

  std::vector<TimeStep> delays = random_delays(k, rng);
  // Combined layer of task (v,i) = level_i(v) + X_i (step 2 of Algorithm 1).
  // Tasks of direction i occupy the contiguous id block [i*n, (i+1)*n).
  const std::span<const std::uint32_t> level = graph.levels();
  std::vector<std::uint32_t> task_layer(n * k);
  for (DirectionId i = 0; i < k; ++i) {
    const std::uint32_t delay = delays[i];
    const std::size_t base = static_cast<std::size_t>(i) * n;
    for (std::size_t v = 0; v < n; ++v) {
      task_layer[base + v] = level[base + v] + delay;
    }
  }
  return execute_layered(graph, n_processors, task_layer, std::move(delays),
                         std::move(assignment));
}

RandomDelayResult improved_random_delay_schedule(
    const dag::TaskGraph& graph, std::size_t n_processors,
    util::Rng& rng, Assignment assignment) {
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  if (assignment.empty() && n > 0) {
    if (n_processors == 0) {
      throw std::invalid_argument(
          "improved_random_delay_schedule: need >= 1 processor");
    }
    assignment = random_assignment(n, n_processors, rng);
  }
  validate_rd_inputs(n, n_processors, assignment,
                     "improved_random_delay_schedule");

  // Preprocessing (step 1 of Algorithm 3): greedy list schedule of the union
  // DAG H on m machines; L'_{i,j} = direction-i tasks run at step j. Every
  // new level has at most m tasks, which is what the improved analysis needs.
  const std::vector<TimeStep> new_level =
      greedy_union_schedule(graph, n_processors);

  std::vector<TimeStep> delays = random_delays(k, rng);
  std::vector<std::uint32_t> task_layer(n * k);
  for (DirectionId i = 0; i < k; ++i) {
    const std::uint32_t delay = delays[i];
    const std::size_t base = static_cast<std::size_t>(i) * n;
    for (std::size_t v = 0; v < n; ++v) {
      task_layer[base + v] = new_level[base + v] + delay;
    }
  }
  return execute_layered(graph, n_processors, task_layer, std::move(delays),
                         std::move(assignment));
}

}  // namespace sweep::core
