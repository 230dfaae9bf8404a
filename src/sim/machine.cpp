#include "sim/machine.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

namespace sweep::sim {

SimulationResult simulate_execution(const dag::TaskGraph& graph,
                                    const core::Schedule& schedule,
                                    const MachineModel& model) {
  const std::size_t n = graph.n_cells();
  const std::size_t total = graph.n_tasks();
  // A schedule of another shape with the same task count (4 cells x 6
  // directions against 6 x 4) would read past its assignment, and a
  // processor id >= m past the per-processor arrays below.
  if (schedule.n_cells() != n || schedule.n_tasks() != total ||
      schedule.assignment().size() != n) {
    throw std::invalid_argument(
        "simulate_execution: schedule does not match instance");
  }
  for (const core::ProcessorId p : schedule.assignment()) {
    if (p >= schedule.n_processors()) {
      throw std::invalid_argument(
          "simulate_execution: assignment names a processor >= n_processors");
    }
  }
  if (!schedule.complete()) {
    throw std::invalid_argument("simulate_execution: schedule incomplete");
  }
  if (model.task_time <= 0.0) {
    throw std::invalid_argument("simulate_execution: task_time must be > 0");
  }

  // Replay order: scheduled start time, then processor, then task id. Every
  // predecessor (same DAG) and every earlier same-processor task sorts
  // strictly before a task, so single-pass evaluation is well defined.
  std::vector<core::TaskId> order(total);
  for (core::TaskId t = 0; t < total; ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&](core::TaskId a, core::TaskId b) {
    if (schedule.start(a) != schedule.start(b)) {
      return schedule.start(a) < schedule.start(b);
    }
    if (schedule.processor_of(a) != schedule.processor_of(b)) {
      return schedule.processor_of(a) < schedule.processor_of(b);
    }
    return a < b;
  });

  const std::size_t m = schedule.n_processors();
  std::vector<double> cpu_available(m, 0.0);
  std::vector<double> nic_free(m, 0.0);
  std::vector<double> input_ready(total, 0.0);

  SimulationResult result;
  for (core::TaskId t : order) {
    const auto p = schedule.processor_of(t);
    const double start = std::max(cpu_available[p], input_ready[t]);
    result.total_wait_time += std::max(0.0, input_ready[t] - cpu_available[p]);
    const double finish = start + model.task_time;
    result.total_busy_time += model.task_time;
    result.completion_time = std::max(result.completion_time, finish);

    // Deliver outputs.
    bool sent_any = false;
    for (const core::TaskId succ : graph.successors(t)) {
      if (schedule.processor_of(succ) == p) {
        input_ready[succ] = std::max(input_ready[succ], finish);
      } else {
        const double nic_start = std::max(finish, nic_free[p]);
        nic_free[p] = nic_start + model.byte_time;
        const double arrival = nic_free[p] + model.latency;
        input_ready[succ] = std::max(input_ready[succ], arrival);
        ++result.messages_sent;
        sent_any = true;
      }
    }

    // CPU availability after this task: ride ahead of the NIC by at most
    // `sends_in_flight` queued messages; fully synchronous senders wait for
    // delivery of everything they sent.
    double cpu_next = finish;
    if (sent_any) {
      if (model.sends_in_flight == 0) {
        cpu_next = std::max(cpu_next, nic_free[p] + model.latency);
      } else {
        cpu_next = std::max(
            cpu_next, nic_free[p] - static_cast<double>(model.sends_in_flight) *
                                        model.byte_time);
      }
    }
    result.total_blocked_time += cpu_next - finish;
    cpu_available[p] = cpu_next;
  }
  return result;
}

}  // namespace sweep::sim
