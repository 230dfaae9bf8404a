#include "core/comm_cost.hpp"

#include <algorithm>
#include <limits>
#include <optional>
#include <stdexcept>
#include <unordered_map>
#include <vector>

#include "obs/obs.hpp"
#include "sweep/task_graph.hpp"
#include "util/parallel.hpp"

namespace sweep::core {
namespace {

void check_c2_schedule(const dag::TaskGraph& tg, const Schedule& schedule) {
  // A schedule from a different (or truncated) instance would make the
  // start/assignment reads below run out of bounds, and zero processors
  // would divide by zero in the (step, sender) key arithmetic.
  if (schedule.n_processors() == 0) {
    throw std::invalid_argument("comm_cost_c2: schedule has zero processors");
  }
  if (schedule.n_cells() != tg.n_cells() ||
      schedule.n_tasks() != tg.n_tasks() ||
      schedule.assignment().size() != tg.n_cells()) {
    throw std::invalid_argument(
        "comm_cost_c2: schedule does not match instance "
        "(truncated or foreign schedule)");
  }
  // A processor id >= m would alias another step's (step, sender) key and
  // would index past its step's row of the dense pass's occupancy bitmap.
  for (const ProcessorId p : schedule.assignment()) {
    if (p >= schedule.n_processors()) {
      throw std::invalid_argument(
          "comm_cost_c2: assignment names a processor >= n_processors");
    }
  }
}

/// Returns start step tu, rejecting an unscheduled task or a start at or
/// past the horizon (makespan() bounds every scheduled start, so such a
/// start means the schedule was mutated mid-call). kUnscheduled is never
/// below the horizon, so one compare guards both on the hot path.
TimeStep checked_start(TimeStep tu, std::size_t horizon) {
  if (static_cast<std::size_t>(tu) >= horizon) {
    throw std::invalid_argument(
        tu == kUnscheduled
            ? "comm_cost_c2: schedule is incomplete"
            : "comm_cost_c2: start step beyond schedule horizon");
  }
  return tu;
}

/// One streaming pass: fold each task's cross-processor successor count
/// into its step's maximum, and set its (step, processor) bit in a
/// one-bit-per-slot occupancy bitmap. While no two tasks share a slot (the
/// model's one-task-per-processor-per-step rule, which every feasible
/// schedule keeps), each (step, sender) pair is one task, so the per-step
/// maximum over tasks is the per-step maximum over per-sender sums that C2
/// charges. A shared slot returns nullopt and the caller reduces sorted
/// records instead. Every task marks its slot, sender or not: skipping the
/// non-senders would put a data-dependent branch on every task, which
/// mispredicts about as often as it is taken under block assignments.
/// Needs every processor id < m (check_c2_schedule).
std::optional<C2Cost> dense_c2(const dag::TaskGraph& tg,
                               const Schedule& schedule,
                               std::size_t horizon) {
  const std::size_t n = tg.n_cells();
  const std::size_t k = tg.n_directions();
  const std::size_t m = schedule.n_processors();
  const std::uint32_t* offsets = tg.offsets().data();
  const dag::TaskGraph::Task* targets = tg.targets().data();
  const TimeStep* start = schedule.starts().data();
  const ProcessorId* proc = schedule.assignment().data();
  std::vector<std::uint32_t> step_max(horizon, 0);
  std::vector<std::uint64_t> occupied((horizon * m + 63) / 64, 0);
  std::uint64_t shared = 0;
  std::size_t cross_edges = 0;
  for (std::size_t i = 0; i < k; ++i) {
    // Direction i's tasks are [i * n, (i + 1) * n) and their successors stay
    // in-direction (a TaskGraph invariant that artifacts check on load), so
    // a task's cell is its id minus i * n, with no read of the cell array.
    const std::size_t base = i * n;
    for (std::size_t t = base; t < base + n; ++t) {
      const TimeStep tu = checked_start(start[t], horizon);
      const ProcessorId pu = proc[t - base];
      std::uint32_t messages = 0;
      for (std::uint32_t e = offsets[t]; e < offsets[t + 1]; ++e) {
        messages += proc[targets[e] - base] != pu ? 1 : 0;
      }
      const std::size_t slot = static_cast<std::size_t>(tu) * m + pu;
      const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
      shared |= occupied[slot / 64] & bit;
      occupied[slot / 64] |= bit;
      step_max[tu] = std::max(step_max[tu], messages);
      cross_edges += messages;
    }
  }
  if (shared != 0) return std::nullopt;
  C2Cost cost;
  cost.cross_edges = cross_edges;
  for (const std::uint32_t mx : step_max) {
    cost.total_delay += mx;
    cost.max_step_degree = std::max<std::size_t>(cost.max_step_degree, mx);
    if (mx > 0) ++cost.busy_steps;
  }
  return cost;
}

/// C2 for the schedules the dense pass declines: a horizon or slot count
/// beyond its bounds, or two tasks in one (step, processor) slot.
C2Cost sorted_c2(const dag::TaskGraph& tg, const Schedule& schedule,
                 std::size_t horizon) {
  const std::uint32_t* cell = tg.cells().data();
  const std::size_t m = schedule.n_processors();
  // Key arithmetic guard: every (step, sender) pair below packs into
  // step * m + sender <= horizon * m - 1. A schedule whose horizon * m
  // exceeds 2^64 cannot be keyed (and could only come from a corrupted or
  // adversarial schedule); reject it instead of wrapping silently.
  if (horizon > 0 &&
      horizon > std::numeric_limits<std::uint64_t>::max() / m) {
    throw std::invalid_argument(
        "comm_cost_c2: makespan * n_processors overflows the (step, sender) "
        "key space");
  }

  // One flat record per sending task; sorted by packed key and reduced in
  // one pass. No hash map, and no O(horizon) dense array — sparse huge
  // horizons cost O(senders log senders).
  struct SendRecord {
    std::uint64_t key;       // step * m + sender
    std::uint32_t messages;  // cross-processor successors of one task
  };
  std::vector<SendRecord> sends;
  sends.reserve(256);
  C2Cost cost;
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    const ProcessorId pu = schedule.processor_of_cell(cell[t]);
    const TimeStep tu = checked_start(schedule.start(t), horizon);
    std::uint32_t messages = 0;
    for (dag::TaskGraph::Task succ : tg.successors(t)) {
      if (schedule.processor_of_cell(cell[succ]) != pu) ++messages;
    }
    cost.cross_edges += messages;
    if (messages > 0) {
      sends.push_back({static_cast<std::uint64_t>(tu) * m + pu, messages});
    }
  }
  std::sort(sends.begin(), sends.end(),
            [](const SendRecord& a, const SendRecord& b) {
              return a.key < b.key;
            });

  // Grouped reduction: per (step, sender) sum the messages, per step take
  // the max over senders, then fold the step maxima into the cost.
  std::size_t i = 0;
  while (i < sends.size()) {
    const std::uint64_t step = sends[i].key / m;
    std::uint64_t step_max = 0;
    while (i < sends.size() && sends[i].key / m == step) {
      const std::uint64_t key = sends[i].key;
      std::uint64_t sender_total = 0;
      while (i < sends.size() && sends[i].key == key) {
        sender_total += sends[i].messages;
        ++i;
      }
      step_max = std::max(step_max, sender_total);
    }
    cost.total_delay += step_max;
    cost.max_step_degree =
        std::max<std::size_t>(cost.max_step_degree, step_max);
    ++cost.busy_steps;
  }
  return cost;
}

}  // namespace

C1Cost comm_cost_c1(const dag::TaskGraph& tg, const Assignment& assignment,
                    std::size_t jobs) {
  if (assignment.size() != tg.n_cells()) {
    throw std::invalid_argument("comm_cost_c1: assignment size != n_cells");
  }
  SWEEP_OBS_TIMER("comm.c1");
  const std::size_t n = tg.n_cells();
  const std::size_t k = tg.n_directions();
  const std::uint32_t* offsets = tg.offsets().data();
  const dag::TaskGraph::Task* targets = tg.targets().data();
  const ProcessorId* proc = assignment.data();
  C1Cost cost;
  cost.total_edges = tg.n_edges();
  // Each direction's tasks are the contiguous id range [i*n, (i+1)*n) and
  // all successors stay in-direction (a TaskGraph invariant that artifacts
  // check on load), so per-direction counts are independent and sum without
  // synchronization, and a task's cell is its id minus i*n (as in
  // dense_c2). The compare is added, not branched on: about a quarter of
  // the edges cross under block assignments, which a predictor cannot
  // learn.
  std::vector<std::size_t> cross(k, 0);
  util::parallel_for(
      k,
      [&](std::size_t i) {
        std::size_t local = 0;
        const std::size_t base = i * n;
        for (std::size_t t = base; t < base + n; ++t) {
          const ProcessorId p = proc[t - base];
          for (std::uint32_t e = offsets[t]; e < offsets[t + 1]; ++e) {
            local += proc[targets[e] - base] != p ? 1 : 0;
          }
        }
        cross[i] = local;
      },
      jobs);
  for (std::size_t c : cross) cost.cross_edges += c;
  return cost;
}

C2Cost comm_cost_c2(const dag::TaskGraph& tg, const Schedule& schedule) {
  check_c2_schedule(tg, schedule);
  SWEEP_OBS_TIMER("comm.c2");
  const std::size_t n_tasks = tg.n_tasks();
  const std::size_t horizon = schedule.makespan();
  // The dense pass's scratch is a u32 per step plus a bit per (step,
  // processor) slot; these bounds cap it at 4 + 8 bytes per task, so a
  // sparse huge horizon never buys an O(horizon) array.
  if (horizon <= n_tasks &&
      (horizon == 0 || schedule.n_processors() <= 64 * n_tasks / horizon)) {
    if (const auto cost = dense_c2(tg, schedule, horizon)) return *cost;
  }
  SWEEP_OBS_COUNTER_ADD("comm.c2.sorted_fallbacks", 1);
  return sorted_c2(tg, schedule, horizon);
}

C2Cost comm_cost_c2_reference(const dag::TaskGraph& tg,
                              const Schedule& schedule) {
  check_c2_schedule(tg, schedule);
  const std::uint32_t* cell = tg.cells().data();
  const std::size_t horizon = schedule.makespan();

  // sends[t * m + p] would be O(T*m) memory; use per-step accumulation
  // keyed by (step, sender) in a flat hash map instead, then reduce.
  std::unordered_map<std::uint64_t, std::uint32_t> sends;
  sends.reserve(tg.n_tasks() / 4 + 16);
  C2Cost cost;
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    const ProcessorId pu = schedule.processor_of_cell(cell[t]);
    const TimeStep tu = schedule.start(t);
    if (tu == kUnscheduled) {
      throw std::invalid_argument("comm_cost_c2: schedule is incomplete");
    }
    if (static_cast<std::size_t>(tu) >= horizon) {
      throw std::invalid_argument(
          "comm_cost_c2: start step beyond schedule horizon");
    }
    std::uint32_t messages = 0;
    for (dag::TaskGraph::Task succ : tg.successors(t)) {
      if (schedule.processor_of_cell(cell[succ]) != pu) ++messages;
    }
    cost.cross_edges += messages;
    if (messages > 0) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(tu) * schedule.n_processors() + pu;
      sends[key] += messages;
    }
  }

  // Reduce: per step, the round length is the max over senders.
  std::vector<std::uint32_t> step_max(horizon, 0);
  for (const auto& [key, count] : sends) {
    const auto step = static_cast<std::size_t>(key / schedule.n_processors());
    step_max[step] = std::max(step_max[step], count);
  }
  for (std::uint32_t mx : step_max) {
    cost.total_delay += mx;
    cost.max_step_degree = std::max<std::size_t>(cost.max_step_degree, mx);
    if (mx > 0) ++cost.busy_steps;
  }
  return cost;
}

}  // namespace sweep::core
