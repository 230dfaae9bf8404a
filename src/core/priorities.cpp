#include "core/priorities.hpp"

#include <algorithm>
#include <cmath>
#include <span>
#include <stdexcept>

#include "obs/obs.hpp"
#include "sweep/descendants.hpp"
#include "sweep/task_graph.hpp"
#include "util/parallel.hpp"

namespace sweep::core {
namespace {

/// b-level of every cell of direction i (nodes on its longest path to a
/// sink; sinks have 1), by one backward walk of its topological order.
std::vector<std::uint32_t> b_levels(const dag::TaskGraph& g, DirectionId i,
                                    std::span<const dag::NodeId> order) {
  const std::size_t n = g.n_cells();
  const std::size_t base = static_cast<std::size_t>(i) * n;
  std::vector<std::uint32_t> blevel(n, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    std::uint32_t below = 0;
    for (const dag::TaskGraph::Task s : g.successors(base + *it)) {
      below = std::max(below, blevel[s - base]);
    }
    blevel[*it] = below + 1;
  }
  return blevel;
}

/// Direction i's DFDS priority slice (off-processor-children rule).
void fill_dfds_slice(const dag::TaskGraph& g, const Assignment& assignment,
                     DirectionId i, std::vector<std::int64_t>& out) {
  const std::size_t n = g.n_cells();
  const std::size_t base = static_cast<std::size_t>(i) * n;
  const std::vector<dag::NodeId> order = dag::topological_order(g, i);
  const std::vector<std::uint32_t> blevel = b_levels(g, i, order);
  std::uint32_t depth = 0;
  for (std::uint32_t b : blevel) depth = std::max(depth, b);
  const auto big_c = static_cast<std::int64_t>(depth);  // C >= #levels

  // Reverse topological order, so children are finalized before parents.
  std::vector<std::int64_t> prio(n, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const dag::NodeId v = *it;
    std::int64_t max_offproc_blevel = -1;
    std::int64_t max_child_prio = -1;
    for (const dag::TaskGraph::Task s : g.successors(base + v)) {
      const std::size_t w = s - base;
      if (assignment[w] != assignment[v]) {
        max_offproc_blevel =
            std::max(max_offproc_blevel, static_cast<std::int64_t>(blevel[w]));
      }
      max_child_prio = std::max(max_child_prio, prio[w]);
    }
    if (max_offproc_blevel >= 0) {
      prio[v] = big_c + max_offproc_blevel;
    } else if (max_child_prio > 0) {
      prio[v] = max_child_prio - 1;
    } else {
      prio[v] = 0;  // no off-processor descendants
    }
  }
  for (CellId v = 0; v < n; ++v) {
    out[task_id(v, i, n)] = -prio[v];  // higher preferred
  }
}

}  // namespace

std::vector<TimeStep> random_delays(std::size_t n_directions, util::Rng& rng) {
  std::vector<TimeStep> delays(n_directions);
  for (auto& x : delays) {
    x = static_cast<TimeStep>(rng.next_below(n_directions));
  }
  return delays;
}

std::vector<std::int64_t> level_priorities(const dag::TaskGraph& graph) {
  const std::span<const std::uint32_t> level = graph.levels();
  return {level.begin(), level.end()};
}

std::vector<std::int64_t> random_delay_priorities(
    const dag::TaskGraph& graph, const std::vector<TimeStep>& delays,
    std::size_t jobs) {
  if (delays.size() != graph.n_directions()) {
    throw std::invalid_argument("random_delay_priorities: delays size != k");
  }
  SWEEP_OBS_TIMER("priorities.random_delay");
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  const std::span<const std::uint32_t> level = graph.levels();
  std::vector<std::int64_t> priorities(n * k);
  util::parallel_for(
      k,
      [&](std::size_t i) {
        const auto delay = static_cast<std::int64_t>(delays[i]);
        const std::size_t base = i * n;
        for (std::size_t v = 0; v < n; ++v) {
          priorities[base + v] =
              static_cast<std::int64_t>(level[base + v]) + delay;
        }
      },
      jobs);
  return priorities;
}

std::vector<std::int64_t> descendant_priorities(
    const dag::SweepInstance& instance, util::Rng& rng, std::size_t jobs) {
  SWEEP_OBS_SPAN_ARGS("priorities.descendant", "k",
                      static_cast<std::int64_t>(instance.n_directions()),
                      "n", static_cast<std::int64_t>(instance.n_cells()));
  SWEEP_OBS_TIMER("priorities.descendant");
  const std::size_t n = instance.n_cells();
  const std::size_t k = instance.n_directions();
  // One draw splits the caller's stream; each direction then owns an
  // order-independent stream (see the stream-splitting note in rng.hpp).
  const std::uint64_t base = rng();
  std::vector<std::int64_t> priorities(n * k);
  util::parallel_for(
      k,
      [&](std::size_t i) {
        if (n <= dag::kDefaultExactThreshold) {
          // Exact counts are rng-independent and trial-invariant, so reuse
          // the instance-level cache: the figure harnesses rebuild these
          // priorities once per trial and pay for the transitive closure
          // only on the first call. The stream draw above is still
          // consumed, so the caller's rng advances alike on both paths.
          const std::vector<std::uint64_t>& counts =
              instance.exact_descendant_counts(i);
          for (CellId v = 0; v < n; ++v) {
            priorities[task_id(v, static_cast<DirectionId>(i), n)] =
                -static_cast<std::int64_t>(counts[v]);
          }
        } else {
          util::Rng dir_rng = util::Rng::for_stream(base, i);
          const std::vector<double> counts =
              dag::estimated_descendant_counts(instance, i, dir_rng);
          for (CellId v = 0; v < n; ++v) {
            priorities[task_id(v, static_cast<DirectionId>(i), n)] =
                -static_cast<std::int64_t>(std::llround(counts[v]));
          }
        }
      },
      jobs);
  return priorities;
}

std::vector<std::int64_t> blevel_priorities(const dag::TaskGraph& graph,
                                            std::size_t jobs) {
  SWEEP_OBS_TIMER("priorities.blevel");
  const std::size_t n = graph.n_cells();
  std::vector<std::int64_t> priorities(graph.n_tasks());
  util::parallel_for(
      graph.n_directions(),
      [&](std::size_t i) {
        const auto dir = static_cast<DirectionId>(i);
        const std::vector<std::uint32_t> blevel =
            b_levels(graph, dir, dag::topological_order(graph, i));
        // Deeper remaining path runs first -> negate for the min-first engine.
        for (CellId v = 0; v < n; ++v) {
          priorities[task_id(v, dir, n)] = -static_cast<std::int64_t>(blevel[v]);
        }
      },
      jobs);
  return priorities;
}

std::vector<std::int64_t> dfds_priorities(const dag::TaskGraph& graph,
                                          const Assignment& assignment,
                                          std::size_t jobs) {
  if (assignment.size() != graph.n_cells()) {
    throw std::invalid_argument("dfds_priorities: assignment size != n_cells");
  }
  SWEEP_OBS_TIMER("priorities.dfds");
  std::vector<std::int64_t> priorities(graph.n_tasks());
  util::parallel_for(
      graph.n_directions(),
      [&](std::size_t i) {
        fill_dfds_slice(graph, assignment, static_cast<DirectionId>(i),
                        priorities);
      },
      jobs);
  return priorities;
}

std::vector<TimeStep> delay_release_times(const dag::TaskGraph& graph,
                                          const std::vector<TimeStep>& delays) {
  if (delays.size() != graph.n_directions()) {
    throw std::invalid_argument("delay_release_times: delays size != k");
  }
  const std::size_t n = graph.n_cells();
  const std::size_t k = graph.n_directions();
  std::vector<TimeStep> releases(n * k);
  for (DirectionId i = 0; i < k; ++i) {
    std::fill_n(releases.begin() + static_cast<std::ptrdiff_t>(i * n), n,
                delays[i]);
  }
  return releases;
}

}  // namespace sweep::core
