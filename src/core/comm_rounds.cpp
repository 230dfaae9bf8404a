#include "core/comm_rounds.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sweep/task_graph.hpp"

namespace sweep::core {
namespace {

/// Greedy edge coloring of a multigraph given as (u, v) endpoint pairs:
/// each edge takes the smallest color unused at both endpoints. Returns the
/// number of colors used (<= 2*Delta - 1).
std::size_t greedy_edge_color(
    const std::vector<std::pair<ProcessorId, ProcessorId>>& edges) {
  if (edges.empty()) return 0;
  // Per-endpoint bitmask of used colors, kept sparse via a map from
  // processor id to color bitset (vector<bool> sized lazily).
  struct Palette {
    std::vector<char> used;
  };
  std::vector<Palette> palettes;
  std::vector<std::uint32_t> palette_of;  // proc -> palette index + 1

  ProcessorId max_proc = 0;
  for (const auto& [u, v] : edges) max_proc = std::max({max_proc, u, v});
  palette_of.assign(static_cast<std::size_t>(max_proc) + 1, 0);

  auto palette_index = [&](ProcessorId p) -> std::size_t {
    if (palette_of[p] == 0) {
      palettes.emplace_back();
      palette_of[p] = static_cast<std::uint32_t>(palettes.size());
    }
    return palette_of[p] - 1;
  };

  std::size_t colors = 0;
  for (const auto& [u, v] : edges) {
    // Resolve both indices before taking references: palette_index may grow
    // the vector and would invalidate an earlier reference.
    const std::size_t iu = palette_index(u);
    const std::size_t iv = palette_index(v);
    Palette& pu = palettes[iu];
    Palette& pv = palettes[iv];
    std::size_t color = 0;
    for (;; ++color) {
      const bool used_u = color < pu.used.size() && pu.used[color];
      const bool used_v = color < pv.used.size() && pv.used[color];
      if (!used_u && !used_v) break;
    }
    if (color >= pu.used.size()) pu.used.resize(color + 1, 0);
    if (color >= pv.used.size()) pv.used.resize(color + 1, 0);
    pu.used[color] = 1;
    pv.used[color] = 1;
    colors = std::max(colors, color + 1);
  }
  return colors;
}

}  // namespace

CommRoundsResult realize_c2_rounds(const dag::TaskGraph& tg,
                                   const Schedule& schedule) {
  const std::uint32_t* cell = tg.cells().data();
  const std::size_t horizon = schedule.makespan();

  // Bucket messages by the step their source finishes.
  std::vector<std::vector<std::pair<ProcessorId, ProcessorId>>> by_step(horizon);
  CommRoundsResult result;
  for (std::size_t t = 0; t < tg.n_tasks(); ++t) {
    const TimeStep tu = schedule.start(t);
    if (tu == kUnscheduled) {
      throw std::invalid_argument("realize_c2_rounds: incomplete schedule");
    }
    const ProcessorId pu = schedule.processor_of_cell(cell[t]);
    for (dag::TaskGraph::Task succ : tg.successors(t)) {
      const ProcessorId pv = schedule.processor_of_cell(cell[succ]);
      if (pu != pv) {
        by_step[tu].push_back({pu, pv});
        ++result.total_messages;
      }
    }
  }

  std::vector<std::size_t> degree;
  for (auto& edges : by_step) {
    if (edges.empty()) continue;
    // Track the max total degree for the coloring-quality guarantee.
    degree.clear();
    ProcessorId max_proc = 0;
    for (const auto& [u, v] : edges) max_proc = std::max({max_proc, u, v});
    degree.assign(static_cast<std::size_t>(max_proc) + 1, 0);
    std::size_t delta = 0;
    for (const auto& [u, v] : edges) {
      delta = std::max({delta, ++degree[u], ++degree[v]});
    }
    result.max_total_degree = std::max(result.max_total_degree, delta);

    const std::size_t colors = greedy_edge_color(edges);
    result.total_rounds += colors;
    result.max_round_count = std::max(result.max_round_count, colors);
  }
  return result;
}

}  // namespace sweep::core
