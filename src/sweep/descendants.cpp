#include "sweep/descendants.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/obs.hpp"

namespace sweep::dag {

/// Columns per strip, in 64-bit words: 8 words = 512 columns = one 64-byte
/// cache line of scratch per node.
constexpr std::size_t kTileWords = 8;

std::vector<std::uint64_t> exact_descendant_counts(const TaskGraph& graph,
                                                   std::size_t direction) {
  if (direction >= graph.n_directions()) {
    throw std::out_of_range("exact_descendant_counts: direction out of range");
  }
  SWEEP_OBS_TIMER("descendants.exact_tiled");
  const std::size_t n = graph.n_cells();
  std::vector<std::uint64_t> counts(n, 0);
  if (n == 0) return counts;
  constexpr std::size_t kTileColumns = kTileWords * 64;
  const std::size_t strips = (n + kTileColumns - 1) / kTileColumns;
  const std::vector<NodeId> order = topological_order(graph, direction);
  const std::size_t base = direction * n;

  // tile[v] = the kTileColumns columns of reach-row v covered by the
  // current strip: one cache line per node, reused across strips, so the
  // per-edge OR below never leaves L2 no matter how large n^2/8 gets.
  std::vector<std::uint64_t> tile(n * kTileWords);
  for (std::size_t strip = 0; strip < strips; ++strip) {
    const std::size_t column_base = strip * kTileColumns;
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId v = *it;
      std::uint64_t* row = tile.data() + static_cast<std::size_t>(v) * kTileWords;
      for (std::size_t j = 0; j < kTileWords; ++j) row[j] = 0;
      const std::size_t local = static_cast<std::size_t>(v) - column_base;
      if (local < kTileColumns) row[local / 64] = 1ull << (local % 64);
      for (const TaskGraph::Task s : graph.successors(base + v)) {
        const std::uint64_t* srow = tile.data() + (s - base) * kTileWords;
        for (std::size_t j = 0; j < kTileWords; ++j) row[j] |= srow[j];
      }
      std::uint64_t popcount = 0;
      for (std::size_t j = 0; j < kTileWords; ++j) {
        popcount += static_cast<std::uint64_t>(__builtin_popcountll(row[j]));
      }
      counts[v] += popcount;
    }
  }
  for (std::size_t v = 0; v < n; ++v) --counts[v];  // exclude v itself
  SWEEP_OBS_COUNTER_ADD("descendants.tiled.strips", strips);
  return counts;
}

std::vector<std::uint64_t> exact_descendant_counts_reference(
    const TaskGraph& graph, std::size_t direction) {
  const std::size_t n = graph.n_cells();
  const std::size_t words = (n + 63) / 64;
  // reach[v] = bitset of nodes reachable from v (including v).
  std::vector<std::uint64_t> reach(n * words, 0);
  const std::vector<NodeId> order = topological_order(graph, direction);
  const std::size_t base = direction * n;
  std::vector<std::uint64_t> counts(n, 0);
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const NodeId v = *it;
    std::uint64_t* row = reach.data() + static_cast<std::size_t>(v) * words;
    row[v / 64] |= 1ull << (v % 64);
    for (const TaskGraph::Task s : graph.successors(base + v)) {
      const std::uint64_t* wrow = reach.data() + (s - base) * words;
      for (std::size_t i = 0; i < words; ++i) row[i] |= wrow[i];
    }
    std::uint64_t popcount = 0;
    for (std::size_t i = 0; i < words; ++i) {
      popcount += static_cast<std::uint64_t>(__builtin_popcountll(row[i]));
    }
    counts[v] = popcount - 1;  // exclude v itself
  }
  return counts;
}

std::vector<double> estimated_descendant_counts(const TaskGraph& graph,
                                                std::size_t direction,
                                                util::Rng& rng,
                                                std::size_t rounds) {
  if (rounds < 2) {
    throw std::invalid_argument("estimated_descendant_counts: rounds must be >= 2");
  }
  const std::size_t n = graph.n_cells();
  std::vector<double> min_sum(n, 0.0);
  std::vector<double> label(n);
  const std::vector<NodeId> order = topological_order(graph, direction);
  const std::size_t base = direction * n;
  for (std::size_t round = 0; round < rounds; ++round) {
    for (std::size_t v = 0; v < n; ++v) label[v] = rng.next_exponential(1.0);
    // Reverse topological order: min over self + successors' minima.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
      const NodeId v = *it;
      double lo = label[v];
      for (const TaskGraph::Task s : graph.successors(base + v)) {
        lo = std::min(lo, label[s - base]);
      }
      label[v] = lo;
      min_sum[v] += lo;
    }
  }
  std::vector<double> counts(n);
  const double numer = static_cast<double>(rounds - 1);
  for (std::size_t v = 0; v < n; ++v) {
    // Estimator counts the reachable set including v; subtract 1 and clamp.
    const double reach = min_sum[v] > 0.0 ? numer / min_sum[v] : 1.0;
    counts[v] = std::max(0.0, reach - 1.0);
  }
  return counts;
}

}  // namespace sweep::dag
