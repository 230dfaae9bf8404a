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
  const std::vector<NodeId> order = topological_order(graph, direction);
  const std::size_t base = direction * n;

  // Relabel the direction's successor lists into position space: position p
  // is cell order[p], and every successor of p sits at a larger position.
  std::vector<std::uint32_t> position(n);
  for (std::size_t p = 0; p < n; ++p) {
    position[order[p]] = static_cast<std::uint32_t>(p);
  }
  std::vector<std::uint32_t> offsets(n + 1, 0);
  std::vector<std::uint32_t> targets;
  targets.reserve(graph.offsets()[base + n] - graph.offsets()[base]);
  for (std::size_t p = 0; p < n; ++p) {
    for (const TaskGraph::Task s : graph.successors(base + order[p])) {
      targets.push_back(position[s - base]);
    }
    offsets[p + 1] = static_cast<std::uint32_t>(targets.size());
  }

  // tile[p] = the kTileColumns columns of reach-row p covered by the
  // current strip: one cache line per position, reused across strips, so
  // the per-edge OR below never leaves L2 no matter how large n^2/8 gets.
  // Row p reaches only positions >= p, so strip [c0, c1) walks rows c1 - 1
  // down to 0. Strips run in increasing order, so the rows at c1 and past
  // it are still zero from this initialisation, which is their true value
  // in the strip: a successor there contributes nothing.
  std::vector<std::uint64_t> tile(n * kTileWords, 0);
  std::vector<std::uint64_t> reach(n, 0);  // per position, self included
  std::size_t strips = 0;
  std::size_t rows = 0;
  for (std::size_t c0 = 0; c0 < n; c0 += kTileColumns) {
    const std::size_t c1 = std::min(n, c0 + kTileColumns);
    for (std::size_t p = c1; p-- > 0;) {
      std::uint64_t* row = tile.data() + p * kTileWords;
      for (std::size_t j = 0; j < kTileWords; ++j) row[j] = 0;
      if (p >= c0) row[(p - c0) / 64] = 1ull << ((p - c0) % 64);
      for (std::uint32_t e = offsets[p]; e < offsets[p + 1]; ++e) {
        const std::uint64_t* srow = tile.data() + targets[e] * kTileWords;
        for (std::size_t j = 0; j < kTileWords; ++j) row[j] |= srow[j];
      }
      std::uint64_t popcount = 0;
      for (std::size_t j = 0; j < kTileWords; ++j) {
        popcount += static_cast<std::uint64_t>(__builtin_popcountll(row[j]));
      }
      reach[p] += popcount;
    }
    ++strips;
    rows += c1;
  }
  for (std::size_t p = 0; p < n; ++p) counts[order[p]] = reach[p] - 1;
  SWEEP_OBS_COUNTER_ADD("descendants.tiled.strips", strips);
  SWEEP_OBS_COUNTER_ADD("descendants.tiled.rows", rows);
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
