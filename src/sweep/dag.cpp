#include "sweep/dag.hpp"

#include <algorithm>
#include <stdexcept>

namespace sweep::dag {

SweepDag::SweepDag(std::size_t n_nodes,
                   std::span<const std::pair<NodeId, NodeId>> edges)
    : n_nodes_(n_nodes) {
  out_offsets_.assign(n_nodes + 1, 0);
  for (const auto& [u, v] : edges) {
    if (u >= n_nodes || v >= n_nodes) {
      throw std::invalid_argument("SweepDag: edge endpoint out of range");
    }
    ++out_offsets_[u + 1];
  }
  for (std::size_t i = 0; i < n_nodes; ++i) {
    out_offsets_[i + 1] += out_offsets_[i];
  }
  targets_.resize(edges.size());
  std::vector<std::uint32_t> out_cursor(out_offsets_.begin(), out_offsets_.end() - 1);
  for (const auto& [u, v] : edges) targets_[out_cursor[u]++] = v;
}

std::size_t SweepDag::longest_paths(std::vector<std::uint32_t>& level) const {
  level.assign(n_nodes_, 0);
  std::vector<std::uint32_t> indeg(n_nodes_, 0);
  for (NodeId w : targets_) ++indeg[w];
  std::vector<NodeId> queue;
  queue.reserve(n_nodes_);
  for (NodeId v = 0; v < n_nodes_; ++v) {
    if (indeg[v] == 0) queue.push_back(v);
  }
  std::size_t processed = 0;
  while (!queue.empty()) {
    const NodeId v = queue.back();
    queue.pop_back();
    ++processed;
    for (NodeId w : successors(v)) {
      level[w] = std::max(level[w], level[v] + 1);
      if (--indeg[w] == 0) queue.push_back(w);
    }
  }
  return processed;
}

bool SweepDag::is_acyclic() const {
  std::vector<std::uint32_t> level;
  return longest_paths(level) == n_nodes_;
}

std::vector<std::uint32_t> SweepDag::levels() const {
  std::vector<std::uint32_t> level;
  if (longest_paths(level) != n_nodes_) {
    throw std::logic_error("SweepDag::levels: graph has a cycle");
  }
  return level;
}

}  // namespace sweep::dag
