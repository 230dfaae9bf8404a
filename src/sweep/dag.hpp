#pragma once
// SweepDag: the per-direction precedence DAG over mesh cells, stored as an
// out-adjacency CSR. It is construction input: the geometric and random
// builders produce one per direction, and SweepInstance flattens them into
// its TaskGraph (sweep/task_graph.hpp), which every walk after that reads.
// Also provides the level machinery of the paper (Section 3).

#include <cstdint>
#include <span>
#include <vector>

namespace sweep::dag {

using NodeId = std::uint32_t;

class SweepDag {
 public:
  SweepDag() = default;

  /// Builds CSR structure from an edge list over n nodes.
  /// Does NOT check acyclicity — call is_acyclic()/levels() for that.
  SweepDag(std::size_t n_nodes, std::span<const std::pair<NodeId, NodeId>> edges);

  [[nodiscard]] std::size_t n_nodes() const { return n_nodes_; }
  [[nodiscard]] std::size_t n_edges() const { return targets_.size(); }

  [[nodiscard]] std::span<const NodeId> successors(NodeId v) const {
    return {targets_.data() + out_offsets_[v],
            out_offsets_[v + 1] - out_offsets_[v]};
  }
  [[nodiscard]] std::size_t out_degree(NodeId v) const {
    return out_offsets_[v + 1] - out_offsets_[v];
  }

  /// True iff the digraph has no directed cycle (Kahn's algorithm).
  [[nodiscard]] bool is_acyclic() const;

  /// Level of each node per the paper's definition: roots are level 0; a
  /// node's level is 1 + max level of its predecessors (longest path from a
  /// root). Throws std::logic_error if the graph has a cycle.
  [[nodiscard]] std::vector<std::uint32_t> levels() const;

 private:
  /// Kahn's algorithm over the out-CSR, indegrees counted from the targets:
  /// fills `level` and returns how many nodes it reached (n_nodes() iff the
  /// graph is acyclic).
  std::size_t longest_paths(std::vector<std::uint32_t>& level) const;

  std::size_t n_nodes_ = 0;
  std::vector<std::uint32_t> out_offsets_ = {0};
  std::vector<NodeId> targets_;
};

}  // namespace sweep::dag
