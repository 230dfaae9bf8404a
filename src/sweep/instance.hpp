#pragma once
// SweepInstance: a full sweep-scheduling problem instance — n cells and one
// precedence DAG per direction over the same cell id space (paper Section 3),
// held as one flat TaskGraph over all n*k tasks. Instances are built
// geometrically from a mesh + direction set, or synthetically (random DAGs)
// for the non-geometric scenarios.

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "mesh/mesh.hpp"
#include "sweep/dag.hpp"
#include "sweep/directions.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::dag {

class SweepInstance {
 public:
  /// Flattens the per-direction DAGs into the instance's TaskGraph and drops
  /// them. Throws std::invalid_argument if a DAG's node count differs from
  /// n_cells or the instance outgrows 32-bit task ids or edge offsets, and
  /// std::logic_error if a DAG has a cycle.
  SweepInstance(std::size_t n_cells, std::vector<SweepDag> dags,
                std::string name = "");

  // The graph lives behind a unique_ptr, so &task_graph() survives moves. A
  // copy copies the graph and starts with an empty exact-count cache
  // (std::once_flag is neither movable nor copyable).
  SweepInstance(const SweepInstance& other);
  SweepInstance& operator=(const SweepInstance& other);
  SweepInstance(SweepInstance&&) noexcept = default;
  SweepInstance& operator=(SweepInstance&&) noexcept = default;
  ~SweepInstance() = default;

  [[nodiscard]] std::size_t n_cells() const { return graph_->n_cells(); }
  [[nodiscard]] std::size_t n_directions() const {
    return graph_->n_directions();
  }
  [[nodiscard]] std::size_t n_tasks() const { return graph_->n_tasks(); }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The flat all-tasks CSR every walk reads; its levels() hold every task's
  /// level, level(v, i) at task id i * n_cells + v.
  [[nodiscard]] const TaskGraph& task_graph() const { return *graph_; }

  /// An instance is its task graph wherever a function reads only n, k and
  /// the CSR (DESIGN.md §8.1), so those functions take a TaskGraph and an
  /// instance passes for one.
  operator const TaskGraph&() const { return *graph_; }

  /// Exact |descendants| of every cell in direction i (the tiled transitive
  /// closure, see sweep/descendants.hpp). The counts are rng-independent
  /// and trial-invariant, so they are cached per direction: the figure
  /// harnesses rebuild descendant priorities once per trial, and every
  /// rebuild after the first reuses this cache. Computed under a per-
  /// direction once_flag; safe to call concurrently. Unconditional — the
  /// caller gates on DAG size (dag::kDefaultExactThreshold); footprint is
  /// 8 bytes per task for the directions actually requested. Throws
  /// std::out_of_range if i >= n_directions().
  [[nodiscard]] const std::vector<std::uint64_t>& exact_descendant_counts(
      std::size_t i) const;

  /// Max number of levels over all directions (D in the paper); 0 for an
  /// instance without tasks.
  [[nodiscard]] std::size_t max_depth() const;

  /// Total number of precedence edges over all directions.
  [[nodiscard]] std::size_t total_edges() const { return graph_->n_edges(); }

 private:
  // Shared by concurrent schedule runs on one instance: one flag + slot per
  // direction, each slot filled exactly once under its flag (once_flag is
  // not movable, hence the raw array).
  struct DescendantCache {
    std::unique_ptr<std::once_flag[]> once;
    std::vector<std::vector<std::uint64_t>> counts;
  };

  static std::unique_ptr<DescendantCache> empty_cache(std::size_t k);

  std::unique_ptr<const TaskGraph> graph_;
  std::string name_;
  mutable std::unique_ptr<DescendantCache> cache_;
};

struct InstanceBuildStats {
  std::size_t total_induced_edges = 0;
  std::size_t total_dropped_edges = 0;
};

/// Builds the geometric instance: one DAG per direction in `dirs`.
SweepInstance build_instance(const mesh::UnstructuredMesh& mesh,
                             const DirectionSet& dirs, double tolerance = 1e-9,
                             InstanceBuildStats* stats = nullptr);

/// Same, with directions induced concurrently (they are independent reads
/// of the mesh); `threads` = 0 uses hardware concurrency, and
/// build_instance is this with `threads` = 1.
SweepInstance build_instance_parallel(const mesh::UnstructuredMesh& mesh,
                                      const DirectionSet& dirs,
                                      double tolerance = 1e-9,
                                      InstanceBuildStats* stats = nullptr,
                                      std::size_t threads = 0);

}  // namespace sweep::dag
