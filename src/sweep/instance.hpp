#pragma once
// SweepInstance: a full sweep-scheduling problem instance — n cells and one
// precedence DAG per direction over the same cell id space (paper Section 3).
// Instances are built geometrically from a mesh + direction set, or
// synthetically (random DAGs) for the non-geometric scenarios.

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
  SweepInstance(std::size_t n_cells, std::vector<SweepDag> dags,
                std::string name = "");

  // The lazy caches live behind a unique_ptr (std::once_flag is neither
  // movable nor copyable); copies start with fresh, empty caches.
  SweepInstance(const SweepInstance& other);
  SweepInstance& operator=(const SweepInstance& other);
  SweepInstance(SweepInstance&&) noexcept = default;
  SweepInstance& operator=(SweepInstance&&) noexcept = default;
  ~SweepInstance() = default;

  [[nodiscard]] std::size_t n_cells() const { return n_cells_; }
  [[nodiscard]] std::size_t n_directions() const { return dags_.size(); }
  [[nodiscard]] std::size_t n_tasks() const { return n_cells_ * dags_.size(); }
  [[nodiscard]] const SweepDag& dag(std::size_t i) const { return dags_[i]; }
  [[nodiscard]] const std::vector<SweepDag>& dags() const { return dags_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  /// The flat all-tasks CSR consumed by the scheduling engine; its levels()
  /// hold every task's level, level(v, i) at task id i * n_cells + v. Built
  /// lazily on first call and cached; safe to call concurrently.
  [[nodiscard]] const TaskGraph& task_graph() const;

  /// An instance is its task graph wherever sweep_core reads only n, k and
  /// the CSR (DESIGN.md §8.1), so those functions take a TaskGraph and an
  /// instance passes for one.
  operator const TaskGraph&() const { return task_graph(); }

  /// Exact |descendants| of every cell in direction i (the tiled transitive
  /// closure, see sweep/descendants.hpp). The counts are rng-independent
  /// and trial-invariant, so they are cached per direction: the figure
  /// harnesses rebuild descendant priorities once per trial, and every
  /// rebuild after the first reuses this cache. Computed under a per-
  /// direction once_flag; safe to call concurrently. Unconditional — the
  /// caller gates on DAG size (dag::kDefaultExactThreshold); footprint is
  /// 8 bytes per task for the directions actually requested.
  [[nodiscard]] const std::vector<std::uint64_t>& exact_descendant_counts(
      std::size_t i) const;

  /// Max number of levels over all directions (D in the paper); 0 for an
  /// instance without tasks.
  [[nodiscard]] std::size_t max_depth() const;

  /// Total number of precedence edges over all DAGs.
  [[nodiscard]] std::size_t total_edges() const;

 private:
  // Lazily computed, shared by concurrent schedule runs on one instance:
  // each member is built exactly once under its once_flag.
  struct LazyCaches {
    std::once_flag task_graph_once;
    TaskGraph task_graph;
    // One flag + slot per direction (sized at construction; once_flag is
    // not movable, hence the raw array).
    std::unique_ptr<std::once_flag[]> descendant_once;
    std::vector<std::vector<std::uint64_t>> descendant_counts;
  };

  static std::unique_ptr<LazyCaches> fresh_caches(std::size_t k);

  std::size_t n_cells_;
  std::vector<SweepDag> dags_;
  std::string name_;
  mutable std::unique_ptr<LazyCaches> caches_;
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
