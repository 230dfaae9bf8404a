#include "sweep/instance.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/descendants.hpp"
#include "util/parallel.hpp"

namespace sweep::dag {

std::unique_ptr<SweepInstance::LazyCaches> SweepInstance::fresh_caches(
    std::size_t k) {
  auto caches = std::make_unique<LazyCaches>();
  caches->descendant_once = std::make_unique<std::once_flag[]>(k);
  caches->descendant_counts.resize(k);
  return caches;
}

SweepInstance::SweepInstance(std::size_t n_cells, std::vector<SweepDag> dags,
                             std::string name)
    : n_cells_(n_cells),
      dags_(std::move(dags)),
      name_(std::move(name)),
      caches_(fresh_caches(dags_.size())) {
  for (const SweepDag& g : dags_) {
    if (g.n_nodes() != n_cells_) {
      throw std::invalid_argument(
          "SweepInstance: all DAGs must share the cell id space");
    }
  }
  // Zero directions is a legal (fully degenerate) instance, symmetric with
  // the n_cells == 0 support: it has no tasks, an empty task graph, and
  // round-trips through save_instance/load_instance.
}

SweepInstance::SweepInstance(const SweepInstance& other)
    : n_cells_(other.n_cells_),
      dags_(other.dags_),
      name_(other.name_),
      caches_(fresh_caches(dags_.size())) {}

SweepInstance& SweepInstance::operator=(const SweepInstance& other) {
  if (this != &other) {
    n_cells_ = other.n_cells_;
    dags_ = other.dags_;
    name_ = other.name_;
    caches_ = fresh_caches(dags_.size());
  }
  return *this;
}

const TaskGraph& SweepInstance::task_graph() const {
  std::call_once(caches_->task_graph_once, [this] {
    SWEEP_OBS_SCOPE("dag.task_graph.build");
    caches_->task_graph = TaskGraph::build(n_cells_, dags_);
    SWEEP_OBS_COUNTER_ADD("dag.task_graph.builds", 1);
  });
  return caches_->task_graph;
}

const std::vector<std::uint64_t>& SweepInstance::exact_descendant_counts(
    std::size_t i) const {
  std::call_once(caches_->descendant_once[i], [this, i] {
    SWEEP_OBS_SCOPE("dag.descendant_counts.build");
    caches_->descendant_counts[i] =
        dag::exact_descendant_counts(dags_[i], dags_[i].n_nodes());
    SWEEP_OBS_COUNTER_ADD("dag.descendant_counts.builds", 1);
  });
  return caches_->descendant_counts[i];
}

std::size_t SweepInstance::max_depth() const {
  // max_level() reads 0 both for a single level and for no tasks at all.
  return n_tasks() == 0
             ? 0
             : static_cast<std::size_t>(task_graph().max_level()) + 1;
}

std::size_t SweepInstance::total_edges() const {
  std::size_t total = 0;
  for (const SweepDag& g : dags_) total += g.n_edges();
  return total;
}

SweepInstance build_instance(const mesh::UnstructuredMesh& mesh,
                             const DirectionSet& dirs, double tolerance,
                             InstanceBuildStats* stats) {
  // parallel_for with one thread runs inline on the caller.
  return build_instance_parallel(mesh, dirs, tolerance, stats, 1);
}

SweepInstance build_instance_parallel(const mesh::UnstructuredMesh& mesh,
                                      const DirectionSet& dirs,
                                      double tolerance,
                                      InstanceBuildStats* stats,
                                      std::size_t threads) {
  std::vector<DagBuildResult> results(dirs.size());
  // Each direction reads the mesh and writes only its own slot: no locking.
  util::parallel_for(
      dirs.size(),
      [&](std::size_t i) {
        results[i] = build_sweep_dag(mesh, dirs.directions[i], tolerance);
      },
      threads);
  InstanceBuildStats local;
  std::vector<SweepDag> dags;
  dags.reserve(dirs.size());
  for (DagBuildResult& r : results) {
    local.total_induced_edges += r.induced_edges;
    local.total_dropped_edges += r.dropped_edges;
    dags.push_back(std::move(r.dag));
  }
  if (stats != nullptr) *stats = local;
  return SweepInstance(mesh.n_cells(), std::move(dags), mesh.name());
}

}  // namespace sweep::dag
