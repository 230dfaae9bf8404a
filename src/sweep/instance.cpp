#include "sweep/instance.hpp"

#include <stdexcept>
#include <utility>

#include "obs/obs.hpp"
#include "sweep/dag_builder.hpp"
#include "sweep/descendants.hpp"
#include "util/parallel.hpp"

namespace sweep::dag {

std::unique_ptr<SweepInstance::DescendantCache> SweepInstance::empty_cache(
    std::size_t k) {
  auto cache = std::make_unique<DescendantCache>();
  cache->once = std::make_unique<std::once_flag[]>(k);
  cache->counts.resize(k);
  return cache;
}

namespace {

TaskGraph checked_graph(std::size_t n_cells, const std::vector<SweepDag>& dags) {
  for (const SweepDag& g : dags) {
    if (g.n_nodes() != n_cells) {
      throw std::invalid_argument(
          "SweepInstance: all DAGs must share the cell id space");
    }
  }
  // Zero directions is a legal (fully degenerate) instance, symmetric with
  // the n_cells == 0 support: it has no tasks, an empty task graph, and
  // round-trips through save_instance/load_instance.
  SWEEP_OBS_SCOPE("dag.task_graph.build");
  return TaskGraph::build(n_cells, dags);
}

}  // namespace

SweepInstance::SweepInstance(std::size_t n_cells, std::vector<SweepDag> dags,
                             std::string name)
    : graph_(std::make_unique<const TaskGraph>(checked_graph(n_cells, dags))),
      name_(std::move(name)),
      cache_(empty_cache(dags.size())) {}

SweepInstance::SweepInstance(const SweepInstance& other)
    : graph_(std::make_unique<const TaskGraph>(*other.graph_)),
      name_(other.name_),
      cache_(empty_cache(other.n_directions())) {}

SweepInstance& SweepInstance::operator=(const SweepInstance& other) {
  if (this != &other) *this = SweepInstance(other);
  return *this;
}

const std::vector<std::uint64_t>& SweepInstance::exact_descendant_counts(
    std::size_t i) const {
  // Checked before call_once: once[i] past the end is out of bounds.
  if (i >= n_directions()) {
    throw std::out_of_range(
        "SweepInstance::exact_descendant_counts: direction out of range");
  }
  std::call_once(cache_->once[i], [this, i] {
    SWEEP_OBS_SCOPE("dag.descendant_counts.build");
    cache_->counts[i] = dag::exact_descendant_counts(*graph_, i);
    SWEEP_OBS_COUNTER_ADD("dag.descendant_counts.builds", 1);
  });
  return cache_->counts[i];
}

std::size_t SweepInstance::max_depth() const {
  // max_level() reads 0 both for a single level and for no tasks at all.
  return n_tasks() == 0 ? 0
                        : static_cast<std::size_t>(graph_->max_level()) + 1;
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
