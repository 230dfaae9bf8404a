#pragma once
// Shared fixtures for the test suite: small meshes, instances and
// hand-crafted DAGs with known properties.

#include <cstdint>
#include <utility>
#include <vector>

#include "mesh/extrude.hpp"
#include "mesh/mesh.hpp"
#include "mesh/tri2d.hpp"
#include "obs/obs.hpp"
#include "sweep/dag.hpp"
#include "sweep/instance.hpp"

namespace sweep::test {

/// Small unstructured tet mesh (~nx*ny*2*layers*3 cells).
inline mesh::UnstructuredMesh small_tet_mesh(std::size_t nx = 7,
                                             std::size_t ny = 7,
                                             std::size_t layers = 4,
                                             double jitter = 0.3,
                                             std::uint64_t seed = 7) {
  const mesh::TriMesh2D base =
      mesh::make_grid_triangulation(nx, ny, 1.0, 1.0, jitter, seed);
  mesh::ExtrudeOptions opts;
  opts.layers = layers;
  opts.height = 0.6;
  opts.z_jitter = 0.2;
  opts.seed = seed + 1;
  opts.name = "test_tet";
  return mesh::extrude_to_3d(base, opts);
}

/// Mixed prism+tet mesh.
inline mesh::UnstructuredMesh small_mixed_mesh(std::size_t nx = 6,
                                               std::size_t layers = 4,
                                               std::size_t prism_layers = 2,
                                               std::uint64_t seed = 9) {
  const mesh::TriMesh2D base =
      mesh::make_grid_triangulation(nx, nx, 1.0, 1.0, 0.25, seed);
  mesh::ExtrudeOptions opts;
  opts.layers = layers;
  opts.height = 0.5;
  opts.z_jitter = 0.15;
  opts.prism_layers = prism_layers;
  opts.seed = seed + 1;
  opts.name = "test_mixed";
  return mesh::extrude_to_3d(base, opts);
}

/// DAG from an explicit edge list.
inline dag::SweepDag make_dag(std::size_t n,
                              std::vector<std::pair<dag::NodeId, dag::NodeId>> edges) {
  return dag::SweepDag(n, edges);
}

/// The one-direction instance of `g`: its TaskGraph's task ids are g's node
/// ids, and it passes for a TaskGraph wherever a walker reads one.
inline dag::SweepInstance one_direction(const dag::SweepDag& g) {
  return dag::SweepInstance(g.n_nodes(), {g});
}

/// A 9-cell digraph in the spirit of the paper's Figure 1 example, with
/// known levels: {0,1,3,6}, {2,4}, {5,7}, {8}.
inline dag::SweepDag figure1_dag() {
  return make_dag(9, {{0, 2}, {1, 4}, {1, 2}, {3, 4}, {2, 5}, {4, 7},
                      {4, 5}, {6, 7}, {5, 8}, {7, 8}});
}

// Counter assertions read metric values, which only exist when
// observability is compiled in (SWEEP_OBS=ON, the default).
#if !defined(SWEEP_OBS_DISABLE)
/// Current value of registry counter `name`; 0 if it was never incremented.
inline std::uint64_t counter_value_of(const char* name) {
  const auto snap = obs::MetricsRegistry::instance().snapshot();
  for (const auto& [n, v] : snap.counters) {
    if (n == name) return v;
  }
  return 0;
}
#endif

}  // namespace sweep::test
