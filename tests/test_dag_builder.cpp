#include "sweep/dag_builder.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "sweep/instance.hpp"
#include "test_helpers.hpp"

namespace sweep::dag {
namespace {

TEST(DagBuilder, GeometricInductionIsAcyclicOnGeneratedMeshes) {
  const mesh::UnstructuredMesh m = test::small_tet_mesh();
  for (const Vec3& d : level_symmetric(4).directions) {
    const DagBuildResult r = build_sweep_dag(m, d);
    EXPECT_TRUE(r.dag.is_acyclic());
    EXPECT_EQ(r.dropped_edges, 0u);
    EXPECT_EQ(r.dag.n_nodes(), m.n_cells());
    // Every interior face induces at most one edge.
    EXPECT_LE(r.dag.n_edges(), m.n_interior_faces());
  }
}

TEST(DagBuilder, EdgesFollowUpwindGeometry) {
  const mesh::UnstructuredMesh m = test::small_tet_mesh(5, 5, 2);
  const Vec3 d{1.0, 0.0, 0.0};
  const DagBuildResult r = build_sweep_dag(m, d);
  // Every edge u->v must have the centroid of v downstream of u... not
  // exactly (normals, not centroids, decide), but overwhelmingly so; verify
  // the face-normal criterion directly instead: reconstruct from faces.
  std::size_t expected_edges = 0;
  for (const mesh::Face& f : m.faces()) {
    if (!f.is_boundary() && std::abs(dot(f.unit_normal, d)) > 1e-9) {
      ++expected_edges;
    }
  }
  EXPECT_EQ(r.dag.n_edges(), expected_edges);
}

TEST(DagBuilder, OppositeDirectionReversesDag) {
  const mesh::UnstructuredMesh m = test::small_tet_mesh(5, 5, 2);
  const Vec3 d = mesh::normalized({0.3, -0.7, 0.2});
  const SweepDag forward = build_sweep_dag(m, d).dag;
  const SweepDag backward = build_sweep_dag(m, -d).dag;
  ASSERT_EQ(forward.n_edges(), backward.n_edges());
  for (NodeId u = 0; u < forward.n_nodes(); ++u) {
    for (NodeId v : forward.successors(u)) {
      // v -> u must exist in the reversed DAG.
      bool found = false;
      for (NodeId w : backward.successors(v)) {
        found = found || w == u;
      }
      EXPECT_TRUE(found) << u << "->" << v;
    }
  }
}

TEST(DagBuilder, MixedPrismTetMeshWorks) {
  const mesh::UnstructuredMesh m = test::small_mixed_mesh();
  for (const Vec3& d : axis_directions().directions) {
    const DagBuildResult r = build_sweep_dag(m, d);
    EXPECT_TRUE(r.dag.is_acyclic());
  }
}

/// Hand-built 3-cell "pinwheel" whose face normals form a directed cycle for
/// the direction (0,0,1)-perpendicular plane: normals at 120-degree spacing
/// in the xy plane all with positive component along the cycle.
mesh::UnstructuredMesh cyclic_mesh() {
  using mesh::Face;
  using mesh::Vec3;
  std::vector<Vec3> centroids = {{1.0, 0.0, 0.0},
                                 {-0.5, 0.866, 0.0},
                                 {-0.5, -0.866, 0.0}};
  std::vector<double> volumes = {1.0, 1.0, 1.0};
  auto mk = [](mesh::CellId a, mesh::CellId b, const Vec3& n) {
    Face f;
    f.cell_a = a;
    f.cell_b = b;
    f.unit_normal = mesh::normalized(n);
    f.area = 1.0;
    f.centroid = Vec3{0, 0, 0};
    return f;
  };
  // Normals chosen so that for direction dir = (1, 0.1, 0) each face induces
  // the cyclic orientation 0->1->2->0.
  std::vector<Face> faces = {
      mk(0, 1, {0.1, 1.0, 0.0}),    // dot > 0 for dir -> edge 0->1
      mk(1, 2, {0.1, -1.0, 0.0}),   // dot > 0? 0.1*1 + (-1)(0.1) = 0 -> adjust
      mk(2, 0, {1.0, 0.5, 0.0}),
  };
  faces[1] = mk(1, 2, {0.2, -1.0, 0.0});
  return mesh::UnstructuredMesh(std::move(centroids), std::move(volumes),
                                std::move(faces), "pinwheel");
}

TEST(DagBuilder, BreaksCyclesAndReportsDrops) {
  const mesh::UnstructuredMesh m = cyclic_mesh();
  const Vec3 dir = mesh::normalized({1.0, 0.1, 0.0});
  // Verify the raw induction really is cyclic: all three dots positive.
  int positive = 0;
  for (const mesh::Face& f : m.faces()) {
    if (dot(f.unit_normal, dir) > 1e-9) ++positive;
  }
  ASSERT_EQ(positive, 3);

  const DagBuildResult r = build_sweep_dag(m, dir);
  EXPECT_TRUE(r.dag.is_acyclic());
  EXPECT_EQ(r.induced_edges, 3u);
  EXPECT_GE(r.dropped_edges, 1u);
  EXPECT_LT(r.dropped_edges, 3u);
  // Still schedulable: levels computable.
  EXPECT_NO_THROW(r.dag.levels());
}

TEST(BuildInstance, ProducesOneDagPerDirection) {
  const mesh::UnstructuredMesh m = test::small_tet_mesh(5, 5, 2);
  const DirectionSet dirs = level_symmetric(2);
  InstanceBuildStats stats;
  const SweepInstance instance = build_instance(m, dirs, 1e-9, &stats);
  EXPECT_EQ(instance.n_directions(), 8u);
  EXPECT_EQ(instance.n_cells(), m.n_cells());
  EXPECT_EQ(instance.n_tasks(), 8 * m.n_cells());
  EXPECT_EQ(stats.total_dropped_edges, 0u);
  EXPECT_GT(stats.total_induced_edges, 0u);
  EXPECT_EQ(instance.total_edges(), stats.total_induced_edges);
  EXPECT_GE(instance.max_depth(), 2u);
  EXPECT_EQ(instance.name(), m.name());
}

TEST(BuildInstance, OppositePairsShareDepth) {
  // Level-symmetric sets come in +/- pairs; reversed DAGs have equal depth.
  const mesh::UnstructuredMesh m = test::small_tet_mesh(4, 4, 2);
  const Vec3 d = mesh::normalized({0.5, 0.5, 0.7});
  const SweepInstance a(m.n_cells(), {build_sweep_dag(m, d).dag});
  const SweepInstance b(m.n_cells(), {build_sweep_dag(m, -d).dag});
  EXPECT_EQ(a.max_depth(), b.max_depth());
}

}  // namespace
}  // namespace sweep::dag
