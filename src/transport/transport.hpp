#pragma once
// Minimal single-group discrete-ordinates (S_n) radiation transport solver —
// the application the paper's sweeps come from ("streaming-plus-collision"
// operator inversion). It is deliberately simple physics (first-order upwind
// finite volume, isotropic scattering, vacuum-or-constant boundary flux) but
// it executes each source-iteration sweep *in the task order produced by a
// sweep schedule*, demonstrating end-to-end that the scheduling layer feeds a
// real solver and that any feasible schedule yields the same answer as a
// sequential sweep.
//
// Per-cell upwind balance for direction w with outward face normals n_f:
//   psi_c = (sum_in |w.n_f| A_f psi_up(f) + s_c V_c)
//           / (sigma_t V_c + sum_out (w.n_f) A_f)
// where psi_up is the upwind neighbor's angular flux (already computed by
// precedence) or the boundary flux on boundary faces.

#include <cstdint>
#include <span>
#include <vector>
// (TransportOptions::per_cell_source allows spatially varying sources; the
// multigroup driver in multigroup.hpp uses it for downscatter sources.)

#include "core/schedule.hpp"
#include "mesh/mesh.hpp"
#include "sweep/directions.hpp"
#include "sweep/instance.hpp"

namespace sweep::transport {

struct TransportOptions {
  double sigma_t = 1.0;        ///< total cross section (1/cm)
  double sigma_s = 0.5;        ///< isotropic scattering cross section
  double volumetric_source = 1.0;  ///< isotropic source q (per unit volume)
  /// Optional per-cell source overriding volumetric_source (size n_cells).
  std::span<const double> per_cell_source = {};
  double boundary_flux = 0.0;  ///< incoming angular flux on the boundary
  std::size_t max_iterations = 200;
  double tolerance = 1e-8;     ///< relative scalar-flux change
  /// Flow tolerance: |omega . n| below this is treated as no flow across the
  /// face. Must match the DAG builder's tolerance or sweeps may consume
  /// values the precedence graph never ordered.
  double flow_tolerance = 1e-9;
  /// Cycle-broken meshes drop a few precedence edges; sweeping then consumes
  /// a not-yet-updated ("lagged") upwind value across those faces, as
  /// production transport codes do. false = treat as an error instead.
  bool allow_lagged_upwind = false;
};

struct TransportResult {
  std::vector<double> scalar_flux;  ///< phi per cell
  std::size_t iterations = 0;
  double residual = 0.0;            ///< final relative change
  bool converged = false;
  std::size_t lagged_uses = 0;      ///< upwind values consumed before update
};

/// Tasks sorted by (start time, processor) — a sequentialized execution of a
/// parallel schedule that respects all precedence constraints.
std::vector<core::TaskId> execution_order(const core::Schedule& schedule);

/// Per-direction topological order (the trivial serial schedule).
std::vector<core::TaskId> sequential_order(const dag::TaskGraph& graph);

/// Runs source iteration; each sweep executes tasks in `task_order`.
/// Throws std::invalid_argument if the order does not cover every task
/// exactly once; precedence violations surface as a std::logic_error when an
/// upwind value is consumed before it was produced.
TransportResult solve_transport(const mesh::UnstructuredMesh& mesh,
                                const dag::DirectionSet& directions,
                                const dag::SweepInstance& instance,
                                std::span<const core::TaskId> task_order,
                                const TransportOptions& options = {});

/// Analytic sanity value: for an infinite homogeneous pure-absorber medium,
/// phi = q / sigma_a. Interior cells of a large mesh should approach this.
double infinite_medium_flux(const TransportOptions& options);

}  // namespace sweep::transport
