#include "transport/transport.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <stdexcept>

namespace sweep::transport {

using core::TaskId;

std::vector<TaskId> execution_order(const core::Schedule& schedule) {
  std::vector<TaskId> order(schedule.n_tasks());
  for (TaskId t = 0; t < order.size(); ++t) order[t] = t;
  std::sort(order.begin(), order.end(), [&](TaskId a, TaskId b) {
    if (schedule.start(a) != schedule.start(b)) {
      return schedule.start(a) < schedule.start(b);
    }
    if (schedule.processor_of(a) != schedule.processor_of(b)) {
      return schedule.processor_of(a) < schedule.processor_of(b);
    }
    return a < b;
  });
  return order;
}

std::vector<TaskId> sequential_order(const dag::TaskGraph& graph) {
  const std::size_t n = graph.n_cells();
  std::vector<TaskId> order;
  order.reserve(graph.n_tasks());
  for (std::size_t i = 0; i < graph.n_directions(); ++i) {
    for (dag::NodeId v : dag::topological_order(graph, i)) {
      order.push_back(core::task_id(v, static_cast<core::DirectionId>(i), n));
    }
  }
  return order;
}

TransportResult solve_transport(const mesh::UnstructuredMesh& mesh,
                                const dag::DirectionSet& directions,
                                const dag::SweepInstance& instance,
                                std::span<const TaskId> task_order,
                                const TransportOptions& options) {
  const std::size_t n = mesh.n_cells();
  const std::size_t k = directions.size();
  if (instance.n_cells() != n || instance.n_directions() != k) {
    throw std::invalid_argument("solve_transport: instance/mesh/directions mismatch");
  }
  if (task_order.size() != n * k) {
    throw std::invalid_argument("solve_transport: order must cover all tasks");
  }
  {
    std::vector<char> seen(n * k, 0);
    for (TaskId t : task_order) {
      if (t >= n * k || seen[t]) {
        throw std::invalid_argument("solve_transport: order is not a permutation");
      }
      seen[t] = 1;
    }
  }
  if (options.sigma_t <= 0.0) {
    throw std::invalid_argument("solve_transport: sigma_t must be positive");
  }
  if (!options.per_cell_source.empty() && options.per_cell_source.size() != n) {
    throw std::invalid_argument("solve_transport: per_cell_source size != n");
  }

  constexpr double kFourPi = 4.0 * std::numbers::pi;
  std::vector<double> psi(n * k, 0.0);
  std::vector<char> computed(n * k, 0);
  std::vector<double> phi(n, 0.0);
  std::vector<double> phi_new(n, 0.0);
  std::vector<double> emission(n, 0.0);

  TransportResult result;
  for (std::size_t iter = 0; iter < options.max_iterations; ++iter) {
    for (std::size_t c = 0; c < n; ++c) {
      const double q = options.per_cell_source.empty()
                           ? options.volumetric_source
                           : options.per_cell_source[c];
      emission[c] = (options.sigma_s * phi[c] + q) / kFourPi;
    }
    std::fill(computed.begin(), computed.end(), 0);

    for (TaskId t : task_order) {
      const auto c = core::task_cell(t, n);
      const auto i = core::task_direction(t, n);
      const mesh::Vec3& omega = directions.directions[i];
      const double volume = mesh.volume(c);
      double inflow = emission[c] * volume;
      double removal = options.sigma_t * volume;
      for (mesh::FaceId f : mesh.faces_of(c)) {
        const mesh::Face& face = mesh.face(f);
        const double mu = dot(omega, mesh.outward_normal(c, f));
        if (mu > options.flow_tolerance) {
          removal += mu * face.area;
        } else if (mu < -options.flow_tolerance) {
          double upwind = options.boundary_flux;
          if (!face.is_boundary()) {
            const mesh::CellId nb = mesh.neighbor_across(c, f);
            const TaskId up = core::task_id(nb, i, n);
            if (!computed[up]) {
              if (!options.allow_lagged_upwind) {
                throw std::logic_error(
                    "solve_transport: upwind value consumed before production "
                    "(task order violates precedence)");
              }
              ++result.lagged_uses;
            }
            upwind = psi[up];
          }
          inflow += -mu * face.area * upwind;
        }
      }
      psi[t] = inflow / removal;
      computed[t] = 1;
    }

    std::fill(phi_new.begin(), phi_new.end(), 0.0);
    for (std::size_t i = 0; i < k; ++i) {
      const double w = directions.weights[i];
      for (std::size_t c = 0; c < n; ++c) {
        phi_new[c] += w * psi[i * n + c];
      }
    }

    double max_change = 0.0;
    double max_flux = 0.0;
    for (std::size_t c = 0; c < n; ++c) {
      max_change = std::max(max_change, std::abs(phi_new[c] - phi[c]));
      max_flux = std::max(max_flux, std::abs(phi_new[c]));
    }
    phi.swap(phi_new);
    result.iterations = iter + 1;
    result.residual = max_flux > 0.0 ? max_change / max_flux : max_change;
    if (result.residual < options.tolerance) {
      result.converged = true;
      break;
    }
  }
  result.scalar_flux = std::move(phi);
  return result;
}

double infinite_medium_flux(const TransportOptions& options) {
  const double sigma_a = options.sigma_t - options.sigma_s;
  if (sigma_a <= 0.0) return 0.0;
  return options.volumetric_source / sigma_a;
}

}  // namespace sweep::transport
