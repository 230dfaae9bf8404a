#pragma once
// Feasibility validation of schedules against the three constraints of the
// sweep scheduling problem (paper Section 3):
//   1. precedence within each direction DAG,
//   2. one task per processor per timestep, no preemption (unit tasks),
//   3. all copies of a cell on one processor (structural in our Schedule
//      representation, but re-checked via the assignment bounds).
// Used pervasively by tests and optionally by harnesses (--validate).

#include <string>

#include "core/schedule.hpp"
#include "sweep/task_graph.hpp"

namespace sweep::core {

struct ValidationResult {
  bool ok = true;
  std::string error;  ///< first violation found, empty when ok

  explicit operator bool() const { return ok; }
};

ValidationResult validate_schedule(const dag::TaskGraph& graph,
                                   const Schedule& schedule);

}  // namespace sweep::core
