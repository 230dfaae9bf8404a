#pragma once
// SweepInstance serialization: snapshot the exact DAGs of an experiment so a
// run can be replayed or shared without regenerating the mesh (useful for
// non-geometric instances, whose DAGs cannot be rebuilt from geometry).

#include <iosfwd>
#include <string>

#include "sweep/instance.hpp"

namespace sweep::dag {

/// Format: "sweepinst 1", name, n k, then per DAG: edge count and edge list.
void save_instance(const SweepInstance& instance, std::ostream& out);
void save_instance(const SweepInstance& instance, const std::string& path);

/// Throws std::runtime_error on malformed input, including a direction
/// whose edges form a cycle.
SweepInstance load_instance(std::istream& in);
SweepInstance load_instance(const std::string& path);

}  // namespace sweep::dag
