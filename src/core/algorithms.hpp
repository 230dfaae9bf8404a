#pragma once
// Uniform facade over every scheduling algorithm in the reproduction. The
// bench harnesses and examples drive this interface so each figure compares
// algorithms under identical assignments and instances.

#include <string>
#include <vector>

#include "core/lower_bounds.hpp"
#include "core/schedule.hpp"
#include "sweep/instance.hpp"
#include "util/rng.hpp"

namespace sweep::core {

enum class Algorithm {
  kRandomDelay,            ///< Algorithm 1 (layer-synchronous)
  kRandomDelayPriorities,  ///< Algorithm 2 (priority list scheduling)
  kImprovedRandomDelay,    ///< Algorithm 3 (greedy preprocessing + delays)
  kLevelPriorities,        ///< level list scheduling, no delays
  kDescendantPriorities,   ///< Plimpton-style descendant counts
  kDescendantDelays,       ///< descendants + random delay release times
  kDfdsPriorities,         ///< Pautz DFDS
  kDfdsDelays,             ///< DFDS + random delay release times
  kBLevelPriorities,       ///< critical-path-first (b-level) comparator
};
// Note: the KBA baseline is deliberately NOT in this enum — it needs the
// structured-grid geometry and its own assignment; see core/kba.hpp.

/// All algorithms, in presentation order.
const std::vector<Algorithm>& all_algorithms();

std::string algorithm_name(Algorithm algorithm);

/// Parses the names returned by algorithm_name; throws on unknown names.
Algorithm algorithm_from_name(const std::string& name);

/// Runs `algorithm` on `instance` with `n_processors`. If `assignment` is
/// empty a fresh uniform random per-cell assignment is drawn (the provable
/// setting); pass a block assignment for the Section 5 block experiments.
/// If `release_times` is non-null it receives the per-task release times the
/// list schedule ran under: the drawn delay releases of descendant-delays
/// and DFDS-delays, empty for every other algorithm.
Schedule run_algorithm(Algorithm algorithm, const dag::SweepInstance& instance,
                       std::size_t n_processors, util::Rng& rng,
                       Assignment assignment = {},
                       std::vector<TimeStep>* release_times = nullptr);

/// makespan / lower-bound ratio, the paper's plotted quantity.
double approximation_ratio(const Schedule& schedule,
                           const LowerBounds& bounds);

}  // namespace sweep::core
