#include "core/algorithms.hpp"

#include <stdexcept>

#include "core/assignment.hpp"
#include "core/list_scheduler.hpp"
#include "core/priorities.hpp"
#include "core/random_delay.hpp"

namespace sweep::core {

const std::vector<Algorithm>& all_algorithms() {
  static const std::vector<Algorithm> kAll = {
      Algorithm::kRandomDelay,          Algorithm::kRandomDelayPriorities,
      Algorithm::kImprovedRandomDelay,  Algorithm::kLevelPriorities,
      Algorithm::kDescendantPriorities, Algorithm::kDescendantDelays,
      Algorithm::kDfdsPriorities,       Algorithm::kDfdsDelays,
      Algorithm::kBLevelPriorities,
  };
  return kAll;
}

std::string algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kRandomDelay: return "random_delay";
    case Algorithm::kRandomDelayPriorities: return "rd_priorities";
    case Algorithm::kImprovedRandomDelay: return "improved_rd";
    case Algorithm::kLevelPriorities: return "level";
    case Algorithm::kDescendantPriorities: return "descendant";
    case Algorithm::kDescendantDelays: return "descendant_delays";
    case Algorithm::kDfdsPriorities: return "dfds";
    case Algorithm::kDfdsDelays: return "dfds_delays";
    case Algorithm::kBLevelPriorities: return "blevel";
  }
  return "unknown";
}

Algorithm algorithm_from_name(const std::string& name) {
  for (Algorithm a : all_algorithms()) {
    if (algorithm_name(a) == name) return a;
  }
  throw std::invalid_argument("unknown algorithm name: " + name);
}

Schedule run_algorithm(Algorithm algorithm, const dag::SweepInstance& instance,
                       std::size_t n_processors, util::Rng& rng,
                       Assignment assignment,
                       std::vector<TimeStep>* release_times) {
  const std::size_t n = instance.n_cells();
  if (assignment.empty()) {
    assignment = random_assignment(n, n_processors, rng);
  }
  if (release_times != nullptr) release_times->clear();
  // The delay variants' schedule, with their releases handed out after it.
  const auto gated = [&](std::span<const std::int64_t> priorities,
                         std::vector<TimeStep> releases) {
    ListScheduleOptions options;
    options.priorities = priorities;
    options.release_times = releases;
    Schedule schedule =
        list_schedule(instance, assignment, n_processors, options);
    if (release_times != nullptr) *release_times = std::move(releases);
    return schedule;
  };

  switch (algorithm) {
    case Algorithm::kRandomDelay:
      return random_delay_schedule(instance, n_processors, rng,
                                   std::move(assignment))
          .schedule;
    case Algorithm::kImprovedRandomDelay:
      return improved_random_delay_schedule(instance, n_processors, rng,
                                            std::move(assignment))
          .schedule;
    case Algorithm::kRandomDelayPriorities: {
      const auto delays = random_delays(instance.n_directions(), rng);
      const auto priorities = random_delay_priorities(instance, delays);
      ListScheduleOptions options;
      options.priorities = priorities;
      return list_schedule(instance, assignment, n_processors, options);
    }
    case Algorithm::kLevelPriorities: {
      const auto priorities = level_priorities(instance);
      ListScheduleOptions options;
      options.priorities = priorities;
      return list_schedule(instance, assignment, n_processors, options);
    }
    case Algorithm::kBLevelPriorities: {
      const auto priorities = blevel_priorities(instance);
      ListScheduleOptions options;
      options.priorities = priorities;
      return list_schedule(instance, assignment, n_processors, options);
    }
    case Algorithm::kDescendantPriorities: {
      const auto priorities = descendant_priorities(instance, rng);
      ListScheduleOptions options;
      options.priorities = priorities;
      return list_schedule(instance, assignment, n_processors, options);
    }
    case Algorithm::kDescendantDelays: {
      const auto priorities = descendant_priorities(instance, rng);
      const auto delays = random_delays(instance.n_directions(), rng);
      return gated(priorities, delay_release_times(instance, delays));
    }
    case Algorithm::kDfdsPriorities: {
      const auto priorities = dfds_priorities(instance, assignment);
      ListScheduleOptions options;
      options.priorities = priorities;
      return list_schedule(instance, assignment, n_processors, options);
    }
    case Algorithm::kDfdsDelays: {
      const auto priorities = dfds_priorities(instance, assignment);
      const auto delays = random_delays(instance.n_directions(), rng);
      return gated(priorities, delay_release_times(instance, delays));
    }
  }
  throw std::logic_error("run_algorithm: unhandled algorithm");
}

double approximation_ratio(const Schedule& schedule,
                           const LowerBounds& bounds) {
  const double lb = bounds.value();
  return lb > 0.0 ? static_cast<double>(schedule.makespan()) / lb : 0.0;
}

}  // namespace sweep::core
