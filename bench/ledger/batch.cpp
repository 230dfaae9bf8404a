// The two batch workloads: paper-sweep (one large instance, the parallel
// engine and the partitioner) and fig-trials (the figure loop: many small
// schedules fanned over the trial workers).

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "core/validate.hpp"
#include "partition/multilevel.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace ledger {

namespace core = sweep::core;
namespace dag = sweep::dag;

namespace {

constexpr std::size_t kPaperBlock = 128;

void validate(const dag::SweepInstance& instance, const core::Schedule& schedule,
              Gate& gate, const std::string& what) {
  gate.attempt();
  const core::ValidationResult result = core::validate_schedule(instance, schedule);
  if (!result) gate.fail(what + ": " + result.error);
}

/// A batch workload's input: the problem and its partition into blocks,
/// both built in set-up.
struct PartitionedProblem {
  std::unique_ptr<Problem> problem;
  sweep::partition::Partition blocks;
};

}  // namespace

// ------------------------------------------------------------- paper-sweep

Metrics run_paper_sweep(const Config& config, Gate& gate) {
  const double scale = config.toy ? 0.2 : 0.8;
  const std::size_t order = config.toy ? 2 : 8;
  const std::size_t m = config.toy ? 16 : 512;
  const std::size_t block = scaled_block(kPaperBlock, scale);
  Ledger ledger(config.traced);
  EndToEndSamples e;
  // Set-up builds the problem and partitions it once; every pass schedules
  // the same partition with fresh priorities, as a user sweeping one mesh
  // many times would.
  const PartitionedProblem input = set_up(config.toy ? 1 : 3, e, [&] {
    PartitionedProblem out;
    out.problem = std::make_unique<Problem>(
        build_problem(ledger, "prismtet", scale, order, input_seed(config, 1)));
    sweep::partition::MultilevelOptions options;
    options.seed = input_seed(config, 2);
    out.blocks = ledger.time("partition.blocks_s", 0, [&] {
      return sweep::partition::partition_into_blocks(out.problem->graph, block, options);
    });
    return out;
  });
  const Problem& problem = *input.problem;
  const dag::SweepInstance& instance = problem.instance;
  const auto n_tasks = static_cast<double>(instance.n_tasks());
  std::fprintf(stderr, "paper-sweep: %zu cells x %zu directions = %zu tasks, %zu edges, m=%zu, block %zu\n",
               instance.n_cells(), instance.n_directions(), instance.n_tasks(),
               instance.task_graph().n_edges(), m, block);

  // Round-robin blocks: with ~1.7 blocks per processor a random block draw
  // makes the makespan a balls-in-bins maximum that swings 10% from seed to
  // seed; round-robin leaves the engine and the partition to decide it.
  const core::Assignment assignment = core::round_robin_block_assignment(input.blocks, m);
  ledger.add("partition.edge_cut",
             static_cast<double>(sweep::partition::edge_cut(problem.graph, input.blocks)));
  const core::LowerBounds lb =
      ledger.time("core.lb_s", 0, [&] { return core::compute_lower_bounds(instance, m); });
  e.c1_fraction.push_back(
      ledger.time("core.c1_s", 0, [&] { return core::comm_cost_c1(instance, assignment); })
          .fraction());

  // A pass schedules nproc random-delay problems at once, one per worker,
  // each at jobs=1: priorities, list_schedule, C2. Right after, the pass's
  // first problem runs again alone, the one-worker baseline on the same
  // host. The engine's own jobs>1 path is not timed here: it synchronises
  // its workers every superstep, so on a shared host one stalled vCPU stalls
  // them all, and during bursts of hypervisor steal that slowed one-worker
  // schedules by 10% it took 2-4x longer, for minutes at a time. Its
  // throughput is the per-layer core.sched.* rows; every run checks its
  // schedule against jobs=1 and the reference engine. The quality ratios
  // come from the first kPaperPasses passes only, so they depend on the seed
  // alone.
  constexpr std::size_t kPaperPasses = 2;
  const std::size_t workers = config.nproc;
  std::vector<std::int64_t> first_priorities;
  std::uint64_t first_hash = 0;
  OverheadProbe overhead(config.traced);
  const double budget = config.traced ? config.seconds / 2 : config.seconds;
  const double start = now_s();
  double last_pass = 0.0;
  for (std::size_t p = 0;
       p < kPaperPasses || now_s() - start + last_pass < budget; ++p) {
    const double pass_start = now_s();
    overhead.begin_pass(p);
    const auto problem_seed = [&](std::size_t i) {
      return sweep::util::split_seed(input_seed(config, 2000 + p), i);
    };
    // One problem: priorities from its seed, a jobs=1 schedule, C2.
    const auto solve = [&](std::size_t i, std::vector<std::int64_t>& priorities,
                           core::C2Cost& c2) {
      const auto id = static_cast<std::int64_t>(p * workers + i);
      sweep::util::Rng rng(problem_seed(i));
      priorities = ledger.time("core.prio.random_delay_s", id, [&] {
        return core::random_delay_priorities(
            instance, core::random_delays(instance.n_directions(), rng));
      });
      core::ListScheduleOptions options;
      options.priorities = priorities;
      core::Schedule schedule = ledger.time("core.sched.j1_s", id, [&] {
        return core::list_schedule(instance, assignment, m, options);
      });
      c2 = ledger.time("core.c2_s", id, [&] { return core::comm_cost_c2(instance, schedule); });
      return schedule;
    };
    std::vector<std::vector<std::int64_t>> priorities(workers);
    std::vector<core::Schedule> schedules(workers);
    std::vector<core::C2Cost> c2(workers);
    std::vector<double> op_s(workers);
    sweep::util::parallel_for(
        workers,
        [&](std::size_t i) {
          const double t0 = now_s();
          schedules[i] = solve(i, priorities[i], c2[i]);
          op_s[i] = now_s() - t0;
        },
        workers);
    const double wall = now_s() - pass_start;
    e.batch_s.push_back(wall);
    e.tasks_per_s.push_back(static_cast<double>(workers) * n_tasks / wall);
    overhead.end_pass(p, wall);
    for (std::size_t i = 0; i < workers; ++i) {
      e.latency_ms.push_back(op_s[i] * 1e3);
      if (p < kPaperPasses) {
        e.makespan_over_lb.push_back(static_cast<double>(schedules[i].makespan()) /
                                     lb.value());
        e.c2_delay_per_task.push_back(static_cast<double>(c2[i].total_delay) / n_tasks);
      }
    }
    gate.attempt(workers);

    std::vector<std::int64_t> alone_priorities;
    core::C2Cost alone_c2;
    const double t1 = now_s();
    const core::Schedule alone = solve(0, alone_priorities, alone_c2);
    const double alone_s = now_s() - t1;
    e.tasks_per_s_1t.push_back(n_tasks / alone_s);
    const std::uint64_t hash = schedule_checksum(schedules[0]);
    gate.expect_equal(schedule_checksum(alone), hash, "paper-sweep: one worker vs nproc workers");
    std::fprintf(stderr, "pass %zu: %.3f s for %zu problems (%.3f s median), %.3f s alone\n", p,
                 wall, workers, median(op_s), alone_s);

    // Checks, outside the timed pass.
    validate(instance, schedules[p % workers], gate, "paper-sweep pass " + std::to_string(p));
    e.sample_host_speed();
    last_pass = now_s() - pass_start;
    if (p == 0) {
      first_priorities = std::move(priorities[0]);
      first_hash = hash;
    }
  }
  // After the run, outside its budget: the first problem at jobs=nproc and
  // on the reference engine.
  core::ListScheduleOptions options;
  options.priorities = first_priorities;
  options.jobs = config.nproc;
  gate.expect_equal(schedule_checksum(core::list_schedule(instance, assignment, m, options)),
                    first_hash, "paper-sweep: jobs=nproc vs jobs=1");
  gate.expect_equal(
      schedule_checksum(core::list_schedule_reference(instance, assignment, m, options)),
      first_hash, "paper-sweep: list_schedule_reference vs jobs=1");
  e.peak_rss_mb = peak_rss_mb();

  Metrics end_to_end = end_to_end_metrics(e);
  if (!config.traced) return end_to_end;
  overhead.finish(ledger);
  probe_layers(config, ledger, gate, problem, m, input_seed(config, 9));
  return per_layer_report(ledger);
}

// -------------------------------------------------------------- fig-trials

namespace {

/// Recomputes a list-scheduling point of run_algorithm with the public
/// priority builders and checks jobs=nproc, jobs=1 and the reference engine
/// against the point's checksum. Algorithms 1 and 3 are not list schedules;
/// the serial rerun covers them.
void check_list_point(const Config& config, const dag::SweepInstance& instance,
                      core::Algorithm algorithm, const core::Assignment& assignment,
                      std::size_t m, sweep::util::Rng rng, std::uint64_t want,
                      Gate& gate) {
  std::vector<std::int64_t> priorities;
  std::vector<core::TimeStep> releases;
  const std::size_t k = instance.n_directions();
  switch (algorithm) {
    case core::Algorithm::kRandomDelayPriorities:
      priorities = core::random_delay_priorities(instance, core::random_delays(k, rng));
      break;
    case core::Algorithm::kDescendantPriorities:
      priorities = core::descendant_priorities(instance, rng);
      break;
    case core::Algorithm::kDescendantDelays:
      priorities = core::descendant_priorities(instance, rng);
      releases = core::delay_release_times(instance, core::random_delays(k, rng));
      break;
    case core::Algorithm::kDfdsPriorities:
      priorities = core::dfds_priorities(instance, assignment);
      break;
    default:
      return;
  }
  core::ListScheduleOptions options;
  options.priorities = priorities;
  options.release_times = releases;
  const std::string name = core::algorithm_name(algorithm);
  for (const std::size_t jobs : {config.nproc, std::size_t{1}}) {
    options.jobs = jobs;
    gate.expect_equal(
        schedule_checksum(core::list_schedule(instance, assignment, m, options)), want,
        "fig-trials " + name + ": jobs=" + std::to_string(jobs) + " vs run_algorithm");
  }
  gate.expect_equal(
      schedule_checksum(core::list_schedule_reference(instance, assignment, m, options)),
      want, "fig-trials " + name + ": list_schedule_reference vs run_algorithm");
}

}  // namespace

Metrics run_fig_trials(const Config& config, Gate& gate) {
  const double scale = config.toy ? 0.2 : 0.63;
  const std::size_t order = config.toy ? 2 : 4;
  const std::vector<std::size_t> procs =
      config.toy ? std::vector<std::size_t>{4, 16} : std::vector<std::size_t>{16, 64, 256};
  const std::size_t trials = config.toy ? 2 : 5;
  const auto& algorithms = fig_algorithms();
  const std::size_t n_points = algorithms.size() * procs.size() * trials;
  const std::size_t block = scaled_block(kPaperBlock, scale);

  Ledger ledger(config.traced);
  EndToEndSamples e;
  const PartitionedProblem fig = set_up(config.toy ? 1 : 5, e, [&] {
    PartitionedProblem out;
    out.problem = std::make_unique<Problem>(
        build_problem(ledger, "tetonly", scale, order, input_seed(config, 1)));
    sweep::partition::MultilevelOptions options;
    options.seed = input_seed(config, 2);
    out.blocks = ledger.time("partition.blocks_s", 0, [&] {
      return sweep::partition::partition_into_blocks(out.problem->graph, block, options);
    });
    return out;
  });
  ledger.add("partition.edge_cut",
             static_cast<double>(sweep::partition::edge_cut(fig.problem->graph, fig.blocks)));
  const dag::SweepInstance& instance = fig.problem->instance;
  const auto n_tasks = static_cast<double>(instance.n_tasks());
  std::fprintf(stderr, "fig-trials: %zu cells x %zu directions = %zu tasks, %zu points per pass\n",
               instance.n_cells(), instance.n_directions(), instance.n_tasks(), n_points);

  // Point idx: algorithm idx / (P*T), processors (idx / T) % P, trial idx % T.
  const auto point_m = [&](std::size_t idx) { return procs[(idx / trials) % procs.size()]; };
  const auto point_algorithm = [&](std::size_t idx) {
    return algorithms[idx / (trials * procs.size())];
  };
  const auto point_seed = [&](std::size_t pass, std::size_t idx) {
    return sweep::util::split_seed(input_seed(config, 3000 + pass), idx);
  };

  OverheadProbe overhead(config.traced);
  const double budget = config.traced ? config.seconds / 2 : config.seconds;
  const double start = now_s();
  double last_pass = 0.0;
  for (std::size_t p = 0;
       p < kQualityPasses || now_s() - start + last_pass < budget; ++p) {
    const double pass_start = now_s();
    overhead.begin_pass(p);
    std::vector<double> point_s(n_points);
    std::vector<std::uint64_t> hashes(n_points);
    std::vector<double> ratio(n_points), c1(n_points), c2(n_points);
    const double t0 = now_s();
    // A fresh copy per pass pays the exact descendant closure again.
    const dag::SweepInstance copy = instance;
    sweep::util::parallel_for(
        n_points,
        [&](std::size_t idx) {
          const auto id = static_cast<std::int64_t>(p * n_points + idx);
          const std::size_t m = point_m(idx);
          const double p0 = now_s();
          sweep::util::Rng rng(point_seed(p, idx));
          const core::Assignment assignment = core::block_assignment(fig.blocks, m, rng);
          const core::Schedule schedule = ledger.time(point_algorithm(idx).metric, id, [&] {
            return core::run_algorithm(point_algorithm(idx).algorithm, copy, m, rng,
                                       assignment);
          }, 1e3);
          const core::LowerBounds lb = ledger.time(
              "core.lb_s", id, [&] { return core::compute_lower_bounds(copy, m); });
          c1[idx] = ledger.time("core.c1_s", id, [&] {
            return core::comm_cost_c1(copy, schedule.assignment(), 1);
          }).fraction();
          c2[idx] = static_cast<double>(ledger.time("core.c2_s", id, [&] {
            return core::comm_cost_c2(copy, schedule);
          }).total_delay) / n_tasks;
          ratio[idx] = static_cast<double>(schedule.makespan()) / lb.value();
          hashes[idx] = schedule_checksum(schedule);
          point_s[idx] = now_s() - p0;
        },
        config.nproc);
    const double wall = now_s() - t0;
    e.batch_s.push_back(wall);
    overhead.end_pass(p, wall);
    e.tasks_per_s.push_back(static_cast<double>(n_points) * n_tasks / wall);
    double busy = 0.0;
    for (std::size_t idx = 0; idx < n_points; ++idx) {
      busy += point_s[idx];
      e.latency_ms.push_back(point_s[idx] * 1e3);
      if (p < kQualityPasses) {
        e.makespan_over_lb.push_back(ratio[idx]);
        e.c1_fraction.push_back(c1[idx]);
        e.c2_delay_per_task.push_back(c2[idx]);
      }
    }
    gate.attempt(n_points);
    ledger.add("util.trials.busy_frac", busy / (wall * static_cast<double>(config.nproc)));
    ledger.add("util.trials.straggler_ratio",
               *std::max_element(point_s.begin(), point_s.end()) / median(point_s));

    // Checks, outside the timed pass. Pass 0: one point per algorithm rerun
    // serially and, for the list schedules, rebuilt through list_schedule
    // at jobs=nproc and 1 and the reference. Every pass: one point
    // (rotating algorithm, processors and trial) rerun and validated.
    for (std::size_t a = 0; a < algorithms.size(); ++a) {
      if (p > 0 && a != p % algorithms.size()) continue;
      const std::size_t idx = a * trials * procs.size() + (p % procs.size()) * trials + p % trials;
      const std::size_t m = point_m(idx);
      sweep::util::Rng rng(point_seed(p, idx));
      const core::Assignment assignment = core::block_assignment(fig.blocks, m, rng);
      const sweep::util::Rng after_assignment = rng;
      const core::Schedule rerun =
          core::run_algorithm(algorithms[a].algorithm, copy, m, rng, assignment);
      gate.expect_equal(schedule_checksum(rerun), hashes[idx],
                        "fig-trials: serial rerun vs fan-out (" +
                            core::algorithm_name(algorithms[a].algorithm) + ")");
      if (p == 0) {
        check_list_point(config, copy, algorithms[a].algorithm, assignment, m,
                         after_assignment, hashes[idx], gate);
      }
      if (a == p % algorithms.size()) validate(copy, rerun, gate, "fig-trials");
    }

    // The same work on one worker, right after the pass so both see the
    // same host: trial 0 of every (algorithm, m) of this pass, on a fresh
    // copy.
    const double t1 = now_s();
    const dag::SweepInstance serial_copy = instance;
    std::size_t points = 0;
    for (std::size_t idx = 0; idx < n_points; idx += trials, ++points) {
      sweep::util::Rng rng(point_seed(p, idx));
      const std::size_t m = point_m(idx);
      const core::Assignment assignment = core::block_assignment(fig.blocks, m, rng);
      const core::Schedule schedule =
          core::run_algorithm(point_algorithm(idx).algorithm, serial_copy, m, rng, assignment);
      gate.expect_equal(schedule_checksum(schedule), hashes[idx],
                        "fig-trials: one worker vs fan-out");
    }
    e.tasks_per_s_1t.push_back(static_cast<double>(points) * n_tasks / (now_s() - t1));
    e.sample_host_speed();
    last_pass = now_s() - pass_start;
  }
  e.peak_rss_mb = peak_rss_mb();

  Metrics end_to_end = end_to_end_metrics(e);
  if (!config.traced) return end_to_end;
  overhead.finish(ledger);
  probe_layers(config, ledger, gate, *fig.problem, procs[procs.size() / 2],
                 input_seed(config, 9));
  return per_layer_report(ledger);
}

}  // namespace ledger
