#pragma once
// Shared plumbing for the figure-reproduction harnesses: common CLI options,
// instance construction, and trial averaging. Every binary accepts:
//   --scale S    mesh linear-scale multiplier (default 0.5; cells ~ S^3)
//   --full       paper-scale meshes (equivalent to --scale 1.0)
//   --trials T   trials per randomized data point (default 3)
//   --seed X     base RNG seed
//   --csv PATH   mirror the printed table to a CSV file
//   --validate   validate every schedule (slower)
//   --jobs J     parallel trial workers (0 = all cores, 1 = serial)

#include <cstdio>
#include <cstdlib>
#include <span>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/lower_bounds.hpp"
#include "core/validate.hpp"
#include "mesh/mesh_stats.hpp"
#include "mesh/zoo.hpp"
#include "obs/obs.hpp"
#include "partition/multilevel.hpp"
#include "sweep/instance.hpp"
#include "util/cli.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/timer.hpp"

namespace sweep::bench {

inline void add_common_options(util::CliParser& cli) {
  cli.add_option("scale", "0.5", "mesh linear scale (1.0 = paper size)");
  cli.add_flag("full", "run at paper scale (--scale 1.0)");
  cli.add_option("trials", "3", "trials per randomized data point");
  cli.add_option("seed", "12345", "base RNG seed");
  cli.add_option("csv", "", "mirror table to CSV file");
  cli.add_flag("validate", "validate every schedule produced");
  cli.add_option("jobs", "0",
                 "parallel trial workers (0 = all cores, 1 = serial)");
  cli.add_option("trace-out", "",
                 "write a Chrome trace-event JSON (chrome://tracing / "
                 "Perfetto) of the run to this path");
  cli.add_option("metrics-out", "",
                 "write the merged metrics registry (runtime timers + "
                 "schedule quality) as JSON to this path");
}

inline double resolve_scale(const util::CliParser& cli) {
  return cli.flag("full") ? 1.0 : cli.real("scale");
}

/// The process-wide trial fan-out width used by mean_makespan /
/// parallel_trials: 0 = all cores, 1 = serial. Results are identical either
/// way (see parallel_trials); this only trades wall-clock for cores.
inline std::size_t& trial_jobs() {
  static std::size_t jobs = 0;
  return jobs;
}

/// Output paths for the observability artifacts, shared with the atexit
/// flusher (which cannot capture state).
inline std::string& trace_out_path() {
  static std::string path;
  return path;
}
inline std::string& metrics_out_path() {
  static std::string path;
  return path;
}

inline void flush_observability_outputs() {
  if (!trace_out_path().empty()) {
    obs::stop_tracing();
    if (obs::write_trace_json(trace_out_path())) {
      std::fprintf(stderr, "[obs] trace written to %s\n",
                   trace_out_path().c_str());
    } else {
      std::fprintf(stderr, "[obs] FAILED to write trace to %s\n",
                   trace_out_path().c_str());
    }
  }
  if (!metrics_out_path().empty()) {
    if (obs::write_metrics_json(metrics_out_path())) {
      std::fprintf(stderr, "[obs] metrics written to %s\n",
                   metrics_out_path().c_str());
    } else {
      std::fprintf(stderr, "[obs] FAILED to write metrics to %s\n",
                   metrics_out_path().c_str());
    }
  }
}

/// Arms tracing / metrics collection per --trace-out / --metrics-out and
/// registers an atexit flusher, so every harness main() stays untouched
/// beyond its existing configure_jobs call.
inline void configure_observability(const util::CliParser& cli) {
  trace_out_path() = cli.str("trace-out");
  metrics_out_path() = cli.str("metrics-out");
  if (!trace_out_path().empty()) obs::start_tracing();
  if (!metrics_out_path().empty()) obs::set_metrics_enabled(true);
  if (trace_out_path().empty() && metrics_out_path().empty()) return;
  static bool registered = false;
  if (!registered) {
    registered = true;
    std::atexit(flush_observability_outputs);
  }
}

/// Reads --jobs into the process-wide fan-out width and arms observability.
/// Call once after parse.
inline void configure_jobs(const util::CliParser& cli) {
  trial_jobs() = static_cast<std::size_t>(cli.integer("jobs"));
  configure_observability(cli);
}

struct BenchInstance {
  mesh::UnstructuredMesh mesh;
  dag::DirectionSet directions;
  dag::SweepInstance instance;
  partition::Graph graph;
};

/// Builds mesh + S_n directions + DAGs + adjacency graph; prints a summary.
inline BenchInstance make_instance(const std::string& mesh_name, double scale,
                                   std::size_t sn_order,
                                   std::uint64_t seed = 100) {
  SWEEP_OBS_SCOPE("bench.make_instance");
  util::Timer timer;
  mesh::UnstructuredMesh m = mesh::MeshZoo::by_name(mesh_name, scale, seed);
  dag::DirectionSet dirs = dag::level_symmetric(sn_order);
  dag::InstanceBuildStats stats;
  dag::SweepInstance inst = dag::build_instance(m, dirs, 1e-9, &stats);
  partition::Graph graph = partition::graph_from_mesh(m);
  std::printf("[setup] mesh=%s %s\n", mesh_name.c_str(),
              to_string(mesh::compute_stats(m)).c_str());
  std::printf("[setup] k=%zu directions, %zu tasks, %zu edges, "
              "%zu cycle-broken, built in %.2fs\n",
              dirs.size(), inst.n_tasks(), inst.total_edges(),
              stats.total_dropped_edges, timer.seconds());
  return BenchInstance{std::move(m), std::move(dirs), std::move(inst),
                       std::move(graph)};
}

/// The paper's block sizes (64/128/256) are calibrated to its 31k-118k cell
/// meshes. At reduced scale the same absolute block size would leave far
/// fewer blocks than processors and the figures would only show granularity
/// starvation. Scaling the block size by scale^3 keeps the number of blocks
/// (and hence blocks-per-processor) in the paper's regime at any scale.
inline std::size_t scaled_block_size(std::size_t paper_block, double scale) {
  const double scaled = static_cast<double>(paper_block) * scale * scale * scale;
  return std::max<std::size_t>(1, static_cast<std::size_t>(scaled + 0.5));
}

/// Block partition via the multilevel partitioner (the METIS substitute).
inline partition::Partition make_blocks(const partition::Graph& graph,
                                        std::size_t block_size,
                                        std::uint64_t seed = 7) {
  SWEEP_OBS_SCOPE("bench.make_blocks");
  partition::MultilevelOptions options;
  options.seed = seed;
  return partition::partition_into_blocks(graph, block_size, options);
}

/// One data point of a trial batch: run `algorithm` on `n_processors`
/// processors (block->processor assignment drawn per trial when `blocks` is
/// non-null, fresh random per-cell assignment otherwise).
struct TrialSpec {
  core::Algorithm algorithm;
  std::size_t n_processors;
  const partition::Partition* blocks = nullptr;
};

/// Runs `trials` trials of every spec, fanning the (spec, trial) points
/// across the thread pool, and returns the per-spec mean makespans.
///
/// Determinism: trial `trial` of EVERY spec seeds its own Rng with
/// `seed + trial * 1000003` — exactly the per-trial seeding the serial loop
/// used — and the Welford reduction consumes the makespans in serial trial
/// order from a buffer, so the result is bit-identical for any `jobs`
/// (0 = all cores, 1 = serial). Optionally validates every schedule and
/// aborts on infeasibility.
inline std::vector<double> parallel_trials(const dag::SweepInstance& instance,
                                           std::span<const TrialSpec> specs,
                                           std::size_t trials,
                                           std::uint64_t seed, bool validate,
                                           std::size_t jobs = 0) {
  std::vector<double> means(specs.size(), 0.0);
  if (specs.empty() || trials == 0) return means;
  SWEEP_OBS_SPAN_ARGS("bench.parallel_trials", "specs",
                      static_cast<std::int64_t>(specs.size()), "trials",
                      static_cast<std::int64_t>(trials));
  SWEEP_OBS_TIMER("bench.parallel_trials");

  std::vector<double> makespans(specs.size() * trials);
  util::parallel_for(
      makespans.size(),
      [&](std::size_t idx) {
        const TrialSpec& spec = specs[idx / trials];
        const std::size_t trial = idx % trials;
        SWEEP_OBS_SPAN_ARGS("bench.trial", "spec",
                            static_cast<std::int64_t>(idx / trials), "trial",
                            static_cast<std::int64_t>(trial));
        util::Rng rng(seed + trial * 1000003);
        core::Assignment assignment;
        if (spec.blocks != nullptr) {
          assignment =
              core::block_assignment(*spec.blocks, spec.n_processors, rng);
        }
        const core::Schedule schedule = core::run_algorithm(
            spec.algorithm, instance, spec.n_processors, rng,
            std::move(assignment));
        if (validate) {
          const auto result = core::validate_schedule(instance, schedule);
          if (!result) {
            std::fprintf(stderr, "FATAL: invalid schedule (%s, m=%zu): %s\n",
                         core::algorithm_name(spec.algorithm).c_str(),
                         spec.n_processors, result.error.c_str());
            std::abort();
          }
        }
        makespans[idx] = static_cast<double>(schedule.makespan());
        SWEEP_OBS_COUNTER_ADD("bench.trials.completed", 1);
        SWEEP_OBS_OBSERVE("bench.trial.makespan", makespans[idx]);
      },
      jobs);

  for (std::size_t s = 0; s < specs.size(); ++s) {
    util::OnlineStats stats;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      stats.add(makespans[s * trials + trial]);
    }
    means[s] = stats.mean();
  }
  return means;
}

/// Runs `algorithm` `trials` times with per-trial RNGs (and fresh random
/// assignments unless `blocks` is non-null, in which case a fresh random
/// block->processor map per trial); returns mean makespan. Optionally
/// validates each schedule and aborts on infeasibility. Trials fan out
/// across trial_jobs() workers; the result is identical to the serial loop.
inline double mean_makespan(core::Algorithm algorithm,
                            const dag::SweepInstance& instance, std::size_t m,
                            std::size_t trials, std::uint64_t seed,
                            const partition::Partition* blocks,
                            bool validate) {
  const TrialSpec spec{algorithm, m, blocks};
  return parallel_trials(instance, {&spec, 1}, trials, seed, validate,
                         trial_jobs())[0];
}

/// Records the paper's plotted quality quantities for one schedule into the
/// metrics registry (no-op unless --metrics-out armed collection), so one
/// JSON artifact carries runtime timers AND algorithmic quality:
///   quality.makespan, quality.makespan_over_lb, quality.c1_cross_edges,
///   quality.c1_fraction, quality.c2_total_delay, quality.idle_fraction.
inline void record_schedule_quality(const dag::SweepInstance& instance,
                                    const core::Schedule& schedule) {
  if (!obs::metrics_enabled()) return;
  SWEEP_OBS_SPAN("bench.record_quality");
  const auto lb =
      core::compute_lower_bounds(instance, schedule.n_processors());
  const auto makespan = static_cast<double>(schedule.makespan());
  SWEEP_OBS_OBSERVE("quality.makespan", makespan);
  if (lb.value() > 0) {
    SWEEP_OBS_OBSERVE("quality.makespan_over_lb", makespan / lb.value());
  }
  const auto c1 = core::comm_cost_c1(instance, schedule.assignment());
  SWEEP_OBS_OBSERVE("quality.c1_cross_edges",
                    static_cast<double>(c1.cross_edges));
  SWEEP_OBS_OBSERVE("quality.c1_fraction", c1.fraction());
  const auto c2 = core::comm_cost_c2(instance, schedule);
  SWEEP_OBS_OBSERVE("quality.c2_total_delay",
                    static_cast<double>(c2.total_delay));
  const double slots =
      makespan * static_cast<double>(schedule.n_processors());
  if (slots > 0) {
    SWEEP_OBS_OBSERVE("quality.idle_fraction",
                      static_cast<double>(schedule.idle_slots()) / slots);
  }
}

/// Re-runs trial 0 of each spec and records its quality metrics. Called by
/// the harnesses after their trial batches; does nothing (and costs
/// nothing) unless metrics collection is armed.
inline void record_spec_quality(const dag::SweepInstance& instance,
                                std::span<const TrialSpec> specs,
                                std::uint64_t seed) {
  if (!obs::metrics_enabled()) return;
  SWEEP_OBS_SCOPE("bench.record_spec_quality");
  for (const TrialSpec& spec : specs) {
    util::Rng rng(seed);  // trial 0's RNG, per the seeding contract
    core::Assignment assignment;
    if (spec.blocks != nullptr) {
      assignment =
          core::block_assignment(*spec.blocks, spec.n_processors, rng);
    }
    const core::Schedule schedule = core::run_algorithm(
        spec.algorithm, instance, spec.n_processors, rng,
        std::move(assignment));
    record_schedule_quality(instance, schedule);
  }
}

inline std::vector<std::int64_t> default_proc_sweep() {
  return {8, 16, 32, 64, 128, 256, 512};
}

}  // namespace sweep::bench
