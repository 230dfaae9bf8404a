// The pipeline stages every workload shares, the per-layer metric list, and
// the traced-run probes that time, on the workload's own problem, each
// layer the workload loop itself does not call.

#include <algorithm>
#include <cstdio>

#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "mesh/zoo.hpp"
#include "serve/service.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace ledger {

namespace core = sweep::core;
namespace dag = sweep::dag;

Problem build_problem(Ledger& ledger, const std::string& mesh, double scale,
                      std::size_t sn_order, std::uint64_t jitter_seed) {
  sweep::mesh::UnstructuredMesh m = ledger.time("mesh.generate_s", 0, [&] {
    return sweep::mesh::MeshZoo::by_name(mesh, scale, jitter_seed);
  });
  dag::InstanceBuildStats stats;
  dag::SweepInstance instance = ledger.time("sweep.build_instance_s", 0, [&] {
    return dag::build_instance_parallel(m, dag::level_symmetric(sn_order), 1e-9,
                                        &stats);
  });
  const dag::TaskGraph& graph = ledger.time(
      "sweep.task_graph_s", 0,
      [&]() -> const dag::TaskGraph& { return instance.task_graph(); });
  ledger.add("sweep.dropped_edges", static_cast<double>(stats.total_dropped_edges));
  ledger.add("sweep.graph_bytes", static_cast<double>(graph_bytes(graph)));
  return Problem{std::move(instance), sweep::partition::graph_from_mesh(m)};
}

std::size_t graph_bytes(const dag::TaskGraph& graph) {
  return sizeof(std::uint32_t) *
         (graph.offsets().size() + graph.targets().size() + 3 * graph.n_tasks());
}

std::size_t scaled_block(std::size_t paper_block, double scale) {
  const double scaled = static_cast<double>(paper_block) * scale * scale * scale;
  return std::max<std::size_t>(1, static_cast<std::size_t>(scaled + 0.5));
}

const std::vector<FigAlgorithm>& fig_algorithms() {
  static const std::vector<FigAlgorithm> kAll = {
      {core::Algorithm::kRandomDelay, "core.alg.random_delay_ms"},
      {core::Algorithm::kRandomDelayPriorities, "core.alg.rd_priorities_ms"},
      {core::Algorithm::kImprovedRandomDelay, "core.alg.improved_rd_ms"},
      {core::Algorithm::kDescendantPriorities, "core.alg.descendant_ms"},
      {core::Algorithm::kDescendantDelays, "core.alg.descendant_delays_ms"},
      {core::Algorithm::kDfdsPriorities, "core.alg.dfds_ms"},
  };
  return kAll;
}

const std::vector<std::pair<std::string, std::string>>& per_layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> kAll = [] {
    std::vector<std::pair<std::string, std::string>> m = {
        {"mesh.generate_s", "s"},
        {"sweep.build_instance_s", "s"},
        {"sweep.dropped_edges", "count"},
        {"sweep.task_graph_s", "s"},
        {"sweep.graph_bytes", "bytes"},
        {"sweep.descendants_s", "s"},
        {"sweep.artifact.pack_s", "s"},
        {"sweep.artifact.bytes", "bytes"},
        {"sweep.artifact.load_s", "s"},
        {"partition.blocks_s", "s"},
        {"partition.edge_cut", "count"},
        {"core.prio.level_s", "s"},
        {"core.prio.random_delay_s", "s"},
        {"core.prio.descendant_s", "s"},
        {"core.prio.dfds_s", "s"},
    };
    for (const FigAlgorithm& a : fig_algorithms()) m.emplace_back(a.metric, "ms");
    const std::vector<std::pair<std::string, std::string>> rest = {
        {"core.sched.j1_s", "s"},
        {"core.sched.jN_s", "s"},
        {"core.sched.tasks_per_s.j1", "tasks/s"},
        {"core.sched.tasks_per_s.j2", "tasks/s"},
        {"core.sched.tasks_per_s.j4", "tasks/s"},
        {"core.sched.scaling_eff", "ratio"},
        {"core.sched.steals", "count"},
        {"core.sched.bytes_computed", "bytes"},
        {"core.sched.gbps_computed", "GB/s"},
        {"core.sched.bw_frac", "ratio"},
        {"core.c1_s", "s"},
        {"core.c2_s", "s"},
        {"core.lb_s", "s"},
        {"util.trials.busy_frac", "ratio"},
        {"util.trials.straggler_ratio", "ratio"},
        {"serve.wire.encode_ns", "ns"},
        {"serve.wire.decode_ns", "ns"},
        {"serve.handle.miss_ms", "ms"},
        {"serve.handle.hit_us", "us"},
        {"serve.cache.hit_ratio", "ratio"},
        {"serve.cache.inflight_waits", "count"},
        {"serve.cache.evictions", "count"},
        {"serve.cache.invalidations", "count"},
    };
    m.insert(m.end(), rest.begin(), rest.end());
    for (const char* phase : {"decode", "lookup", "schedule", "cost", "encode", "write"}) {
      m.emplace_back(std::string("serve.phase.") + phase + ".p50_us", "us");
      m.emplace_back(std::string("serve.phase.") + phase + ".p99_us", "us");
    }
    const std::vector<std::pair<std::string, std::string>> tail = {
        {"serve.swap_ms", "ms"},
        {"loadgen.late_p99_ms", "ms"},
        {"loadgen.backlog_max", "count"},
        {"loadgen.p50_ms.hi", "ms"},
        {"loadgen.p99_ms.hi", "ms"},
        {"host.stream_gbps", "GB/s"},
        {"host.kernel_ms", "ms"},
        {"obs.trace_overhead_pct", "%"},
    };
    m.insert(m.end(), tail.begin(), tail.end());
    return m;
  }();
  return kAll;
}

namespace {

std::uint64_t steals_so_far() {
  for (const auto& [name, value] :
       sweep::obs::MetricsRegistry::instance().snapshot().counters) {
    if (name == "engine.sharded.steals") return value;
  }
  return 0;
}

/// list_schedule at jobs 1, 2, 4 (and nproc) on one problem: throughput per
/// worker count, scaling efficiency, steals, and computed bytes per schedule.
void probe_engine_scaling(const Config& config, Ledger& ledger, Gate& gate,
                          const Problem& problem, std::size_t m,
                          std::uint64_t seed) {
  const dag::SweepInstance& instance = problem.instance;
  sweep::util::Rng rng(seed);
  const core::Assignment assignment =
      core::random_assignment(instance.n_cells(), m, rng);
  const auto priorities = core::random_delay_priorities(
      instance, core::random_delays(instance.n_directions(), rng));
  const bool fill_j1 = !ledger.has("core.sched.j1_s");
  const bool fill_jn = !ledger.has("core.sched.jN_s");
  const auto n_tasks = static_cast<double>(instance.n_tasks());
  std::uint64_t reference = 0;
  double t4 = 0.0;
  std::vector<std::size_t> worker_counts = {1, 2, 4};
  if (std::find(worker_counts.begin(), worker_counts.end(), config.nproc) ==
      worker_counts.end()) {
    worker_counts.push_back(config.nproc);
  }
  for (const std::size_t jobs : worker_counts) {
    std::vector<double> seconds;
    for (int rep = 0; rep < 3; ++rep) {
      core::ListScheduleOptions options;
      options.priorities = priorities;
      options.jobs = jobs;
      const std::uint64_t steals0 = steals_so_far();
      const double t0 = now_s();
      const core::Schedule schedule = [&] {
        const sweep::obs::TraceSpan span(
            jobs == 1 ? "core.sched.j1_s" : "core.sched.jN_s", "parent", rep);
        return core::list_schedule(instance, assignment, m, options);
      }();
      seconds.push_back(now_s() - t0);
      if (jobs == 4) {
        ledger.add("core.sched.steals", static_cast<double>(steals_so_far() - steals0));
      }
      const std::uint64_t hash = schedule_checksum(schedule);
      if (reference == 0) reference = hash;
      gate.expect_equal(hash, reference, "engine scaling: jobs=" + std::to_string(jobs));
      if (rep == 0 && jobs == 4 && !ledger.has("core.c2_s")) {
        ledger.time("core.c2_s", rep, [&] { return core::comm_cost_c2(instance, schedule); });
      }
    }
    for (const double s : seconds) {
      if (jobs == 1 && fill_j1) ledger.add("core.sched.j1_s", s);
      if (jobs == config.nproc && fill_jn) ledger.add("core.sched.jN_s", s);
    }
    const double med = median(seconds);
    ledger.add("core.sched.tasks_per_s.j" + std::to_string(jobs), n_tasks / med);
    if (jobs == 4) t4 = med;
  }
  ledger.add("core.sched.scaling_eff", ledger.median_of("core.sched.tasks_per_s.j4") /
                                           (4.0 * ledger.median_of("core.sched.tasks_per_s.j1")));
  // Computed bytes: the TaskGraph once, the i64 priorities, the u32 starts
  // written, the u32 assignment.
  const double bytes = static_cast<double>(graph_bytes(instance.task_graph())) +
                       n_tasks * (sizeof(std::int64_t) + sizeof(core::TimeStep)) +
                       static_cast<double>(instance.n_cells() * sizeof(core::ProcessorId));
  ledger.add("core.sched.bytes_computed", bytes);
  ledger.add("core.sched.gbps_computed", bytes / t4 / 1e9);
  if (!ledger.has("core.c1_s")) {
    ledger.time("core.c1_s", 0, [&] { return core::comm_cost_c1(instance, assignment); });
  }
  if (!ledger.has("core.lb_s")) {
    ledger.time("core.lb_s", 0, [&] { return core::compute_lower_bounds(instance, m); });
  }
}

/// One run_algorithm call per algorithm, fanned over the trial workers.
void probe_algorithms(const Config& config, Ledger& ledger, const Problem& problem,
                      std::size_t m, std::uint64_t seed) {
  const auto& algorithms = fig_algorithms();
  std::vector<double> point_s(algorithms.size());
  const double t0 = now_s();
  sweep::util::parallel_for(
      algorithms.size(),
      [&](std::size_t i) {
        sweep::util::Rng rng(sweep::util::split_seed(seed, i));
        const double p0 = now_s();
        ledger.time(algorithms[i].metric, static_cast<std::int64_t>(i), [&] {
          return core::run_algorithm(algorithms[i].algorithm, problem.instance, m, rng);
        }, 1e3);
        point_s[i] = now_s() - p0;
      },
      config.nproc);
  if (!ledger.has("util.trials.busy_frac")) {
    const double wall = now_s() - t0;
    double busy = 0.0;
    for (const double s : point_s) busy += s;
    ledger.add("util.trials.busy_frac",
               busy / (wall * static_cast<double>(std::min(config.nproc, point_s.size()))));
    ledger.add("util.trials.straggler_ratio",
               *std::max_element(point_s.begin(), point_s.end()) / median(point_s));
  }
}

/// ServeService::handle and the wire codec in process, on this problem's
/// artifact.
void probe_service(Ledger& ledger, const ServedArtifact& served, std::size_t count) {
  sweep::serve::ServeService service(dag::Artifact::map_file(served.path));
  const std::vector<sweep::serve::Request> queries =
      distinct_queries(count, 1, false);
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const auto id = static_cast<std::int64_t>(i);
    const sweep::serve::Response cold = ledger.time(
        "serve.handle.miss_ms", id, [&] { return service.handle(queries[i]); }, 1e3);
    ledger.time("serve.handle.hit_us", id, [&] { return service.handle(queries[i]); }, 1e6);
    constexpr int kReps = 200;
    double t0 = now_s();
    std::size_t sink = 0;
    for (int r = 0; r < kReps; ++r) {
      sink += sweep::serve::encode_request(queries[i]).size();
      sink += sweep::serve::encode_response(cold).size();
    }
    ledger.add("serve.wire.encode_ns", (now_s() - t0) / kReps * 1e9);
    const auto request_bytes = sweep::serve::encode_request(queries[i]);
    const auto response_bytes = sweep::serve::encode_response(cold);
    t0 = now_s();
    for (int r = 0; r < kReps; ++r) {
      sink += static_cast<std::size_t>(sweep::serve::decode_request(request_bytes).query.m);
      sink += sweep::serve::decode_response(response_bytes).query.makespan;
    }
    ledger.add("serve.wire.decode_ns", (now_s() - t0) / kReps * 1e9);
    if (sink == 0) std::fprintf(stderr, "wire probe: empty frames\n");
  }
}

/// A short daemon leg for workloads that do not serve: a closed-loop burst
/// sets the pace, then an open loop at 35% and 70% of it with one swap.
void probe_daemon(const Config& config, Ledger& ledger, Gate& gate,
                  const ServedArtifact& served) {
  Daemon daemon(config, served.path, "probe");
  const std::size_t n = 2 * config.nproc;
  PhaseResult closed = closed_loop(daemon, distinct_queries(n, 1000, false),
                                   config.nproc);
  const double capacity = static_cast<double>(n) / closed.wall;
  const auto open = [&](double rate, std::uint64_t first_seed, bool swap) {
    const std::size_t count = std::clamp<std::size_t>(
        static_cast<std::size_t>(2.0 * rate), 8, 400);
    std::vector<sweep::serve::Request> requests =
        distinct_queries(count, first_seed, false);
    if (swap) requests.insert(requests.begin() + count / 2, swap_request(served.path));
    return open_loop(daemon, requests,
                     poisson_arrivals(requests.size(), rate, first_seed),
                     config.nproc);
  };
  PhaseResult lo = open(0.35 * capacity, 100000, false);
  PhaseResult hi = open(0.7 * capacity, 200000, true);
  const std::vector<PhaseResult*> phases = {&closed, &lo, &hi};
  assign_epochs(phases);
  for (const PhaseResult* phase : phases) gate_outcomes(*phase, gate);
  for (const Outcome& o : hi.outcomes) {
    if (o.ok && o.request.type == sweep::serve::MsgType::kSwap) {
      ledger.add("serve.swap_ms", (o.done - o.sent) * 1e3);
    }
  }
  record_loadgen(ledger, lo, hi);
  record_daemon_stats(ledger, daemon);
  if (!daemon.shutdown()) gate.fail("sweep_serve did not shut down cleanly");
  Verifier verifier(ledger, gate);
  verify_phases(verifier, phases, {&served});
}

}  // namespace

void probe_layers(const Config& config, Ledger& ledger, Gate& gate,
                  const Problem& problem, std::size_t m, std::uint64_t seed) {
  const dag::SweepInstance& instance = problem.instance;
  if (!ledger.has("sweep.descendants_s")) {
    const dag::SweepInstance cold = instance;  // copies start with empty caches
    ledger.time("sweep.descendants_s", 0, [&] {
      sweep::util::parallel_for(cold.n_directions(), [&](std::size_t i) {
        (void)cold.exact_descendant_counts(i);
      });
    });
  }
  {
    sweep::util::Rng rng(sweep::util::split_seed(seed, 1));
    const core::Assignment assignment =
        core::random_assignment(instance.n_cells(), m, rng);
    if (!ledger.has("core.prio.level_s")) {
      ledger.time("core.prio.level_s", 0, [&] { return core::level_priorities(instance); });
    }
    if (!ledger.has("core.prio.random_delay_s")) {
      ledger.time("core.prio.random_delay_s", 0, [&] {
        return core::random_delay_priorities(
            instance, core::random_delays(instance.n_directions(), rng));
      });
    }
    if (!ledger.has("core.prio.descendant_s")) {
      ledger.time("core.prio.descendant_s", 0,
                  [&] { return core::descendant_priorities(instance, rng); });
    }
    if (!ledger.has("core.prio.dfds_s")) {
      ledger.time("core.prio.dfds_s", 0,
                  [&] { return core::dfds_priorities(instance, assignment); });
    }
  }
  if (!ledger.has(fig_algorithms().front().metric)) {
    probe_algorithms(config, ledger, problem, m, sweep::util::split_seed(seed, 2));
  }
  probe_engine_scaling(config, ledger, gate, problem, m, sweep::util::split_seed(seed, 3));

  // Serve layers on this problem's own artifact. Only the artifact metrics
  // the workload did not sample itself are taken from packing it.
  Ledger scratch(false);
  const ServedArtifact served =
      pack_served(scratch, problem, config.run_dir + "/probe.sweepart",
                  sweep::util::split_seed(seed, 4));
  for (const char* name :
       {"sweep.artifact.pack_s", "sweep.artifact.bytes", "sweep.artifact.load_s"}) {
    if (!ledger.has(name)) ledger.add(name, scratch.median_of(name));
  }
  probe_service(ledger, served, instance.n_tasks() > 1'000'000 ? 2 : 6);
  if (!ledger.has("serve.phase.schedule.p50_us")) {
    probe_daemon(config, ledger, gate, served);
  }
  ledger.add("host.stream_gbps", stream_triad_gbps(host_info().l3_bytes));
  for (int i = 0; i < 5; ++i) ledger.add("host.kernel_ms", host_kernel_s() * 1e3);
  ledger.add("core.sched.bw_frac", ledger.median_of("core.sched.gbps_computed") /
                                       ledger.median_of("host.stream_gbps"));
}

Metrics per_layer_report(const Ledger& ledger) {
  Metrics out;
  for (const auto& [name, unit] : per_layer_metrics()) {
    if (!ledger.has(name)) std::fprintf(stderr, "ledger: no samples for %s\n", name.c_str());
    out.add(name, ledger.median_of(name), unit);
  }
  return out;
}

}  // namespace ledger
