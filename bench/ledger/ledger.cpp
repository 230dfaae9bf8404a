// sweep_ledger: one benchmark from mesh to served schedule.
//
//   sweep_ledger --workload paper-sweep|fig-trials|serve-cold|serve-hot-swap
//                --seed N --seconds S --trace 0|1 --daemon PATH --run-dir DIR
//                [--toy]
//
// Every input derives from --seed. An untraced run (--trace 0) prints the
// end-to-end metrics; a traced run (--trace 1) arms the obs registry and
// Chrome trace, passes --metrics-out/--trace-out to the daemon, and prints
// the per-layer metrics. The first stdout line describes the host and
// build; the last is the result object. The exit code is nonzero when any
// schedule or response failed its check. bench/ledger/run.py builds this
// binary and the daemon and supplies --daemon and --run-dir.

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>

#include "obs/obs.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"
#include "workload.hpp"

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string json_number(const std::string& name, double v) {
  if (!std::isfinite(v)) {
    std::fprintf(stderr, "ledger: %s is not finite; reported as 0\n", name.c_str());
    v = 0.0;
  }
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", v);
  return buffer;
}

int run_main(int argc, char** argv) {
  using namespace ledger;
  sweep::util::CliParser cli("sweep_ledger",
                             "end-to-end and per-layer benchmark of the sweep pipeline");
  cli.add_option("workload", "", "paper-sweep, fig-trials, serve-cold or serve-hot-swap");
  cli.add_option("seed", "1", "seed every input derives from");
  cli.add_option("seconds", "25", "measurement budget of the run");
  cli.add_option("trace", "0", "1 = traced run reporting the per-layer metrics");
  cli.add_option("daemon", "", "sweep_serve binary (serve workloads and traced runs)");
  cli.add_option("run-dir", ".bench_build/ledger_run", "scratch directory");
  cli.add_option("git-sha", "unknown", "commit being measured (recorded only)");
  cli.add_flag("toy", "tiny inputs, for the smoke test");
  if (!cli.parse(argc, argv)) return 2;

  Config config;
  config.workload = cli.str("workload");
  config.seed = static_cast<std::uint64_t>(cli.integer("seed"));
  config.seconds = cli.real("seconds");
  config.traced = cli.integer("trace") != 0;
  config.toy = cli.flag("toy");
  config.daemon = cli.str("daemon");
  config.run_dir = cli.str("run-dir");
  const HostInfo host = host_info();
  config.nproc = host.nproc;
  const bool serve = config.workload == "serve-cold" || config.workload == "serve-hot-swap";
  if (config.workload != "paper-sweep" && config.workload != "fig-trials" && !serve) {
    std::fprintf(stderr, "unknown --workload '%s'\n", config.workload.c_str());
    return 2;
  }
  if ((serve || config.traced) && config.daemon.empty()) {
    std::fprintf(stderr, "--daemon is required for this run\n");
    return 2;
  }
  std::filesystem::create_directories(config.run_dir);

  std::printf(
      "{\"ledger_host\": {\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
      "\"trace\": %d, \"cpu\": %s, \"nproc\": %zu, \"l3_bytes\": %zu, "
      "\"git_sha\": %s, \"build_type\": %s, \"SWEEP_OBS\": %s, \"SWEEP_SIMD\": %s}}\n",
      json_string(config.workload).c_str(), static_cast<unsigned long long>(config.seed),
      json_number("seconds", config.seconds).c_str(), config.traced ? 1 : 0,
      json_string(host.cpu).c_str(), host.nproc, host.l3_bytes,
      json_string(cli.str("git-sha")).c_str(), json_string(SWEEP_LEDGER_BUILD_TYPE).c_str(),
      json_string(SWEEP_LEDGER_OBS).c_str(), json_string(SWEEP_LEDGER_SIMD).c_str());
  std::fflush(stdout);

  if (config.traced) {
    sweep::obs::set_metrics_enabled(true);
    sweep::obs::start_tracing();
  }
  Gate gate;
  const Metrics metrics =
      config.workload == "paper-sweep"  ? run_paper_sweep(config, gate)
      : config.workload == "fig-trials" ? run_fig_trials(config, gate)
                                        : run_serve(config, gate, config.workload == "serve-hot-swap");
  if (config.traced) {
    sweep::obs::stop_tracing();
    const std::string prefix = config.run_dir + "/" + config.workload + ".bench";
    if (!sweep::obs::write_trace_json(prefix + ".trace.json") ||
        !sweep::obs::write_metrics_json(prefix + ".metrics.json")) {
      std::fprintf(stderr, "ledger: cannot write %s.{trace,metrics}.json\n", prefix.c_str());
    }
  }

  std::string line = "{\"correct\": ";
  line += gate.failed() == 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(gate.attempted());
  line += ", \"failed\": " + std::to_string(gate.failed());
  line += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value_unit] : metrics.entries()) {
    line += first ? "" : ", ";
    first = false;
    line += json_string(name) + ": {\"value\": " + json_number(name, value_unit.first) +
            ", \"unit\": " + json_string(value_unit.second) + "}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return gate.failed() == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  return sweep::util::guarded_main([&] { return run_main(argc, argv); });
}
