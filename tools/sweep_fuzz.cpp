// sweep_fuzz: seeded differential-fuzzing and invariant-checking harness.
//
// Two modes:
//   campaign (default): sample --trials scenarios from --seed, run the full
//     oracle bank on each across --jobs threads, shrink any failure and
//     write self-contained .sweepfuzz repro files into --repro-dir. Exit
//     status 0 iff every oracle held.
//   --replay FILE: reload one .sweepfuzz repro and run the oracle bank on
//     exactly that scenario. Exit status 0 iff it no longer fails.
//
// Campaigns are deterministic in (--trials, --seed) regardless of --jobs:
// trial t always fuzzes the scenario sampled from Rng(seed + t * 1000003).

#include <cstdio>
#include <exception>
#include <string>

#include "fuzz/campaign.hpp"
#include "fuzz/oracles.hpp"
#include "fuzz/scenario.hpp"
#include "util/cli.hpp"

namespace {

using namespace sweep;

int replay(const std::string& path) {
  const fuzz::Repro repro = fuzz::load_repro(path);
  std::printf("replaying %s (oracle hint: %s)\n", path.c_str(),
              repro.oracle.c_str());
  std::printf("%s", fuzz::to_text(repro.scenario).c_str());
  const fuzz::OracleReport report = fuzz::run_oracles(repro.scenario);
  std::printf("checks run: %zu\n", report.checks_run);
  if (report.ok()) {
    std::printf("OK: no oracle violations\n");
    return 0;
  }
  for (const auto& v : report.violations) {
    std::printf("VIOLATION [%s] %s\n", v.oracle.c_str(), v.message.c_str());
  }
  return 1;
}

int campaign(const fuzz::CampaignOptions& options) {
  const fuzz::CampaignResult result = fuzz::run_campaign(options);
  std::printf("sweep_fuzz: %zu trials, %zu oracle checks, %zu failure(s)\n",
              result.trials, result.checks, result.failures.size());
  for (const auto& failure : result.failures) {
    std::printf("--- trial %zu: [%s] %s\n", failure.trial,
                failure.violation.oracle.c_str(),
                failure.violation.message.c_str());
    std::printf("shrunk scenario:\n%s",
                fuzz::to_text(failure.shrunk).c_str());
    if (!failure.repro_path.empty()) {
      std::printf("repro written: %s\n", failure.repro_path.c_str());
    }
  }
  return result.ok() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  util::CliParser cli("sweep_fuzz",
                      "seeded differential fuzzing of the sweep schedulers");
  cli.add_option("trials", "200", "number of fuzz trials in campaign mode");
  cli.add_option("seed", "1", "campaign base seed (trial t uses seed + t*1000003)");
  cli.add_option("jobs", "0", "worker threads (0 = all cores, 1 = serial)");
  cli.add_option("repro-dir", "", "directory for .sweepfuzz repro files");
  cli.add_option("replay", "", "replay one .sweepfuzz repro instead of fuzzing");
  cli.add_flag("no-shrink", "report failures without minimizing them");
  if (!cli.parse(argc, argv)) return 2;

  try {
    const std::string replay_path = cli.str("replay");
    if (!replay_path.empty()) return replay(replay_path);

    fuzz::CampaignOptions options;
    options.trials = cli.non_negative("trials");
    options.seed = static_cast<std::uint64_t>(cli.integer("seed"));
    options.jobs = cli.non_negative("jobs");
    options.shrink = !cli.flag("no-shrink");
    options.repro_dir = cli.str("repro-dir");
    return campaign(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep_fuzz: %s\n", e.what());
    return 2;
  }
}
