// The two serve workloads: serve-cold (every key distinct, so every request
// computes a schedule and the cache is pure overhead) and serve-hot-swap
// (Zipf keys over two artifacts swapped every 4 s, so hits, evictions,
// invalidation and single-flight refills dominate).

#include <algorithm>
#include <array>
#include <cstdio>
#include <map>
#include <memory>
#include <set>
#include <tuple>

#include "core/lower_bounds.hpp"
#include "serve/client.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace ledger {

namespace {

using sweep::serve::MsgType;
using sweep::serve::Request;
using sweep::serve::Scheme;

/// Offered rates of the two open-loop phases, requests/s, calibrated once
/// on the 4-core host and never recalibrated. serve-cold's closed-loop
/// capacity on 4 connections measured 290 to 540 requests/s there on
/// different days; at kRateLo the daemon stays under a third busy even on a
/// slow day, so the measured latency is mostly service time, not a queue
/// whose length swings with the host's speed. kRateHi is twice kRateLo.
/// Both workloads use them.
constexpr double kRateLo = 100.0;
constexpr double kRateHi = 200.0;
constexpr double kToyRateLo = 50.0;
constexpr double kToyRateHi = 100.0;

/// Closed-loop burst pairs every run makes: one burst on nproc connections,
/// one on a single connection. A fixed count, so every run of a seed sends
/// the same key sequence.
constexpr std::size_t kBurstPairs = 16;

/// Key universe of serve-hot-swap: 3 schemes x 2 processor counts x 1,000
/// seeds, drawn with Zipf(s = 1) popularity over a seeded key order.
class ZipfKeys {
 public:
  static constexpr std::size_t kSeeds = 1000;
  static constexpr std::size_t kKeys = 3 * 2 * kSeeds;

  ZipfKeys(std::uint64_t order_seed, std::uint64_t first_seed)
      : first_seed_(first_seed), cdf_(kKeys), order_(kKeys) {
    double sum = 0.0;
    for (std::size_t r = 0; r < kKeys; ++r) {
      sum += 1.0 / static_cast<double>(r + 1);
      cdf_[r] = sum;
    }
    for (double& c : cdf_) c /= sum;
    for (std::size_t k = 0; k < kKeys; ++k) order_[k] = k;
    sweep::util::Rng rng(order_seed);
    rng.shuffle(order_);
  }

  std::vector<Request> draw(std::size_t count, sweep::util::Rng& rng) const {
    std::vector<Request> out(count);
    for (Request& r : out) {
      const auto rank = static_cast<std::size_t>(
          std::lower_bound(cdf_.begin(), cdf_.end(), rng.next_double()) - cdf_.begin());
      const std::size_t key = order_[std::min(rank, kKeys - 1)];
      r.type = MsgType::kQuery;
      r.query.scheme = static_cast<Scheme>(key % 3);
      r.query.m = kServeProcs[(key / 3) % 2];
      r.query.seed = first_seed_ + key / 6;
    }
    return out;
  }

 private:
  std::uint64_t first_seed_;
  std::vector<double> cdf_;
  std::vector<std::size_t> order_;
};

struct ServeSetup {
  std::unique_ptr<Problem> a;
  std::unique_ptr<Problem> b;
  ServedArtifact artifact_a;
  ServedArtifact artifact_b;
  std::unique_ptr<Daemon> daemon;
};

std::uint64_t stats_entry(const sweep::serve::StatsResponse& stats,
                          const std::string& key) {
  for (const auto& [k, v] : stats.entries) {
    if (k == key) return v;
  }
  return 0;
}

}  // namespace

Metrics run_serve(const Config& config, Gate& gate, bool hot_swap) {
  const double scale = config.toy ? 0.2 : 0.4;
  const std::size_t order = config.toy ? 2 : 4;
  const double rate_lo = config.toy ? kToyRateLo : kRateLo;
  const double rate_hi = config.toy ? kToyRateHi : kRateHi;
  const std::string base = config.run_dir + "/" + config.workload;
  Ledger ledger(config.traced);
  EndToEndSamples e;
  ServeSetup s = set_up(config.toy ? 1 : 5, e, [&] {
    ServeSetup out;
    out.a = std::make_unique<Problem>(
        build_problem(ledger, "tetonly", scale, order, input_seed(config, 1)));
    out.artifact_a = pack_served(ledger, *out.a, base + ".A.sweepart", input_seed(config, 3));
    if (hot_swap) {
      // Same mesh family, another jitter seed: different content hash.
      out.b = std::make_unique<Problem>(
          build_problem(ledger, "tetonly", scale, order, input_seed(config, 2)));
      out.artifact_b = pack_served(ledger, *out.b, base + ".B.sweepart", input_seed(config, 4));
    }
    out.daemon = std::make_unique<Daemon>(config, out.artifact_a.path, config.workload);
    return out;
  });
  const sweep::dag::SweepInstance& instance = s.a->instance;
  const auto n_tasks = static_cast<double>(instance.n_tasks());
  std::vector<const ServedArtifact*> artifacts = {&s.artifact_a};
  if (hot_swap) artifacts.push_back(&s.artifact_b);
  std::fprintf(stderr, "%s: %zu cells x %zu directions = %zu tasks, rates %.0f / %.0f req/s\n",
               config.workload.c_str(), instance.n_cells(), instance.n_directions(),
               instance.n_tasks(), rate_lo, rate_hi);

  // Keys: serve-cold never repeats one (seeds count up); serve-hot-swap
  // draws from the Zipf universe.
  std::uint64_t next_seed = input_seed(config, 100) >> 20;
  const ZipfKeys zipf(input_seed(config, 5), input_seed(config, 6) >> 20);
  sweep::util::Rng draw_rng(input_seed(config, 7));
  const auto queries = [&](std::size_t count) {
    if (hot_swap) return zipf.draw(count, draw_rng);
    std::vector<Request> out = distinct_queries(count, next_seed, true);
    next_seed += count;
    return out;
  };

  // Closed loop: bursts on nproc connections (kind 0) and on one connection
  // (kind 1). serve-hot-swap swaps to the other artifact before every burst,
  // so each burst refills a cold cache: its misses, hits and single-flight
  // waits follow from its Zipf draw alone, not from how warm earlier bursts
  // left the cache. The throughputs count only the schedules the daemon
  // computed, its cache misses, over the bursts' summed wall time.
  const std::array<std::size_t, 2> burst_size = {config.toy ? 8 : 16 * config.nproc,
                                                 config.toy ? std::size_t{4} : 32};
  const std::array<std::size_t, 2> connections = {config.nproc, 1};
  std::array<double, 2> computed_tasks = {0.0, 0.0};
  std::array<double, 2> burst_wall = {0.0, 0.0};
  std::vector<PhaseResult> bursts;
  std::vector<PhaseResult> swap_phases;
  std::size_t swaps = 0;
  OverheadProbe overhead(config.traced);
  std::uint64_t misses = stats_entry(s.daemon->stats(), "serve.cache.misses");
  for (std::size_t p = 0; p < (config.toy ? 2 : kBurstPairs); ++p) {
    for (std::size_t kind = 0; kind < 2; ++kind) {
      if (hot_swap) {
        swap_phases.push_back(
            closed_loop(*s.daemon, {swap_request(artifacts[++swaps % 2]->path)}, 1));
      }
      if (kind == 0) overhead.begin_pass(p);
      bursts.push_back(
          closed_loop(*s.daemon, queries(burst_size[kind]), connections[kind]));
      const double wall = bursts.back().wall;
      if (kind == 0) {
        overhead.end_pass(p, wall);
        e.batch_s.push_back(wall);
      }
      const std::uint64_t now = stats_entry(s.daemon->stats(), "serve.cache.misses");
      if (!hot_swap) {
        gate.expect_equal(now - misses, burst_size[kind],
                          "serve-cold: cache misses per burst of distinct keys");
      }
      computed_tasks[kind] += static_cast<double>(now - misses) * n_tasks;
      burst_wall[kind] += wall;
      misses = now;
    }
    e.sample_host_speed();
  }
  e.tasks_per_s.push_back(computed_tasks[0] / burst_wall[0]);
  e.tasks_per_s_1t.push_back(computed_tasks[1] / burst_wall[1]);

  // Open loop at the two fixed rates; serve-hot-swap swaps A <-> B every
  // 4 s inside the same stream. The bursts took about a quarter of the run;
  // most of the rest goes to `lo`, so that even serve-hot-swap, where about
  // 40% of the queries compute, has about 600 computed samples there (sixty
  // beyond the p90).
  const auto open = [&](double rate, double seconds, std::uint64_t seed) {
    const auto count = std::max<std::size_t>(8, static_cast<std::size_t>(rate * seconds));
    std::vector<Request> requests = queries(count);
    std::vector<double> due = poisson_arrivals(count, rate, seed);
    if (hot_swap) {
      for (double t = 4.0; t < due.back(); t += 4.0) {
        const auto at = static_cast<std::size_t>(
            std::lower_bound(due.begin(), due.end(), t) - due.begin());
        requests.insert(requests.begin() + static_cast<std::ptrdiff_t>(at),
                        swap_request(artifacts[++swaps % 2]->path));
        due.insert(due.begin() + static_cast<std::ptrdiff_t>(at), t);
      }
    }
    return open_loop(*s.daemon, requests, due, config.nproc);
  };
  // Traced runs keep the whole stream too, so serve-hot-swap's swaps happen
  // in them; the layer probes afterwards are short at this size.
  PhaseResult lo = open(rate_lo, 0.6 * config.seconds, input_seed(config, 8));
  e.sample_host_speed();
  PhaseResult hi = open(rate_hi, 0.15 * config.seconds, input_seed(config, 9));
  e.sample_host_speed();
  std::vector<PhaseResult*> phases;
  for (PhaseResult& b : bursts) phases.push_back(&b);
  for (PhaseResult& w : swap_phases) phases.push_back(&w);
  phases.push_back(&lo);
  phases.push_back(&hi);
  assign_epochs(phases);
  for (const PhaseResult* phase : phases) gate_outcomes(*phase, gate);

  // Schedule quality over the distinct keys answered in the first
  // kQualityPasses bursts of each kind (a Zipf-hot key would otherwise count
  // once per repeat), against the instance of the artifact that answered,
  // averaged per key class (scheme, m or partition) first, so the
  // seed-dependent mix of classes does not move it.
  std::set<std::tuple<const ServedArtifact*, int, std::uint32_t, std::uint64_t, std::int64_t>>
      answered;
  std::map<std::tuple<int, std::uint32_t, std::int64_t>, std::array<std::vector<double>, 3>>
      by_class;
  for (std::size_t i = 0; i < std::min(bursts.size(), 2 * kQualityPasses); ++i) {
    for (const Outcome& o : bursts[i].outcomes) {
      const sweep::serve::QueryRequest& q = o.request.query;
      const ServedArtifact& live = *artifacts[o.epoch % artifacts.size()];
      if (!o.ok || !answered
                        .emplace(&live, static_cast<int>(q.scheme), q.m, q.seed, q.partition)
                        .second) {
        continue;
      }
      const std::size_t m =
          q.partition >= 0 ? live.partitions[static_cast<std::size_t>(q.partition)].n_parts
                           : q.m;
      auto& quality = by_class[{static_cast<int>(q.scheme), q.partition >= 0 ? 0u : q.m,
                                q.partition}];
      quality[0].push_back(static_cast<double>(o.reply.makespan) /
                           sweep::core::compute_lower_bounds(*live.instance, m).value());
      quality[1].push_back(static_cast<double>(o.reply.c1_cross_edges) /
                           static_cast<double>(o.reply.c1_total_edges));
      quality[2].push_back(static_cast<double>(o.reply.c2_total_delay) /
                           static_cast<double>(live.instance->n_tasks()));
    }
  }
  const auto mean = [](const std::vector<double>& v) {
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum / static_cast<double>(v.size());
  };
  for (const auto& [key_class, quality] : by_class) {
    e.makespan_over_lb.push_back(mean(quality[0]));
    e.c1_fraction.push_back(mean(quality[1]));
    e.c2_delay_per_task.push_back(mean(quality[2]));
  }

  // Latency of the queries the daemon computed: on serve-hot-swap the hits
  // answer 100x faster, and a hit ratio near one half would flip the median
  // between the two modes from run to run.
  e.latency_ms = computed_latencies_ms(lo);

  const sweep::serve::StatsResponse stats = s.daemon->stats();
  if (!hot_swap && stats_entry(stats, "serve.cache.hits") != 0) {
    gate.fail("serve-cold: distinct keys hit the cache");
  }
  if (config.traced) {
    for (const PhaseResult* phase : {&lo, &hi}) {
      for (const Outcome& o : phase->outcomes) {
        if (o.ok && o.request.type == MsgType::kSwap) {
          ledger.add("serve.swap_ms", (o.done - o.sent) * 1e3);
        }
      }
    }
    if (!ledger.has("serve.swap_ms")) {
      // No swaps in this workload's stream: time one round trip to the
      // artifact already served (the cache is cold afterwards, which no
      // later phase reads).
      sweep::serve::Client client(s.daemon->socket());
      const double t0 = now_s();
      gate.attempt();
      if (client.call(swap_request(s.artifact_a.path)).status != 0) gate.fail("swap refused");
      ledger.add("serve.swap_ms", (now_s() - t0) * 1e3);
    }
    record_loadgen(ledger, lo, hi);
    record_daemon_stats(ledger, *s.daemon);
  }
  e.peak_rss_mb = s.daemon->peak_rss_mb();
  gate.attempt();
  if (!s.daemon->shutdown()) gate.fail("sweep_serve did not shut down cleanly");

  Verifier verifier(ledger, gate);
  verify_phases(verifier, phases, artifacts);
  std::fprintf(stderr, "%s: %zu responses checked in process, %zu swaps\n",
               config.workload.c_str(), verifier.checked(), swaps);

  Metrics end_to_end = end_to_end_metrics(e);
  if (!config.traced) return end_to_end;
  overhead.finish(ledger);
  probe_layers(config, ledger, gate, *s.a, kServeProcs[1], input_seed(config, 10));
  return per_layer_report(ledger);
}

}  // namespace ledger
