// sweep_serve: the sweep-as-a-service daemon. Maps a packed artifact
// (sweep_pack) read-only and answers scheduling/cost queries over a
// Unix-domain socket until a shutdown request (or SIGINT/SIGTERM via the
// client's --op shutdown) arrives.
//
//   sweep_serve --artifact tet.sweepart --socket /tmp/sweep.sock --threads 8
//
// Queries are served concurrently on a thread pool; a kSwap request maps a
// replacement artifact, validates it fully, and flips the served pointer
// atomically — in-flight queries finish on the artifact they started with
// (see serve/service.hpp). Ask it things with sweep_query.

#include <cstdint>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <string>

#include "obs/obs.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"

static int run_main(int argc, char** argv) {
  using namespace sweep;
  util::CliParser cli("sweep_serve",
                      "Serve scheduling queries for a packed sweep artifact "
                      "over a Unix socket");
  cli.add_option("artifact", "", "packed artifact to serve (required)");
  cli.add_option("socket", "/tmp/sweep_serve.sock", "Unix socket path");
  cli.add_option("threads", "0", "worker threads (0 = hardware concurrency)");
  cli.add_option("slow-request-ms", "50",
                 "log requests slower than this, sampled (0 disables)");
  cli.add_option("cache-entries", "4096",
                 "schedule cache entry bound across shards (0 disables "
                 "caching and single-flight coalescing)");
  cli.add_option("cache-bytes", "268435456",
                 "schedule cache approximate byte bound (0 disables); "
                 "a scalar entry costs about 260 bytes, so in effect this "
                 "bounds the entries of queries that ask for start arrays, "
                 "and one above a shard's 1/16 share is not cached");
  cli.add_option("metrics-out", "",
                 "write the metrics registry at shutdown (.prom extension "
                 "= Prometheus text format, anything else = JSON)");
  cli.add_option("trace-out", "",
                 "record trace spans and write Chrome trace-event JSON at "
                 "shutdown");
  if (!cli.parse(argc, argv)) return 1;
  if (cli.str("artifact").empty()) {
    std::fprintf(stderr, "--artifact is required\n");
    return 1;
  }
  // Every numeric option is read before anything is loaded or started, so
  // a malformed or negative value fails here (guarded_main, exit 2).
  serve::ScheduleCacheOptions cache_options;
  cache_options.max_entries = cli.non_negative("cache-entries");
  cache_options.max_bytes = cli.non_negative("cache-bytes");
  serve::ServerOptions options;
  options.socket_path = cli.str("socket");
  options.threads = cli.non_negative("threads");
  constexpr std::uint64_t kNsPerMs = 1'000'000;
  const std::uint64_t slow_ms = cli.non_negative("slow-request-ms");
  if (slow_ms > std::numeric_limits<std::uint64_t>::max() / kNsPerMs) {
    throw std::invalid_argument("--slow-request-ms: out of range");
  }
  options.slow_request_ns = slow_ms * kNsPerMs;

  // The daemon arms metrics unconditionally: latency histograms are what
  // the kStats endpoint (and sweep_top) serve, and the armed overhead is
  // bounded by bench/obs_overhead. Tracing stays opt-in (it buffers).
#if !defined(SWEEP_OBS_DISABLE)
  obs::set_metrics_enabled(true);
  if (!cli.str("trace-out").empty()) obs::start_tracing();
#endif

  serve::ServeService service =
      serve::ServeService::from_file(cli.str("artifact"), cache_options);
  {
    const auto artifact = service.artifact();
    std::printf("serving '%.*s': %zu cells x %zu directions, %zu edges, "
                "hash %016llx, %zu partitions, descendants=%s\n",
                static_cast<int>(artifact->name().size()),
                artifact->name().data(), artifact->n_cells(),
                artifact->n_directions(), artifact->n_edges(),
                static_cast<unsigned long long>(artifact->content_hash()),
                artifact->n_partitions(),
                artifact->has_descendants() ? "yes" : "no");
  }

  serve::Server server(service, options);
  server.start();
  std::printf("listening on %s\n", options.socket_path.c_str());
  std::fflush(stdout);
  server.wait();
  server.stop();
  std::printf("shut down after %llu queries, %llu swaps, %llu errors\n",
              static_cast<unsigned long long>(service.queries_served()),
              static_cast<unsigned long long>(service.swaps_completed()),
              static_cast<unsigned long long>(service.errors_returned()));
  if (service.cache_enabled()) {
    const serve::ScheduleCacheStats cs = service.cache_stats();
    std::printf("cache: %llu hits, %llu misses (%llu%% hit rate), "
                "%llu coalesced waits, %llu evictions\n",
                static_cast<unsigned long long>(cs.hits),
                static_cast<unsigned long long>(cs.misses),
                static_cast<unsigned long long>(cs.hit_rate_pct()),
                static_cast<unsigned long long>(cs.inflight_waits),
                static_cast<unsigned long long>(cs.evictions));
  }

#if !defined(SWEEP_OBS_DISABLE)
  const std::string metrics_out = cli.str("metrics-out");
  if (!metrics_out.empty()) {
    const bool prometheus = metrics_out.ends_with(".prom");
    const bool ok = prometheus ? obs::write_metrics_prometheus(metrics_out)
                               : obs::write_metrics_json(metrics_out);
    if (ok) {
      std::printf("metrics written to %s (%s)\n", metrics_out.c_str(),
                  prometheus ? "prometheus" : "json");
    } else {
      std::fprintf(stderr, "FAILED to write metrics to %s\n",
                   metrics_out.c_str());
    }
  }
  const std::string trace_out = cli.str("trace-out");
  if (!trace_out.empty()) {
    obs::stop_tracing();
    if (obs::write_trace_json(trace_out)) {
      std::printf("trace written to %s\n", trace_out.c_str());
    } else {
      std::fprintf(stderr, "FAILED to write trace to %s\n", trace_out.c_str());
    }
  }
#endif
  return 0;
}

int main(int argc, char** argv) {
  return sweep::util::guarded_main([&] { return run_main(argc, argv); });
}
