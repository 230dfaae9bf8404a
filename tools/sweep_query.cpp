// sweep_query: command-line client for a running sweep_serve daemon.
//
//   sweep_query --socket /tmp/sweep.sock --op info
//   sweep_query --socket /tmp/sweep.sock --op query --scheme level --m 16 --seed 7
//   sweep_query --socket /tmp/sweep.sock --op swap --path new.sweepart
//   sweep_query --socket /tmp/sweep.sock --op shutdown

#include <cstdint>
#include <cstdio>
#include <string>

#include "obs/obs.hpp"
#include "serve/client.hpp"
#include "util/cli.hpp"
#include "util/main_guard.hpp"

namespace {

sweep::serve::Scheme parse_scheme(const std::string& name) {
  using sweep::serve::Scheme;
  if (name == "level") return Scheme::kLevel;
  if (name == "random_delay") return Scheme::kRandomDelay;
  if (name == "descendant") return Scheme::kDescendant;
  throw std::invalid_argument("unknown scheme: " + name +
                              " (level|random_delay|descendant)");
}

}  // namespace

static int run_main(int argc, char** argv) {
  using namespace sweep;
  util::CliParser cli("sweep_query", "Query a running sweep_serve daemon");
  cli.add_option("socket", "/tmp/sweep_serve.sock", "Unix socket path");
  cli.add_option("op", "info", "ping|info|query|stats|swap|shutdown");
  cli.add_option("scheme", "level", "level|random_delay|descendant");
  cli.add_option("m", "16",
                 "processors (query; 1 <= m <= the artifact's cell count)");
  cli.add_option("seed", "1", "assignment/priority seed (query)");
  cli.add_option("partition", "-1",
                 "embedded partition index (query; -1 = random assignment)");
  cli.add_flag("starts", "fetch the full per-task start array");
  cli.add_option("path", "", "replacement artifact (swap)");
  cli.add_option("timeout-ms", "0",
                 "receive deadline per response; a stalled daemon throws "
                 "instead of hanging (0 = wait forever)");
  cli.add_option("metrics-out", "",
                 "write this client's metrics registry as JSON after the "
                 "call (.prom extension = Prometheus text format)");
  cli.add_option("trace-out", "",
                 "write a Chrome trace-event JSON of this call");
  if (!cli.parse(argc, argv)) return 1;

#if !defined(SWEEP_OBS_DISABLE)
  if (!cli.str("metrics-out").empty()) obs::set_metrics_enabled(true);
  if (!cli.str("trace-out").empty()) obs::start_tracing();
#endif

  serve::ClientOptions client_options;
  client_options.timeout_ms =
      static_cast<std::uint64_t>(cli.integer("timeout-ms"));
  serve::Client client(cli.str("socket"), client_options);
  serve::Request request;
  const std::string op = cli.str("op");
  if (op == "ping") {
    request.type = serve::MsgType::kPing;
  } else if (op == "info") {
    request.type = serve::MsgType::kInfo;
  } else if (op == "stats") {
    request.type = serve::MsgType::kStats;
  } else if (op == "shutdown") {
    request.type = serve::MsgType::kShutdown;
  } else if (op == "swap") {
    request.type = serve::MsgType::kSwap;
    request.swap.path = cli.str("path");
    if (request.swap.path.empty()) {
      std::fprintf(stderr, "--op swap requires --path\n");
      return 1;
    }
  } else if (op == "query") {
    request.type = serve::MsgType::kQuery;
    request.query.scheme = parse_scheme(cli.str("scheme"));
    request.query.m = static_cast<std::uint32_t>(cli.integer("m"));
    request.query.seed = static_cast<std::uint64_t>(cli.integer("seed"));
    request.query.partition = cli.integer("partition");
    request.query.want_starts = cli.flag("starts");
  } else {
    std::fprintf(stderr, "unknown --op %s\n", op.c_str());
    return 1;
  }

  const serve::Response response = client.call(request);
  if (response.status != 0) {
    std::fprintf(stderr, "daemon error: %s\n", response.error.c_str());
    return 1;
  }
  switch (response.type) {
    case serve::MsgType::kPing:
    case serve::MsgType::kShutdown:
    case serve::MsgType::kSwap:
      std::printf("ok\n");
      break;
    case serve::MsgType::kInfo:
      std::printf("name: %s\ncells: %llu\ndirections: %llu\nedges: %llu\n"
                  "hash: %016llx\npartitions: %llu\ndescendants: %s\n",
                  response.info.name.c_str(),
                  static_cast<unsigned long long>(response.info.n_cells),
                  static_cast<unsigned long long>(response.info.n_directions),
                  static_cast<unsigned long long>(response.info.n_edges),
                  static_cast<unsigned long long>(response.info.content_hash),
                  static_cast<unsigned long long>(response.info.n_partitions),
                  response.info.has_descendants ? "yes" : "no");
      break;
    case serve::MsgType::kQuery: {
      const auto& q = response.query;
      std::printf("makespan: %llu\nC1: %llu / %llu cross edges\n"
                  "C2: total_delay=%llu max_step=%llu busy_steps=%llu\n"
                  "schedule_hash: %016llx\n",
                  static_cast<unsigned long long>(q.makespan),
                  static_cast<unsigned long long>(q.c1_cross_edges),
                  static_cast<unsigned long long>(q.c1_total_edges),
                  static_cast<unsigned long long>(q.c2_total_delay),
                  static_cast<unsigned long long>(q.c2_max_step_degree),
                  static_cast<unsigned long long>(q.c2_busy_steps),
                  static_cast<unsigned long long>(q.schedule_hash));
      if (!q.starts.empty()) {
        std::printf("starts[%zu]:", q.starts.size());
        for (std::uint32_t s : q.starts) std::printf(" %u", s);
        std::printf("\n");
      }
      break;
    }
    case serve::MsgType::kStats:
      std::printf("proto_version: %llu\n",
                  static_cast<unsigned long long>(
                      response.stats.proto_version));
      for (const auto& [key, value] : response.stats.entries) {
        std::printf("%s: %llu\n", key.c_str(),
                    static_cast<unsigned long long>(value));
      }
      for (const auto& [name, value] : response.stats.gauges) {
        std::printf("gauge %s: %lld\n", name.c_str(),
                    static_cast<long long>(value));
      }
      for (const auto& h : response.stats.histograms) {
        std::printf(
            "hist %s: count=%llu p50=%llu p90=%llu p99=%llu p999=%llu "
            "max=%llu (ns)\n",
            h.name.c_str(), static_cast<unsigned long long>(h.count),
            static_cast<unsigned long long>(h.p50),
            static_cast<unsigned long long>(h.p90),
            static_cast<unsigned long long>(h.p99),
            static_cast<unsigned long long>(h.p999),
            static_cast<unsigned long long>(h.max));
      }
      break;
  }

#if !defined(SWEEP_OBS_DISABLE)
  const std::string metrics_out = cli.str("metrics-out");
  if (!metrics_out.empty()) {
    const bool prometheus = metrics_out.ends_with(".prom");
    const bool ok = prometheus ? obs::write_metrics_prometheus(metrics_out)
                               : obs::write_metrics_json(metrics_out);
    if (!ok) {
      std::fprintf(stderr, "FAILED to write metrics to %s\n",
                   metrics_out.c_str());
    }
  }
  const std::string trace_out = cli.str("trace-out");
  if (!trace_out.empty()) {
    obs::stop_tracing();
    if (!obs::write_trace_json(trace_out)) {
      std::fprintf(stderr, "FAILED to write trace to %s\n", trace_out.c_str());
    }
  }
#endif
  return 0;
}

int main(int argc, char** argv) {
  return sweep::util::guarded_main([&] { return run_main(argc, argv); });
}
