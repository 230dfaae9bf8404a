#include "serve/service.hpp"

#include <algorithm>
#include <exception>
#include <utility>
#include <vector>

#include "core/assignment.hpp"
#include "core/comm_cost.hpp"
#include "core/list_scheduler.hpp"
#include "core/lower_bounds.hpp"
#include "core/priorities.hpp"
#include "obs/obs.hpp"
#include "util/hash.hpp"
#include "util/rng.hpp"

namespace sweep::serve {
namespace {

Response error_response(MsgType type, std::string what) {
  Response response;
  response.status = 1;
  response.type = type;
  response.error = std::move(what);
  return response;
}

/// Builds the wire response from a (possibly cached) payload. Both the hit
/// and the cold path go through here, so a hit is byte-identical to a cold
/// response by construction: same fields, same assembly, starts included
/// exactly when asked for.
Response assemble_query_response(const QueryResponse& payload,
                                 bool want_starts) {
  Response response;
  response.type = MsgType::kQuery;
  response.query.makespan = payload.makespan;
  response.query.c1_cross_edges = payload.c1_cross_edges;
  response.query.c1_total_edges = payload.c1_total_edges;
  response.query.c2_total_delay = payload.c2_total_delay;
  response.query.c2_max_step_degree = payload.c2_max_step_degree;
  response.query.c2_busy_steps = payload.c2_busy_steps;
  response.query.schedule_hash = payload.schedule_hash;
  if (want_starts) response.query.starts = payload.starts;
  return response;
}

}  // namespace

ServeService::ServeService(std::shared_ptr<const dag::Artifact> artifact,
                           ScheduleCacheOptions cache_options)
    : artifact_(std::move(artifact)) {
  if (artifact_ == nullptr) {
    throw std::invalid_argument("ServeService: null artifact");
  }
  if (cache_options.enabled()) {
    cache_ = std::make_unique<ScheduleCache>(cache_options);
    cache_->invalidate(artifact_->content_hash());
  }
}

ServeService ServeService::from_file(const std::string& path,
                                     ScheduleCacheOptions cache_options) {
  SWEEP_OBS_TIMER("serve.load_ns");
  return ServeService(dag::Artifact::map_file(path), cache_options);
}

std::shared_ptr<const dag::Artifact> ServeService::artifact() const {
  std::lock_guard<std::mutex> lock(artifact_mutex_);
  return artifact_;
}

void ServeService::swap_to(const std::string& path) {
  // Map and fully validate BEFORE touching the served pointer: a corrupt
  // replacement throws here and the old artifact keeps serving.
  std::shared_ptr<const dag::Artifact> fresh;
  {
    SWEEP_OBS_TIMER("serve.load_ns");
    fresh = dag::Artifact::map_file(path);
  }
  const std::uint64_t new_hash = fresh->content_hash();
  {
    std::lock_guard<std::mutex> lock(artifact_mutex_);
    artifact_.swap(fresh);
  }
  // `fresh` now holds the OLD artifact; it unmaps when the last in-flight
  // query that grabbed it before the flip finishes. The cache epoch flips
  // AFTER the pointer: a probe that already snapshotted the old artifact
  // keys under the old hash (consistent with its snapshot, same semantics
  // as an in-flight query), while every post-swap probe keys under the new
  // hash and can never match an old entry.
  if (cache_ != nullptr) cache_->invalidate(new_hash);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  SWEEP_OBS_COUNTER_ADD("serve.swaps", 1);
}

void ServeService::record_protocol_error() {
  errors_.fetch_add(1, std::memory_order_relaxed);
  SWEEP_OBS_COUNTER_ADD("serve.errors", 1);
}

ScheduleCacheStats ServeService::cache_stats() const {
  return cache_ != nullptr ? cache_->stats() : ScheduleCacheStats{};
}

Response ServeService::handle(const Request& request) {
  try {
    switch (request.type) {
      case MsgType::kPing:
      case MsgType::kShutdown: {
        // Shutdown acks like a ping; actually stopping the accept loop is
        // the Server's job (it sees the type after sending the ack).
        Response response;
        response.type = request.type;
        return response;
      }
      case MsgType::kInfo:
        return handle_info();
      case MsgType::kQuery:
        return handle_query(request.query);
      case MsgType::kSwap: {
        swap_to(request.swap.path);
        Response response;
        response.type = MsgType::kSwap;
        return response;
      }
      case MsgType::kStats:
        return handle_stats();
    }
    errors_.fetch_add(1, std::memory_order_relaxed);
    return error_response(request.type, "unhandled message type");
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    SWEEP_OBS_COUNTER_ADD("serve.errors", 1);
    return error_response(request.type, e.what());
  }
}

Response ServeService::handle_info() {
  const std::shared_ptr<const dag::Artifact> a = artifact();
  Response response;
  response.type = MsgType::kInfo;
  response.info.name = std::string(a->name());
  response.info.n_cells = a->n_cells();
  response.info.n_directions = a->n_directions();
  response.info.n_edges = a->n_edges();
  response.info.content_hash = a->content_hash();
  response.info.n_partitions = a->n_partitions();
  response.info.has_descendants = a->has_descendants();
  return response;
}

Response ServeService::handle_query(const QueryRequest& query) {
  SWEEP_OBS_TIMER("serve.query_ns");
  SWEEP_OBS_SPAN_ARGS("serve.query", "scheme",
                      static_cast<std::int64_t>(query.scheme), "m",
                      static_cast<std::int64_t>(query.m));
  // Snapshot once: this whole query (cache key included) runs against one
  // artifact even if a swap lands mid-flight.
  const std::shared_ptr<const dag::Artifact> a = artifact();
  if (cache_ == nullptr) {
    const QueryResponse payload = compute_query(*a, query);
    queries_.fetch_add(1, std::memory_order_relaxed);
    SWEEP_OBS_COUNTER_ADD("serve.queries", 1);
    return assemble_query_response(payload, query.want_starts);
  }

  CacheKey key;
  key.content_hash = a->content_hash();
  key.scheme = static_cast<std::uint32_t>(query.scheme);
  // The computation ignores m when an embedded partition is selected;
  // normalize it out of the key so such queries share one entry.
  key.m = query.partition >= 0 ? 0u : query.m;
  key.partition = query.partition;
  key.seed = query.seed;
  key.want_starts = query.want_starts;

  // May block on a leader in flight and rethrows the leader's failure —
  // handle() turns it into the same error response a solo query gets.
  ScheduleCache::Probe probe = cache_->lookup_or_join(key);
  if (probe.kind == ScheduleCache::ProbeKind::kMiss) {
    QueryResponse payload;
    try {
      payload = compute_query(*a, query);
    } catch (...) {
      cache_->fail(std::move(probe.ticket), std::current_exception());
      throw;
    }
    probe.value = std::make_shared<const QueryResponse>(std::move(payload));
    cache_->fill(std::move(probe.ticket), probe.value);
  }
  queries_.fetch_add(1, std::memory_order_relaxed);
  SWEEP_OBS_COUNTER_ADD("serve.queries", 1);
  return assemble_query_response(*probe.value, query.want_starts);
}

QueryResponse ServeService::compute_query(const dag::Artifact& artifact,
                                          const QueryRequest& query) {
#if !defined(SWEEP_OBS_DISABLE)
  // Phase laps share one clock read per boundary; everything below the
  // `armed` check vanishes when metrics are off.
  const bool obs_armed = obs::metrics_enabled();
  std::uint64_t obs_lap_t0 = obs_armed ? obs::detail::now_ns() : 0;
  const auto obs_lap = [&obs_lap_t0]() {
    const std::uint64_t t1 = obs::detail::now_ns();
    const std::uint64_t dt = t1 - obs_lap_t0;
    obs_lap_t0 = t1;
    return dt;
  };
#endif
  const dag::Artifact& a = artifact;
  const dag::TaskGraph& tg = a.task_graph();
  const std::size_t n = tg.n_cells();
  const std::size_t k = tg.n_directions();

  util::Rng rng(query.seed);
  core::Assignment assignment;
  std::size_t m = query.m;
  std::span<const std::uint32_t> part;
  if (query.partition >= 0) {
    const auto j = static_cast<std::uint64_t>(query.partition);
    if (j >= a.n_partitions()) {
      throw std::invalid_argument("query: partition index out of range");
    }
    m = static_cast<std::size_t>(a.partition_parts(j));
    part = a.partition(j);
  } else if (m == 0) {
    throw std::invalid_argument("query: m must be positive");
  }
  // The artifact bounds m: list_schedule keeps state for every processor,
  // and processors past the cell count could never be given a cell.
  if (m > std::max<std::size_t>(n, 1)) {
    throw std::invalid_argument("query: m exceeds the artifact's cell count");
  }
  if (query.partition >= 0) {
    assignment.assign(part.begin(), part.end());
  } else {
    assignment = core::random_assignment(n, m, rng);
  }
#if !defined(SWEEP_OBS_DISABLE)
  if (obs_armed) SWEEP_OBS_HIST_RECORD("serve.lookup_ns", obs_lap());
#endif

  // The same priority builders and rng stream consumption as the
  // in-process path, so the result is bit-identical to it (see the contract
  // in service.hpp). jobs = 1 keeps a request on its server thread.
  std::vector<std::int64_t> priorities;
  switch (query.scheme) {
    case Scheme::kLevel:
      priorities = core::level_priorities(tg);
      break;
    case Scheme::kRandomDelay:
      priorities = core::random_delay_priorities(
          tg, core::random_delays(k, rng), /*jobs=*/1);
      break;
    case Scheme::kDescendant: {
      if (!a.has_descendants()) {
        throw std::invalid_argument(
            "query: artifact was packed without descendant counts");
      }
      // Consume the stream-split draw exactly like descendant_priorities
      // (which burns it even on the exact path) to keep rng state aligned.
      (void)rng();
      const std::span<const std::uint64_t> counts = a.descendant_counts_flat();
      priorities.resize(tg.n_tasks());
      for (std::size_t t = 0; t < priorities.size(); ++t) {
        priorities[t] = -static_cast<std::int64_t>(counts[t]);
      }
      break;
    }
  }

  core::ListScheduleOptions options;
  options.priorities = priorities;
  const core::Schedule schedule =
      core::list_schedule(tg, assignment, m, options);
#if !defined(SWEEP_OBS_DISABLE)
  if (obs_armed) SWEEP_OBS_HIST_RECORD("serve.schedule_ns", obs_lap());
#endif
  // The C2 pass counts every task's off-processor successors; their sum is
  // C1, so no second walk over the edges.
  const core::C2Cost c2 = core::comm_cost_c2(tg, schedule);
  const std::size_t total_edges = tg.n_edges();
  // makespan() scans every task's start time; computed once and shared by
  // the quality telemetry and the response (a second scan would make the
  // armed path visibly slower than disarmed — the overhead bench caught
  // exactly that).
  const std::uint64_t makespan = schedule.makespan();
#if !defined(SWEEP_OBS_DISABLE)
  if (obs_armed) {
    SWEEP_OBS_HIST_RECORD("serve.cost_ns", obs_lap());
    // Schedule-quality telemetry for daemon-served queries, against the
    // paper's lower bound max{nk/m, k, D}.
    const double lb = core::compute_lower_bounds(tg, m).value();
    SWEEP_OBS_OBSERVE("quality.makespan", makespan);
    if (lb > 0) {
      SWEEP_OBS_OBSERVE("quality.makespan_over_lb",
                        static_cast<double>(makespan) / lb);
    }
    if (makespan > 0) {
      SWEEP_OBS_OBSERVE(
          "quality.idle_fraction",
          1.0 - static_cast<double>(tg.n_tasks()) /
                    (static_cast<double>(makespan) * static_cast<double>(m)));
    }
    if (total_edges > 0) {
      SWEEP_OBS_OBSERVE("quality.c1_fraction",
                        static_cast<double>(c2.cross_edges) /
                            static_cast<double>(total_edges));
    }
    SWEEP_OBS_OBSERVE("quality.c2_total_delay", c2.total_delay);
  }
#endif

  QueryResponse payload;
  payload.makespan = makespan;
  payload.c1_cross_edges = c2.cross_edges;
  payload.c1_total_edges = total_edges;
  payload.c2_total_delay = c2.total_delay;
  payload.c2_max_step_degree = c2.max_step_degree;
  payload.c2_busy_steps = c2.busy_steps;
  payload.schedule_hash = util::fnv1a_span<core::TimeStep>(
      schedule.starts(),
      util::fnv1a_span<core::ProcessorId>(schedule.assignment()));
  // Only a query that asks for the start array carries it: the payload is
  // what the cache stores, and a scalar entry stays a few hundred bytes.
  if (query.want_starts) payload.starts = schedule.starts();
  return payload;
}

Response ServeService::handle_stats() {
  Response response;
  response.type = MsgType::kStats;
  // The daemon always speaks stats v2; the extra telemetry below it is
  // populated only when the obs layer is compiled in AND armed, so an
  // obs-off build answers with the legacy entries plus the version tag.
  response.stats.proto_version = kStatsProtoVersion;
  response.stats.entries = {
      {"queries", queries_.load(std::memory_order_relaxed)},
      {"swaps", swaps_.load(std::memory_order_relaxed)},
      {"errors", errors_.load(std::memory_order_relaxed)},
  };
  // Cache counters come from the cache's own atomics (present even in
  // obs-off builds), never from the obs registry — the serve.-prefix copy
  // below would otherwise duplicate them.
  if (cache_ != nullptr) {
    const ScheduleCacheStats cs = cache_->stats();
    response.stats.entries.emplace_back("serve.cache.hits", cs.hits);
    response.stats.entries.emplace_back("serve.cache.misses", cs.misses);
    response.stats.entries.emplace_back("serve.cache.inflight_waits",
                                        cs.inflight_waits);
    response.stats.entries.emplace_back("serve.cache.evictions", cs.evictions);
    response.stats.entries.emplace_back("serve.cache.invalidations",
                                        cs.invalidations);
    response.stats.entries.emplace_back("serve.cache.entries", cs.entries);
    response.stats.entries.emplace_back("serve.cache.bytes", cs.bytes);
    response.stats.entries.emplace_back("serve.cache.hit_rate_pct",
                                        cs.hit_rate_pct());
    // Mirror the hit rate as an obs gauge (armed builds only) so exporters
    // that scrape the registry see it without parsing the stats frame.
    SWEEP_OBS_GAUGE_SET("serve.cache.hit_rate_pct",
                        static_cast<std::int64_t>(cs.hit_rate_pct()));
  }
#if !defined(SWEEP_OBS_DISABLE)
  if (obs::metrics_enabled()) {
    const obs::MetricsSnapshot snap =
        obs::MetricsRegistry::instance().snapshot();
    for (const auto& [name, value] : snap.counters) {
      if (name.starts_with("serve.")) {
        response.stats.entries.emplace_back(name, value);
      }
    }
    response.stats.gauges = snap.gauges;
    response.stats.histograms.reserve(snap.histograms.size());
    for (const obs::HistogramSnapshot& h : snap.histograms) {
      StatsHistogram out;
      out.name = h.name;
      out.count = h.count;
      out.p50 = h.quantile(0.50);
      out.p90 = h.quantile(0.90);
      out.p99 = h.quantile(0.99);
      out.p999 = h.quantile(0.999);
      out.max = h.max_estimate();
      response.stats.histograms.push_back(std::move(out));
    }
  }
#endif
  return response;
}

}  // namespace sweep::serve
