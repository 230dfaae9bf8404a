// cache_serve_smoke: the end-to-end ctest for the schedule cache +
// single-flight executor (DESIGN.md §15). In one process (so the
// tsan-concurrency preset instruments every thread) it:
//
//   1. packs an artifact pair and serves A over a real Unix socket with the
//      default cache,
//   2. proves hit/cold bit-identity over the wire: the first query of a key
//      computes, repeats hit, and every response carries identical costs,
//      schedule hash, and raw start arrays,
//   3. fires N concurrent identical queries at a fresh key and reads the
//      stats frame to prove single flight: exactly one miss, the rest
//      coalesced into hits or in-flight waits,
//   4. hot-swaps to artifact B while four client threads hammer cached
//      keys — every response must match one artifact exactly (zero stale,
//      zero torn), and post-swap every response is B's,
//   5. checks LRU eviction against a deliberately tiny in-process cache:
//      residency respects the entry and byte bounds while queries stay
//      correct,
//   6. shuts down through the protocol.
//
// Exit 0 = pass. Any mismatch prints a diagnostic and exits 1.

#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "serve/client.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "sweep/artifact.hpp"
#include "sweep/random_dag.hpp"

namespace {

using namespace sweep;

int failures = 0;

void check(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

serve::Request query_request(serve::Scheme scheme, std::uint32_t m,
                             std::uint64_t seed, bool want_starts = false) {
  serve::Request request;
  request.type = serve::MsgType::kQuery;
  request.query.scheme = scheme;
  request.query.m = m;
  request.query.seed = seed;
  request.query.want_starts = want_starts;
  return request;
}

std::uint64_t entry_value(const serve::StatsResponse& stats,
                          const std::string& key) {
  for (const auto& [k, v] : stats.entries) {
    if (k == key) return v;
  }
  return 0;
}

serve::StatsResponse fetch_stats(serve::Client& client) {
  const serve::Response r = client.stats();
  check(r.status == 0, "stats request");
  return r.stats;
}

/// Full-payload equality: every scalar the wire carries plus the raw
/// start array. "Bit-identical" made literal.
bool same_payload(const serve::QueryResponse& a,
                  const serve::QueryResponse& b) {
  return a.makespan == b.makespan && a.c1_cross_edges == b.c1_cross_edges &&
         a.c1_total_edges == b.c1_total_edges &&
         a.c2_total_delay == b.c2_total_delay &&
         a.c2_max_step_degree == b.c2_max_step_degree &&
         a.c2_busy_steps == b.c2_busy_steps &&
         a.schedule_hash == b.schedule_hash && a.starts == b.starts;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string scratch = argc > 1 ? argv[1] : "/tmp";
  const std::string tag = std::to_string(static_cast<long>(::getpid()));
  const std::string path_a = scratch + "/cache_a." + tag + ".sweepart";
  const std::string path_b = scratch + "/cache_b." + tag + ".sweepart";
  const std::string socket_path = "/tmp/sweep_cache." + tag + ".sock";

  const dag::SweepInstance inst_a = dag::random_instance(240, 4, 7, 2.0, 11);
  const dag::SweepInstance inst_b = dag::random_instance(180, 3, 5, 1.7, 29);
  dag::ArtifactWriteOptions pack_options;
  pack_options.include_descendants = true;
  dag::save_artifact(inst_a, path_a, pack_options);
  dag::save_artifact(inst_b, path_b, pack_options);

  // --- 1/2. Serve A; hit/cold bit-identity over the wire -----------------
  serve::ServeService service(dag::Artifact::map_file(path_a));
  serve::ServerOptions server_options;
  server_options.socket_path = socket_path;
  server_options.threads = 4;
  serve::Server server(service, server_options);
  server.start();

  {
    serve::Client client(socket_path);
    const serve::Scheme schemes[] = {serve::Scheme::kLevel,
                                     serve::Scheme::kRandomDelay,
                                     serve::Scheme::kDescendant};
    for (const serve::Scheme scheme : schemes) {
      const serve::Request scalar = query_request(scheme, 6, 3);
      const serve::Request with_starts = query_request(scheme, 6, 3, true);
      const serve::Response cold = client.call(with_starts);
      check(cold.status == 0, "cold query");
      for (int round = 0; round < 3; ++round) {
        const serve::Response hot = client.call(with_starts);
        check(hot.status == 0 && same_payload(hot.query, cold.query),
              "hot response bit-identical to cold, round " +
                  std::to_string(round));
      }
      // The scalar twin is a key of its own (its entry holds no start
      // array): it computes once, answers with the same schedule and
      // omits the array on the wire.
      const serve::Response scalar_cold = client.call(scalar);
      check(scalar_cold.status == 0 &&
                scalar_cold.query.schedule_hash == cold.query.schedule_hash &&
                scalar_cold.query.starts.empty(),
            "scalar twin answers the want_starts query's schedule");
    }
    const serve::StatsResponse stats = fetch_stats(client);
    check(entry_value(stats, "serve.cache.misses") == 6,
          "one compute per scheme and want_starts");
    check(entry_value(stats, "serve.cache.hits") == 9,
          "every repeat was a cache hit");
    check(entry_value(stats, "serve.cache.hit_rate_pct") == 60,
          "hit rate reported via stats v2");
  }

  // --- 3. Single flight: N concurrent identical queries, one compute ----
  {
    serve::Client client(socket_path);
    const serve::StatsResponse before = fetch_stats(client);
    constexpr int kClients = 4;
    const serve::Request fresh =
        query_request(serve::Scheme::kLevel, 9, 777);  // never asked before
    std::atomic<int> bad{0};
    std::atomic<int> ready{0};
    std::atomic<bool> go{false};
    std::uint64_t want_hash = 0;
    {
      const serve::Response reference = client.call(
          query_request(serve::Scheme::kLevel, 9, 778));  // warm the path
      check(reference.status == 0, "single-flight warmup");
    }
    std::vector<std::thread> swarm;
    std::vector<std::uint64_t> hashes(kClients, 0);
    for (int w = 0; w < kClients; ++w) {
      swarm.emplace_back([&, w] {
        try {
          serve::Client c(socket_path);
          ready.fetch_add(1);
          while (!go.load()) std::this_thread::yield();
          const serve::Response r = c.call(fresh);
          if (r.status != 0) {
            bad.fetch_add(1);
          } else {
            hashes[static_cast<std::size_t>(w)] = r.query.schedule_hash;
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "swarm thread: %s\n", e.what());
          bad.fetch_add(1);
        }
      });
    }
    while (ready.load() < kClients) std::this_thread::yield();
    go.store(true);
    for (std::thread& t : swarm) t.join();
    check(bad.load() == 0, "all coalesced queries succeed");
    want_hash = hashes[0];
    for (int w = 1; w < kClients; ++w) {
      check(hashes[static_cast<std::size_t>(w)] == want_hash,
            "coalesced responses identical");
    }
    const serve::StatsResponse after = fetch_stats(client);
    const std::uint64_t miss_delta = entry_value(after, "serve.cache.misses") -
                                     entry_value(before, "serve.cache.misses");
    const std::uint64_t joined_delta =
        (entry_value(after, "serve.cache.hits") +
         entry_value(after, "serve.cache.inflight_waits")) -
        (entry_value(before, "serve.cache.hits") +
         entry_value(before, "serve.cache.inflight_waits"));
    // 2 fresh keys total (warmup + hammered one): each computed once, and
    // the other kClients-1 identical queries coalesced.
    check(miss_delta == 2, "exactly one list_schedule per distinct key, got " +
                               std::to_string(miss_delta) + " misses");
    check(joined_delta == kClients - 1,
          "remaining identical queries coalesced");
  }

  // --- 4. Hot swap under hammer: zero stale -------------------------------
  {
    struct Case {
      std::uint64_t seed;
      std::uint64_t hash_a = 0;
      std::uint64_t hash_b = 0;
    };
    std::vector<Case> cases = {{101}, {102}, {103}};
    // Cold references for both artifacts via uncached services.
    serve::ScheduleCacheOptions off;
    off.max_entries = 0;
    serve::ServeService cold_a(dag::Artifact::map_file(path_a), off);
    serve::ServeService cold_b(dag::Artifact::map_file(path_b), off);
    for (Case& c : cases) {
      const serve::Request request =
          query_request(serve::Scheme::kLevel, 4, c.seed);
      c.hash_a = cold_a.handle(request).query.schedule_hash;
      c.hash_b = cold_b.handle(request).query.schedule_hash;
      check(c.hash_a != c.hash_b, "artifacts distinguishable");
    }
    std::atomic<int> torn{0};
    std::vector<std::thread> hammer;
    for (int w = 0; w < 4; ++w) {
      hammer.emplace_back([&, w] {
        try {
          serve::Client client(socket_path);
          for (int round = 0; round < 60; ++round) {
            const Case& c =
                cases[(static_cast<std::size_t>(w) + round) % cases.size()];
            const serve::Response r =
                client.call(query_request(serve::Scheme::kLevel, 4, c.seed));
            if (r.status != 0 || (r.query.schedule_hash != c.hash_a &&
                                  r.query.schedule_hash != c.hash_b)) {
              torn.fetch_add(1);
            }
          }
        } catch (const std::exception& e) {
          std::fprintf(stderr, "hammer thread: %s\n", e.what());
          torn.fetch_add(1000);
        }
      });
    }
    {
      serve::Client client(socket_path);
      serve::Request request;
      request.type = serve::MsgType::kSwap;
      request.swap.path = path_b;
      check(client.call(request).status == 0, "hot swap to B");
    }
    for (std::thread& t : hammer) t.join();
    check(torn.load() == 0, "zero stale or torn responses across the swap");
    // Swap settled: a cached A-answer surviving past this point would be a
    // stale serve — the epoch invalidation forbids it.
    serve::Client client(socket_path);
    for (const Case& c : cases) {
      const serve::Response r =
          client.call(query_request(serve::Scheme::kLevel, 4, c.seed));
      check(r.status == 0 && r.query.schedule_hash == c.hash_b,
            "post-swap responses all come from B, seed " +
                std::to_string(c.seed));
    }
  }

  // --- 5. Eviction bounds on a deliberately tiny in-process cache --------
  {
    serve::ScheduleCacheOptions tiny;
    tiny.max_entries = 8;
    tiny.max_bytes = std::size_t{1} << 16;
    tiny.shards = 1;  // exact bounds
    serve::ServeService small(dag::Artifact::map_file(path_a), tiny);
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
      const serve::Response r =
          small.handle(query_request(serve::Scheme::kLevel, 4, seed));
      check(r.status == 0, "query against tiny cache");
    }
    const serve::ScheduleCacheStats stats = small.cache_stats();
    check(stats.entries <= 8, "entry bound respected");
    check(stats.bytes <= (std::size_t{1} << 16), "byte bound respected");
    check(stats.evictions > 0, "LRU evicted under pressure");
    // Still correct after churn: a resident key answers identically.
    const serve::Response first =
        small.handle(query_request(serve::Scheme::kLevel, 4, 63));
    const serve::Response again =
        small.handle(query_request(serve::Scheme::kLevel, 4, 63));
    check(first.status == 0 && again.status == 0 &&
              same_payload(first.query, again.query),
          "evicting cache still answers consistently");
  }

  // --- 6. Clean protocol shutdown ----------------------------------------
  {
    serve::Client client(socket_path);
    check(client.shutdown_server().status == 0, "shutdown acked");
  }
  server.wait();
  server.stop();

  std::remove(path_a.c_str());
  std::remove(path_b.c_str());
  if (failures == 0) {
    const serve::ScheduleCacheStats stats = service.cache_stats();
    std::printf(
        "cache_serve_smoke: all checks passed (%llu hits, %llu misses, "
        "%llu coalesced)\n",
        static_cast<unsigned long long>(stats.hits),
        static_cast<unsigned long long>(stats.misses),
        static_cast<unsigned long long>(stats.inflight_waits));
    return 0;
  }
  std::fprintf(stderr, "cache_serve_smoke: %d failures\n", failures);
  return 1;
}
