#pragma once
// ServeService: the transport-independent brain of sweep_serve. Holds the
// currently served artifact behind a shared_ptr and turns decoded wire
// Requests into Responses. The Server (server.hpp) owns the sockets; tests
// and the fuzz harness call handle() directly.
//
// Hot swap (the OSRM datastore pattern): swap() maps and validates the new
// artifact FIRST, then flips the shared_ptr under a mutex. Queries grab
// their own reference at entry, so in-flight work keeps reading the old
// mapping; the munmap happens automatically when the last such reference
// drops. No reader ever blocks on a swap and no swap ever waits for
// readers.
//
// Bit-identity contract: a query (scheme, m, seed) with
// 1 <= m <= max(n_cells, 1) reproduces exactly what the in-process path
// computes on the instance the artifact was packed from —
//   util::Rng rng(seed);
//   assignment = core::random_assignment(n, m, rng);
//   priorities = level / random-delay / descendant priorities from the SAME
//                rng stream position;
//   core::list_schedule(task_graph, assignment, m, {priorities});
// The descendant scheme uses the artifact's packed exact counts and matches
// core::descendant_priorities when that function takes its exact path
// (n_cells <= dag::kDefaultExactThreshold). A larger m, or an embedded
// partition with more parts, gets a status-1 error instead: the engine keeps
// state for every processor, so an unbounded m would let one query allocate
// without limit.
//
// Schedule cache (DESIGN.md §15): handle_query probes a sharded concurrent
// ScheduleCache keyed by (artifact content hash, scheme, m-or-partition,
// seed, want_starts) before computing. A hit assembles the wire response
// from the same cached payload fields the cold path produced, so hits are
// byte-identical to cold responses; concurrent identical misses coalesce
// onto one list_schedule via the cache's single-flight tickets. swap_to()
// flips the cache's epoch to the new content hash, so a hot swap can never
// serve a stale schedule.

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>

#include "serve/schedule_cache.hpp"
#include "serve/wire.hpp"
#include "sweep/artifact.hpp"

namespace sweep::serve {

class ServeService {
 public:
  explicit ServeService(std::shared_ptr<const dag::Artifact> artifact,
                        ScheduleCacheOptions cache_options = {});

  /// Convenience: map_file + construct.
  static ServeService from_file(const std::string& path,
                                ScheduleCacheOptions cache_options = {});

  /// Answers one request. Never throws: every failure (bad scheme, missing
  /// section, unloadable swap target) becomes a status != 0 response so the
  /// daemon survives hostile queries.
  Response handle(const Request& request);

  /// Current artifact snapshot (what new queries will see).
  [[nodiscard]] std::shared_ptr<const dag::Artifact> artifact() const;

  /// Validates and installs a replacement artifact. Throws (ArtifactError /
  /// runtime_error) if `path` cannot be loaded — the old artifact keeps
  /// serving in that case.
  void swap_to(const std::string& path);

  /// Lifetime counters (also mirrored into the obs registry).
  [[nodiscard]] std::uint64_t queries_served() const {
    return queries_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t swaps_completed() const {
    return swaps_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t errors_returned() const {
    return errors_.load(std::memory_order_relaxed);
  }

  /// Counts a transport-layer protocol failure (malformed frame) against
  /// the same `errors` total that handler failures feed, so the stats
  /// frame's `errors` entry agrees with serve.status.error: both count
  /// every non-ok response the daemon puts on the wire.
  void record_protocol_error();

  /// Schedule-cache counters; all zeros when the cache is disabled.
  [[nodiscard]] ScheduleCacheStats cache_stats() const;
  [[nodiscard]] bool cache_enabled() const {
    return cache_ != nullptr && cache_->enabled();
  }

 private:
  Response handle_query(const QueryRequest& query);
  Response handle_info();
  Response handle_stats();

  /// The cold path: one full schedule + cost evaluation against `artifact`.
  /// Populates `starts` only when the query sets want_starts, so a scalar
  /// query's cache entry holds its scalars alone; C1 comes from the C2
  /// pass's cross-edge sum.
  QueryResponse compute_query(const dag::Artifact& artifact,
                              const QueryRequest& query);

  mutable std::mutex artifact_mutex_;
  std::shared_ptr<const dag::Artifact> artifact_;
  std::unique_ptr<ScheduleCache> cache_;  ///< null when disabled by options

  std::atomic<std::uint64_t> queries_{0};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace sweep::serve
