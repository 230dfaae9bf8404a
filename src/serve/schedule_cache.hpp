#pragma once
// Concurrent schedule cache + single-flight executor for the serve path
// (DESIGN.md §15). Serving workloads are dominated by repeats — the same
// (artifact, scheme, m, seed) tuple asked again and again, exactly as in
// iterative transport solvers where one sweep schedule is reused across
// source iterations — so ServeService probes this cache between the decode
// and schedule phases and only runs list_schedule on a genuine miss.
//
// Design (in the spirit of ucset's partitioned.hpp):
//  - The key space is sharded by hash across independent shards, each with
//    its own mutex, LRU list, and hash map, so concurrent probes on
//    different keys never contend on one lock.
//  - Values are immutable shared_ptr<const QueryResponse> payloads holding
//    what their query asked for: the start array only when the key's
//    want_starts is set, so a scalar query's entry is its scalars (about
//    260 bytes) and a want_starts query fills a separate entry of its own.
//    A hit is byte-identical to the cold path by construction: both paths
//    assemble the wire response from the same payload fields.
//  - Memory is bounded per shard (total bounds divided across shards):
//    entries over the count bound or bytes over the byte bound evict from
//    the shard's LRU tail. A payload bigger than one shard's byte budget is
//    never admitted, so total residency never exceeds max_bytes. Only start
//    arrays weigh enough for the byte bound to bind before the entry bound.
//  - Single flight: the first prober of an absent key becomes the leader
//    (kMiss + Ticket) and MUST resolve the ticket with fill() or fail();
//    concurrent probers of the same key park on a shared_future and wake
//    with the leader's value (kJoined) — N identical queries cost one
//    list_schedule. A leader failure rethrows the SAME exception in every
//    waiter, so coalesced errors are indistinguishable from solo ones.
//  - Epoch invalidation keyed off the artifact content hash: the key
//    embeds the content hash of the artifact snapshot the query ran
//    against, and the cache tracks the hash of the CURRENTLY installed
//    artifact. invalidate(new_hash) flips the current hash first, then
//    sweeps every shard; fill() re-checks the current hash under the shard
//    lock and drops stale insertions. Why no stale entry can survive a
//    swap: an entry under hash H is admitted only while current == H
//    (checked under the same shard mutex the sweep takes), so it either
//    lands before the sweep locks that shard — and is erased by it — or
//    after, in which case the release-store of the new hash happens-before
//    the admission check (mutex edge) and the insert is dropped. A probe
//    for the new artifact carries the new hash in its key and can never
//    match an old-hash entry anyway; the sweep is about reclaiming memory
//    promptly, not correctness.
//
// The cache never throws on the probe path except to propagate a leader's
// computation failure; allocation failures aside, fill/fail are noexcept
// in spirit (fail is noexcept in letter).

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "serve/wire.hpp"

namespace sweep::serve {

/// Identity of one cacheable query against one artifact snapshot. `m` is
/// normalized to 0 when `partition >= 0` (the computation ignores it), so
/// (m=7, partition=2) and (m=9, partition=2) share an entry. `want_starts`
/// is part of the identity because it decides what the entry holds.
struct CacheKey {
  std::uint64_t content_hash = 0;  ///< artifact snapshot the query ran on
  std::uint32_t scheme = 0;        ///< wire value of serve::Scheme
  std::uint32_t m = 0;             ///< processors; 0 when partition >= 0
  std::int64_t partition = -1;     ///< embedded partition index or -1
  std::uint64_t seed = 0;
  bool want_starts = false;        ///< the entry holds the start array

  bool operator==(const CacheKey&) const = default;
};

struct CacheKeyHash {
  std::size_t operator()(const CacheKey& k) const noexcept;
};

struct ScheduleCacheOptions {
  /// Total entry bound across all shards. 0 disables caching entirely
  /// (every probe is a kMiss with an inert ticket; no coalescing).
  std::size_t max_entries = 4096;
  /// Total approximate byte bound across all shards. 0 disables.
  std::size_t max_bytes = std::size_t{256} << 20;
  /// Lock shards; clamped to [1, 256] and rounded up to a power of two.
  std::size_t shards = 16;

  [[nodiscard]] bool enabled() const {
    return max_entries > 0 && max_bytes > 0;
  }
};

/// Point-in-time view of the cache counters (monotonic except entries and
/// bytes, which are current residency).
struct ScheduleCacheStats {
  std::uint64_t hits = 0;            ///< probe found a resident entry
  std::uint64_t misses = 0;          ///< probe became the compute leader
  std::uint64_t inflight_waits = 0;  ///< probe parked on a leader in flight
  std::uint64_t evictions = 0;       ///< entries dropped by LRU bounds
  std::uint64_t invalidations = 0;   ///< entries dropped by epoch sweeps
  std::uint64_t entries = 0;         ///< resident entries right now
  std::uint64_t bytes = 0;           ///< approximate resident bytes

  /// Hit rate over decided probes (waits excluded: they neither computed
  /// nor found a resident entry). Percent in [0, 100]; 0 when idle.
  [[nodiscard]] std::uint64_t hit_rate_pct() const {
    const std::uint64_t decided = hits + misses;
    return decided == 0 ? 0 : (hits * 100) / decided;
  }
};

class ScheduleCache {
 public:
  /// Immutable cached payload; `starts` is populated iff the key's
  /// want_starts is set.
  using Value = std::shared_ptr<const QueryResponse>;

  explicit ScheduleCache(ScheduleCacheOptions options);
  ScheduleCache(const ScheduleCache&) = delete;
  ScheduleCache& operator=(const ScheduleCache&) = delete;

 private:
  /// One in-flight computation; waiters share the future.
  struct Inflight {
    std::promise<Value> promise;
    std::shared_future<Value> future;
  };

 public:
  /// Leader token for a kMiss. Move-only; the holder MUST resolve it with
  /// fill() or fail(). If it is destroyed unresolved (leader unwound past
  /// both), the destructor fails it so waiters never hang.
  class Ticket {
   public:
    Ticket() = default;
    Ticket(Ticket&& other) noexcept { *this = std::move(other); }
    Ticket& operator=(Ticket&& other) noexcept;
    ~Ticket();
    Ticket(const Ticket&) = delete;
    Ticket& operator=(const Ticket&) = delete;

    /// True while this ticket still owes a fill()/fail().
    [[nodiscard]] bool armed() const { return cache_ != nullptr; }

   private:
    friend class ScheduleCache;
    Ticket(ScheduleCache* cache, std::size_t shard, const CacheKey& key,
           std::shared_ptr<Inflight> inflight)
        : cache_(cache),
          shard_(shard),
          key_(key),
          inflight_(std::move(inflight)) {}

    ScheduleCache* cache_ = nullptr;
    std::size_t shard_ = 0;
    CacheKey key_{};
    std::shared_ptr<Inflight> inflight_;  ///< null when caching is disabled
  };

  enum class ProbeKind {
    kHit,     ///< resident entry; `value` set
    kJoined,  ///< parked on a leader and woke with its `value`
    kMiss,    ///< caller is the leader; `ticket` must be resolved
  };

  struct Probe {
    ProbeKind kind = ProbeKind::kMiss;
    Value value;    ///< set iff kind != kMiss
    Ticket ticket;  ///< armed iff kind == kMiss
  };

  /// Probes `key`. May block (kJoined) until the leader resolves, and
  /// rethrows the leader's exception if it fail()ed — identical queries
  /// fail identically, so waiters surface the same error the leader did.
  Probe lookup_or_join(const CacheKey& key);

  /// Publishes the leader's value: wakes every waiter, then admits the
  /// entry unless it is oversized or its epoch went stale (see header).
  void fill(Ticket&& ticket, Value value);

  /// Propagates the leader's failure to every waiter; nothing is cached.
  void fail(Ticket&& ticket, std::exception_ptr error) noexcept;

  /// Epoch flip after a hot swap: `current_hash` is the content hash of
  /// the artifact now being served. Entries under any other hash are
  /// swept; stale fills racing the sweep are dropped on admission.
  void invalidate(std::uint64_t current_hash);

  [[nodiscard]] ScheduleCacheStats stats() const;

  [[nodiscard]] bool enabled() const { return !shards_.empty(); }

 private:
  struct Node {
    CacheKey key;
    Value value;
    std::uint64_t bytes = 0;
  };

  struct Shard {
    mutable std::mutex mutex;
    std::list<Node> lru;  ///< front = most recently used
    std::unordered_map<CacheKey, std::list<Node>::iterator, CacheKeyHash> map;
    std::unordered_map<CacheKey, std::shared_ptr<Inflight>, CacheKeyHash>
        inflight;
    std::uint64_t bytes = 0;
  };

  [[nodiscard]] std::size_t shard_of(const CacheKey& key) const;
  /// Admission + LRU eviction; caller holds shard.mutex.
  void insert_locked(Shard& shard, const CacheKey& key, Value value);
  void abandon(Ticket& ticket) noexcept;

  std::vector<std::unique_ptr<Shard>> shards_;  ///< empty when disabled
  std::size_t shard_mask_ = 0;
  std::size_t entries_per_shard_ = 0;
  std::size_t bytes_per_shard_ = 0;

  /// Content hash of the artifact currently being served; admission gate.
  std::atomic<std::uint64_t> current_hash_{0};

  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> inflight_waits_{0};
  std::atomic<std::uint64_t> evictions_{0};
  std::atomic<std::uint64_t> invalidations_{0};
};

}  // namespace sweep::serve
