#include "serve/schedule_cache.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "util/hash.hpp"

namespace sweep::serve {
namespace {

/// Approximate residency cost of one entry: the payload struct, the start
/// array's heap block (none for a scalar entry, which comes to about 260
/// bytes), both map nodes (LRU + hash bucket), and the key copies.
/// Deliberately rounded up — the byte bound is a memory budget, not an
/// accounting exercise.
std::uint64_t approx_entry_bytes(const QueryResponse& payload) {
  return sizeof(QueryResponse) +
         payload.starts.capacity() * sizeof(std::uint32_t) +
         2 * sizeof(CacheKey) + 96;
}

std::size_t round_up_pow2(std::size_t v) {
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

}  // namespace

std::size_t CacheKeyHash::operator()(const CacheKey& k) const noexcept {
  // Field-wise FNV-1a (never the struct's object representation: padding
  // would hash indeterminate bytes).
  std::uint64_t h = util::kFnv1aOffsetBasis;
  const auto fold = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= util::kFnv1aPrime;
    }
  };
  fold(k.content_hash);
  fold((static_cast<std::uint64_t>(k.scheme) << 32) | k.m);
  fold(static_cast<std::uint64_t>(k.partition));
  fold(k.seed);
  fold(k.want_starts ? 1 : 0);
  return static_cast<std::size_t>(h);
}

ScheduleCache::ScheduleCache(ScheduleCacheOptions options) {
  if (!options.enabled()) return;
  const std::size_t shards = round_up_pow2(
      std::clamp<std::size_t>(options.shards, 1, 256));
  shards_.reserve(shards);
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  shard_mask_ = shards - 1;
  entries_per_shard_ = std::max<std::size_t>(1, options.max_entries / shards);
  bytes_per_shard_ = options.max_bytes / shards;
}

ScheduleCache::Ticket& ScheduleCache::Ticket::operator=(
    Ticket&& other) noexcept {
  if (this != &other) {
    if (cache_ != nullptr) cache_->abandon(*this);
    cache_ = std::exchange(other.cache_, nullptr);
    shard_ = other.shard_;
    key_ = other.key_;
    inflight_ = std::move(other.inflight_);
  }
  return *this;
}

ScheduleCache::Ticket::~Ticket() {
  if (cache_ != nullptr) cache_->abandon(*this);
}

std::size_t ScheduleCache::shard_of(const CacheKey& key) const {
  return CacheKeyHash{}(key)&shard_mask_;
}

ScheduleCache::Probe ScheduleCache::lookup_or_join(const CacheKey& key) {
  Probe probe;
  if (!enabled()) {
    // Disabled cache: every probe computes; no coalescing, no admission.
    misses_.fetch_add(1, std::memory_order_relaxed);
    probe.kind = ProbeKind::kMiss;
    probe.ticket = Ticket(this, 0, key, nullptr);
    return probe;
  }
  const std::size_t index = shard_of(key);
  Shard& shard = *shards_[index];
  std::shared_future<Value> wait_on;
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    if (const auto it = shard.map.find(key); it != shard.map.end()) {
      // Touch: splice the node to the LRU front without invalidating the
      // map's iterator.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      hits_.fetch_add(1, std::memory_order_relaxed);
      probe.kind = ProbeKind::kHit;
      probe.value = it->second->value;
      return probe;
    }
    if (const auto it = shard.inflight.find(key); it != shard.inflight.end()) {
      wait_on = it->second->future;  // park outside the lock
    } else {
      auto inflight = std::make_shared<Inflight>();
      inflight->future = inflight->promise.get_future().share();
      shard.inflight.emplace(key, inflight);
      misses_.fetch_add(1, std::memory_order_relaxed);
      probe.kind = ProbeKind::kMiss;
      probe.ticket = Ticket(this, index, key, std::move(inflight));
      return probe;
    }
  }
  inflight_waits_.fetch_add(1, std::memory_order_relaxed);
  probe.kind = ProbeKind::kJoined;
  probe.value = wait_on.get();  // rethrows the leader's failure
  return probe;
}

void ScheduleCache::insert_locked(Shard& shard, const CacheKey& key,
                                  Value value) {
  // Epoch gate (see header): admitting under the shard mutex makes "stale
  // entry survives a swap" impossible — either the invalidate sweep runs
  // after us and erases it, or it ran before us and the new current hash
  // is visible here, so we drop the insert.
  if (current_hash_.load(std::memory_order_acquire) != key.content_hash) {
    return;
  }
  const std::uint64_t bytes = approx_entry_bytes(*value);
  if (bytes > bytes_per_shard_) return;  // never admissible; don't thrash
  if (shard.map.contains(key)) return;   // a racing leader beat us to it
  shard.lru.push_front(Node{key, std::move(value), bytes});
  shard.map.emplace(key, shard.lru.begin());
  shard.bytes += bytes;
  while (shard.map.size() > entries_per_shard_ ||
         shard.bytes > bytes_per_shard_) {
    const Node& tail = shard.lru.back();
    shard.bytes -= tail.bytes;
    shard.map.erase(tail.key);
    shard.lru.pop_back();
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void ScheduleCache::fill(Ticket&& ticket, Value value) {
  if (ticket.cache_ != this) return;  // empty or foreign ticket
  ticket.cache_ = nullptr;
  if (ticket.inflight_ == nullptr) return;  // disabled-cache ticket
  Shard& shard = *shards_[ticket.shard_];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.inflight.erase(ticket.key_);
    insert_locked(shard, ticket.key_, value);
  }
  // Wake waiters after the entry is resident, so a waiter that re-probes
  // immediately sees a hit rather than becoming a second leader.
  ticket.inflight_->promise.set_value(std::move(value));
}

void ScheduleCache::fail(Ticket&& ticket, std::exception_ptr error) noexcept {
  if (ticket.cache_ != this) return;
  ticket.cache_ = nullptr;
  if (ticket.inflight_ == nullptr) return;
  Shard& shard = *shards_[ticket.shard_];
  {
    std::lock_guard<std::mutex> lock(shard.mutex);
    shard.inflight.erase(ticket.key_);
  }
  ticket.inflight_->promise.set_exception(std::move(error));
}

void ScheduleCache::abandon(Ticket& ticket) noexcept {
  // A leader unwound without resolving its ticket (should not happen —
  // ServeService resolves on every path). Fail the waiters rather than
  // letting them block forever.
  Ticket local = std::move(ticket);  // clears ticket.cache_
  fail(std::move(local),
       std::make_exception_ptr(
           std::runtime_error("schedule cache: computation abandoned")));
}

void ScheduleCache::invalidate(std::uint64_t current_hash) {
  // Flip the admission gate FIRST (release pairs with the acquire in
  // insert_locked through the shard mutexes), then sweep.
  current_hash_.store(current_hash, std::memory_order_release);
  if (!enabled()) return;
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    for (auto it = shard.lru.begin(); it != shard.lru.end();) {
      if (it->key.content_hash != current_hash) {
        shard.bytes -= it->bytes;
        shard.map.erase(it->key);
        it = shard.lru.erase(it);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
      } else {
        ++it;
      }
    }
  }
}

ScheduleCacheStats ScheduleCache::stats() const {
  ScheduleCacheStats out;
  out.hits = hits_.load(std::memory_order_relaxed);
  out.misses = misses_.load(std::memory_order_relaxed);
  out.inflight_waits = inflight_waits_.load(std::memory_order_relaxed);
  out.evictions = evictions_.load(std::memory_order_relaxed);
  out.invalidations = invalidations_.load(std::memory_order_relaxed);
  for (const std::unique_ptr<Shard>& shard_ptr : shards_) {
    const Shard& shard = *shard_ptr;
    std::lock_guard<std::mutex> lock(shard.mutex);
    out.entries += shard.map.size();
    out.bytes += shard.bytes;
  }
  return out;
}

}  // namespace sweep::serve
