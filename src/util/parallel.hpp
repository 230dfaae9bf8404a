#pragma once
// Fork-join parallelism for embarrassingly parallel loops (per-direction DAG
// builds, per-trial experiment batches), built on the persistent
// util::ThreadPool. The calling thread always participates in the loop and
// pool helpers are strictly optional, so nested parallel_for calls (a trial
// that itself builds an instance in parallel, say) can never deadlock even
// when every pool worker is busy.
//
// The body is a template parameter (no per-index std::function type-erasure)
// and the first exception thrown by any worker is rethrown in the caller
// once the loop has quiesced.

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>

#include "util/thread_pool.hpp"

namespace sweep::util {

namespace detail {

/// Control block shared between the caller and pool helpers. Held by
/// shared_ptr so a helper that only gets scheduled after the loop finished
/// can still read `next`/`count` safely; such a stale helper finds no chunk
/// left and never touches the (by then destroyed) loop body.
struct ParallelForState {
  std::size_t count = 0;
  std::size_t chunk = 1;
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;            // guarded by mutex
  std::size_t running_helpers = 0;     // guarded by mutex
  std::mutex mutex;
  std::condition_variable quiesced;
};

template <typename F>
void run_chunks(ParallelForState& state, F& body) {
  for (;;) {
    if (state.failed.load(std::memory_order_relaxed)) return;
    const std::size_t begin =
        state.next.fetch_add(state.chunk, std::memory_order_relaxed);
    if (begin >= state.count) return;
    const std::size_t end = std::min(state.count, begin + state.chunk);
    try {
      for (std::size_t i = begin; i < end; ++i) body(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(state.mutex);
      if (!state.error) state.error = std::current_exception();
      state.failed.store(true, std::memory_order_relaxed);
      return;
    }
  }
}

}  // namespace detail

/// Runs body(i) for i in [0, count) across up to `threads` concurrent
/// executors (0 = all pool workers plus the caller). Blocks until all
/// indices finish. body must be thread-safe for distinct i. If body throws,
/// remaining chunks are abandoned and the first exception is rethrown here.
/// threads == 1 runs the loop inline without touching the pool, so it does
/// not start the pool's workers either.
template <typename F>
void parallel_for(std::size_t count, F&& body, std::size_t threads = 0) {
  if (count == 0) return;
  if (threads == 0) threads = ThreadPool::global().size() + 1;
  threads = std::min(threads, count);
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) body(i);
    return;
  }
  ThreadPool& pool = ThreadPool::global();

  auto state = std::make_shared<detail::ParallelForState>();
  state->count = count;
  state->chunk = std::max<std::size_t>(1, count / (threads * 8));

  using Body = std::remove_reference_t<F>;
  Body* body_ptr = std::addressof(body);
  auto submit_helper = [&](auto&& helper) {
    // A shut-down global pool (static destruction, explicit shutdown())
    // refuses work; the caller still runs every chunk itself below, so the
    // loop degrades to serial instead of failing.
    try {
      pool.submit(std::forward<decltype(helper)>(helper));
    } catch (const std::runtime_error&) {
      return false;
    }
    return true;
  };
  for (std::size_t h = 0; h + 1 < threads; ++h) {
    const bool submitted = submit_helper([state, body_ptr] {
      {
        std::lock_guard<std::mutex> lock(state->mutex);
        // Late arrival: loop already drained (or aborted) — must not touch
        // *body_ptr, which may no longer exist.
        if (state->failed.load(std::memory_order_relaxed) ||
            state->next.load(std::memory_order_relaxed) >= state->count) {
          return;
        }
        ++state->running_helpers;
      }
      detail::run_chunks(*state, *body_ptr);
      std::lock_guard<std::mutex> lock(state->mutex);
      --state->running_helpers;
      state->quiesced.notify_all();
    });
    if (!submitted) break;
  }

  detail::run_chunks(*state, body);
  std::unique_lock<std::mutex> lock(state->mutex);
  state->quiesced.wait(lock, [&] { return state->running_helpers == 0; });
  // Move the exception OUT of the shared state: a stale helper may drop the
  // last state reference after we return, and it must not be the one that
  // releases the exception object — the main thread has already examined it
  // by then, and the only happens-before runs through libstdc++'s
  // uninstrumented exception_ptr refcount, which ThreadSanitizer cannot see.
  std::exception_ptr error = std::move(state->error);
  lock.unlock();
  if (error) std::rethrow_exception(error);
}

}  // namespace sweep::util
