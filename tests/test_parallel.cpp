#include "util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <stdexcept>
#include <vector>

#include "util/thread_pool.hpp"

#include "sweep/instance.hpp"
#include "test_helpers.hpp"

namespace sweep {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (std::size_t threads : {1u, 2u, 4u, 7u}) {
    std::vector<std::atomic<int>> hits(103);
    util::parallel_for(
        103, [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, EmptyAndSingle) {
  int calls = 0;
  util::parallel_for(0, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 0);
  util::parallel_for(1, [&](std::size_t) { ++calls; }, 4);
  EXPECT_EQ(calls, 1);
}

TEST(ParallelFor, MoreThreadsThanWorkClampsSafely) {
  std::atomic<int> total{0};
  util::parallel_for(3, [&](std::size_t) { total.fetch_add(1); }, 64);
  EXPECT_EQ(total.load(), 3);
}

TEST(ParallelFor, PropagatesFirstException) {
  for (std::size_t threads : {1u, 4u}) {
    try {
      util::parallel_for(
          200,
          [&](std::size_t i) {
            if (i == 57) throw std::runtime_error("boom at 57");
          },
          threads);
      FAIL() << "expected exception with threads=" << threads;
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "boom at 57");
    }
  }
}

TEST(ParallelFor, ExceptionAbandonsRemainingChunks) {
  // After a throw the loop must stop handing out work; with a serial
  // executor that is exact (nothing after the throwing index runs).
  std::vector<char> ran(100, 0);
  EXPECT_THROW(util::parallel_for(
                   100,
                   [&](std::size_t i) {
                     if (i == 10) throw std::runtime_error("stop");
                     ran[i] = 1;
                   },
                   1),
               std::runtime_error);
  for (std::size_t i = 11; i < ran.size(); ++i) EXPECT_FALSE(ran[i]);
}

TEST(ParallelFor, NestedCallsDoNotDeadlock) {
  // The caller always participates, so an inner loop can run even when every
  // pool worker is parked inside the outer one.
  std::atomic<int> total{0};
  util::parallel_for(
      8,
      [&](std::size_t) {
        util::parallel_for(
            16, [&](std::size_t) { total.fetch_add(1); }, 0);
      },
      0);
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(ThreadPool, GlobalPoolIsPersistent) {
  auto& pool = util::ThreadPool::global();
  EXPECT_EQ(&pool, &util::ThreadPool::global());
  EXPECT_GE(pool.size() + 1, 1u);  // caller always counts as one executor
}

TEST(ThreadPool, ShutdownDrainsQueuedWork) {
  // The lifetime contract: shutdown() lets already-queued jobs run to
  // completion before joining, so no accepted work is dropped.
  util::ThreadPool pool(2);
  std::atomic<int> ran{0};
  for (int i = 0; i < 32; ++i) {
    pool.submit([&] { ran.fetch_add(1); });
  }
  pool.shutdown();
  EXPECT_EQ(ran.load(), 32);
}

TEST(ThreadPool, SubmitAfterShutdownThrows) {
  // A late submit must fail loudly rather than silently drop the job or
  // deadlock a waiter: the contract is std::runtime_error.
  util::ThreadPool pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(ThreadPool, ShutdownIsIdempotent) {
  util::ThreadPool pool(2);
  pool.shutdown();
  pool.shutdown();  // second call is a no-op, not a crash
  EXPECT_THROW(pool.submit([] {}), std::runtime_error);
}

TEST(BuildInstanceParallel, MatchesSerialExactly) {
  const auto mesh = test::small_tet_mesh(6, 6, 3);
  const auto dirs = dag::level_symmetric(4);
  dag::InstanceBuildStats serial_stats;
  const auto serial = dag::build_instance(mesh, dirs, 1e-9, &serial_stats);
  for (std::size_t threads : {1u, 3u, 8u}) {
    dag::InstanceBuildStats parallel_stats;
    const auto parallel = dag::build_instance_parallel(mesh, dirs, 1e-9,
                                                       &parallel_stats, threads);
    ASSERT_EQ(parallel.n_directions(), serial.n_directions());
    EXPECT_EQ(parallel_stats.total_induced_edges,
              serial_stats.total_induced_edges);
    EXPECT_EQ(parallel_stats.total_dropped_edges,
              serial_stats.total_dropped_edges);
    const dag::TaskGraph& a = serial.task_graph();
    const dag::TaskGraph& b = parallel.task_graph();
    ASSERT_TRUE(std::equal(a.offsets().begin(), a.offsets().end(),
                           b.offsets().begin(), b.offsets().end()))
        << "threads " << threads;
    ASSERT_TRUE(std::equal(a.targets().begin(), a.targets().end(),
                           b.targets().begin(), b.targets().end()))
        << "threads " << threads;
  }
}

}  // namespace
}  // namespace sweep
