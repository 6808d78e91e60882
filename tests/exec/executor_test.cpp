#include "exec/executor.hpp"

#include <gtest/gtest.h>
#include <sched.h>

#include <atomic>
#include <barrier>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace dcv::exec {
namespace {

TEST(Executor, RunCallsEveryWorkerOnceWithWorkerZeroOnTheCaller) {
  constexpr unsigned kWorkers = 6;
  std::vector<std::atomic<int>> calls(kWorkers);
  std::thread::id worker_zero;
  run(kWorkers, [&](unsigned w) {
    calls[w].fetch_add(1);
    if (w == 0) worker_zero = std::this_thread::get_id();
  });
  for (unsigned w = 0; w < kWorkers; ++w) EXPECT_EQ(calls[w].load(), 1) << w;
  EXPECT_EQ(worker_zero, std::this_thread::get_id());
}

// Every worker waits for all the others: with fewer threads than workers
// this never returns.
TEST(Executor, AllWorkersRunConcurrently) {
  constexpr unsigned kWorkers = 5;
  std::barrier sync(kWorkers);
  std::atomic<unsigned> passed{0};
  run(kWorkers, [&](unsigned) {
    sync.arrive_and_wait();
    passed.fetch_add(1);
  });
  EXPECT_EQ(passed.load(), kWorkers);
}

TEST(Executor, SecondCallReusesTheParkedThreads) {
  constexpr unsigned kWorkers = 4;
  const auto thread_ids = [&] {
    std::mutex mutex;
    std::set<std::thread::id> ids;
    run(kWorkers, [&](unsigned w) {
      if (w == 0) return;
      const std::lock_guard lock(mutex);
      ids.insert(std::this_thread::get_id());
    });
    return ids;
  };
  const std::set<std::thread::id> first = thread_ids();
  ASSERT_EQ(first.size(), kWorkers - 1);
  EXPECT_FALSE(first.contains(std::this_thread::get_id()));
  EXPECT_EQ(thread_ids(), first);
}

TEST(Executor, NestedRunInsideAJob) {
  constexpr unsigned kOuter = 3;
  constexpr unsigned kInner = 4;
  std::vector<std::atomic<int>> calls(kOuter * kInner);
  run(kOuter, [&](unsigned outer) {
    // Each nested call's workers also meet at a barrier: nesting claims
    // threads of its own instead of waiting for the outer call's.
    std::barrier sync(kInner);
    run(kInner, [&](unsigned inner) {
      sync.arrive_and_wait();
      calls[outer * kInner + inner].fetch_add(1);
    });
  });
  for (const auto& count : calls) EXPECT_EQ(count.load(), 1);
}

TEST(Executor, ConcurrentCallersEachGetTheirOwnThreads) {
  constexpr unsigned kWorkers = 4;
  constexpr int kRounds = 20;
  std::atomic<int> calls{0};
  const auto caller = [&] {
    for (int round = 0; round < kRounds; ++round) {
      std::barrier sync(kWorkers);
      run(kWorkers, [&](unsigned) {
        sync.arrive_and_wait();
        calls.fetch_add(1);
      });
    }
  };
  std::thread a(caller);
  std::thread b(caller);
  a.join();
  b.join();
  EXPECT_EQ(calls.load(), 2 * kRounds * static_cast<int>(kWorkers));
}

TEST(Executor, ExceptionIsRethrownAfterEveryWorkerReturned) {
  constexpr unsigned kWorkers = 4;
  for (const unsigned thrower : {0u, 2u}) {
    std::atomic<unsigned> returned{0};
    const auto job = [&](unsigned w) {
      if (w == thrower) throw std::runtime_error("worker failed");
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      returned.fetch_add(1);
    };
    try {
      run(kWorkers, job);
      ADD_FAILURE() << "run() swallowed the exception of worker " << thrower;
    } catch (const std::runtime_error& error) {
      EXPECT_STREQ(error.what(), "worker failed");
      EXPECT_EQ(returned.load(), kWorkers - 1) << "thrower " << thrower;
    }
  }
  // The threads are parked again and serve the next call.
  std::atomic<unsigned> calls{0};
  run(kWorkers, [&](unsigned) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), kWorkers);
}

TEST(Executor, ForEachCoversEveryIndexExactlyOnce) {
  constexpr unsigned kWorkers = 4;
  for (const std::size_t n : {std::size_t{0}, std::size_t{1},
                              std::size_t{1000}}) {
    // Worker indices stay below the workers for_each actually uses.
    const std::size_t used =
        std::max<std::size_t>(1, std::min<std::size_t>(kWorkers, n));
    std::vector<std::atomic<int>> hits(n);
    for_each(kWorkers, n, [&](unsigned worker, std::size_t i) {
      EXPECT_LT(worker, used);
      hits[i].fetch_add(1);
    });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
  }
}

TEST(Executor, ForEachWithOneWorkerRunsInlineInOrder) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  for_each(1, 5, [&](unsigned worker, std::size_t i) {
    EXPECT_EQ(worker, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(Executor, DefaultThreadsResolvesZeroToAHardwareAwareDefault) {
  const unsigned resolved = default_threads();
  EXPECT_GE(resolved, 1u);
  EXPECT_LE(resolved, 16u);
  EXPECT_EQ(default_threads(0), resolved);
  // An explicit count is taken at face value.
  EXPECT_EQ(default_threads(3), 3u);
  EXPECT_EQ(default_threads(64), 64u);
}

// A thread pinned to one CPU resolves 0 to one worker, whatever the host's
// core count.
TEST(Executor, DefaultThreadsFollowsTheCpuAffinity) {
  cpu_set_t original;
  CPU_ZERO(&original);
  ASSERT_EQ(sched_getaffinity(0, sizeof(original), &original), 0);
  int cpu = 0;
  while (!CPU_ISSET(cpu, &original)) ++cpu;
  cpu_set_t pinned;
  CPU_ZERO(&pinned);
  CPU_SET(cpu, &pinned);
  ASSERT_EQ(sched_setaffinity(0, sizeof(pinned), &pinned), 0);
  const unsigned resolved = default_threads();
  ASSERT_EQ(sched_setaffinity(0, sizeof(original), &original), 0);
  EXPECT_EQ(resolved, 1u);
  EXPECT_EQ(default_threads(),
            std::min(16u, static_cast<unsigned>(CPU_COUNT(&original))));
}

}  // namespace
}  // namespace dcv::exec
