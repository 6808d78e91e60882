// Tests for the bounded MPMC NotificationQueue and its batch API, in
// particular the capacity contract (counted in items, whatever the batch
// size) and the shutdown contract: close() must release producers blocked
// on a full queue (their push() returns false) and consumers blocked on an
// empty one.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <optional>
#include <thread>
#include <vector>

#include "rcdc/notification_queue.hpp"

namespace dcv::rcdc {
namespace {

bool push(NotificationQueue<int>& queue, std::vector<int> items) {
  return queue.push(items);
}

/// Pops one item; nullopt once the queue is closed and drained.
std::optional<int> pop_one(NotificationQueue<int>& queue) {
  std::vector<int> out;
  if (!queue.pop(out, 1)) return std::nullopt;
  EXPECT_EQ(out.size(), 1u);
  return out.front();
}

TEST(NotificationQueue, FifoOrderAndSize) {
  NotificationQueue<int> queue(8);
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_TRUE(push(queue, {1}));
  EXPECT_TRUE(push(queue, {2, 3}));
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(pop_one(queue), std::optional<int>(1));
  EXPECT_EQ(pop_one(queue), std::optional<int>(2));
  EXPECT_EQ(pop_one(queue), std::optional<int>(3));
  EXPECT_EQ(queue.size(), 0u);
}

TEST(NotificationQueue, PushEmptiesTheBatch) {
  NotificationQueue<int> queue(8);
  std::vector<int> batch{4, 5};
  EXPECT_TRUE(queue.push(batch));
  EXPECT_TRUE(batch.empty());
  EXPECT_TRUE(queue.push(batch));  // an empty batch is a no-op
  EXPECT_EQ(queue.size(), 2u);
}

TEST(NotificationQueue, CapacityIsClampedToAtLeastOne) {
  NotificationQueue<int> queue(0);
  EXPECT_TRUE(push(queue, {7}));  // would deadlock if capacity stayed 0
  EXPECT_EQ(pop_one(queue), std::optional<int>(7));
}

TEST(NotificationQueue, PopDrainsRemainingItemsAfterClose) {
  NotificationQueue<int> queue(4);
  EXPECT_TRUE(push(queue, {1, 2}));
  queue.close();
  EXPECT_FALSE(push(queue, {3}));  // closed: rejected immediately
  EXPECT_EQ(pop_one(queue), std::optional<int>(1));
  EXPECT_EQ(pop_one(queue), std::optional<int>(2));
  EXPECT_EQ(pop_one(queue), std::nullopt);
}

TEST(NotificationQueue, CloseReleasesProducersBlockedOnFullQueue) {
  NotificationQueue<int> queue(1);
  ASSERT_TRUE(push(queue, {0}));  // fill to capacity

  constexpr int kProducers = 4;
  std::atomic<int> started{0};
  std::atomic<int> rejected{0};
  std::vector<std::thread> producers;
  producers.reserve(kProducers);
  for (int i = 0; i < kProducers; ++i) {
    producers.emplace_back([&queue, &started, &rejected, i] {
      started.fetch_add(1);
      if (!push(queue, {i + 1})) rejected.fetch_add(1);
    });
  }
  // Let every producer reach (and block in) push() against the full queue.
  while (started.load() < kProducers) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  queue.close();
  for (auto& producer : producers) producer.join();  // must not deadlock
  EXPECT_EQ(rejected.load(), kProducers);

  // The item enqueued before close is still deliverable.
  EXPECT_EQ(pop_one(queue), std::optional<int>(0));
  EXPECT_EQ(pop_one(queue), std::nullopt);
}

TEST(NotificationQueue, CloseReleasesConsumersBlockedOnEmptyQueue) {
  NotificationQueue<int> queue(4);
  std::atomic<int> woke_empty{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&queue, &woke_empty] {
      std::vector<int> out{-1};
      if (!queue.pop(out, 8) && out.empty()) woke_empty.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.close();
  for (auto& consumer : consumers) consumer.join();
  EXPECT_EQ(woke_empty.load(), 3);
}

TEST(NotificationQueue, BackpressuredProducerDeliversEverythingInOrder) {
  NotificationQueue<int> queue(2);
  constexpr int kItems = 200;
  std::thread producer([&queue] {
    for (int i = 0; i < kItems; ++i) ASSERT_TRUE(push(queue, {i}));
  });
  for (int i = 0; i < kItems; ++i) {
    const auto item = pop_one(queue);
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
  producer.join();
  queue.close();
  EXPECT_EQ(pop_one(queue), std::nullopt);
}

// A batch ten times the capacity goes in piece by piece: it arrives whole
// and in order, and neither the consumer nor a concurrent reader ever sees
// more than the capacity queued.
TEST(NotificationQueue, BatchLargerThanCapacityArrivesWholeInOrder) {
  constexpr std::size_t kCapacity = 5;
  constexpr int kItems = 50;
  NotificationQueue<int> queue(kCapacity);
  std::atomic<bool> done{false};
  std::atomic<std::size_t> max_seen{0};
  std::thread reader([&] {
    while (!done.load()) {
      const std::size_t depth = queue.size();
      if (depth > max_seen.load()) max_seen.store(depth);
      std::this_thread::yield();
    }
  });
  bool pushed = false;
  std::thread producer([&] {
    std::vector<int> batch;
    for (int i = 0; i < kItems; ++i) batch.push_back(i);
    pushed = queue.push(batch);
    queue.close();
  });
  std::vector<int> received;
  std::vector<int> out;
  while (queue.pop(out, 3)) {
    EXPECT_LE(out.size(), 3u);
    EXPECT_LE(queue.size(), kCapacity);
    received.insert(received.end(), out.begin(), out.end());
  }
  producer.join();
  done.store(true);
  reader.join();
  EXPECT_TRUE(pushed);
  ASSERT_EQ(received.size(), static_cast<std::size_t>(kItems));
  for (int i = 0; i < kItems; ++i) EXPECT_EQ(received[i], i);
  EXPECT_LE(max_seen.load(), kCapacity);
}

// close() while a producer's batch is only partly admitted releases the
// producer: push returns false, the admitted prefix stays deliverable and
// the rest is dropped.
TEST(NotificationQueue, CloseWhileBatchPartlyAdmittedReleasesProducer) {
  NotificationQueue<int> queue(2);
  std::atomic<int> result{-1};
  std::thread producer([&] {
    std::vector<int> batch{10, 11, 12, 13, 14};
    result.store(queue.push(batch) ? 1 : 0);
  });
  while (queue.size() < 2) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(result.load(), -1);  // still blocked on the rest of its batch
  queue.close();
  producer.join();  // must not deadlock
  EXPECT_EQ(result.load(), 0);
  EXPECT_EQ(pop_one(queue), std::optional<int>(10));
  EXPECT_EQ(pop_one(queue), std::optional<int>(11));
  EXPECT_EQ(pop_one(queue), std::nullopt);
}

TEST(NotificationQueue, PopTakesAtMostMaxInFifoOrderAcrossBatches) {
  NotificationQueue<int> queue(16);
  ASSERT_TRUE(push(queue, {0, 1, 2}));
  ASSERT_TRUE(push(queue, {3, 4, 5, 6}));
  ASSERT_TRUE(push(queue, {7}));
  std::vector<int> out;
  ASSERT_TRUE(queue.pop(out, 2));
  EXPECT_EQ(out, (std::vector<int>{0, 1}));
  ASSERT_TRUE(queue.pop(out, 3));
  EXPECT_EQ(out, (std::vector<int>{2, 3, 4}));
  EXPECT_EQ(queue.size(), 3u);
  ASSERT_TRUE(queue.pop(out, 10));
  EXPECT_EQ(out, (std::vector<int>{5, 6, 7}));
  queue.close();
  EXPECT_FALSE(queue.pop(out, 10));
  EXPECT_TRUE(out.empty());
}

// With several consumers a pop takes at most ceil(queued / consumers), so a
// burst spreads over all of them; `max` still caps each pop.
TEST(NotificationQueue, PopTakesOneConsumersShareOfWhatIsQueued) {
  NotificationQueue<int> queue(64, 4);
  std::vector<int> batch;
  for (int i = 0; i < 40; ++i) batch.push_back(i);
  ASSERT_TRUE(queue.push(batch));
  std::vector<int> out;
  ASSERT_TRUE(queue.pop(out, 32));
  EXPECT_EQ(out.size(), 10u);  // 40 / 4
  EXPECT_EQ(out.front(), 0);
  ASSERT_TRUE(queue.pop(out, 32));
  EXPECT_EQ(out.size(), 8u);  // ceil(30 / 4)
  EXPECT_EQ(out.front(), 10);
  ASSERT_TRUE(queue.pop(out, 4));
  EXPECT_EQ(out.size(), 4u);  // capped by max below the share of 6
  EXPECT_EQ(queue.size(), 18u);
  while (queue.size() > 1) ASSERT_TRUE(queue.pop(out, 32));
  ASSERT_TRUE(queue.pop(out, 32));
  EXPECT_EQ(out, (std::vector<int>{39}));  // a share is never empty
}

}  // namespace
}  // namespace dcv::rcdc
