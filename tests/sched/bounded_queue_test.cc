// Unit tests for the scheduler's bounded MPMC queue: FIFO order,
// backpressure on a full queue, clean close-and-drain semantics, and a
// multi-producer/multi-consumer smoke test.

#include "sched/bounded_queue.h"

#include <gtest/gtest.h>

#include <atomic>
#include <set>
#include <thread>
#include <vector>

namespace jfeed::sched {
namespace {

TEST(BoundedQueueTest, FifoOrder) {
  BoundedQueue<int> queue(8);
  for (int i = 0; i < 5; ++i) ASSERT_TRUE(queue.TryPush(i));
  for (int i = 0; i < 5; ++i) {
    auto item = queue.Pop();
    ASSERT_TRUE(item.has_value());
    EXPECT_EQ(*item, i);
  }
}

TEST(BoundedQueueTest, TryPushAppliesBackpressureWhenFull) {
  BoundedQueue<int> queue(2);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_TRUE(queue.TryPush(2));
  // Admission is rejected, not buffered: the queue never exceeds capacity.
  EXPECT_FALSE(queue.TryPush(3));
  EXPECT_EQ(queue.size(), 2u);
  // Draining one slot re-opens admission.
  ASSERT_TRUE(queue.Pop().has_value());
  EXPECT_TRUE(queue.TryPush(3));
  EXPECT_FALSE(queue.TryPush(4));
}

TEST(BoundedQueueTest, CapacityZeroClampsToOne) {
  BoundedQueue<int> queue(0);
  EXPECT_EQ(queue.capacity(), 1u);
  EXPECT_TRUE(queue.TryPush(1));
  EXPECT_FALSE(queue.TryPush(2));
}

TEST(BoundedQueueTest, CloseDrainsThenSignalsEnd) {
  BoundedQueue<int> queue(4);
  ASSERT_TRUE(queue.TryPush(1));
  ASSERT_TRUE(queue.TryPush(2));
  queue.Close();
  // Closed: no further admission.
  EXPECT_FALSE(queue.TryPush(3));
  // Already-admitted items drain in order before end-of-stream.
  EXPECT_EQ(queue.Pop().value_or(-1), 1);
  EXPECT_EQ(queue.Pop().value_or(-1), 2);
  EXPECT_FALSE(queue.Pop().has_value());
  EXPECT_FALSE(queue.Pop().has_value());  // Idempotent end-of-stream.
}

TEST(BoundedQueueTest, CloseWakesBlockedConsumer) {
  BoundedQueue<int> queue(2);
  std::atomic<bool> got_end{false};
  std::thread consumer([&] {
    got_end = !queue.Pop().has_value();
  });
  // Give the consumer a moment to block on the empty queue, then close.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  queue.Close();
  consumer.join();
  EXPECT_TRUE(got_end);
}

TEST(BoundedQueueTest, MpmcDeliversEveryItemExactlyOnce) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 250;
  BoundedQueue<int> queue(8);
  std::mutex seen_mu;
  std::set<int> seen;

  std::vector<std::thread> consumers;
  for (int c = 0; c < kConsumers; ++c) {
    consumers.emplace_back([&] {
      while (auto item = queue.Pop()) {
        std::lock_guard<std::mutex> lock(seen_mu);
        EXPECT_TRUE(seen.insert(*item).second) << "duplicate " << *item;
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&queue, p] {
      // A full queue rejects instead of blocking: retry until a consumer
      // frees a slot.
      for (int i = 0; i < kPerProducer; ++i) {
        while (!queue.TryPush(p * kPerProducer + i)) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  queue.Close();
  for (auto& t : consumers) t.join();
  EXPECT_EQ(seen.size(), static_cast<size_t>(kProducers * kPerProducer));
}

}  // namespace
}  // namespace jfeed::sched
