#ifndef JFEED_SCHED_BOUNDED_QUEUE_H_
#define JFEED_SCHED_BOUNDED_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace jfeed::sched {

/// A bounded multi-producer/multi-consumer FIFO queue, the job queue of the
/// sharded scheduler. Capacity is a hard bound: producers observe
/// backpressure immediately (TryPush returns false on a full queue) — the
/// queue never buffers beyond its capacity.
///
/// Close() starts a clean shutdown: producers are rejected from then on,
/// consumers drain whatever was already admitted and then see std::nullopt.
template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admission: false when the queue is full or closed.
  bool TryPush(T value) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking removal: waits for an item; std::nullopt once the queue is
  /// closed and drained.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    not_empty_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;  // Closed and drained.
    std::optional<T> out(std::move(items_.front()));
    items_.pop_front();
    return out;
  }

  /// Rejects future pushes and wakes every waiter. Idempotent.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }

  size_t capacity() const { return capacity_; }

 private:
  const size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace jfeed::sched

#endif  // JFEED_SCHED_BOUNDED_QUEUE_H_
