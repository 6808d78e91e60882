#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <iterator>
#include <mutex>
#include <vector>

namespace dcv::rcdc {

/// The cloud-queue stand-in of the Figure 5 pipeline: a bounded MPMC queue
/// of notifications. The puller posts "routing table ready for device X";
/// validators consume. Both sides move notifications in batches, one lock
/// and at most one wake-up per batch, but the bound counts notifications:
/// push() blocks while the queue is at capacity, so a burst of fast pulls
/// backpressures the pullers instead of buffering unbounded tables.
template <typename T>
class NotificationQueue {
 public:
  /// `consumers` is how many threads pop: each pop takes at most its share
  /// of what is queued (guided self-scheduling), so the last batches of a
  /// burst spread over every consumer instead of queueing behind one.
  explicit NotificationQueue(std::size_t capacity, std::size_t consumers = 1)
      : capacity_(std::max<std::size_t>(1, capacity)),
        consumers_(std::max<std::size_t>(1, consumers)) {}

  /// Moves `items` in, in order, as room allows, and blocks while the queue
  /// is full; a batch larger than the capacity goes in piece by piece. On
  /// return `items` is empty. Closing the queue releases a blocked producer:
  /// what it had not yet admitted is dropped (push returns false) rather
  /// than deadlocking it against consumers that will never pop again.
  /// Returns true if every item was enqueued.
  bool push(std::vector<T>& items) {
    if (items.empty()) return true;
    std::size_t admitted = 0;
    bool room = false;
    {
      std::unique_lock lock(mutex_);
      while (admitted < items.size()) {
        space_.wait(lock, [&] { return items_.size() < capacity_ || closed_; });
        if (closed_) break;
        const std::size_t n =
            std::min(items.size() - admitted, capacity_ - items_.size());
        const auto first =
            items.begin() + static_cast<std::ptrdiff_t>(admitted);
        items_.insert(items_.end(), std::make_move_iterator(first),
                      std::make_move_iterator(
                          first + static_cast<std::ptrdiff_t>(n)));
        admitted += n;
        depth_.store(items_.size(), std::memory_order_relaxed);
        // Full with more to go: wake a consumer before waiting for room.
        if (admitted < items.size()) ready_.notify_one();
      }
      room = items_.size() < capacity_;
    }
    const bool all = admitted == items.size();
    items.clear();
    if (admitted > 0) ready_.notify_one();
    // Pass on the room a consumer freed to the next blocked producer.
    if (room) space_.notify_one();
    return all;
  }

  /// Blocks until an item arrives or the queue is closed and drained, then
  /// replaces `out` with up to `max` (≥ 1) items from the front, and no
  /// more than a consumer's share: ceil(queued / consumers). Returns false,
  /// with `out` empty, once the queue is closed and drained.
  bool pop(std::vector<T>& out, std::size_t max) {
    out.clear();
    bool more = false;
    {
      std::unique_lock lock(mutex_);
      ready_.wait(lock, [&] { return !items_.empty() || closed_; });
      if (items_.empty()) return false;
      const std::size_t share = (items_.size() + consumers_ - 1) / consumers_;
      const auto last =
          items_.begin() + static_cast<std::ptrdiff_t>(
                               std::min(std::max<std::size_t>(1, max), share));
      out.insert(out.end(), std::make_move_iterator(items_.begin()),
                 std::make_move_iterator(last));
      items_.erase(items_.begin(), last);
      depth_.store(items_.size(), std::memory_order_relaxed);
      more = !items_.empty();
    }
    space_.notify_one();
    // Leave what this consumer did not take to the next one.
    if (more) ready_.notify_one();
    return true;
  }

  void close() {
    {
      const std::lock_guard lock(mutex_);
      closed_ = true;
    }
    ready_.notify_all();
    space_.notify_all();
  }

  /// Depth after the latest push or pop, read without the lock (for
  /// queue-depth gauges; racy by nature). Never exceeds the capacity.
  [[nodiscard]] std::size_t size() const {
    return depth_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mutex_;
  std::condition_variable ready_;
  std::condition_variable space_;
  std::deque<T> items_;
  std::atomic<std::size_t> depth_{0};
  std::size_t capacity_;
  std::size_t consumers_;
  bool closed_ = false;
};

}  // namespace dcv::rcdc
