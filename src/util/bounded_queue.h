#ifndef PAYGO_UTIL_BOUNDED_QUEUE_H_
#define PAYGO_UTIL_BOUNDED_QUEUE_H_

/// \file bounded_queue.h
/// \brief A bounded multi-producer multi-consumer queue with non-blocking
/// admission.
///
/// Originally the serving layer's back-pressure primitive, now shared
/// with the TCP core's handler pool (util/tcp.h). Producers (request
/// submitters) never block — TryPush fails immediately when the queue is at
/// capacity, which is exactly the admission-control contract (reject with a
/// status instead of queueing unbounded work). Consumers (worker threads)
/// block in Pop until an item arrives or the queue is closed.

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace paygo {

/// \brief Bounded MPMC queue. All methods are thread-safe.
template <typename T>
class BoundedQueue {
 public:
  /// \p capacity must be >= 1; it is the admission-control depth.
  explicit BoundedQueue(std::size_t capacity)
      : capacity_(capacity == 0 ? 1 : capacity) {}

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Enqueues \p item unless the queue is full or closed. Never blocks.
  /// Returns false on rejection (the item is left untouched so the caller
  /// can fail it).
  bool TryPush(T&& item) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (closed_ || items_.size() >= capacity_) return false;
      items_.push_back(std::move(item));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an item is available (returns it) or the queue is closed
  /// and drained (returns nullopt). Consumers should exit on nullopt.
  std::optional<T> Pop() {
    std::unique_lock<std::mutex> lock(mu_);
    ready_.wait(lock, [&] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Non-blocking Pop: returns the front item if one is queued, nullopt
  /// otherwise (even while the queue is open). The batch-coalescing read
  /// path uses this to drain already-queued work without ever waiting for
  /// more to arrive.
  std::optional<T> TryPop() {
    std::lock_guard<std::mutex> lock(mu_);
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

  /// Closes the queue: subsequent TryPush calls fail, consumers drain the
  /// remaining items and then receive nullopt.
  void Close() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

  /// Drops every queued item without running it, returning them so the
  /// caller can fail their promises. Used on shutdown-without-drain.
  std::deque<T> DrainNow() {
    std::lock_guard<std::mutex> lock(mu_);
    std::deque<T> out;
    out.swap(items_);
    return out;
  }

  std::size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return items_.size();
  }
  std::size_t capacity() const { return capacity_; }
  bool closed() const {
    std::lock_guard<std::mutex> lock(mu_);
    return closed_;
  }

 private:
  const std::size_t capacity_;
  mutable std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace paygo

#endif  // PAYGO_UTIL_BOUNDED_QUEUE_H_
