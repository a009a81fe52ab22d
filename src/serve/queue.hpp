// Bounded MPMC queue with backpressure.
//
// When producers outrun the consumers, try_push fails fast (the caller
// turns that into a rejection) instead of letting the queue — and every
// queued item's latency — grow without bound.  serve::Worker hands
// queued replies to its responder threads through one.
//
// Plain mutex + condition variable on purpose: this is not a hot path,
// and the lock makes the close/drain protocol — close() wakes every
// popper, pop returns false only when closed *and* empty — easy to get
// right under TSan.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <utility>

#include "support/error.hpp"

namespace harmony::serve {

template <typename T>
class BoundedQueue {
 public:
  explicit BoundedQueue(std::size_t capacity) : cap_(capacity) {
    HARMONY_REQUIRE(capacity > 0, "BoundedQueue: capacity must be positive");
  }

  BoundedQueue(const BoundedQueue&) = delete;
  BoundedQueue& operator=(const BoundedQueue&) = delete;

  /// Non-blocking admit; false when full or closed (backpressure).
  [[nodiscard]] bool try_push(T item) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (closed_ || items_.size() >= cap_) return false;
      items_.push_back(std::move(item));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocking single pop; false when the queue is closed and drained.
  [[nodiscard]] bool pop(T& out) {
    std::unique_lock<std::mutex> lk(mu_);
    not_empty_.wait(lk, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return false;
    out = std::move(items_.front());
    items_.pop_front();
    return true;
  }

  /// Wakes all blocked poppers; subsequent pushes fail.  Items already
  /// admitted stay poppable (graceful drain).
  void close() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      closed_ = true;
    }
    not_empty_.notify_all();
  }

  [[nodiscard]] bool closed() const {
    std::lock_guard<std::mutex> lk(mu_);
    return closed_;
  }

  [[nodiscard]] std::size_t size() const {
    std::lock_guard<std::mutex> lk(mu_);
    return items_.size();
  }

  [[nodiscard]] std::size_t capacity() const { return cap_; }

 private:
  mutable std::mutex mu_;
  std::condition_variable not_empty_;
  std::deque<T> items_;
  const std::size_t cap_;
  bool closed_ = false;
};

}  // namespace harmony::serve
