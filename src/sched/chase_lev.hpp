// Chase–Lev work-stealing deque.
//
// Single-owner push/pop at the bottom, lock-free steal at the top.
// Reference: D. Chase & Y. Lev, "Dynamic circular work-stealing deque",
// SPAA 2005; memory-order discipline follows Lê, Pop, Cohen, Zappa
// Nardelli, "Correct and efficient work-stealing for weak memory models",
// PPoPP 2013.
//
// The deque stores raw pointers (jobs are owned by the forking stack
// frame, which outlives any reference in the deque — see scheduler.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "support/error.hpp"

// ThreadSanitizer does not model std::atomic_thread_fence, so the
// fence-based orderings below produce false data-race reports under TSan.
// When TSan is active we trade each fence for strictly stronger
// per-operation seq_cst orderings — slower, but precisely understood by
// the race detector.
#if defined(__SANITIZE_THREAD__)
#define HARMONY_TSAN_ENABLED 1
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define HARMONY_TSAN_ENABLED 1
#endif
#endif

namespace harmony::sched {

template <typename T>
class ChaseLevDeque {
 public:
  /// `capacity_log2`: initial ring capacity (grows automatically).
  explicit ChaseLevDeque(unsigned capacity_log2 = 10)
      : array_(new RingArray(capacity_log2)) {}

  ~ChaseLevDeque() {
    RingArray* a = array_.load(std::memory_order_relaxed);
    while (a != nullptr) {
      RingArray* prev = a->previous;
      delete a;
      a = prev;
    }
  }

  ChaseLevDeque(const ChaseLevDeque&) = delete;
  ChaseLevDeque& operator=(const ChaseLevDeque&) = delete;

  /// Owner only: push a job at the bottom.
  void push(T* job) {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed);
    const std::int64_t t = top_.load(std::memory_order_acquire);
    RingArray* a = array_.load(std::memory_order_relaxed);
    if (b - t > a->capacity() - 1) {
      a = grow(a, b, t);
    }
    a->put(b, job);
#ifdef HARMONY_TSAN_ENABLED
    bottom_.store(b + 1, std::memory_order_seq_cst);
#else
    std::atomic_thread_fence(std::memory_order_release);
    bottom_.store(b + 1, std::memory_order_relaxed);
#endif
  }

  /// Owner only: pop the most recently pushed job, or nullptr if empty.
  T* pop() {
    const std::int64_t b = bottom_.load(std::memory_order_relaxed) - 1;
    RingArray* a = array_.load(std::memory_order_relaxed);
#ifdef HARMONY_TSAN_ENABLED
    bottom_.store(b, std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_seq_cst);
#else
    bottom_.store(b, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    std::int64_t t = top_.load(std::memory_order_relaxed);
#endif
    if (t > b) {
      // Deque was empty; restore.
      bottom_.store(b + 1, std::memory_order_relaxed);
      return nullptr;
    }
    T* job = a->get(b);
    if (t == b) {
      // Last element: race against concurrent steals.
      if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                        std::memory_order_relaxed)) {
        job = nullptr;  // a thief won
      }
      bottom_.store(b + 1, std::memory_order_relaxed);
    }
    return job;
  }

  /// Any thread: steal the oldest job, or nullptr (empty or lost race).
  T* steal() {
#ifdef HARMONY_TSAN_ENABLED
    std::int64_t t = top_.load(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_seq_cst);
#else
    std::int64_t t = top_.load(std::memory_order_acquire);
    std::atomic_thread_fence(std::memory_order_seq_cst);
    const std::int64_t b = bottom_.load(std::memory_order_acquire);
#endif
    if (t >= b) return nullptr;
    RingArray* a = array_.load(std::memory_order_consume);
    T* job = a->get(t);
    if (!top_.compare_exchange_strong(t, t + 1, std::memory_order_seq_cst,
                                      std::memory_order_relaxed)) {
      return nullptr;  // lost the race
    }
    return job;
  }

  /// Approximate size (owner's view).  seq_cst under TSan: the
  /// scheduler's park re-check relies on it there (scheduler.hpp,
  /// on_job_pushed).
  [[nodiscard]] std::int64_t size_approx() const {
#ifdef HARMONY_TSAN_ENABLED
    return bottom_.load(std::memory_order_seq_cst) -
           top_.load(std::memory_order_seq_cst);
#else
    return bottom_.load(std::memory_order_relaxed) -
           top_.load(std::memory_order_relaxed);
#endif
  }

 private:
  // Growable circular buffer.  Old arrays are retired onto a free-list and
  // reclaimed with the deque (steals may still be reading them).
  class RingArray {
   public:
    explicit RingArray(unsigned log2)
        : log2_(log2), slots_(std::size_t{1} << log2) {}

    [[nodiscard]] std::int64_t capacity() const {
      return std::int64_t{1} << log2_;
    }
    void put(std::int64_t i, T* job) {
      slots_[static_cast<std::size_t>(i) & mask()].store(
          job, std::memory_order_relaxed);
    }
    T* get(std::int64_t i) const {
      return slots_[static_cast<std::size_t>(i) & mask()].load(
          std::memory_order_relaxed);
    }

    RingArray* previous = nullptr;  // retirement chain
    unsigned log2_;

   private:
    [[nodiscard]] std::size_t mask() const {
      return (std::size_t{1} << log2_) - 1;
    }
    std::vector<std::atomic<T*>> slots_;
  };

  RingArray* grow(RingArray* old, std::int64_t b, std::int64_t t) {
    auto* bigger = new RingArray(old->log2_ + 1);
    for (std::int64_t i = t; i < b; ++i) bigger->put(i, old->get(i));
    bigger->previous = old;
    array_.store(bigger, std::memory_order_release);
    return bigger;
  }

  std::atomic<std::int64_t> top_{0};
  std::atomic<std::int64_t> bottom_{0};
  std::atomic<RingArray*> array_;
};

}  // namespace harmony::sched
