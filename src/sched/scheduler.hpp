// Fork-join work-stealing scheduler (Blelloch, paper §2) with detached
// roots (the nested-dataflow step, Dinh & Simhadri, PAPERS.md).
//
// The work-depth model the statement advocates maps to exactly two runtime
// primitives: fork2 (run two closures in parallel, join both) and the
// parallel_for / reduce combinators built on it (parallel_ops.hpp).
//
// Design: child-stealing.  fork2 pushes the second closure onto the calling
// worker's Chase–Lev deque and runs the first inline.  On return it pops:
// if the child is still at the bottom of the deque it runs inline (the
// common, allocation-free fast path); if a thief took it, the parent helps
// (steals other work) until the child completes.  Jobs live on the forking
// stack frame — no heap allocation per fork.
//
// Roots: spawn(f) heap-allocates one job per call and appends it to a FIFO
// root queue.  A root waits only on its own forks, never on its siblings,
// so a Service request waits for a free worker and never for another
// request (DESIGN.md §8).  run(f) is spawn-and-wait.  Every
// one of the n workers is a pool thread; an idle worker checks its own
// deque, then the root queue, then steals, and after kSpinSweeps failed
// sweeps parks until a push or a spawn wakes it — no timeout, so an idle
// pool costs no CPU.
//
// Every fork site works without a scheduler too: if the calling thread is
// not a worker, fork2 degrades to serial execution, so algorithms written
// against this API run correctly in any context (Core Guidelines CP.1).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "sched/chase_lev.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace harmony::sched {

/// Type-erased job: a stack-allocated closure plus completion flag.
struct Job {
  void (*invoke)(Job*) = nullptr;
  std::atomic<bool> done{false};

  void run() {
    invoke(this);
    done.store(true, std::memory_order_release);
  }
};

template <typename F>
struct ClosureJob : Job {
  explicit ClosureJob(F* f) : fn(f) {
    invoke = [](Job* self) { (*static_cast<ClosureJob*>(self)->fn)(); };
  }
  F* fn;
};

class Scheduler {
 public:
  /// Starts `num_workers` pool threads.
  explicit Scheduler(unsigned num_workers);
  /// Runs every root already spawned, then joins the pool.  Must not be
  /// called from one of the pool's own workers.
  ~Scheduler();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  [[nodiscard]] unsigned num_workers() const {
    return static_cast<unsigned>(workers_.size());
  }

  /// Detached root: `f` runs once on some pool worker, with fork2
  /// parallel inside it.  Roots start in spawn order.  Callable from any
  /// thread, a running root included.  `f` must not throw: an exception
  /// escaping a root terminates the program, as with std::thread.
  template <typename F>
  void spawn(F&& f) {
    push_root(std::make_unique<RootClosure<std::decay_t<F>>>(
        std::forward<F>(f)));
  }

  /// Runs `root` to completion with fork2 parallel inside it.  From one
  /// of this pool's workers it runs inline; from any other thread it is
  /// spawn-and-wait and rethrows what `root` threw.  Any number of
  /// threads may call run() at once.
  template <typename F>
  void run(F&& root) {
    const Worker* w = current_worker();
    if (w != nullptr && w->scheduler == this) {
      std::forward<F>(root)();
      return;
    }
    // The root owns the promise, so the shared state outlives the
    // waiter's wake-up even if this frame is gone before the root is.
    std::promise<void> done;
    std::future<void> finished = done.get_future();
    spawn([&root, done = std::move(done)]() mutable {
      try {
        root();
        done.set_value();
      } catch (...) {
        done.set_exception(std::current_exception());
      }
    });
    finished.get();
  }

  /// Fork-join primitive.  Callable from inside a root (parallel) or from
  /// any other context (serial fallback).  `f` and `g` must not throw
  /// across the join when executed in parallel.
  template <typename F, typename G>
  static void fork2(F&& f, G&& g) {
    Worker* w = current_worker();
    if (w == nullptr) {
      f();
      g();
      return;
    }
    ClosureJob<std::remove_reference_t<G>> gj(&g);
    w->deque.push(&gj);
    w->scheduler->on_job_pushed();
    f();
    // After f() returns, every job pushed during f() has been consumed,
    // so the bottom of the deque is gj unless a thief took it (thieves
    // consume from the top, so gj is the *last* entry to be stolen).
    Job* popped = w->deque.pop();
    if (popped == &gj) {
      g();
      return;
    }
    HARMONY_ASSERT_MSG(popped == nullptr,
                       "fork2: deque discipline violated");
    // Stolen: mark g as complete only when the thief sets done; help
    // with other work meanwhile (greedy scheduling, no idle waiting).
    // Never a root: it would run to completion on top of this join and
    // hold up the parent.
    while (!gj.done.load(std::memory_order_acquire)) {
      if (!w->scheduler->help(*w, /*take_roots=*/false)) {
        std::this_thread::yield();
      }
    }
  }

  /// Total number of successful steals since construction (diagnostics).
  [[nodiscard]] std::uint64_t steal_count() const {
    return steals_.load(std::memory_order_relaxed);
  }

  /// True if the calling thread is currently a scheduler worker.
  [[nodiscard]] static bool in_parallel_context() {
    return current_worker() != nullptr;
  }

 private:
  struct Worker {
    ChaseLevDeque<Job> deque;
    Scheduler* scheduler = nullptr;
    unsigned index = 0;
    Rng rng{0};
  };

  /// A spawned root, owned by the root queue until a worker runs it.
  struct RootJob {
    RootJob() = default;
    RootJob(const RootJob&) = delete;
    RootJob& operator=(const RootJob&) = delete;
    virtual ~RootJob() = default;
    virtual void run() noexcept = 0;
  };

  template <typename F>
  struct RootClosure final : RootJob {
    template <typename G>
    explicit RootClosure(G&& g) : fn(std::forward<G>(g)) {}
    void run() noexcept override { fn(); }
    F fn;
  };

  static Worker*& current_worker_slot();
  static Worker* current_worker() { return current_worker_slot(); }

  void push_root(std::unique_ptr<RootJob> root);
  /// Pops the oldest root, or nullptr when the queue is empty.
  std::unique_ptr<RootJob> take_root();
  void worker_loop(unsigned index);
  /// Attempts to execute one job: own deque, then (if `take_roots`) the
  /// root queue, then random steals.  Returns true if a job was executed.
  bool help(Worker& self, bool take_roots);
  /// Wakes a parked worker if any are asleep.  Called by fork2 after
  /// every push.  The lost-wakeup argument is a store-buffer (Dekker)
  /// pair.  Here: the deque's bottom_ store, a seq_cst fence, then the
  /// sleepers_ load.  In worker_loop: the sleepers_ increment (under
  /// mu_), a seq_cst fence, then the wait predicate's deque loads.  The
  /// two fences are ordered in the single total order S.  If ours comes
  /// first, the parker's re-check sees the job and it never blocks; if
  /// its comes first, our load sees the parker and we notify through
  /// mu_, which it holds until it is blocked.  Without the fences each
  /// store-load pair may be reordered (x86 store buffers do this), both
  /// sides miss, and the job waits for some later push.  TSan does not
  /// model fences, so under it (HARMONY_TSAN_ENABLED, chase_lev.hpp) all
  /// four accesses are seq_cst instead and the total order over them
  /// gives the same two cases.
  void on_job_pushed();
  /// True if any worker deque is (approximately) non-empty.
  [[nodiscard]] bool have_pending_work() const;

  std::vector<std::unique_ptr<Worker>> workers_;
  std::atomic<std::uint64_t> steals_{0};
  std::atomic<unsigned> sleepers_{0};  // workers parked on sleep_cv_
  /// Guards roots_ and shutdown_; parked workers wait on sleep_cv_ with
  /// it held, so a spawn or shutdown can never slip past a worker that
  /// is about to park.
  std::mutex mu_;
  std::condition_variable sleep_cv_;
  std::deque<std::unique_ptr<RootJob>> roots_;
  /// roots_.size(), readable without mu_: lets a sweep skip the lock
  /// when there is no root.  A stale 0 is harmless — the park predicate
  /// re-checks roots_ under mu_.
  std::atomic<std::size_t> roots_queued_{0};
  bool shutdown_ = false;
  /// Declared last: the pool threads use every member above.
  std::vector<std::thread> threads_;
};

/// Process-wide default scheduler, lazily created with
/// std::thread::hardware_concurrency() workers.
Scheduler& default_scheduler();

}  // namespace harmony::sched
