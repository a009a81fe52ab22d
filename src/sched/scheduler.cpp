#include "sched/scheduler.hpp"

#include <string>

#include "trace/trace.hpp"

namespace harmony::sched {

namespace {

/// Failed help() sweeps an idle worker yields through before parking.
constexpr unsigned kSpinSweeps = 64;

}  // namespace

Scheduler::Worker*& Scheduler::current_worker_slot() {
  thread_local Worker* tls = nullptr;
  return tls;
}

Scheduler::Scheduler(unsigned num_workers) {
  HARMONY_REQUIRE(num_workers >= 1, "Scheduler: need at least one worker");
  workers_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    auto w = std::make_unique<Worker>();
    w->scheduler = this;
    w->index = i;
    w->rng = Rng(0x5eed0000 + i);
    workers_.push_back(std::move(w));
  }
  threads_.reserve(num_workers);
  for (unsigned i = 0; i < num_workers; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

Scheduler::~Scheduler() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  sleep_cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void Scheduler::push_root(std::unique_ptr<RootJob> root) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    roots_.push_back(std::move(root));
    roots_queued_.store(roots_.size(), std::memory_order_relaxed);
  }
  // A worker registers in sleepers_ under mu_ before it parks, so this
  // load (after our unlock) sees it; one that registers later sees the
  // root in its wait predicate.
  if (sleepers_.load(std::memory_order_relaxed) > 0) sleep_cv_.notify_one();
}

std::unique_ptr<Scheduler::RootJob> Scheduler::take_root() {
  if (roots_queued_.load(std::memory_order_relaxed) == 0) return nullptr;
  std::lock_guard<std::mutex> lk(mu_);
  if (roots_.empty()) return nullptr;
  std::unique_ptr<RootJob> root = std::move(roots_.front());
  roots_.pop_front();
  roots_queued_.store(roots_.size(), std::memory_order_relaxed);
  return root;
}

void Scheduler::on_job_pushed() {
  // Pairs with the park in worker_loop (scheduler.hpp has the argument).
#ifdef HARMONY_TSAN_ENABLED
  if (sleepers_.load(std::memory_order_seq_cst) == 0) return;
#else
  std::atomic_thread_fence(std::memory_order_seq_cst);
  if (sleepers_.load(std::memory_order_relaxed) == 0) return;
#endif
  {
    std::lock_guard<std::mutex> lk(mu_);
  }
  sleep_cv_.notify_one();
}

bool Scheduler::have_pending_work() const {
  for (const auto& w : workers_) {
    if (w->deque.size_approx() > 0) return true;
  }
  return false;
}

bool Scheduler::help(Worker& self, bool take_roots) {
  // Own work first (depth-first execution preserves locality).
  if (Job* j = self.deque.pop()) {
    trace::Span span("sched", "run", 0, self.index);
    j->run();
    return true;
  }
  // Then a fresh root: a new request is worth more than a share of a
  // running one's forks.
  if (take_roots) {
    if (const std::unique_ptr<RootJob> root = take_root()) {
      trace::Span span("sched", "root", 0, self.index);
      root->run();
      return true;
    }
  }
  // Then steal from a uniformly random victim.
  const auto n = workers_.size();
  const std::size_t start = self.rng.next_below(n);
  for (std::size_t k = 0; k < n; ++k) {
    Worker& victim = *workers_[(start + k) % n];
    if (&victim == &self) continue;
    if (Job* j = victim.deque.steal()) {
      steals_.fetch_add(1, std::memory_order_relaxed);
      trace::Span span("sched", "steal", 0, self.index, victim.index);
      j->run();
      return true;
    }
  }
  return false;
}

void Scheduler::worker_loop(unsigned index) {
  Worker& self = *workers_[index];
  current_worker_slot() = &self;
  trace::set_thread_name("sched-w" + std::to_string(index));
  unsigned failures = 0;
  while (true) {
    if (help(self, /*take_roots=*/true)) {
      failures = 0;
      continue;
    }
    if (++failures < kSpinSweeps) {
      std::this_thread::yield();
      continue;
    }
    failures = 0;
    // Nothing to do: park until a push, a spawn or shutdown.  Exit only
    // once shutdown is set and no root is left to run.
    std::unique_lock<std::mutex> lk(mu_);
    if (shutdown_ && roots_.empty()) break;
    trace::Span span("sched", "sleep", 0, self.index);
#ifdef HARMONY_TSAN_ENABLED
    sleepers_.fetch_add(1, std::memory_order_seq_cst);
#else
    sleepers_.fetch_add(1, std::memory_order_relaxed);
    std::atomic_thread_fence(std::memory_order_seq_cst);  // see on_job_pushed
#endif
    sleep_cv_.wait(lk, [this] {
      return shutdown_ || !roots_.empty() || have_pending_work();
    });
    sleepers_.fetch_sub(1, std::memory_order_relaxed);
  }
  current_worker_slot() = nullptr;
}

Scheduler& default_scheduler() {
  static Scheduler instance(std::max(1u, std::thread::hardware_concurrency()));
  return instance;
}

}  // namespace harmony::sched
