// Failure-injection and robustness tests for the scheduler (src/sched):
// exceptions crossing run(), scheduler reuse after failure, oversized
// worker pools, deep recursion, detached roots, and parked workers.
#include <gtest/gtest.h>

#include <time.h>

#include <atomic>
#include <chrono>
#include <future>
#include <stdexcept>
#include <thread>
#include <vector>

#include "sched/parallel_ops.hpp"
#include "sched/scheduler.hpp"
#include "sched/workspan.hpp"

namespace harmony::sched {
namespace {

// Tiny helper so loop bodies are not optimized away.
void benchmark_blackhole(std::size_t v) {
  static std::atomic<std::size_t> sink{0};
  sink.fetch_add(v, std::memory_order_relaxed);
}

TEST(SchedulerRobustness, ExceptionInRootPropagatesAndSchedulerSurvives) {
  Scheduler sched(3);
  EXPECT_THROW(sched.run([] { throw std::runtime_error("boom"); }),
               std::runtime_error);
  // The session must have been torn down cleanly: a fresh run works.
  std::atomic<int> count{0};
  RealCtx ctx;
  sched.run([&] {
    parallel_for(ctx, 0, 1000, 16, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 1000);
  EXPECT_FALSE(Scheduler::in_parallel_context());
}

TEST(SchedulerRobustness, SequentialExceptionsAcrossSessions) {
  Scheduler sched(2);
  for (int i = 0; i < 5; ++i) {
    EXPECT_THROW(sched.run([] { throw std::logic_error("again"); }),
                 std::logic_error);
  }
  int ok = 0;
  sched.run([&] { ok = 42; });
  EXPECT_EQ(ok, 42);
}

TEST(SchedulerRobustness, ManyWorkersFewTasks) {
  // More workers than work: mostly-idle thieves must not corrupt
  // anything or spin forever.
  Scheduler sched(16);
  std::atomic<int> count{0};
  RealCtx ctx;
  sched.run([&] {
    parallel_for(ctx, 0, 8, 1, [&](std::size_t) { count.fetch_add(1); });
  });
  EXPECT_EQ(count.load(), 8);
}

TEST(SchedulerRobustness, DeepUnbalancedRecursion) {
  // A maximally unbalanced fork tree (linear chain of fork2) stresses
  // the deque discipline and the join-wait path.
  Scheduler sched(4);
  std::atomic<long> sum{0};
  std::function<void(int)> chain = [&](int depth) {
    if (depth == 0) return;
    Scheduler::fork2([&] { sum.fetch_add(1); },
                     [&] { chain(depth - 1); });
  };
  sched.run([&] { chain(2000); });
  EXPECT_EQ(sum.load(), 2000);
}

TEST(SchedulerRobustness, ColdPoolWakesOnForkRepeatedly) {
  // Regression for the idle-loop lost-wakeup window: a worker whose
  // steal sweep failed could block on sleep_cv_ and miss a notify
  // issued in between, leaving a forked child unserved.  Force the
  // all-asleep state over and over: let every worker park, then fork a
  // burst and require it to complete; under TSan this also certifies
  // the sleepers_/deque handshake race-free.
  Scheduler sched(4);
  RealCtx ctx;
  for (int round = 0; round < 40; ++round) {
    // Cold the pool: 64 failed sweeps + parking happens within a few
    // ms of idleness.
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::atomic<int> count{0};
    sched.run([&] {
      parallel_for(ctx, 0, 256, 4,
                   [&](std::size_t) { count.fetch_add(1); });
    });
    ASSERT_EQ(count.load(), 256) << "round " << round;
  }
}

double process_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

TEST(SchedulerRobustness, IdlePoolBurnsNoCpu) {
  // Parked workers wait with no timeout: a pool with nothing to do
  // costs (almost) no CPU, however long it idles.
  Scheduler sched(4);
  RealCtx ctx;
  std::atomic<int> count{0};
  sched.run([&] {
    parallel_for(ctx, 0, 1024, 8, [&](std::size_t) { count.fetch_add(1); });
  });
  ASSERT_EQ(count.load(), 1024);
  const double before = process_cpu_ms();
  std::this_thread::sleep_for(std::chrono::seconds(1));
  EXPECT_LT(process_cpu_ms() - before, 20.0);
}

TEST(SchedulerRobustness, ColdPoolRunsRootsSpawnedFromTwoThreads) {
  // A spawn must wake a parked pool: with no timer, a lost wakeup would
  // leave the root queued for good.  Each round lets every worker park,
  // then two external threads spawn one root each (the root also forks,
  // so pushes from a freshly woken worker are exercised too).
  Scheduler sched(4);
  for (int round = 0; round < 200; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::promise<int> done[2];
    std::future<int> finished[2] = {done[0].get_future(),
                                    done[1].get_future()};
    std::vector<std::thread> spawners;
    for (std::promise<int>& d : done) {
      spawners.emplace_back([&sched, &d] {
        sched.spawn([&d] {
          std::atomic<int> count{0};
          RealCtx ctx;
          parallel_for(ctx, 0, 64, 1,
                       [&](std::size_t) { count.fetch_add(1); });
          d.set_value(count.load());
        });
      });
    }
    for (std::thread& t : spawners) t.join();
    for (std::future<int>& f : finished) {
      ASSERT_EQ(f.wait_for(std::chrono::seconds(10)),
                std::future_status::ready)
          << "round " << round << ": a spawned root never ran";
      ASSERT_EQ(f.get(), 64) << "round " << round;
    }
  }
}

TEST(SchedulerRobustness, RunFromAPoolWorkerRunsInline) {
  Scheduler sched(2);
  std::thread::id outer;
  std::thread::id inner;
  sched.run([&] {
    outer = std::this_thread::get_id();
    sched.run([&] { inner = std::this_thread::get_id(); });
  });
  EXPECT_NE(outer, std::this_thread::get_id());  // a pool thread ran it
  EXPECT_EQ(inner, outer);
}

TEST(SchedulerRobustness, FourThreadsCallRunAtOnce) {
  Scheduler sched(4);
  std::atomic<int> count{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < 4; ++c) {
    callers.emplace_back([&] {
      RealCtx ctx;
      for (int round = 0; round < 20; ++round) {
        sched.run([&] {
          parallel_for(ctx, 0, 500, 4,
                       [&](std::size_t) { count.fetch_add(1); });
        });
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(count.load(), 4 * 20 * 500);
}

TEST(SchedulerRobustness, DestructorRunsEverySpawnedRoot) {
  std::atomic<int> ran{0};
  {
    Scheduler sched(2);
    for (int i = 0; i < 64; ++i) {
      sched.spawn([&ran] {
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        ran.fetch_add(1);
      });
    }
    // Most roots are still queued when the pool starts shutting down.
  }
  EXPECT_EQ(ran.load(), 64);
}

TEST(SchedulerRobustness, DefaultSchedulerSingleton) {
  Scheduler& a = default_scheduler();
  Scheduler& b = default_scheduler();
  EXPECT_EQ(&a, &b);
  EXPECT_GE(a.num_workers(), 1u);
  std::atomic<int> hits{0};
  RealCtx ctx;
  a.run([&] {
    parallel_for(ctx, 0, 100, 4, [&](std::size_t) { hits.fetch_add(1); });
  });
  EXPECT_EQ(hits.load(), 100);
}

TEST(SchedulerRobustness, StealCountMonotone) {
  Scheduler sched(4);
  const auto before = sched.steal_count();
  RealCtx ctx;
  for (int round = 0; round < 10; ++round) {
    sched.run([&] {
      parallel_for(ctx, 0, 5000, 8, [&](std::size_t i) {
        benchmark_blackhole(i);
      });
    });
  }
  EXPECT_GE(sched.steal_count(), before);
}

TEST(SchedulerRobustness, WorkSpanCtxRejectsNegativeWork) {
  WorkSpanCtx ctx;
  EXPECT_THROW(ctx.work(-1.0), InvalidArgument);
}

}  // namespace
}  // namespace harmony::sched
