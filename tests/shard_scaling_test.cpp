// Multi-shard scaling of the distributed serve tier under open-loop load
// (DESIGN.md §17).
//
// A closed-loop client can never observe a saturation knee: its own
// blocking throttles the offered load to whatever the server sustains.
// This test drives the router + worker shards open loop instead:
// arrivals are scheduled on an absolute clock regardless of
// completions, and latency is measured from the scheduled arrival, so
// queueing delay lands in the tail exactly when a fleet saturates.
//
// Single-shard capacity is calibrated first with a windowed closed loop
// of fresh cost-evals (every key distinct, so the result cache cannot
// flatter it).  Then 1500 arrivals at 0.8x that rate go to a 1-shard
// fleet and to a 4-shard fleet, 2 service workers per shard.  Every
// reply must be kOk.  Four shards must cut the P99 by at least 2x; that
// is asserted only on a host with >= 8 hardware threads, where four
// 2-worker shards can run in parallel, and printed elsewhere.
//
// Labelled perf only (and run serially): it measures wall clock, so the
// sanitizer stages leave it out.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/router.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"

namespace harmony::serve {
namespace {

using Clock = std::chrono::steady_clock;

constexpr auto kOk = static_cast<std::uint8_t>(Status::kOk);

/// A router fronting `n` in-process worker shards over loopback
/// channels: the full wire path, no fork.
struct Fleet {
  Router router;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::thread> threads;

  explicit Fleet(std::size_t n) {
    for (std::size_t i = 0; i < n; ++i) {
      WorkerConfig wcfg;
      wcfg.service.num_workers = 2;
      workers.push_back(std::make_unique<Worker>(wcfg));
      ChannelPair pair = make_loopback_pair();
      threads.emplace_back(
          [w = workers.back().get(), ch = pair.right] { w->serve(ch); });
      router.add_shard("shard" + std::to_string(i), pair.left);
    }
  }

  ~Fleet() {
    router.shutdown();
    for (std::thread& t : threads) t.join();
  }
};

/// A cost-eval whose map is shifted in time by `key`: every key is a
/// fresh routing and cache key that costs the same oracle work.
WireRequest cost_req(std::uint64_t key) {
  WireRequest req;
  req.kind = RequestKind::kCostEval;
  req.spec = "editdist:8x6";
  req.machine_cols = 4;
  req.machine_rows = 1;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = 4, .rows = 1};
  req.map.t0 = static_cast<std::int64_t>(key);
  return req;
}

/// Closed loop: `n` fresh requests, at most `window` in flight.
/// Returns the seconds until the last reply.
double closed_loop(Router& router, std::size_t n, std::size_t window,
                   std::uint64_t& next_key) {
  std::mutex mu;
  std::condition_variable cv;
  std::size_t inflight = 0, done = 0;
  const Clock::time_point t0 = Clock::now();
  for (std::size_t i = 0; i < n; ++i) {
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return inflight < window; });
      ++inflight;
    }
    router.submit(cost_req(next_key++), [&](const WireResponse&) {
      std::lock_guard<std::mutex> lock(mu);
      --inflight;
      ++done;
      cv.notify_all();
    });
  }
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done == n; });
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct OpenLoop {
  std::size_t not_ok = 0;
  double p99_us = 0.0;
};

/// Open loop: `n` fresh requests scheduled `rate_rps` apart against a
/// fresh, warmed `shards`-wide fleet.
OpenLoop open_loop(std::size_t shards, double rate_rps, std::size_t n,
                   std::uint64_t& next_key) {
  Fleet fleet(shards);
  // Pays worker, scheduler and spec-memo start-up before the clock runs.
  (void)closed_loop(fleet.router, 64 * shards, 64 * shards, next_key);

  std::vector<double> latency_us(n, 0.0);
  std::vector<std::uint8_t> status(n, 0);
  std::mutex mu;
  std::condition_variable cv;
  std::size_t done = 0;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(5);
  const double ns_per_arrival = 1e9 / rate_rps;
  for (std::size_t i = 0; i < n; ++i) {
    const Clock::time_point scheduled =
        start + std::chrono::nanoseconds(static_cast<std::int64_t>(
                    ns_per_arrival * static_cast<double>(i)));
    // Sleep, never spin: a spinning pacer steals the CPU the shards
    // need.  The schedule is absolute, so oversleep does not accumulate,
    // and submitter lag counts against latency, as open loop demands.
    std::this_thread::sleep_until(scheduled);
    fleet.router.submit(
        cost_req(next_key++), [&, i, scheduled](const WireResponse& r) {
          const double us = std::chrono::duration<double, std::micro>(
                                Clock::now() - scheduled)
                                .count();
          std::lock_guard<std::mutex> lock(mu);
          latency_us[i] = us;
          status[i] = r.status;
          ++done;
          cv.notify_all();
        });
  }
  {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == n; });
  }

  OpenLoop out;
  out.not_ok = static_cast<std::size_t>(std::count_if(
      status.begin(), status.end(), [](std::uint8_t s) { return s != kOk; }));
  std::sort(latency_us.begin(), latency_us.end());
  out.p99_us = latency_us[static_cast<std::size_t>(
      0.99 * static_cast<double>(n - 1) + 0.5)];
  return out;
}

TEST(ShardScaling, FourShardsCutOpenLoopP99AtEightTenthsOfSaturation) {
  constexpr std::size_t kCalibration = 4000;
  constexpr std::size_t kArrivals = 1500;
  std::uint64_t next_key = 0;

  double sat1_rps = 0.0;
  {
    Fleet fleet(1);
    (void)closed_loop(fleet.router, 128, 128, next_key);
    sat1_rps = static_cast<double>(kCalibration) /
               closed_loop(fleet.router, kCalibration, 256, next_key);
  }
  const double rate = 0.8 * sat1_rps;
  const OpenLoop one = open_loop(1, rate, kArrivals, next_key);
  const OpenLoop four = open_loop(4, rate, kArrivals, next_key);
  EXPECT_EQ(one.not_ok, 0u) << "1 shard: replies other than kOk";
  EXPECT_EQ(four.not_ok, 0u) << "4 shards: replies other than kOk";

  const double ratio = one.p99_us / four.p99_us;
  const unsigned hw_threads = std::thread::hardware_concurrency();
  std::cout << "single-shard saturation " << sat1_rps << " req/s; P99 at "
            << rate << " req/s: 1 shard " << one.p99_us << " us, 4 shards "
            << four.p99_us << " us, ratio " << ratio << " (hardware threads "
            << hw_threads << ")\n";
  if (hw_threads >= 8) {
    EXPECT_GE(ratio, 2.0) << "4 shards did not cut the P99 by 2x";
  } else {
    std::cout << "P99 gate not armed: it needs >= 8 hardware threads\n";
  }
}

}  // namespace
}  // namespace harmony::serve
