// Multi-threaded stress/correctness test for harmony::serve.
//
// This is the binary scripts/check.sh runs under ThreadSanitizer: many
// client threads hammer one Service with a mixed request stream (cost
// evals over a Zipf-ish key set, legality checks, tunes with and without
// deadlines) while the cache is kept deliberately tiny to force
// evictions, then a second scenario shuts the service down mid-stream.
// Assertions are invariants, not timings: every future completes, every
// response is internally consistent, accounting balances.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "algos/editdist.hpp"
#include "fm/cost.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"

namespace harmony::serve {
namespace {

using namespace std::chrono_literals;

struct Workload {
  std::vector<std::shared_ptr<const fm::FunctionSpec>> specs;
  std::vector<fm::AffineMap> maps;

  explicit Workload(int distinct_specs) {
    algos::SwScores s;
    for (int i = 0; i < distinct_specs; ++i) {
      const std::int64_t n = 6 + i;  // distinct domains => distinct keys
      specs.push_back(std::make_shared<const fm::FunctionSpec>(
          algos::editdist_spec(n, n, s)));
    }
    // A few map variants per spec, legal and illegal alike.
    for (std::int64_t ti = 1; ti <= 2; ++ti) {
      for (std::int64_t xi : {0, 1}) {
        maps.push_back(fm::AffineMap{.ti = ti, .tj = 1, .tk = 0, .t0 = 0,
                                     .xi = xi, .xj = 0, .xk = 0, .x0 = 0,
                                     .yi = 0, .yj = 0, .yk = 0, .y0 = 0,
                                     .cols = 8, .rows = 1});
      }
    }
  }

  [[nodiscard]] Request make(Rng& rng) const {
    Request req;
    req.spec = specs[rng.next_below(specs.size())];
    req.machine = fm::make_machine(8, 1);
    req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
    req.map = maps[rng.next_below(maps.size())];
    const std::uint64_t kind = rng.next_below(10);
    if (kind < 6) {
      req.kind = RequestKind::kCostEval;
    } else if (kind < 9) {
      req.kind = RequestKind::kLegality;
    } else {
      req.kind = RequestKind::kTune;
      req.search.space.time_coeffs = {0, 1, 2};
      req.search.space.space_coeffs = {-1, 0, 1};
      if (rng.next_bool(0.5)) req.deadline = 20ms;
    }
    return req;
  }
};

TEST(ServeStress, MixedTrafficManyClientsTinyCache) {
  ServiceConfig cfg;
  cfg.num_workers = 4;
  cfg.queue_capacity = 256;
  cfg.cache_capacity = 8;  // force constant eviction churn
  cfg.cache_shards = 2;
  Service svc(cfg);

  const Workload load(6);
  constexpr int kClients = 8;
  constexpr int kPerClient = 120;

  std::atomic<std::uint64_t> ok{0}, rejected{0}, errors{0}, hits{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0xc11e47ULL + static_cast<std::uint64_t>(c));
      std::vector<std::future<Response>> inflight;
      for (int i = 0; i < kPerClient; ++i) {
        inflight.push_back(svc.submit(load.make(rng)));
        // Keep a small pipeline per client so the queue sees real
        // concurrency without unbounded fan-out.
        if (inflight.size() >= 8) {
          const Response r = inflight.front().get();
          inflight.erase(inflight.begin());
          switch (r.status) {
            case Status::kOk:
              ++ok;
              hits += r.cache_hit ? 1 : 0;
              break;
            case Status::kRejected:
              EXPECT_GT(r.retry_after.count(), 0);
              ++rejected;
              break;
            case Status::kError:
              ADD_FAILURE() << "unexpected error: " << r.error;
              ++errors;
              break;
          }
        }
      }
      for (auto& f : inflight) {
        const Response r = f.get();
        if (r.status == Status::kOk) {
          ++ok;
          hits += r.cache_hit ? 1 : 0;
        } else if (r.status == Status::kRejected) {
          ++rejected;
        } else {
          ADD_FAILURE() << "unexpected error: " << r.error;
          ++errors;
        }
      }
    });
  }
  for (auto& t : clients) t.join();

  // Every submitted request got exactly one response.
  const std::uint64_t total = ok + rejected + errors;
  EXPECT_EQ(total, static_cast<std::uint64_t>(kClients * kPerClient));
  EXPECT_GT(ok.load(), 0u);

  const MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.submitted, total);
  EXPECT_EQ(snap.completed + snap.rejected, total);
  EXPECT_EQ(snap.rejected, rejected.load());
  EXPECT_EQ(snap.queue_depth, 0u);
  // Tiny cache + six specs × four maps × kinds: entries never exceed
  // capacity, and the churn shows up as evictions.
  const CacheStats cs = snap.cache;
  EXPECT_LE(cs.entries, 8u);
  EXPECT_GT(cs.evictions, 0u);

  // Spot-check correctness survived the stampede: one more request per
  // (spec, map) against the direct oracle.
  Rng rng(7);
  for (int i = 0; i < 4; ++i) {
    Request req = load.make(rng);
    req.kind = RequestKind::kCostEval;
    req.deadline = std::chrono::nanoseconds{0};
    fm::Mapping m;
    m.set_computed(2, req.map.place_fn(), req.map.time_fn());
    m.set_input(0, fm::InputHome::at({0, 0}));
    m.set_input(1, fm::InputHome::at({0, 0}));
    fm::CostReport direct;
    bool direct_ok = true;
    try {
      direct = fm::evaluate_cost(*req.spec, m, req.machine);
    } catch (const std::exception&) {
      direct_ok = false;
    }
    const Response r = svc.call(req);
    if (direct_ok) {
      ASSERT_TRUE(r.ok()) << r.error;
      EXPECT_EQ(r.cost.makespan_cycles, direct.makespan_cycles);
      EXPECT_DOUBLE_EQ(r.cost.total_energy().femtojoules(),
                       direct.total_energy().femtojoules());
    } else {
      EXPECT_EQ(r.status, Status::kError);
    }
  }
}

TEST(ServeStress, CompileStampedeCoalescesToOneMiss) {
  // Regression: compiled_for probes the compile cache under its lock
  // but compiles *outside* it, so concurrent misses on one compile key
  // used to each run fm::compile_spec and each record a miss.  In-flight
  // coalescing must collapse the stampede: one leader compiles, the
  // duplicates wait on it, and exactly one miss is recorded no matter
  // how the eight concurrent requests interleave.
  ServiceConfig cfg;
  cfg.num_workers = 4;
  Service svc(cfg);

  // A deliberately expensive compile — big domain, 64-PE machine, so
  // the P×P route/energy tables take long enough that un-coalesced
  // concurrent misses reliably overlap.  The search space is kept tiny
  // (16 slots); whether a legal mapping exists is irrelevant here.
  algos::SwScores s;
  const auto spec = std::make_shared<const fm::FunctionSpec>(
      algos::editdist_spec(48, 48, s));

  constexpr int kTunes = 8;
  std::vector<std::future<Response>> futures;
  futures.reserve(kTunes);
  for (int i = 0; i < kTunes; ++i) {
    Request req;
    req.kind = RequestKind::kTune;
    req.spec = spec;
    req.machine = fm::make_machine(16, 4);
    req.inputs = {InputPlacement::dram(), InputPlacement::dram()};
    req.search.space.time_coeffs = {1};
    req.search.space.space_coeffs = {0, 1};
    // Distinct top_k => distinct *result* cache keys (no coalescing,
    // every request runs its own oracle), while the *compile* key —
    // which ignores search knobs — is identical across all of them.
    req.search.top_k = static_cast<std::size_t>(i + 1);
    futures.push_back(svc.submit(std::move(req)));
  }
  for (auto& f : futures) {
    const Response r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
  }

  const MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.compile_misses, 1u)
      << "concurrent identical compiles were not coalesced";
  EXPECT_EQ(snap.compile_hits, static_cast<std::uint64_t>(kTunes - 1));
}

TEST(ServeStress, ShutdownMidStreamDrainsAdmittedWork) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.queue_capacity = 64;
  Service svc(cfg);

  const Workload load(3);
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> answered{0};
  std::vector<std::thread> clients;
  for (int c = 0; c < 4; ++c) {
    clients.emplace_back([&, c] {
      Rng rng(0x5d0ffULL + static_cast<std::uint64_t>(c));
      std::vector<std::future<Response>> inflight;
      while (!stop.load(std::memory_order_acquire)) {
        Request req = load.make(rng);
        req.kind = RequestKind::kCostEval;  // keep each unit of work small
        inflight.push_back(svc.submit(std::move(req)));
        if (inflight.size() > 16) {
          (void)inflight.front().get();
          inflight.erase(inflight.begin());
          ++answered;
        }
      }
      for (auto& f : inflight) {
        // Drained or rejected — but never abandoned: the future must
        // resolve even though shutdown raced the submission.
        const Response r = f.get();
        EXPECT_NE(r.status, Status::kError) << r.error;
        ++answered;
      }
    });
  }

  std::this_thread::sleep_for(50ms);
  svc.shutdown();  // concurrent with active submitters
  stop.store(true, std::memory_order_release);
  for (auto& t : clients) t.join();
  EXPECT_GT(answered.load(), 0u);

  // Idempotent: a second shutdown (and the destructor after it) is safe.
  svc.shutdown();
  Rng rng(1);
  Request late_req = load.make(rng);
  late_req.kind = RequestKind::kCostEval;
  late_req.map.t0 = 9999;  // fresh key: a cache hit would still be served
  const Response late = svc.call(std::move(late_req));
  EXPECT_EQ(late.status, Status::kRejected);
}

}  // namespace
}  // namespace harmony::serve
