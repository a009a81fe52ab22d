// Router + worker-shard integration: the distributed serve tier end to
// end over the in-process loopback transport (DESIGN.md §17, ISSUE 10).
//
// Everything here runs the *full* wire path — encode, frame, decode,
// rebuild, Service, reply — with no fork, so the suite is TSan-clean
// and deterministic.  The acceptance properties pinned:
//   * wire answers are semantically identical to direct Service calls;
//   * repeat queries hit the affinity shard's result cache;
//   * duplicate in-flight queries coalesce onto one shard ask;
//   * stolen requests return byte-identical semantic payloads;
//   * a cache hit is answered ahead of slower work queued before it;
//   * drain completes with zero dropped or errored in-flight requests,
//     and rejoin restores the exact pre-drain placement;
//   * snapshot/restore warm-starts a fresh shard: replayed keys are
//     cache hits and recompile nothing;
//   * fleet metrics are merged (counters summed, histograms added),
//     not averaged.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "serve/catalog.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"

namespace harmony::serve {
namespace {

constexpr auto kOk = static_cast<std::uint8_t>(Status::kOk);
constexpr auto kError = static_cast<std::uint8_t>(Status::kError);
constexpr auto kRejected = static_cast<std::uint8_t>(Status::kRejected);

WorkerConfig small_worker() {
  WorkerConfig cfg;
  cfg.service.num_workers = 2;
  return cfg;
}

/// A router fronting `n` in-process workers over loopback channels.
/// start=false leaves the workers idle with frames queuing in the
/// loopback — the deterministic setup for the coalesce/steal tests.
struct Fleet {
  Router router;
  std::vector<std::unique_ptr<Worker>> workers;
  std::vector<std::shared_ptr<Channel>> channels;
  std::vector<std::thread> threads;

  explicit Fleet(std::size_t n, RouterConfig rcfg = {}, bool start = true)
      : router(rcfg) {
    for (std::size_t i = 0; i < n; ++i) {
      workers.push_back(std::make_unique<Worker>(small_worker()));
      ChannelPair pair = make_loopback_pair();
      channels.push_back(pair.right);
      router.add_shard("shard" + std::to_string(i), pair.left);
      if (start) start_worker(i);
    }
  }

  void start_worker(std::size_t i) {
    threads.emplace_back(
        [w = workers[i].get(), ch = channels[i]] { w->serve(ch); });
  }

  void start_all() {
    for (std::size_t i = 0; i < workers.size(); ++i) start_worker(i);
  }

  ~Fleet() {
    router.shutdown();
    for (std::thread& t : threads) t.join();
  }
};

WireRequest cost_req(std::int64_t n, std::int64_t m, int pes) {
  WireRequest req;
  req.kind = RequestKind::kCostEval;
  req.spec = "editdist:" + std::to_string(n) + "x" + std::to_string(m);
  req.machine_cols = pes;
  req.machine_rows = 1;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .xi = 1, .cols = pes, .rows = 1};
  return req;
}

WireRequest tune_req(const std::string& spec, int pes) {
  WireRequest req;
  req.kind = RequestKind::kTune;
  req.spec = spec;
  req.machine_cols = pes;
  req.machine_rows = 1;
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  req.quick_sample = 16;
  req.top_k = 2;
  return req;
}

TEST(ServeDist, CostEvalMatchesDirectServiceCall) {
  const WireRequest wire = cost_req(8, 6, 4);

  // Direct oracle: the same Request through an in-process Service.
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service direct(cfg);
  SpecCatalog catalog;
  const Response expect = direct.call(to_request(wire, catalog));
  ASSERT_TRUE(expect.ok());

  Fleet fleet(2);
  const WireResponse got = fleet.router.call(wire);
  EXPECT_EQ(got.status, kOk);
  EXPECT_EQ(semantic_bytes(got), semantic_bytes(to_wire(expect)));
  EXPECT_EQ(got.makespan_cycles, expect.cost.makespan_cycles);
}

TEST(ServeDist, TuneMatchesDirectServiceCall) {
  const WireRequest wire = tune_req("editdist:4x4", 4);

  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service direct(cfg);
  SpecCatalog catalog;
  const Response expect = direct.call(to_request(wire, catalog));
  ASSERT_TRUE(expect.ok());
  ASSERT_TRUE(expect.search.found);

  Fleet fleet(2);
  const WireResponse got = fleet.router.call(wire);
  EXPECT_EQ(got.status, kOk);
  EXPECT_TRUE(got.found);
  EXPECT_EQ(got.best_makespan_cycles, expect.search.best.cost.makespan_cycles);
  EXPECT_EQ(semantic_bytes(got), semantic_bytes(to_wire(expect)));
}

TEST(ServeDist, RepeatQueryHitsAffinityShardCache) {
  Fleet fleet(4);
  const WireRequest wire = cost_req(8, 8, 4);

  const WireResponse first = fleet.router.call(wire);
  ASSERT_EQ(first.status, kOk);
  EXPECT_FALSE(first.cache_hit);

  const WireResponse second = fleet.router.call(wire);
  ASSERT_EQ(second.status, kOk);
  EXPECT_TRUE(second.cache_hit) << "same key must ride to the warm shard";
  EXPECT_EQ(second.shard, first.shard);
  EXPECT_EQ(semantic_bytes(second), semantic_bytes(first));
}

TEST(ServeDist, DuplicateInFlightQueriesCoalesce) {
  // Workers start *after* the burst is submitted, so every duplicate
  // provably arrives while the leader is in flight — no timing window.
  Fleet fleet(2, RouterConfig{}, /*start=*/false);
  const WireRequest wire = cost_req(10, 10, 4);

  constexpr int kBurst = 16;
  std::vector<std::promise<WireResponse>> done(kBurst);
  std::vector<std::future<WireResponse>> futs;
  futs.reserve(kBurst);
  for (int i = 0; i < kBurst; ++i) futs.push_back(done[i].get_future());
  for (int i = 0; i < kBurst; ++i) {
    fleet.router.submit(
        wire, [&done, i](const WireResponse& r) { done[i].set_value(r); });
  }

  const RouterStats pre = fleet.router.stats();
  EXPECT_EQ(pre.routed, 1u) << "one shard ask for the whole burst";
  EXPECT_EQ(pre.coalesced, static_cast<std::uint64_t>(kBurst - 1));

  fleet.start_all();
  int coalesced = 0;
  std::vector<std::uint8_t> leader_bytes;
  for (int i = 0; i < kBurst; ++i) {
    const WireResponse r = futs[i].get();
    EXPECT_EQ(r.status, kOk);
    coalesced += r.coalesced ? 1 : 0;
    if (leader_bytes.empty()) leader_bytes = semantic_bytes(r);
    EXPECT_EQ(semantic_bytes(r), leader_bytes);
  }
  EXPECT_EQ(coalesced, kBurst - 1);
}

TEST(ServeDist, DeadlineRequestsOptOutOfCoalescing) {
  Fleet fleet(1, RouterConfig{}, /*start=*/false);
  WireRequest wire = cost_req(6, 6, 2);
  wire.deadline_ns = 1'000'000'000;  // patient, but deadline-carrying

  std::promise<WireResponse> p1, p2;
  fleet.router.submit(wire,
                      [&p1](const WireResponse& r) { p1.set_value(r); });
  fleet.router.submit(wire,
                      [&p2](const WireResponse& r) { p2.set_value(r); });
  const RouterStats pre = fleet.router.stats();
  EXPECT_EQ(pre.routed, 2u) << "deadline requests never coalesce";
  EXPECT_EQ(pre.coalesced, 0u);

  fleet.start_all();
  EXPECT_EQ(p1.get_future().get().status, kOk);
  EXPECT_EQ(p2.get_future().get().status, kOk);
}

TEST(ServeDist, StolenResultIsByteIdenticalToAffinityResult) {
  RouterConfig rcfg;
  rcfg.coalesce = false;   // force both asks onto the wire
  rcfg.steal_margin = 0;   // steal on any imbalance
  Fleet fleet(2, rcfg, /*start=*/false);

  const WireRequest wire = cost_req(9, 7, 4);
  std::promise<WireResponse> p1, p2;
  // First ask queues on the (idle) affinity shard; the second sees
  // outstanding 1 vs 0 and must steal to the other shard.
  fleet.router.submit(wire,
                      [&p1](const WireResponse& r) { p1.set_value(r); });
  fleet.router.submit(wire,
                      [&p2](const WireResponse& r) { p2.set_value(r); });
  EXPECT_EQ(fleet.router.stats().stolen, 1u);

  fleet.start_all();
  const WireResponse affinity = p1.get_future().get();
  const WireResponse stolen = p2.get_future().get();
  ASSERT_EQ(affinity.status, kOk);
  ASSERT_EQ(stolen.status, kOk);
  EXPECT_FALSE(affinity.stolen);
  EXPECT_TRUE(stolen.stolen);
  EXPECT_NE(affinity.shard, stolen.shard);
  // The steal traded cache affinity for queue depth — nothing else.
  EXPECT_EQ(semantic_bytes(stolen), semantic_bytes(affinity));
}

TEST(ServeDist, DrainDropsNothingAndRejoinRestoresPlacement) {
  RouterConfig rcfg;
  rcfg.coalesce = false;
  rcfg.enable_steal = false;  // shard field is pure ring placement
  Fleet fleet(2, rcfg);

  // Map out which shard owns which probe key (ring is deterministic).
  std::vector<WireRequest> probes;
  std::vector<std::uint32_t> owner;
  for (int n = 4; n < 12; ++n) {
    probes.push_back(cost_req(n, n + 1, 4));
    const WireResponse r = fleet.router.call(probes.back());
    EXPECT_EQ(r.status, kOk);
    owner.push_back(r.shard);
  }
  const auto owned_by = [&](std::uint32_t shard) -> const WireRequest* {
    for (std::size_t i = 0; i < probes.size(); ++i) {
      if (owner[i] == shard) return &probes[i];
    }
    return nullptr;
  };
  const WireRequest* key0 = owned_by(0);
  ASSERT_NE(key0, nullptr) << "8 distinct keys must cover both shards";
  ASSERT_NE(owned_by(1), nullptr);

  // Concurrent open load while shard 0 drains.
  constexpr int kClients = 4;
  constexpr int kPerClient = 25;
  std::vector<std::vector<std::uint8_t>> statuses(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int i = 0; i < kPerClient; ++i) {
        const WireRequest& req = probes[(c * kPerClient + i) % probes.size()];
        statuses[c].push_back(fleet.router.call(req).status);
      }
    });
  }
  fleet.router.drain(0);
  for (std::thread& t : clients) t.join();

  for (const auto& client : statuses) {
    ASSERT_EQ(client.size(), static_cast<std::size_t>(kPerClient));
    for (const std::uint8_t s : client) {
      EXPECT_EQ(s, kOk) << "drain must not drop or error in-flight work";
    }
  }

  // Drained: shard 0's keys fall through to shard 1.
  const WireResponse moved = fleet.router.call(*key0);
  EXPECT_EQ(moved.status, kOk);
  EXPECT_EQ(moved.shard, 1u);

  // Rejoined: the exact pre-drain placement returns.
  fleet.router.rejoin(0);
  const WireResponse back = fleet.router.call(*key0);
  EXPECT_EQ(back.status, kOk);
  EXPECT_EQ(back.shard, 0u);
}

TEST(ServeDist, SnapshotRestoreWarmStartsWithoutRecompiles) {
  // One tune per spec family: a 2-D DP, a 3-D matmul, a convolution.
  const std::vector<WireRequest> tunes = {tune_req("editdist:4x4", 4),
                                          tune_req("matmul:3", 4),
                                          tune_req("conv:16,3", 4)};

  std::vector<std::uint8_t> snapshot;
  std::vector<std::vector<std::uint8_t>> bytes;
  std::uint64_t source_compile_misses = 0;
  {
    Fleet source(1);
    for (const WireRequest& t : tunes) {
      const WireResponse r = source.router.call(t);
      ASSERT_EQ(r.status, kOk) << t.spec;
      bytes.push_back(semantic_bytes(r));
    }
    const WireMetrics m = source.router.shard_metrics(0);
    source_compile_misses = m.compile_misses;
    EXPECT_GE(source_compile_misses, tunes.size());  // distinct compile keys
    snapshot = source.router.snapshot_shard(0);
    EXPECT_FALSE(snapshot.empty());
  }

  Fleet restored(1);
  EXPECT_EQ(restored.router.restore_shard(0, snapshot), tunes.size());
  const WireMetrics after_restore = restored.router.shard_metrics(0);
  // The restore-time compiles are the snapshot's miss set — bounded by
  // what the source shard itself paid.
  EXPECT_LE(after_restore.compile_misses, source_compile_misses);

  // Replaying the snapshot's keys: pure cache hits, zero new compiles,
  // answers byte-identical to the source shard's.
  for (std::size_t i = 0; i < tunes.size(); ++i) {
    const WireResponse r = restored.router.call(tunes[i]);
    ASSERT_EQ(r.status, kOk) << tunes[i].spec;
    EXPECT_TRUE(r.cache_hit) << tunes[i].spec;
    EXPECT_EQ(semantic_bytes(r), bytes[i]) << tunes[i].spec;
  }

  const WireMetrics after_replay = restored.router.shard_metrics(0);
  EXPECT_EQ(after_replay.compile_misses, after_restore.compile_misses)
      << "replayed keys must not recompile";
  EXPECT_GE(after_replay.cache_hits, tunes.size());
}

TEST(ServeDist, CacheHitIsNotAnsweredBehindRunningTunes) {
  Fleet fleet(1);
  const WireRequest hit = cost_req(8, 8, 4);
  ASSERT_EQ(fleet.router.call(hit).status, kOk);  // warm the key

  // Two uncached tunes on different machines (so they cannot coalesce)
  // keep both of the shard's responders waiting; the warm hit behind
  // them must still come back first.  Time coefficients 0..9 give each
  // tune 1000 time triples against the default 27, so it outlasts the
  // hit by a wide margin however fast the search gets.
  WireRequest tune6 = tune_req("matmul:6", 6);
  tune6.machine_rows = 6;
  for (std::int64_t c = 0; c < 10; ++c) tune6.time_coeffs.push_back(c);
  WireRequest tune7 = tune6;
  tune7.machine_cols = 7;
  tune7.machine_rows = 7;

  std::mutex mu;
  std::vector<std::string> order;
  std::vector<std::promise<WireResponse>> done(3);
  std::vector<std::future<WireResponse>> futs;
  for (auto& d : done) futs.push_back(d.get_future());
  const auto record = [&](std::size_t i, const char* name) {
    return [&, i, name](const WireResponse& r) {
      {
        std::lock_guard<std::mutex> lock(mu);
        order.emplace_back(name);
      }
      done[i].set_value(r);
    };
  };
  fleet.router.submit(tune6, record(0, "tune 6x6"));
  fleet.router.submit(tune7, record(1, "tune 7x7"));
  fleet.router.submit(hit, record(2, "hit"));
  for (auto& f : futs) EXPECT_EQ(f.get().status, kOk);

  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order.front(), "hit") << "answered after " << order[1] << " and "
                                  << order[2];
}

TEST(ServeDist, FleetMetricsMergeCountersAndHistograms) {
  Fleet fleet(2);
  for (int n = 4; n < 10; ++n) {
    EXPECT_EQ(fleet.router.call(cost_req(n, n, 2)).status, kOk);
  }

  const WireMetrics s0 = fleet.router.shard_metrics(0);
  const WireMetrics s1 = fleet.router.shard_metrics(1);
  const WireMetrics fleet_m = fleet.router.fleet_metrics();
  EXPECT_EQ(fleet_m.submitted, s0.submitted + s1.submitted);
  EXPECT_EQ(fleet_m.completed, s0.completed + s1.completed);
  EXPECT_EQ(fleet_m.completed, 6u);
  EXPECT_EQ(fleet_m.errors, 0u);

  std::uint64_t shard_obs = 0, fleet_obs = 0;
  for (const std::uint64_t c : s0.latency_buckets) shard_obs += c;
  for (const std::uint64_t c : s1.latency_buckets) shard_obs += c;
  for (const std::uint64_t c : fleet_m.latency_buckets) fleet_obs += c;
  EXPECT_EQ(fleet_obs, shard_obs);
  EXPECT_EQ(fleet_obs, 6u);

  // The merged buckets feed straight back into a histogram for true
  // fleet percentiles.
  LatencyHistogram h;
  h.add_counts(fleet_m.latency_buckets);
  EXPECT_EQ(h.count(), 6u);
  EXPECT_GT(h.percentile_us(0.5), 0.0);
}

TEST(ServeDist, UnknownSpecAndUnsupportedKindYieldErrorsNotDeath) {
  Fleet fleet(1);

  WireRequest bogus = cost_req(4, 4, 2);
  bogus.spec = "bogus:3";
  const WireResponse r1 = fleet.router.call(bogus);
  EXPECT_EQ(r1.status, kError);
  EXPECT_NE(r1.error.find("unknown spec family"), std::string::npos);

  WireRequest pipeline = cost_req(4, 4, 2);
  pipeline.kind = RequestKind::kPipelineTune;
  const WireResponse r2 = fleet.router.call(pipeline);
  EXPECT_EQ(r2.status, kError);
  EXPECT_NE(r2.error.find("not supported"), std::string::npos);

  // The shard survives both: a well-formed follow-up still answers.
  EXPECT_EQ(fleet.router.call(cost_req(4, 4, 2)).status, kOk);
}

TEST(ServeDist, ZeroWidthMapYieldsErrorNotDeath) {
  // AffineMap::place wraps modulo the map's cols and rows, so a wire map
  // with either at 0 used to divide by zero and kill the shard.
  Fleet fleet(1);
  for (const RequestKind kind :
       {RequestKind::kCostEval, RequestKind::kLegality}) {
    for (const bool zero_cols : {true, false}) {
      WireRequest bad = cost_req(6, 6, 6);
      bad.kind = kind;
      (zero_cols ? bad.map.cols : bad.map.rows) = 0;
      const WireResponse r = fleet.router.call(bad);
      EXPECT_EQ(r.status, kError) << to_string(kind);
      EXPECT_NE(r.error.find("cols and rows must be positive"),
                std::string::npos)
          << r.error;

      // The same shard still answers a well-formed request.
      WireRequest good = cost_req(6, 6, 6);
      good.kind = kind;
      const WireResponse ok = fleet.router.call(good);
      EXPECT_EQ(ok.status, kOk) << to_string(kind);
      EXPECT_EQ(ok.shard, r.shard);
    }
  }
}

TEST(ServeDist, RouterWithoutShardsRejects) {
  Router router;
  const WireResponse r = router.call(cost_req(4, 4, 2));
  EXPECT_EQ(r.status, kRejected);
  EXPECT_NE(r.error.find("no shards"), std::string::npos);

  // The rejection callback may re-enter the router.  The submit runs on
  // its own thread and the wait is bounded, so a callback that
  // deadlocks on the router's lock fails the test instead of hanging
  // the suite.
  auto reentered = std::make_shared<std::promise<std::uint64_t>>();
  std::future<std::uint64_t> routed = reentered->get_future();
  std::thread client([&router, reentered] {
    router.submit(cost_req(4, 4, 2),
                  [&router, reentered](const WireResponse& rej) {
                    EXPECT_EQ(rej.status, kRejected);
                    reentered->set_value(router.stats().routed);
                  });
  });
  if (routed.wait_for(std::chrono::seconds(5)) !=
      std::future_status::ready) {
    ADD_FAILURE() << "rejection callback deadlocked calling stats()";
    std::abort();  // the client thread is stuck inside submit
  }
  EXPECT_EQ(routed.get(), 0u);
  client.join();
}

}  // namespace
}  // namespace harmony::serve
