// Unit tests for the harmony::serve subsystem: queue backpressure, cache
// keys, LRU behaviour, request execution correctness, deadline-cut
// tuning, resumable search, and metrics export.
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <future>
#include <memory>
#include <sstream>
#include <thread>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/pipelines.hpp"
#include "algos/specs.hpp"
#include "fm/cost.hpp"
#include "fm/search.hpp"
#include "fm/strategy/strategy.hpp"
#include "fm/strategy/table_map.hpp"
#include "serve/cache.hpp"
#include "serve/catalog.hpp"
#include "serve/metrics.hpp"
#include "serve/queue.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"

namespace harmony::serve {
namespace {

using namespace std::chrono_literals;

// Deadline-cut latency is bounded by one in-flight candidate per lane,
// and sanitizers slow each candidate's full-domain verify — TSan by an
// order of magnitude, ASan by a small factor — so wall-clock tests
// scale their budgets, keeping the guarantee under test (cut + respond
// within the margin) the same on a slower clock.
#if defined(__SANITIZE_THREAD__)
constexpr int kTimeScale = 4;
#elif defined(__SANITIZE_ADDRESS__)
constexpr int kTimeScale = 2;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
constexpr int kTimeScale = 4;
#elif __has_feature(address_sanitizer)
constexpr int kTimeScale = 2;
#else
constexpr int kTimeScale = 1;
#endif
#else
constexpr int kTimeScale = 1;
#endif

std::shared_ptr<const fm::FunctionSpec> shared_editdist(std::int64_t n) {
  algos::SwScores s;
  return std::make_shared<const fm::FunctionSpec>(
      algos::editdist_spec(n, n, s));
}

Request editdist_cost_request(std::int64_t n, int pes) {
  Request req;
  req.kind = RequestKind::kCostEval;
  req.spec = shared_editdist(n);
  req.machine = fm::make_machine(pes, 1);
  req.inputs = {InputPlacement::at({0, 0}), InputPlacement::at({0, 0})};
  // The anti-diagonal wavefront: known-legal on a wide-enough array.
  req.map = fm::AffineMap{.ti = 1, .tj = 1, .tk = 0, .t0 = 0,
                          .xi = 1, .xj = 0, .xk = 0, .x0 = 0,
                          .yi = 0, .yj = 0, .yk = 0, .y0 = 0,
                          .cols = pes, .rows = 1};
  return req;
}

fm::Mapping editdist_mapping(const Request& req) {
  fm::Mapping m;
  m.set_computed(2, req.map.place_fn(), req.map.time_fn());
  m.set_input(0, fm::InputHome::at({0, 0}));
  m.set_input(1, fm::InputHome::at({0, 0}));
  return m;
}

// --- BoundedQueue ---

TEST(BoundedQueue, BackpressureAndDrain) {
  BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: reject, don't block
  EXPECT_EQ(q.size(), 2u);

  int v = 0;
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 1);
  EXPECT_TRUE(q.try_push(3));  // space again

  q.close();
  EXPECT_FALSE(q.try_push(4));  // closed: no new work
  // Admitted items stay poppable after close (graceful drain).
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 2);
  EXPECT_TRUE(q.pop(v));
  EXPECT_EQ(v, 3);
  EXPECT_FALSE(q.pop(v));  // closed and drained
}

TEST(BoundedQueue, CloseWakesBlockedPopper) {
  BoundedQueue<int> q(4);
  std::thread popper([&] {
    int v = 0;
    EXPECT_FALSE(q.pop(v));
  });
  std::this_thread::sleep_for(10ms);
  q.close();
  popper.join();
}

// --- cache keys ---

TEST(CacheKey, CompileKeyCoarserThanResultKeyAndDomainSeparated) {
  Request a = editdist_cost_request(8, 8);
  a.kind = RequestKind::kTune;
  a.fom = fm::FigureOfMerit::kTime;
  Request b = a;
  b.fom = fm::FigureOfMerit::kEnergy;
  b.search.top_k = 9;
  EXPECT_NE(make_cache_key(a), make_cache_key(b));      // results differ
  EXPECT_EQ(make_compile_key(a), make_compile_key(b));  // tables shared
  EXPECT_NE(make_compile_key(a), make_cache_key(a));    // tag separation

  Request c = a;
  c.machine = fm::make_machine(4, 1);
  EXPECT_NE(make_compile_key(c), make_compile_key(a));
  Request d = a;
  d.inputs = {InputPlacement::dram(), InputPlacement::at({0, 0})};
  EXPECT_NE(make_compile_key(d), make_compile_key(a));
}

TEST(CacheKey, FingerprintOverloadsAgreeWithSamplingOnes) {
  for (const RequestKind kind :
       {RequestKind::kCostEval, RequestKind::kLegality, RequestKind::kTune}) {
    Request req = editdist_cost_request(8, 8);
    req.kind = kind;
    const CacheKey fp = spec_fingerprint(*req.spec);
    EXPECT_EQ(make_cache_key(req, fp), make_cache_key(req));
    EXPECT_EQ(make_compile_key(req, fp), make_compile_key(req));
  }
  // The fingerprint belongs to the spec's content, not the object.
  EXPECT_EQ(spec_fingerprint(*shared_editdist(8)),
            spec_fingerprint(*shared_editdist(8)));
  EXPECT_NE(spec_fingerprint(*shared_editdist(8)),
            spec_fingerprint(*shared_editdist(9)));
}

TEST(CacheKey, StableAcrossIndependentSpecBuilds) {
  Request a = editdist_cost_request(8, 8);
  Request b = editdist_cost_request(8, 8);
  ASSERT_NE(a.spec.get(), b.spec.get());
  EXPECT_EQ(make_cache_key(a), make_cache_key(b));
}

TEST(CacheKey, SensitiveToEveryComponent) {
  const Request base = editdist_cost_request(8, 8);
  const CacheKey k0 = make_cache_key(base);

  Request diff = editdist_cost_request(9, 8);  // domain extent
  EXPECT_NE(make_cache_key(diff), k0);

  diff = editdist_cost_request(8, 4);  // machine geometry (and map.cols)
  EXPECT_NE(make_cache_key(diff), k0);

  diff = editdist_cost_request(8, 8);
  diff.fom = fm::FigureOfMerit::kTime;  // figure of merit
  EXPECT_NE(make_cache_key(diff), k0);

  diff = editdist_cost_request(8, 8);
  diff.map.tj = 2;  // affine coefficient
  EXPECT_NE(make_cache_key(diff), k0);

  diff = editdist_cost_request(8, 8);
  diff.inputs[1] = InputPlacement::dram();  // input placement
  EXPECT_NE(make_cache_key(diff), k0);

  diff = editdist_cost_request(8, 8);
  diff.kind = RequestKind::kLegality;  // request kind
  EXPECT_NE(make_cache_key(diff), k0);
}

TEST(CacheKey, TuneKeyIgnoresCancelAndResume) {
  Request a = editdist_cost_request(8, 8);
  a.kind = RequestKind::kTune;
  Request b = editdist_cost_request(8, 8);
  b.kind = RequestKind::kTune;
  b.search.cancel = [] { return false; };
  b.search.resume_from = 17;
  EXPECT_EQ(make_cache_key(a), make_cache_key(b));

  b.search.space.time_coeffs.push_back(3);  // but the space matters
  EXPECT_NE(make_cache_key(a), make_cache_key(b));
}

/// An irregular-DAG anneal tune: the non-affine space the exhaustive
/// search cannot express, served through the same kTune pipeline.
Request dag_anneal_request(std::int64_t n, int pes) {
  Request req;
  req.kind = RequestKind::kTune;
  req.spec = std::make_shared<const fm::FunctionSpec>(
      algos::irregular_dag_spec(n, 3, 0xD46u));
  req.machine = fm::make_machine(pes, 1);
  req.inputs = {InputPlacement::at({0, 0})};
  req.fom = fm::FigureOfMerit::kTime;
  req.strategy = fm::StrategyKind::kAnneal;
  req.strategy_opts.chains = 2;
  req.strategy_opts.epochs = 6;
  req.strategy_opts.iters_per_epoch = 64;
  return req;
}

TEST(CacheKey, StrategyKindAndKnobsAreKeyedExecutionDetailIsNot) {
  const Request a = dag_anneal_request(12, 2);
  const CacheKey base = make_cache_key(a);

  Request b = a;  // a different driver is a different result
  b.strategy = fm::StrategyKind::kBeam;
  EXPECT_NE(make_cache_key(b), base);

  Request c = a;  // so is a different stream seed or budget
  c.strategy_opts.seed ^= 1;
  EXPECT_NE(make_cache_key(c), base);
  c = a;
  c.strategy_opts.epochs += 1;
  EXPECT_NE(make_cache_key(c), base);

  // Cancel hooks and the parallel backend cannot change the converged
  // answer (worker-count byte-identity), so they are not keyed.
  Request d = a;
  d.strategy_opts.cancel = [] { return false; };
  d.strategy_opts.num_workers = 7;
  EXPECT_EQ(make_cache_key(d), base);
}

// --- ResultCache ---

std::shared_ptr<const Response> dummy_response(double ops) {
  auto r = std::make_shared<Response>();
  r->cost.total_ops = ops;
  return r;
}

TEST(ResultCache, LruEvictsOldestAndCountsStats) {
  ResultCache cache(/*capacity=*/2, /*shards=*/1);
  const CacheKey k1{1, 1}, k2{2, 2}, k3{3, 3};
  cache.put(k1, dummy_response(1));
  cache.put(k2, dummy_response(2));
  ASSERT_NE(cache.get(k1), nullptr);  // k1 now MRU, k2 is LRU
  cache.put(k3, dummy_response(3));   // evicts k2
  EXPECT_EQ(cache.get(k2), nullptr);
  ASSERT_NE(cache.get(k1), nullptr);
  ASSERT_NE(cache.get(k3), nullptr);

  const CacheStats st = cache.stats();
  EXPECT_EQ(st.hits, 3u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.evictions, 1u);
  EXPECT_EQ(st.entries, 2u);
  EXPECT_DOUBLE_EQ(st.hit_rate(), 0.75);
}

TEST(ResultCache, CapacityRemainderIsDistributedAcrossShards) {
  // Regression: capacity 10 over 8 shards used to round (truncating
  // dropped entries; the later ceil over-provisioned to 16 and
  // capacity() reported the inflated number).  The budget must be
  // honored exactly: shard caps sum to the requested total.
  ResultCache cache(/*capacity=*/10, /*shards=*/8);
  EXPECT_EQ(cache.capacity(), 10u);

  // Shard = key.hi % 8.  Offer 3 entries to every shard: the two
  // remainder-carrying shards keep 2 each, the rest keep 1 — exactly 10
  // resident entries and 14 evictions.
  for (std::uint64_t s = 0; s < 8; ++s) {
    for (std::uint64_t i = 0; i < 3; ++i) {
      cache.put(CacheKey{s, i}, dummy_response(static_cast<double>(i)));
    }
  }
  const CacheStats st = cache.stats();
  EXPECT_EQ(st.entries, 10u);
  EXPECT_EQ(st.evictions, 14u);

  // One-shard degenerate case: the whole budget lands in shard 0.
  ResultCache single(/*capacity=*/3, /*shards=*/1);
  for (std::uint64_t i = 0; i < 5; ++i) {
    single.put(CacheKey{0, i}, dummy_response(static_cast<double>(i)));
  }
  EXPECT_EQ(single.stats().entries, 3u);
}

TEST(ResultCache, PutRefreshesExistingKey) {
  ResultCache cache(4, 2);
  const CacheKey k{7, 7};
  cache.put(k, dummy_response(1));
  cache.put(k, dummy_response(2));
  const auto hit = cache.get(k);
  ASSERT_NE(hit, nullptr);
  EXPECT_DOUBLE_EQ(hit->cost.total_ops, 2.0);
  EXPECT_EQ(cache.stats().entries, 1u);
}

// --- resumable search (fm layer) ---

TEST(SearchResume, CutPlusResumeCoversTheWholeSpace) {
  algos::SwScores s;
  const auto spec = algos::editdist_spec(8, 8, s);
  const fm::MachineConfig cfg = fm::make_machine(8, 1);
  fm::Mapping proto;
  proto.set_input(0, fm::InputHome::at({0, 0}));
  proto.set_input(1, fm::InputHome::at({0, 0}));

  const fm::SearchResult full = fm::search_affine(spec, cfg, proto);
  ASSERT_TRUE(full.found);
  ASSERT_TRUE(full.exhausted);

  // Stop after 40 candidates, then resume from the recorded offset.
  fm::SearchOptions opts;
  std::uint64_t polled = 0;
  opts.cancel = [&polled] { return ++polled > 40; };
  const fm::SearchResult first = fm::search_affine(spec, cfg, proto, opts);
  EXPECT_FALSE(first.exhausted);
  EXPECT_LT(first.next_offset, full.next_offset);

  fm::SearchOptions rest;
  rest.resume_from = first.next_offset;
  const fm::SearchResult second = fm::search_affine(spec, cfg, proto, rest);
  EXPECT_TRUE(second.exhausted);
  EXPECT_EQ(second.next_offset, full.next_offset);
  EXPECT_EQ(first.enumerated + second.enumerated, full.enumerated);
  EXPECT_EQ(first.legal + second.legal, full.legal);

  // The better of the two windows is the uncut winner.
  const double best_merit =
      std::min(first.found ? first.best.merit
                           : std::numeric_limits<double>::infinity(),
               second.found ? second.best.merit
                            : std::numeric_limits<double>::infinity());
  EXPECT_DOUBLE_EQ(best_merit, full.best.merit);
}

// --- Service ---

TEST(Service, CostEvalMatchesDirectOracleAndCaches) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service svc(cfg);

  const Request req = editdist_cost_request(8, 8);
  const fm::CostReport direct =
      fm::evaluate_cost(*req.spec, editdist_mapping(req), req.machine);

  const Response r1 = svc.call(req);
  ASSERT_TRUE(r1.ok()) << r1.error;
  EXPECT_FALSE(r1.cache_hit);
  EXPECT_EQ(r1.cost.makespan_cycles, direct.makespan_cycles);
  EXPECT_DOUBLE_EQ(r1.cost.total_energy().femtojoules(),
                   direct.total_energy().femtojoules());

  const Response r2 = svc.call(req);
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(r2.cache_hit);
  EXPECT_EQ(r2.cost.makespan_cycles, direct.makespan_cycles);

  const MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.submitted, 2u);
  EXPECT_EQ(snap.completed, 2u);
  EXPECT_GE(snap.cache.hits, 1u);
}

TEST(Service, LegalityMatchesDirectVerify) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service svc(cfg);

  Request req = editdist_cost_request(8, 8);
  req.kind = RequestKind::kLegality;
  const Response r = svc.call(req);
  ASSERT_TRUE(r.ok()) << r.error;
  const fm::LegalityReport direct =
      fm::verify(*req.spec, editdist_mapping(req), req.machine, req.verify);
  EXPECT_EQ(r.legality.ok, direct.ok);
  EXPECT_EQ(r.legality.total_violations(), direct.total_violations());

  // An illegal map (everything at cycle 0 on one PE) must report so.
  req.map = fm::AffineMap{.cols = 8, .rows = 1};
  const Response bad = svc.call(req);
  ASSERT_TRUE(bad.ok()) << bad.error;
  EXPECT_FALSE(bad.legality.ok);
  EXPECT_GT(bad.legality.total_violations(), 0u);
}

TEST(Service, TuneMatchesDirectSearch) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service svc(cfg);

  Request req = editdist_cost_request(8, 8);
  req.kind = RequestKind::kTune;
  req.fom = fm::FigureOfMerit::kTime;

  fm::Mapping proto;
  proto.set_input(0, fm::InputHome::at({0, 0}));
  proto.set_input(1, fm::InputHome::at({0, 0}));
  fm::SearchOptions direct_opts = req.search;
  direct_opts.fom = req.fom;
  const fm::SearchResult direct =
      fm::search_affine(*req.spec, req.machine, proto, direct_opts);
  ASSERT_TRUE(direct.found);

  const Response r = svc.call(req);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.search.found);
  EXPECT_TRUE(r.search.exhausted);
  EXPECT_FALSE(r.deadline_cut);
  EXPECT_DOUBLE_EQ(r.search.best.merit, direct.best.merit);
  EXPECT_EQ(r.cost.makespan_cycles, direct.best.cost.makespan_cycles);
  // The post-hoc execution check ran on the winner and found nothing.
  EXPECT_TRUE(r.exec_checked);
  EXPECT_TRUE(r.exec.empty());
  EXPECT_EQ(svc.metrics().exec_checks, 1u);
  EXPECT_EQ(svc.metrics().exec_failures, 0u);

  // Exhausted tune results are memoized.
  const Response again = svc.call(req);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_DOUBLE_EQ(again.search.best.merit, direct.best.merit);
}

TEST(Service, CompileCacheSharesTablesAcrossTunes) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service svc(cfg);

  Request req = editdist_cost_request(8, 8);
  req.kind = RequestKind::kTune;
  req.fom = fm::FigureOfMerit::kTime;
  const Response r1 = svc.call(req);
  ASSERT_TRUE(r1.ok()) << r1.error;

  Request req2 = req;
  req2.fom = fm::FigureOfMerit::kEnergy;  // new result key, same triple
  const Response r2 = svc.call(req2);
  ASSERT_TRUE(r2.ok()) << r2.error;
  EXPECT_FALSE(r2.cache_hit);  // the *result* cache missed...

  const MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.compile_misses, 1u);  // ...but the compiled tables hit
  EXPECT_EQ(snap.compile_hits, 1u);
}

TEST(Service, ParallelTuneMatchesSerialAndRecordsWorkerMetrics) {
  ServiceConfig cfg;
  cfg.num_workers = 4;
  Service svc(cfg);

  Request req = editdist_cost_request(10, 10);
  req.kind = RequestKind::kTune;
  req.fom = fm::FigureOfMerit::kTime;
  req.tune_workers = 3;  // per-request ask, below the pool's 4 workers

  fm::Mapping proto;
  proto.set_input(0, fm::InputHome::at({0, 0}));
  proto.set_input(1, fm::InputHome::at({0, 0}));
  fm::SearchOptions serial = req.search;
  serial.fom = req.fom;  // scheduler left null: serial reference
  const fm::SearchResult direct =
      fm::search_affine(*req.spec, req.machine, proto, serial);
  ASSERT_TRUE(direct.found);

  const Response r = svc.call(req);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.search.found);
  EXPECT_TRUE(r.search.exhausted);
  // The parallel tune reproduces the serial answer exactly, including
  // the winner's enumeration slot.
  EXPECT_DOUBLE_EQ(r.search.best.merit, direct.best.merit);
  EXPECT_EQ(r.search.best.slot, direct.best.slot);
  EXPECT_EQ(r.search.enumerated, direct.enumerated);
  EXPECT_EQ(r.search.legal, direct.legal);
  // The lane count respected the per-request ask.
  EXPECT_GE(r.search.workers_used, 1u);
  EXPECT_LE(r.search.workers_used, 3u);

  const MetricsSnapshot snap = svc.metrics();
  EXPECT_GE(snap.tunes, 1u);
  EXPECT_GE(snap.mean_tune_workers, 1.0);
}

TEST(Service, DeadlineCutTuneReturnsLegalMappingBeforeDeadline) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  // The margin must absorb the candidates already in flight when the
  // cutoff fires plus the winner's verify/lint pass and ExecChecker
  // replay on the 64x64 domain -- all ~10x dearer under a sanitizer,
  // hence the generous slice (at 60ms the ASan build overran the
  // deadline in about half its runs).
  cfg.deadline_margin = 90ms * kTimeScale;
  Service svc(cfg);

  // A big search space (49 x 49 x 15 x 15 slots, every one that passes
  // the quick gate paying a full-domain input shift) over a 64x64
  // domain: far more work than the deadline allows even through the
  // compiled fast path, so the cut must trigger.  The search's placement
  // table scores each of the 225 placements once, so time coefficients
  // are what grows it: with {0..12} the two lanes finished the whole
  // space in about 30 ms under Release, inside the 60 ms cut.  With
  // {0..48}, 143 of the placements pass the quick gate in some block,
  // each needing a 64x64 digest; the table builds each one when a slot
  // first needs it, so the first slots still run at once (when every
  // such digest was built before the first slot, the cut fired during
  // that build under ASan and the tune answered with nothing).  With
  // both strings homed on PE (0,0) the pure wavefront (t=i+j) blows the
  // home link's bandwidth budget; the time-stretched t=i+8j fits, and
  // coefficient 8 rides second in the list so that legal mapping
  // enumerates within the first few hundred slots and the frontier is
  // non-empty long before the cutoff -- even under a sanitizer's ~10x
  // slowdown.
  Request req = editdist_cost_request(64, 64);
  req.kind = RequestKind::kTune;
  req.search.space.time_coeffs = {1, 8, 2, 3, 4, 5, 6, 7};
  for (std::int64_t c = 9; c <= 48; ++c) {
    req.search.space.time_coeffs.push_back(c);
  }
  req.search.space.time_coeffs.push_back(0);
  req.search.space.space_coeffs = {1,  0, -1, 2,  -2, 3,  -3, 4,
                                   -4, 5, -5, 6, -6, 7, -7};
  req.deadline = 150ms * kTimeScale;

  const auto t0 = std::chrono::steady_clock::now();
  const Response r = svc.call(req);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.deadline_cut);
  EXPECT_FALSE(r.search.exhausted);
  EXPECT_LT(elapsed, req.deadline);  // answered strictly before the deadline
  ASSERT_TRUE(r.search.found);       // ...with a usable frontier

  // The best-so-far mapping must be genuinely legal.
  fm::Mapping best;
  best.set_computed(2, r.search.best.map.place_fn(),
                    r.search.best.map.time_fn());
  best.set_input(0, fm::InputHome::at({0, 0}));
  best.set_input(1, fm::InputHome::at({0, 0}));
  EXPECT_TRUE(fm::verify(*req.spec, best, req.machine).ok);

  // Deadline-cut results are NOT cached: a rerun recomputes.
  const Response again = svc.call(req);
  EXPECT_FALSE(again.cache_hit);
}

TEST(Service, StrategyTuneMatchesDirectSearchAndCaches) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service svc(cfg);
  const Request req = dag_anneal_request(24, 4);

  // Serial direct reference: the service runs the same search over its
  // own scheduler, and worker-count byte-identity makes them agree.
  fm::Mapping proto;
  proto.set_input(0, fm::InputHome::at({0, 0}));
  fm::StrategyOptions direct_opts = req.strategy_opts;
  direct_opts.fom = req.fom;
  const fm::StrategyResult direct = fm::search_table(
      *req.spec, req.machine, proto, fm::StrategyKind::kAnneal, direct_opts);
  ASSERT_TRUE(direct.found);

  const Response r = svc.call(req);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.strategy.found);
  EXPECT_TRUE(r.strategy.completed);
  EXPECT_FALSE(r.deadline_cut);
  EXPECT_EQ(r.strategy.best.pe, direct.best.pe);
  EXPECT_EQ(r.strategy.best.cycle, direct.best.cycle);
  EXPECT_EQ(r.strategy.best.input_home, direct.best.input_home);
  EXPECT_EQ(r.strategy.merit, direct.merit);
  EXPECT_EQ(r.cost.makespan_cycles, direct.cost.makespan_cycles);
  // The winner is legal through the legacy verifier on the lowered map.
  EXPECT_TRUE(fm::verify(*req.spec,
                         fm::to_mapping(*req.spec, r.strategy.best),
                         req.machine)
                  .ok);
  // And through the independent execution checker.
  EXPECT_TRUE(r.exec_checked);
  EXPECT_TRUE(r.exec.empty());
  EXPECT_GE(svc.metrics().exec_checks, 1u);
  EXPECT_EQ(svc.metrics().exec_failures, 0u);

  // Completed strategy tunes are memoized like exhausted searches.
  const Response again = svc.call(req);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_EQ(again.strategy.merit, direct.merit);
}

TEST(Service, StrategyDeadlineCutReturnsBestSoFarUncached) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  cfg.deadline_margin = 40ms * kTimeScale;
  Service svc(cfg);

  // A budget far beyond the deadline (cancel is polled per epoch, so
  // the per-epoch batch bounds the overshoot): the cut must fire and
  // still answer with the best legal table so far.
  Request req = dag_anneal_request(64, 4);
  req.strategy_opts.chains = 2;
  req.strategy_opts.epochs = 2000;
  req.strategy_opts.iters_per_epoch = 4000;
  req.strategy_opts.stall_epochs = 2000;  // never stop on stall
  req.deadline = 120ms * kTimeScale;

  const auto t0 = std::chrono::steady_clock::now();
  const Response r = svc.call(req);
  const auto elapsed = std::chrono::steady_clock::now() - t0;

  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_TRUE(r.deadline_cut);
  EXPECT_FALSE(r.strategy.completed);
  EXPECT_LT(elapsed, req.deadline + cfg.deadline_margin);
  ASSERT_TRUE(r.strategy.found);
  EXPECT_LT(r.strategy.epochs_run, req.strategy_opts.epochs);
  EXPECT_TRUE(fm::verify(*req.spec,
                         fm::to_mapping(*req.spec, r.strategy.best),
                         req.machine)
                  .ok);

  // Deadline-cut strategy results are NOT cached: a rerun recomputes.
  const Response again = svc.call(req);
  EXPECT_FALSE(again.cache_hit);
}

TEST(Service, PipelineTuneMatchesDirectTunerAndCertifiesEveryStage) {
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service svc(cfg);

  Request req;
  req.kind = RequestKind::kPipelineTune;
  req.pipeline = std::make_shared<const fm::Pipeline>(
      algos::scan_filter_scan_pipeline(16));
  req.machine = fm::make_machine(4, 1);
  req.search.space.time_coeffs = {0, 1, 2};
  req.search.space.space_coeffs = {-1, 0, 1};
  req.pipeline_paired = true;

  // Direct oracle on the same options (the service adds only plumbing).
  fm::PipelineOptions direct_opts;
  direct_opts.fom = req.fom;
  direct_opts.search = req.search;
  direct_opts.pair_candidates = req.pipeline_pair_candidates;
  const fm::PipelineResult direct =
      fm::tune_pipeline_paired(*req.pipeline, req.machine, direct_opts);
  ASSERT_TRUE(direct.found);

  const Response r = svc.call(req);
  ASSERT_TRUE(r.ok()) << r.error;
  ASSERT_TRUE(r.pipeline.found);
  EXPECT_TRUE(r.pipeline.completed);
  EXPECT_FALSE(r.deadline_cut);
  ASSERT_EQ(r.pipeline.stages.size(), 3u);
  EXPECT_DOUBLE_EQ(r.pipeline.merit, direct.merit);
  EXPECT_EQ(r.cost.makespan_cycles, direct.total.makespan_cycles);
  for (std::size_t s = 0; s < 3; ++s) {
    EXPECT_DOUBLE_EQ(r.pipeline.stages[s].merit, direct.stages[s].merit)
        << "stage " << s;
  }
  // Every stage winner was certified against the relational model with
  // its producer-substituted input homes — and came back clean.
  EXPECT_TRUE(r.exec_checked);
  EXPECT_TRUE(r.exec.empty());
  EXPECT_EQ(svc.metrics().exec_checks, 3u);
  EXPECT_EQ(svc.metrics().exec_failures, 0u);

  // Completed pipeline tunes are memoized under the pipeline
  // fingerprint...
  const Response again = svc.call(req);
  EXPECT_TRUE(again.cache_hit);
  EXPECT_DOUBLE_EQ(again.pipeline.merit, direct.merit);

  // ...and the greedy flavour is a *different* result key.
  Request greedy = req;
  greedy.pipeline_paired = false;
  const Response g = svc.call(greedy);
  ASSERT_TRUE(g.ok()) << g.error;
  EXPECT_FALSE(g.cache_hit);
  EXPECT_TRUE(g.pipeline.found);

  // Per-stage compiles went through the compile cache: the paired run
  // probes consumers under candidate layouts (distinct home
  // fingerprints => distinct keys), then certification and the greedy
  // rerun re-request the same triples and hit.
  const MetricsSnapshot snap = svc.metrics();
  EXPECT_GT(snap.compile_misses, 0u);
  EXPECT_GT(snap.compile_hits, 0u);
}

TEST(Service, EmptyPipelineYieldsErrorResponseNotThrow) {
  Service svc({.num_workers = 1});
  Request req;
  req.kind = RequestKind::kPipelineTune;  // pipeline left null
  const Response r = svc.call(req);
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("pipeline"), std::string::npos);
  Request empty;
  empty.kind = RequestKind::kPipelineTune;
  empty.pipeline = std::make_shared<const fm::Pipeline>();
  const Response r2 = svc.call(std::move(empty));
  EXPECT_EQ(r2.status, Status::kError);
}

TEST(Service, NullSpecYieldsErrorResponseNotThrow) {
  Service svc({.num_workers = 1});
  Request req;  // spec left null
  const Response r = svc.call(std::move(req));
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_FALSE(r.error.empty());
}

TEST(Service, OracleExceptionSurfacesAsErrorResponse) {
  Service svc({.num_workers = 1});
  // Two computed tensors: search_affine's precondition fails.
  auto spec = std::make_shared<fm::FunctionSpec>();
  const auto dom = fm::IndexDomain(4);
  spec->add_computed("a", dom, [](const fm::Point&) {
    return std::vector<fm::ValueRef>{};
  }, [](const fm::Point&, const std::vector<double>&) { return 0.0; });
  spec->add_computed("b", dom, [](const fm::Point&) {
    return std::vector<fm::ValueRef>{};
  }, [](const fm::Point&, const std::vector<double>&) { return 0.0; });

  Request req;
  req.kind = RequestKind::kTune;
  req.spec = spec;
  req.machine = fm::make_machine(2, 1);
  const Response r = svc.call(std::move(req));
  EXPECT_EQ(r.status, Status::kError);
  EXPECT_NE(r.error.find("computed"), std::string::npos);
}

TEST(Service, SubmitAfterShutdownIsRejectedWithRetryAfter) {
  ServiceConfig cfg;
  cfg.num_workers = 1;
  Service svc(cfg);
  svc.shutdown();
  const Response r = svc.call(editdist_cost_request(6, 6));
  EXPECT_EQ(r.status, Status::kRejected);
  EXPECT_GT(r.retry_after.count(), 0);
}

TEST(Service, BatchedDuplicatesExecuteOnceAndAllWaitersAnswered) {
  // Eight identical tunes, no deadlines, submitted back to back.  Every
  // interleaving ends with one oracle run: a duplicate admitted while
  // the first runs is parked on it, one admitted after the result is
  // stored hits the cache (in submit or in its own leader's re-probe).
  ServiceConfig cfg;
  cfg.num_workers = 2;
  Service svc(cfg);

  Request req = editdist_cost_request(10, 10);
  req.kind = RequestKind::kTune;
  std::vector<std::future<Response>> futs;
  for (int i = 0; i < 8; ++i) futs.push_back(svc.submit(req));
  std::size_t hits = 0;
  for (auto& f : futs) {
    const Response r = f.get();
    ASSERT_TRUE(r.ok()) << r.error;
    ASSERT_TRUE(r.search.found);
    hits += r.cache_hit ? 1 : 0;
  }
  const MetricsSnapshot snap = svc.metrics();
  EXPECT_EQ(snap.tunes, 1u);
  EXPECT_EQ(hits, 7u);
  EXPECT_EQ(snap.completed, 8u);
}

TEST(Service, CheapMissIsAnsweredWhileATuneHoldsAWorker) {
  // A miss waits only for a free worker, never for another request: a
  // cost eval submitted while a long tune runs is answered before it.
  ServiceConfig cfg;
  cfg.num_workers = 4;
  Service svc(cfg);

  SpecCatalog catalog;
  WireRequest w;
  w.kind = RequestKind::kTune;
  w.spec = "matmul:6";
  w.machine_cols = w.machine_rows = 7;
  // Ten time coefficients per axis instead of three: 1000 time triples
  // against the default 27, so the one-lane tune outlasts the cost eval
  // below by a wide margin on a loaded host (with six, about 15 ms, a
  // loaded host once finished it first).
  w.time_coeffs = {0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  w.tune_workers = 1;  // one lane
  std::future<Response> slow = svc.submit(to_request(w, catalog));
  // Wait until a worker has started the tune, then a little longer so
  // the cost eval arrives well after it.
  while (svc.metrics().queue_depth != 0) std::this_thread::yield();
  std::this_thread::sleep_for(5ms);

  std::future<Response> cheap = svc.submit(editdist_cost_request(8, 8));
  const Response r = cheap.get();
  EXPECT_EQ(slow.wait_for(0s), std::future_status::timeout)
      << "the cost eval was answered only after the tune";
  ASSERT_TRUE(r.ok()) << r.error;
  EXPECT_FALSE(r.cache_hit);
  ASSERT_TRUE(slow.get().ok());
}

TEST(Service, SpecFingerprintMemoForgetsASpecWhoseOwnerIsGone) {
  // One FunctionSpec slot, owned in turn by two unrelated aliasing
  // owners: A's owner goes away and a different spec is assigned into
  // the same address.  A memo keyed by address alone would hand the new
  // spec A's fingerprint and serve A's sentinel.
  Service svc({.num_workers = 1});
  const algos::SwScores scores;
  auto slot =
      std::make_shared<fm::FunctionSpec>(algos::editdist_spec(8, 8, scores));
  Request a = editdist_cost_request(8, 8);
  a.spec = std::shared_ptr<const fm::FunctionSpec>(std::make_shared<int>(0),
                                                   slot.get());
  Response sentinel;
  sentinel.cost.makespan_cycles = 987654321;
  svc.warm(a, sentinel);
  const Response warm = svc.call(a);
  ASSERT_TRUE(warm.cache_hit);
  ASSERT_EQ(warm.cost.makespan_cycles, sentinel.cost.makespan_cycles);

  Request b = a;
  a.spec.reset();
  b.spec.reset();  // A's owner is gone
  *slot = algos::editdist_spec(8, 7, scores);
  b.spec = std::shared_ptr<const fm::FunctionSpec>(std::make_shared<int>(1),
                                                   slot.get());

  const Response got = svc.call(b);
  ASSERT_TRUE(got.ok()) << got.error;
  EXPECT_FALSE(got.cache_hit);
  Service fresh({.num_workers = 1});
  const Response want = fresh.call(b);
  ASSERT_TRUE(want.ok()) << want.error;
  EXPECT_EQ(got.cost.makespan_cycles, want.cost.makespan_cycles);
  EXPECT_EQ(got.cost.total_energy().femtojoules(),
            want.cost.total_energy().femtojoules());
}

// --- metrics export ---

TEST(Metrics, HistogramPercentilesAreMonotonic) {
  LatencyHistogram h;
  for (int i = 1; i <= 1000; ++i) h.record(std::chrono::microseconds(i));
  EXPECT_EQ(h.count(), 1000u);
  const double p50 = h.percentile_us(0.50);
  const double p95 = h.percentile_us(0.95);
  const double p99 = h.percentile_us(0.99);
  EXPECT_LE(p50, p95);
  EXPECT_LE(p95, p99);
  // Power-of-two buckets: p50 of U[1,1000]us lands in (256,512]us.
  EXPECT_GE(p50, 256.0);
  EXPECT_LE(p50, 1024.0);
}

TEST(Metrics, HistogramEdgeCasesEmptyAndSingleSample) {
  // Empty histogram: every percentile is 0.
  LatencyHistogram empty;
  EXPECT_EQ(empty.count(), 0u);
  EXPECT_DOUBLE_EQ(empty.percentile_us(0.50), 0.0);
  EXPECT_DOUBLE_EQ(empty.percentile_us(0.99), 0.0);

  // Regression: a single 1000ns observation lands in bucket [512, 1024)
  // and used to read back as the upper edge (1.024us — a 2x skew for a
  // value near the bucket floor).  The midpoint bounds any single
  // observation to [0.75x, 1.5x] of truth: 768ns here.
  LatencyHistogram one;
  one.record(std::chrono::nanoseconds(1000));
  EXPECT_EQ(one.count(), 1u);
  const double mid = 768.0 / 1000.0;
  EXPECT_DOUBLE_EQ(one.percentile_us(0.0), mid);
  EXPECT_DOUBLE_EQ(one.percentile_us(0.50), mid);
  EXPECT_DOUBLE_EQ(one.percentile_us(1.0), mid);

  // A zero-latency sample sits in the dedicated 0ns bucket.
  LatencyHistogram zero;
  zero.record(std::chrono::nanoseconds(0));
  EXPECT_DOUBLE_EQ(zero.percentile_us(0.50), 0.0);

  // The top bucket must follow the same midpoint convention — its old
  // overflow fallback returned the bucket's *upper edge* (2^63 ns),
  // breaking the [0.75x, 1.5x] bound every other bucket honours.  The
  // largest representable latency lands in bucket 63 = [2^62, 2^63).
  LatencyHistogram top;
  top.record(std::chrono::nanoseconds::max());
  const double top_mid_us =
      (std::ldexp(1.0, 62) + std::ldexp(1.0, 63)) / 2.0 / 1000.0;
  EXPECT_DOUBLE_EQ(top.percentile_us(0.50), top_mid_us);
  EXPECT_DOUBLE_EQ(top.percentile_us(1.0), top_mid_us);
}

TEST(Metrics, JsonExportIsWellFormedAndComplete) {
  Metrics m;
  m.on_submit();
  m.on_complete(1ms, false, false);
  const MetricsSnapshot snap = m.snapshot(3, CacheStats{10, 2, 1, 5});
  const std::string json = metrics_json(snap);
  EXPECT_NE(json.find("\"metric\": \"submitted\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"cache_hit_rate\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"p99_us\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"p999_us\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"tunes\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"mean_tune_workers\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"tune_steals\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"compile_hits\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"compile_misses\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"exec_checks\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"exec_failures\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"diagnostics\""), std::string::npos);
  EXPECT_NE(json.find("\"metric\": \"trace_dropped\""), std::string::npos);
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  // Balanced braces: one object per row.
  const auto count = [&](char c) {
    return std::count(json.begin(), json.end(), c);
  };
  EXPECT_EQ(count('{'), count('}'));
  EXPECT_EQ(count('{'), 26);
}

TEST(Metrics, OnTuneAggregatesWorkersAndSteals) {
  Metrics m;
  m.on_tune(/*workers_used=*/4, /*steals=*/10);
  m.on_tune(/*workers_used=*/2, /*steals=*/3);
  const MetricsSnapshot snap = m.snapshot(0, CacheStats{});
  EXPECT_EQ(snap.tunes, 2u);
  EXPECT_DOUBLE_EQ(snap.mean_tune_workers, 3.0);
  EXPECT_EQ(snap.tune_steals, 13u);
}

TEST(Metrics, TableJsonEscapesStrings) {
  Table t({"metric", "value"});
  t.add_row({std::string("we\"ird\nname"), std::int64_t{1}});
  std::ostringstream os;
  t.print_json(os);
  EXPECT_NE(os.str().find("we\\\"ird\\nname"), std::string::npos);
}

TEST(Metrics, TableJsonEscapesHeadersAndControlChars) {
  // Headers pass through the same escaper as cells — a column name with
  // a quote or backslash must not produce unparseable JSON keys.
  Table t({"met\"ric\\name", "value"});
  t.add_row({std::string("tab\there\x01"), std::string("back\\slash\r")});
  std::ostringstream os;
  t.print_json(os);
  const std::string json = os.str();
  EXPECT_NE(json.find("\"met\\\"ric\\\\name\""), std::string::npos);
  EXPECT_NE(json.find("tab\\there\\u0001"), std::string::npos);
  EXPECT_NE(json.find("back\\\\slash\\r"), std::string::npos);
  // No raw quote/control byte survives outside the JSON structure: the
  // only unescaped quotes left are the key/value delimiters.
  EXPECT_EQ(json.find('\t'), std::string::npos);
  EXPECT_EQ(json.find('\x01'), std::string::npos);
  EXPECT_EQ(json.find('\r'), std::string::npos);
}

TEST(Metrics, HistogramMergeMatchesUnionOracle) {
  // merge() must behave as if one histogram had recorded the union of
  // the samples: buckets are exact counters, so count addition is
  // lossless — unlike averaging per-shard percentiles, which is wrong
  // for any non-uniform split (shard A: fast cache hits, shard B: slow
  // tunes).
  std::vector<std::int64_t> fast, slow;
  for (int i = 1; i <= 200; ++i) fast.push_back(500 + 13 * i);     // ~µs
  for (int i = 1; i <= 50; ++i) slow.push_back(800'000 + 7'000 * i);  // ~ms

  LatencyHistogram a, b, merged_oracle;
  for (const std::int64_t ns : fast) {
    a.record(std::chrono::nanoseconds(ns));
    merged_oracle.record(std::chrono::nanoseconds(ns));
  }
  for (const std::int64_t ns : slow) {
    b.record(std::chrono::nanoseconds(ns));
    merged_oracle.record(std::chrono::nanoseconds(ns));
  }

  LatencyHistogram merged;
  merged.merge(a);
  merged.merge(b);
  EXPECT_EQ(merged.count(), 250u);
  EXPECT_EQ(merged.counts(), merged_oracle.counts());
  for (const double q : {0.0, 0.5, 0.95, 0.99, 0.999, 1.0}) {
    EXPECT_DOUBLE_EQ(merged.percentile_us(q), merged_oracle.percentile_us(q))
        << "q=" << q;
  }
  // The non-uniform split makes the naive aggregation observably wrong:
  // the true fleet p95 is dominated by shard B's tail, far from the
  // mean of the two per-shard p95s.
  const double naive =
      (a.percentile_us(0.95) + b.percentile_us(0.95)) / 2.0;
  EXPECT_NE(merged.percentile_us(0.95), naive);

  // add_counts: the wire-crossing form of merge.
  LatencyHistogram rebuilt;
  rebuilt.add_counts(a.counts());
  rebuilt.add_counts(b.counts());
  EXPECT_EQ(rebuilt.counts(), merged_oracle.counts());
  // A peer with more buckets than the local convention must be refused,
  // not silently truncated.
  std::vector<std::uint64_t> skewed(LatencyHistogram::kNumBuckets + 1, 0);
  EXPECT_THROW(rebuilt.add_counts(skewed), std::invalid_argument);
}

}  // namespace
}  // namespace harmony::serve
