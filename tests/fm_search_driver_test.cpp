// The parallel search driver's moving parts, unit-tested in isolation:
// auto-grain sizing (every lane gets work), the static partition helper,
// the stepping slot cursor against its per-slot seed, the search_lanes
// coverage/lane-index contract on a real scheduler, and the pooled
// EvalContext's parity with a fresh one.  The end-to-end serial/parallel
// byte-parity lives in fm_search_parallel_test.cpp; these tests pin the
// pieces so a parity failure there localizes here.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/specs.hpp"
#include "fm/compiled.hpp"
#include "fm/enum_plan.hpp"
#include "fm/idioms.hpp"
#include "fm/search.hpp"
#include "sched/parallel_ops.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"

namespace harmony::fm {
namespace {

TEST(AutoGrain, EveryLaneGetsAGrainWheneverPossible) {
  // The documented guarantee: result >= 1 always, and whenever the
  // range has at least one slot per lane, the grain count covers every
  // lane — the degenerate sizing that used to leave lanes idle (one
  // covering grain for a small space) must not come back.
  const std::vector<std::uint64_t> ranges = {0,  1,  2,   3,   5,    7,
                                             8,  9,  15,  16,  17,   63,
                                             64, 65, 100, 257, 19683};
  for (const unsigned lanes : {0u, 1u, 2u, 3u, 4u, 7u, 8u, 16u}) {
    for (const std::uint64_t range : ranges) {
      const std::uint64_t grain = auto_grain_slots(range, lanes);
      SCOPED_TRACE("range=" + std::to_string(range) +
                   " lanes=" + std::to_string(lanes));
      ASSERT_GE(grain, 1u);
      if (range == 0) continue;
      const std::uint64_t num_grains = (range + grain - 1) / grain;
      const std::uint64_t l = lanes == 0 ? 1 : lanes;
      if (range >= l) {
        EXPECT_GE(num_grains, l) << "a lane would sit idle";
      }
      // And never an explosion: at most one grain per slot.
      EXPECT_LE(num_grains, range);
    }
  }
  // Large ranges settle at ~8 grains per lane so the tail ticket has
  // pieces to rebalance with.
  EXPECT_EQ(auto_grain_slots(64000, 8), 1000u);
  // The historical failure shape: range barely above the lane count
  // used to collapse into one covering grain.
  EXPECT_EQ(auto_grain_slots(9, 8), 1u);
  EXPECT_EQ(auto_grain_slots(1, 4), 1u);
}

TEST(StaticPartition, ContiguousBalancedCover) {
  for (const std::size_t parts : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 9u}) {
    for (const std::size_t total :
         {std::size_t{0}, std::size_t{1}, parts - 1, parts, parts + 1,
          std::size_t{100}, std::size_t{101}, 8 * parts + 3}) {
      SCOPED_TRACE("total=" + std::to_string(total) +
                   " parts=" + std::to_string(parts));
      std::size_t prev_hi = 0;
      std::size_t min_sz = total + 1, max_sz = 0;
      for (std::size_t idx = 0; idx < parts; ++idx) {
        const sched::PartRange r = sched::static_partition(total, parts, idx);
        EXPECT_EQ(r.lo, prev_hi) << "gap or overlap at part " << idx;
        EXPECT_LE(r.lo, r.hi);
        prev_hi = r.hi;
        const std::size_t sz = r.hi - r.lo;
        min_sz = std::min(min_sz, sz);
        max_sz = std::max(max_sz, sz);
      }
      EXPECT_EQ(prev_hi, total) << "partition does not cover the range";
      EXPECT_LE(max_sz - min_sz, 1u) << "partition is unbalanced";
    }
  }
  // parts == 0 is the documented empty range, not a division fault.
  const sched::PartRange none = sched::static_partition(10, 0, 0);
  EXPECT_EQ(none.lo, 0u);
  EXPECT_EQ(none.hi, 0u);
}

void expect_maps_equal(const AffineMap& a, const AffineMap& b) {
  EXPECT_EQ(a.ti, b.ti);
  EXPECT_EQ(a.tj, b.tj);
  EXPECT_EQ(a.tk, b.tk);
  EXPECT_EQ(a.t0, b.t0);
  EXPECT_EQ(a.xi, b.xi);
  EXPECT_EQ(a.xj, b.xj);
  EXPECT_EQ(a.xk, b.xk);
  EXPECT_EQ(a.yi, b.yi);
  EXPECT_EQ(a.yj, b.yj);
  EXPECT_EQ(a.yk, b.yk);
}

TEST(SlotCursor, StepsMatchPerSlotSeedOnEverySlot) {
  // The cursor seeds one div/mod chain and then increments a mixed-radix
  // odometer; a cursor seeded at the slot itself is pure seed.  The two
  // paths must agree on every coefficient, block and space index of
  // every slot — this is the pin that makes "stepped" invisible to the
  // enumeration order.
  struct Case {
    std::string name;
    FunctionSpec spec;
    MachineConfig cfg;
  };
  algos::SwScores s;
  std::vector<Case> cases;
  cases.push_back({"editdist 6x6 (y pinned)", algos::editdist_spec(6, 6, s),
                   make_machine(6, 1)});
  cases.push_back({"matmul 4^3 (y searched)", algos::matmul_spec(4),
                   make_machine(4, 4)});
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const IndexDomain& dom = c.spec.domain(c.spec.computed_tensors()[0]);
    const EnumPlan plan =
        build_enum_plan(dom, c.cfg, SearchSpace{}, /*makespan_bound=*/1e18);
    ASSERT_GT(plan.total, 0u);

    SlotCursor stepped(plan, 0);
    for (std::uint64_t slot = 0; slot < plan.total;
         ++slot, stepped.next()) {
      SCOPED_TRACE("slot " + std::to_string(slot));
      const SlotCursor seeded(plan, slot);
      EXPECT_EQ(stepped.block, slot / plan.space_size);
      EXPECT_EQ(stepped.space, slot % plan.space_size);
      EXPECT_EQ(seeded.block, stepped.block);
      EXPECT_EQ(seeded.space, stepped.space);
      expect_maps_equal(stepped.map(1, 1), seeded.map(1, 1));
    }

    // A ragged mid-range run (crossing time-block boundaries from a
    // nonzero digit state) agrees with the cursor seeded at each slot.
    const std::uint64_t lo = plan.total / 3 + 1;
    const std::uint64_t hi = std::min<std::uint64_t>(plan.total, lo + 50);
    SlotCursor mid(plan, lo);
    for (std::uint64_t slot = lo; slot < hi; ++slot, mid.next()) {
      SCOPED_TRACE("mid slot " + std::to_string(slot));
      expect_maps_equal(mid.map(1, 1), SlotCursor(plan, slot).map(1, 1));
    }
  }
}

TEST(EnumPlan, OverflowingRadixProductThrowsFM006) {
  // Regression: with six searched coefficient pools (rank-3 domain,
  // search_y on a multi-row machine) the mixed-radix product
  // |xi|·|xj|·|xk|·|yi|·|yj|·|yk| wraps uint64 once each pool exceeds
  // ~2^10.7 entries.  2048^6 = 2^66 ≡ 0 (mod 2^64): the old build
  // returned space_size == 0 and an "exhausted" enumeration of nothing.
  // Plan build must refuse with the FM006 diagnostic instead.
  const FunctionSpec spec = algos::matmul_spec(2);
  const IndexDomain& dom = spec.domain(spec.computed_tensors()[0]);
  const MachineConfig cfg = make_machine(2, 2);

  SearchSpace huge;
  huge.search_y = true;
  huge.space_coeffs.clear();
  for (std::int64_t c = 0; c < 2048; ++c) huge.space_coeffs.push_back(c);

  try {
    (void)build_enum_plan(dom, cfg, huge, /*makespan_bound=*/1e18);
    FAIL() << "overflowing radix product was accepted";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("FM006"), std::string::npos)
        << "diagnostic should carry the FM006 rule id: " << e.what();
  }

  // Near-miss sanity: a large but representable product still builds.
  SearchSpace big;
  big.search_y = true;
  big.time_coeffs = {1};  // one time block, so only the radices multiply
  big.space_coeffs.clear();
  for (std::int64_t c = 0; c < 1024; ++c) big.space_coeffs.push_back(c);
  const EnumPlan plan = build_enum_plan(dom, cfg, big, 1e18);
  ASSERT_EQ(plan.blocks.size(), 1u);
  EXPECT_EQ(plan.space_size, std::uint64_t{1} << 60);  // 1024^6 = 2^60
  EXPECT_EQ(plan.total, std::uint64_t{1} << 60);
}

TEST(SearchLanes, SlotsCoveredExactlyOnceWithExplicitLaneIndex) {
  // The kernel on a real scheduler: a ragged grain over an offset range
  // must visit every slot exactly once, mark every grain processed, and
  // hand each grain body the lane index that owns the tally it writes.
  constexpr unsigned kLanes = 4;
  constexpr std::uint64_t kBegin = 5;
  constexpr std::uint64_t kEnd = 233;
  constexpr std::uint64_t kGrain = 7;  // does not divide 228
  const std::uint64_t num_grains = (kEnd - kBegin + kGrain - 1) / kGrain;

  sched::Scheduler pool(kLanes);
  std::vector<SearchTally> tallies(kLanes);
  std::vector<std::uint8_t> processed(num_grains, 0);
  std::vector<std::atomic<std::uint32_t>> hits(kEnd);
  std::atomic<bool> lane_matches_tally{true};

  sched::RealCtx ctx;
  pool.run([&] {
    search_lanes(ctx, kLanes, kBegin, kEnd, kGrain, /*cancel=*/{},
                 tallies.data(), processed.data(),
                 [&](std::uint64_t lo, std::uint64_t hi, unsigned lane,
                     SearchTally& tally) {
                   if (&tally != tallies.data() + lane) {
                     lane_matches_tally.store(false);
                   }
                   tally.enumerated += hi - lo;
                   for (std::uint64_t slot = lo; slot < hi; ++slot) {
                     hits[slot].fetch_add(1, std::memory_order_relaxed);
                   }
                 });
  });

  EXPECT_TRUE(lane_matches_tally.load());
  for (std::uint64_t g = 0; g < num_grains; ++g) {
    EXPECT_EQ(processed[g], 1u) << "grain " << g;
  }
  for (std::uint64_t slot = 0; slot < kEnd; ++slot) {
    EXPECT_EQ(hits[slot].load(), slot < kBegin ? 0u : 1u)
        << "slot " << slot;
  }
  std::uint64_t enumerated = 0;
  for (const SearchTally& t : tallies) enumerated += t.enumerated;
  EXPECT_EQ(enumerated, kEnd - kBegin);
}

TEST(SearchLanes, HugeGrainMatchesSerialInsteadOfSkippingTheSpace) {
  // Regression: a near-2^64 grain (legal, distinct from the kAutoGrain
  // sentinel) used to wrap the naive ceil-divide in num_grains to 0, so
  // the parallel backend evaluated nothing yet reported
  // next_offset == total with exhausted=true — a silent full-space skip
  // that broke serial parity and the resume covering invariant.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(8, 8, s);
  const MachineConfig cfg = make_machine(8, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in,
                    InputHome::distributed(
                        block_distribution(spec.domain(in), cfg.geom).place));
  }
  const SearchResult serial = search_affine(spec, cfg, proto, {});
  ASSERT_TRUE(serial.found);
  ASSERT_TRUE(serial.exhausted);
  ASSERT_GT(serial.enumerated, 0u);

  sched::Scheduler pool(4);
  SearchOptions par;
  par.scheduler = &pool;
  par.num_workers = 4;
  par.grain = ~std::uint64_t{0} - 1;  // huge but NOT the sentinel
  const SearchResult r = search_affine(spec, cfg, proto, par);
  EXPECT_GE(r.workers_used, 1u) << "grain wrap clamped lanes to zero";
  EXPECT_EQ(r.enumerated, serial.enumerated);
  EXPECT_EQ(r.found, serial.found);
  EXPECT_EQ(r.exhausted, serial.exhausted);
  EXPECT_EQ(r.next_offset, serial.next_offset);
  ASSERT_EQ(r.top.size(), serial.top.size());
  for (std::size_t i = 0; i < r.top.size(); ++i) {
    EXPECT_EQ(r.top[i].slot, serial.top[i].slot);
    EXPECT_EQ(r.top[i].merit, serial.top[i].merit);
  }
}

TEST(SearchLanes, CancelOnTicketedTailKeepsNextOffsetCovering) {
  // When cancel fires while a worker holds a tail ticket, the driver's
  // next_offset formula (first unprocessed grain's first slot) must not
  // step past any unevaluated slot: every slot below the computed
  // next_offset has to have been handed to eval_range.  Sweeping the
  // cancel trigger over eval-start counts lands the cut inside head
  // grains, on held tail tickets, and after the end.
  constexpr unsigned kLanes = 4;
  constexpr std::uint64_t kBegin = 5;
  constexpr std::uint64_t kEnd = 233;
  constexpr std::uint64_t kGrain = 7;  // does not divide 228
  const std::uint64_t num_grains = (kEnd - kBegin + kGrain - 1) / kGrain;

  sched::Scheduler pool(kLanes);
  for (std::uint64_t after = 0; after <= num_grains + 2; ++after) {
    SCOPED_TRACE("cancel after " + std::to_string(after) + " grain starts");
    std::vector<SearchTally> tallies(kLanes);
    std::vector<std::uint8_t> processed(num_grains, 0);
    std::vector<std::atomic<std::uint8_t>> hit(kEnd);
    for (auto& h : hit) h.store(0);
    std::atomic<std::uint64_t> evals{0};
    const std::function<bool()> cancel = [&] {
      return evals.load(std::memory_order_relaxed) >= after;
    };
    sched::RealCtx ctx;
    pool.run([&] {
      search_lanes(ctx, kLanes, kBegin, kEnd, kGrain, cancel,
                   tallies.data(), processed.data(),
                   [&](std::uint64_t lo, std::uint64_t hi, unsigned,
                       SearchTally& tally) {
                     evals.fetch_add(1, std::memory_order_relaxed);
                     tally.enumerated += hi - lo;
                     for (std::uint64_t slot = lo; slot < hi; ++slot) {
                       hit[slot].store(1, std::memory_order_relaxed);
                     }
                   });
    });
    // The driver's next_offset formula over processed[].
    std::uint64_t first_unprocessed = num_grains;
    for (std::uint64_t g = 0; g < num_grains; ++g) {
      if (processed[g] == 0) {
        first_unprocessed = g;
        break;
      }
    }
    const std::uint64_t next =
        first_unprocessed == num_grains
            ? kEnd
            : std::min(kEnd, kBegin + first_unprocessed * kGrain);
    for (std::uint64_t slot = kBegin; slot < next; ++slot) {
      ASSERT_EQ(hit[slot].load(), 1u)
          << "next_offset " << next << " stepped past unevaluated slot "
          << slot;
    }
    // processed[g] == 1 implies every slot of grain g was evaluated.
    for (std::uint64_t g = 0; g < num_grains; ++g) {
      if (!processed[g]) continue;
      const std::uint64_t lo = kBegin + g * kGrain;
      const std::uint64_t hi = std::min(kEnd, lo + kGrain);
      for (std::uint64_t slot = lo; slot < hi; ++slot) {
        ASSERT_EQ(hit[slot].load(), 1u) << "grain " << g << " slot " << slot;
      }
    }
  }
}

TEST(EvalContextPool, PooledLaneMatchesFreshContext) {
  // reserve_scratch() and pooling are allocation accelerators only:
  // a pooled, pre-reserved context must produce bit-identical verify_ok
  // and cost results to a freshly constructed one on the same mapping.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(6, 6, s);
  const MachineConfig cfg = make_machine(6, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in,
                    InputHome::distributed(
                        block_distribution(spec.domain(in), cfg.geom).place));
  }
  const SearchResult found = search_affine(spec, cfg, proto, {});
  ASSERT_TRUE(found.found);
  const AffineMap map = found.best.map;

  const auto cs = compile_spec(spec, cfg, proto);
  EvalContext fresh(*cs);
  EvalContextPool pool(*cs, 3);
  ASSERT_EQ(pool.lanes(), 3u);

  for (unsigned lane = 0; lane < pool.lanes(); ++lane) {
    SCOPED_TRACE("lane " + std::to_string(lane));
    EvalContext& pooled = pool.lane(lane);
    EXPECT_TRUE(verify_ok(*cs, map, fresh));
    EXPECT_TRUE(verify_ok(*cs, map, pooled));

    const CostReport cost_fresh = evaluate_cost(*cs, map, fresh);
    const CostReport cost_pool = evaluate_cost(*cs, map, pooled);
    EXPECT_EQ(cost_pool.makespan_cycles, cost_fresh.makespan_cycles);
    EXPECT_EQ(cost_pool.compute_energy, cost_fresh.compute_energy);
    EXPECT_EQ(cost_pool.onchip_movement_energy,
              cost_fresh.onchip_movement_energy);
    EXPECT_EQ(cost_pool.local_access_energy, cost_fresh.local_access_energy);
    EXPECT_EQ(cost_pool.dram_energy, cost_fresh.dram_energy);
    EXPECT_EQ(cost_pool.messages, cost_fresh.messages);
    EXPECT_EQ(cost_pool.bit_hops, cost_fresh.bit_hops);
    EXPECT_EQ(cost_pool.total_ops, cost_fresh.total_ops);
  }
}

}  // namespace
}  // namespace harmony::fm
