// Determinacy-race detector (analyze/race.hpp): SP-bags on the fork-join
// layer.  The positive cases seed deliberate races and assert the rule
// ID plus *both* access paths; the negative cases run every annotated
// shipped algorithm and assert a clean report alongside correct output.
#include "analyze/race.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/pram_scan.hpp"
#include "algos/scan.hpp"
#include "algos/sort.hpp"
#include "fm/compiled.hpp"
#include "fm/enum_plan.hpp"
#include "fm/search.hpp"
#include "sched/parallel_ops.hpp"

namespace harmony::analyze {
namespace {

TEST(RaceDetector, FlagsSeededWriteWriteRace) {
  RaceCtx ctx;
  std::vector<double> acc(4, 0.0);
  ctx.track("acc", acc.data(), acc.size());
  // Both branches write acc[0] with no intervening join: a textbook
  // determinacy race (the final value depends on execution order).
  ctx.fork2(
      [&] {
        ctx.work(1);
        ctx.writer(acc.data(), 0);
        acc[0] += 1.0;
      },
      [&] {
        ctx.work(1);
        ctx.writer(acc.data(), 0);
        acc[0] += 2.0;
      });
  ASSERT_EQ(ctx.race_count(), 1u);
  EXPECT_FALSE(ctx.clean());
  const auto& diags = ctx.diagnostics().diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "RACE001");
  EXPECT_EQ(diags[0].severity, Severity::kError);
  // The message names the region and carries the fork-tree path of both
  // accesses: left branch (.L) and right branch (.R) of the same fork.
  EXPECT_NE(diags[0].message.find("acc[0]"), std::string::npos);
  EXPECT_NE(diags[0].message.find(".L"), std::string::npos);
  EXPECT_NE(diags[0].message.find(".R"), std::string::npos);
  EXPECT_EQ(ctx.diagnostics().count("RACE001"), 1u);
}

TEST(RaceDetector, FlagsSeededReadWriteRace) {
  RaceCtx ctx;
  std::vector<std::int64_t> buf(8, 0);
  ctx.track("buf", buf.data(), buf.size());
  std::int64_t sink = 0;
  ctx.fork2(
      [&] {
        ctx.work(1);
        ctx.reader(buf.data(), 3);
        sink += buf[3];
      },
      [&] {
        ctx.work(1);
        ctx.writer(buf.data(), 3);
        buf[3] = 7;
      });
  ASSERT_EQ(ctx.race_count(), 1u);
  const auto& diags = ctx.diagnostics().diagnostics();
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].rule_id, "RACE002");
  EXPECT_NE(diags[0].message.find("buf[3]"), std::string::npos);
  EXPECT_NE(diags[0].message.find(".L"), std::string::npos);
  EXPECT_NE(diags[0].message.find(".R"), std::string::npos);
}

TEST(RaceDetector, SerialReuseAcrossJoinIsNotARace) {
  RaceCtx ctx;
  std::vector<double> v(2, 0.0);
  // Write in a branch, then read after the join: series, not parallel.
  ctx.fork2([&] { ctx.writer(v.data(), 0); v[0] = 1.0; },
            [&] { ctx.writer(v.data(), 1); v[1] = 2.0; });
  ctx.reader(v.data(), 0);
  ctx.reader(v.data(), 1);
  EXPECT_TRUE(ctx.clean());
}

TEST(RaceDetector, ParallelReadsDoNotRace) {
  RaceCtx ctx;
  std::vector<double> v(1, 3.0);
  double a = 0.0, b = 0.0;
  ctx.fork2([&] { ctx.reader(v.data(), 0); a = v[0]; },
            [&] { ctx.reader(v.data(), 0); b = v[0]; });
  EXPECT_TRUE(ctx.clean());
  EXPECT_EQ(a, b);
}

TEST(RaceDetector, EachRacyLocationReportedOnce) {
  RaceCtx ctx;
  std::vector<double> v(1, 0.0);
  for (int round = 0; round < 3; ++round) {
    ctx.fork2([&] { ctx.writer(v.data(), 0); },
              [&] { ctx.writer(v.data(), 0); });
  }
  // Rounds 2 and 3 re-shadow the same address; the location is reported
  // once, not once per conflicting pair.
  EXPECT_EQ(ctx.race_count(), 1u);
}

TEST(RaceDetector, MergeSortParIsCleanAndSorts) {
  RaceCtx ctx;
  std::mt19937_64 rng(42);
  std::vector<std::int64_t> data(1000);
  for (auto& x : data) x = static_cast<std::int64_t>(rng() % 1000);
  std::vector<std::int64_t> expect = data;
  std::sort(expect.begin(), expect.end());
  algos::merge_sort_par(ctx, data, /*grain=*/64);
  EXPECT_EQ(data, expect);
  EXPECT_TRUE(ctx.clean()) << ctx.diagnostics().diagnostics()[0].message;
}

TEST(RaceDetector, ExclusiveScanIsCleanAndCorrect) {
  RaceCtx ctx;
  std::vector<std::int64_t> data(777);
  std::iota(data.begin(), data.end(), 1);
  std::vector<std::int64_t> expect(data.size());
  const std::int64_t expect_total =
      algos::exclusive_scan_seq(data, expect);
  const std::int64_t total = algos::exclusive_scan(ctx, data, /*grain=*/32);
  EXPECT_EQ(total, expect_total);
  EXPECT_EQ(data, expect);
  EXPECT_TRUE(ctx.clean()) << ctx.diagnostics().diagnostics()[0].message;
}

TEST(RaceDetector, UpsweepDownsweepScanIsCleanAndCorrect) {
  RaceCtx ctx;
  std::vector<std::int64_t> data(300);
  std::iota(data.begin(), data.end(), 0);
  std::vector<std::int64_t> expect(data.size());
  const std::int64_t expect_total =
      algos::exclusive_scan_seq(data, expect);
  const std::int64_t total =
      algos::scan_upsweep_downsweep(ctx, data, /*grain=*/16);
  EXPECT_EQ(total, expect_total);
  EXPECT_EQ(data, expect);
  EXPECT_TRUE(ctx.clean()) << ctx.diagnostics().diagnostics()[0].message;
}

TEST(RaceDetector, SmithWatermanWavefrontIsCleanAndMatchesSerial) {
  RaceCtx ctx;
  const std::string r = "GGTTGACTAGGTTGACTA";
  const std::string q = "TGTTACGGTGTTACGG";
  const algos::SwScores s;
  const std::vector<double> expect = algos::smith_waterman_serial(r, q, s);
  const std::vector<double> got =
      algos::smith_waterman_forkjoin(ctx, r, q, s, /*grain=*/2);
  EXPECT_EQ(got, expect);
  EXPECT_TRUE(ctx.clean()) << ctx.diagnostics().diagnostics()[0].message;
  // The work-span analyzer rides along for free.
  EXPECT_GT(ctx.workspan().total_work(), 0.0);
}

TEST(RaceDetector, ParallelSearchLaneKernelCertifiedClean) {
  // The parallel mapping-search kernel (fm::search_lanes) replayed under
  // the determinacy-race detector: lanes share only the tail-grain
  // ticket and the sticky cancel flag; every annotated write (per-lane
  // tally, per-grain processed flag, per-slot output) must land on a
  // disjoint index.  This is the certification the parallel search
  // backend ships with — if someone introduces sharing, this test names
  // the location.  The grain body receives its lane index explicitly
  // (never recovered from an address); per-lane scratch is reached
  // through it exactly as the real driver reaches its EvalContextPool.
  constexpr unsigned kLanes = 4;
  constexpr std::uint64_t kBegin = 8;
  constexpr std::uint64_t kEnd = 72;
  constexpr std::uint64_t kGrain = 4;
  const std::uint64_t num_grains = (kEnd - kBegin + kGrain - 1) / kGrain;

  RaceCtx ctx;
  std::vector<fm::SearchTally> tallies(kLanes);
  std::vector<std::uint8_t> processed(num_grains, 0);
  std::vector<std::uint32_t> evals(kEnd, 0);
  std::vector<std::uint64_t> lane_scratch(kLanes, 0);
  ctx.track("tallies", tallies.data(), tallies.size());
  ctx.track("processed", processed.data(), processed.size());
  ctx.track("evals", evals.data(), evals.size());
  ctx.track("lane_scratch", lane_scratch.data(), lane_scratch.size());

  bool lane_matches_tally = true;
  fm::search_lanes(
      ctx, kLanes, kBegin, kEnd, kGrain, /*cancel=*/{}, tallies.data(),
      processed.data(),
      [&](std::uint64_t lo, std::uint64_t hi, unsigned lane,
          fm::SearchTally& tally) {
        // The explicit lane index and the tally the kernel hands over
        // must agree — the contract that replaced address arithmetic.
        lane_matches_tally &= &tally == tallies.data() + lane;
        sched::writer(ctx, lane_scratch.data(), lane);
        lane_scratch[lane] += hi - lo;
        for (std::uint64_t slot = lo; slot < hi; ++slot) {
          sched::writer(ctx, evals.data(), slot);
          evals[slot] += 1;
          ++tally.enumerated;
        }
      });

  EXPECT_TRUE(ctx.clean())
      << diagnostics_json(ctx.diagnostics().diagnostics());
  EXPECT_EQ(ctx.race_count(), 0u);
  EXPECT_TRUE(lane_matches_tally);
  for (std::uint64_t g = 0; g < num_grains; ++g) {
    EXPECT_EQ(processed[g], 1u) << "grain " << g;
  }
  // Every slot in [begin, end) evaluated exactly once, none below begin.
  for (std::uint64_t s = 0; s < kEnd; ++s) {
    EXPECT_EQ(evals[s], s < kBegin ? 0u : 1u) << "slot " << s;
  }
  // The simulation deal is a static head share plus a round-robin tail,
  // so with at least as many grains as lanes every lane contributed;
  // their counters partition the range.
  std::uint64_t enumerated = 0;
  for (std::size_t l = 0; l < kLanes; ++l) {
    EXPECT_GT(tallies[l].enumerated, 0u) << "lane " << l;
    EXPECT_EQ(lane_scratch[l], tallies[l].enumerated) << "lane " << l;
    enumerated += tallies[l].enumerated;
  }
  EXPECT_EQ(enumerated, kEnd - kBegin);
}

TEST(RaceDetector, PlacementTableSlotPassCertifiedClean) {
  // The search's slot pass over one placement table, replayed under the
  // determinacy-race detector: each lane scores its grains with its own
  // EvalContext and tally, and every lane-private write is annotated.
  // The table's entries are filled by the first lane whose slot needs
  // them and handed to the others through per-entry atomics (a claim,
  // then a release store) — an ordered hand-off the SP-bags detector
  // does not model, which the TSan stage checks instead.  The replayed
  // gate counts are a serial search's.
  algos::SwScores sw;
  const fm::FunctionSpec spec = algos::editdist_spec(6, 6, sw);
  const fm::MachineConfig cfg = fm::make_machine(8, 1);
  fm::Mapping proto;
  for (fm::TensorId in : spec.input_tensors()) {
    proto.set_input(in, fm::InputHome::dram());
  }
  const auto cs = fm::compile_spec(spec, cfg, proto);
  const fm::QuickSample sample = fm::quick_sample_points(*cs, 64);
  const fm::IndexDomain& dom = spec.domain(cs->target);
  const fm::EnumPlan plan = fm::build_enum_plan(
      dom, cfg, fm::SearchSpace{},
      static_cast<double>(dom.size()) * 4.0 + 1.0);
  constexpr unsigned kLanes = 4;
  constexpr std::uint64_t kGrain = 16;
  const std::uint64_t num_grains = (plan.total + kGrain - 1) / kGrain;
  fm::EvalContextPool pool(*cs, kLanes);
  fm::PlacementTable table(*cs, sample, plan);

  RaceCtx ctx;
  std::vector<fm::SearchTally> tallies(kLanes);
  std::vector<std::uint8_t> processed(num_grains, 0);
  ctx.track("tallies", tallies.data(), tallies.size());
  ctx.track("processed", processed.data(), processed.size());
  ctx.track("contexts", &pool.lane(0), kLanes);
  fm::search_lanes(
      ctx, kLanes, 0, plan.total, kGrain, /*cancel=*/{}, tallies.data(),
      processed.data(),
      [&](std::uint64_t lo, std::uint64_t hi, unsigned lane,
          fm::SearchTally& tally) {
        sched::writer(ctx, &pool.lane(0), lane);
        fm::SlotCursor at(plan, lo);
        for (std::uint64_t slot = lo; slot < hi; ++slot, at.next()) {
          fm::AffineMap map;
          fm::GateResult g;
          ASSERT_TRUE(table.run(at, {}, /*defer=*/false, map, g,
                                pool.lane(lane)));
          ++tally.enumerated;
          tally.quick_rejected += g.gate == fm::Gate::kQuickRejected;
          tally.verify_rejected += g.gate == fm::Gate::kVerifyRejected;
          tally.legal += g.gate == fm::Gate::kLegal;
        }
      });
  EXPECT_TRUE(ctx.clean())
      << diagnostics_json(ctx.diagnostics().diagnostics());
  EXPECT_EQ(ctx.race_count(), 0u);
  EXPECT_EQ(table.filled(), table.entries());
  EXPECT_GT(table.digests(), 0u);

  fm::SearchTally sum;
  for (const fm::SearchTally& t : tallies) {
    EXPECT_GT(t.enumerated, 0u);
    sum.enumerated += t.enumerated;
    sum.quick_rejected += t.quick_rejected;
    sum.verify_rejected += t.verify_rejected;
    sum.legal += t.legal;
  }
  const fm::SearchResult serial = fm::search_affine(spec, cfg, proto);
  EXPECT_EQ(sum.enumerated, serial.enumerated);
  EXPECT_EQ(sum.quick_rejected, serial.quick_rejected);
  EXPECT_EQ(sum.verify_rejected, serial.verify_rejected);
  EXPECT_EQ(sum.legal, serial.legal);
  EXPECT_GT(serial.legal, 0u);
}

TEST(RaceDetector, ParallelSearchSharedAccumulatorIsFlagged) {
  // Negative control for the certification above: a grain body that
  // folds into one shared cell races across lanes, and the detector
  // must say so (write-write on the tracked region).
  RaceCtx ctx;
  std::vector<fm::SearchTally> tallies(2);
  std::vector<std::uint8_t> processed(4, 0);
  std::vector<double> shared(1, 0.0);
  ctx.track("shared", shared.data(), shared.size());

  fm::search_lanes(
      ctx, 2u, std::uint64_t{0}, std::uint64_t{16}, std::uint64_t{4},
      /*cancel=*/{}, tallies.data(), processed.data(),
      [&](std::uint64_t lo, std::uint64_t hi, unsigned /*lane*/,
          fm::SearchTally&) {
        for (std::uint64_t slot = lo; slot < hi; ++slot) {
          sched::writer(ctx, shared.data(), 0);
          shared[0] += static_cast<double>(slot);
        }
      });

  EXPECT_FALSE(ctx.clean());
  EXPECT_GE(ctx.race_count(), 1u);
  EXPECT_GE(ctx.diagnostics().count("RACE001"), 1u);
}

TEST(RaceDetector, AnnotationsCompileAwayOnOtherContexts) {
  // sched::reader / sched::writer are no-ops for contexts without the
  // members — the annotated kernels keep running under WorkSpanCtx.
  sched::WorkSpanCtx ws;
  std::vector<std::int64_t> data(100, 1);
  const std::int64_t total = algos::scan_upsweep_downsweep(ws, data, 8);
  EXPECT_EQ(total, 100);
  EXPECT_GT(ws.span(), 0.0);
}

}  // namespace
}  // namespace harmony::analyze
