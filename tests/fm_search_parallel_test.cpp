// Parallel mapping-search backend: byte-identical parity with the
// serial enumeration, cancel/resume edge cases on both backends, the
// documented cut-plus-resume covering invariant, and worker caps.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/specs.hpp"
#include "fm/idioms.hpp"
#include "fm/search.hpp"
#include "sched/scheduler.hpp"

namespace harmony::fm {
namespace {

struct Fixture {
  std::string name;
  FunctionSpec spec;
  MachineConfig cfg;
  Mapping proto;
};

Fixture make_fixture(std::string name, FunctionSpec spec, int cols,
                     int rows) {
  Fixture f{std::move(name), std::move(spec), make_machine(cols, rows),
            Mapping{}};
  for (TensorId in : f.spec.input_tensors()) {
    f.proto.set_input(
        in, InputHome::distributed(
                block_distribution(f.spec.domain(in), f.cfg.geom).place));
  }
  return f;
}

std::vector<Fixture> fixtures() {
  std::vector<Fixture> out;
  {
    algos::SwScores s;
    out.push_back(
        make_fixture("editdist 8x8", algos::editdist_spec(8, 8, s), 8, 1));
  }
  out.push_back(
      make_fixture("stencil1d n=12 T=8", algos::stencil1d_spec(12, 8), 12, 1));
  out.push_back(make_fixture("matmul 6^3", algos::matmul_spec(6), 6, 6));
  return out;
}

/// Structural equality down to the bit-exact merit and the winning
/// enumeration slot — the parallel backend's headline guarantee.
void expect_identical(const SearchResult& serial, const SearchResult& par,
                      const std::string& where) {
  SCOPED_TRACE(where);
  EXPECT_EQ(par.found, serial.found);
  EXPECT_EQ(par.enumerated, serial.enumerated);
  EXPECT_EQ(par.quick_rejected, serial.quick_rejected);
  EXPECT_EQ(par.verify_rejected, serial.verify_rejected);
  EXPECT_EQ(par.legal, serial.legal);
  EXPECT_EQ(par.exhausted, serial.exhausted);
  EXPECT_EQ(par.next_offset, serial.next_offset);
  if (serial.found) {
    EXPECT_EQ(par.best.slot, serial.best.slot);
    EXPECT_EQ(par.best.merit, serial.best.merit);  // bit-exact
    EXPECT_EQ(par.best.cost.makespan_cycles, serial.best.cost.makespan_cycles);
  }
  ASSERT_EQ(par.top.size(), serial.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(par.top[i].slot, serial.top[i].slot) << "top[" << i << "]";
    EXPECT_EQ(par.top[i].merit, serial.top[i].merit) << "top[" << i << "]";
  }
  ASSERT_EQ(par.all_legal.size(), serial.all_legal.size());
  for (std::size_t i = 0; i < serial.all_legal.size(); ++i) {
    EXPECT_EQ(par.all_legal[i].slot, serial.all_legal[i].slot)
        << "all_legal[" << i << "]";
    EXPECT_EQ(par.all_legal[i].merit, serial.all_legal[i].merit)
        << "all_legal[" << i << "]";
  }
}

TEST(ParallelSearch, ByteIdenticalTopKAcrossFixturesAndFoMs) {
  // The headline parity sweep: every fixture x figure-of-merit x worker
  // count in {1, 2, 4, 8} reproduces the serial result bit-for-bit.
  // Lane count changes the static partition and the tail ticket
  // interleaving, so sweeping it exercises every assignment shape the
  // driver can produce.
  sched::Scheduler pool(8);
  for (const Fixture& f : fixtures()) {
    for (auto fom : {FigureOfMerit::kTime, FigureOfMerit::kEnergyDelay}) {
      SearchOptions opts;
      opts.fom = fom;
      opts.keep_all_legal = true;
      const SearchResult serial =
          search_affine(f.spec, f.cfg, f.proto, opts);
      ASSERT_TRUE(serial.exhausted);

      for (const unsigned workers : {1u, 2u, 4u, 8u}) {
        SearchOptions par = opts;
        par.scheduler = &pool;
        par.num_workers = workers;
        const SearchResult parallel =
            search_affine(f.spec, f.cfg, f.proto, par);
        EXPECT_GE(parallel.workers_used, 1u);
        EXPECT_LE(parallel.workers_used, workers);
        expect_identical(serial, parallel,
                         f.name + " fom=" +
                             std::to_string(static_cast<int>(fom)) +
                             " workers=" + std::to_string(workers));
      }
    }
  }
}

TEST(ParallelSearch, SingleSlotGrainsMatchSerial) {
  // grain = 1 maximizes grain-boundary traffic (every slot is its own
  // unit of distribution and cancel polling) — the adversarial case for
  // the merge.
  sched::Scheduler pool(4);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 6x6", algos::editdist_spec(6, 6, s), 6, 1);
  SearchOptions opts;
  opts.keep_all_legal = true;
  const SearchResult serial = search_affine(f.spec, f.cfg, f.proto, opts);

  SearchOptions par = opts;
  par.scheduler = &pool;
  par.grain = 1;
  const SearchResult parallel = search_affine(f.spec, f.cfg, f.proto, par);
  expect_identical(serial, parallel, "grain=1");
}

TEST(ParallelSearch, CancelOnFirstCandidateBothBackends) {
  sched::Scheduler pool(4);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 6x6", algos::editdist_spec(6, 6, s), 6, 1);

  for (const std::uint64_t resume : {std::uint64_t{0}, std::uint64_t{7}}) {
    for (const bool use_pool : {false, true}) {
      SCOPED_TRACE("resume=" + std::to_string(resume) +
                   " parallel=" + std::to_string(use_pool));
      SearchOptions opts;
      opts.cancel = [] { return true; };  // fires before any work
      opts.resume_from = resume;
      if (use_pool) opts.scheduler = &pool;
      const SearchResult r = search_affine(f.spec, f.cfg, f.proto, opts);
      EXPECT_FALSE(r.found);
      EXPECT_FALSE(r.exhausted);
      EXPECT_EQ(r.enumerated, 0u);
      // Nothing was processed, so the resume point is exactly where
      // this call started.
      EXPECT_EQ(r.next_offset, resume);
    }
  }
}

TEST(ParallelSearch, ResumePastEndBothBackends) {
  sched::Scheduler pool(4);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 6x6", algos::editdist_spec(6, 6, s), 6, 1);
  const SearchResult full = search_affine(f.spec, f.cfg, f.proto, {});
  ASSERT_TRUE(full.exhausted);
  const std::uint64_t total = full.next_offset;

  for (const bool use_pool : {false, true}) {
    SCOPED_TRACE("parallel=" + std::to_string(use_pool));
    SearchOptions opts;
    opts.resume_from = total + 100;  // past the end of the enumeration
    if (use_pool) opts.scheduler = &pool;
    const SearchResult r = search_affine(f.spec, f.cfg, f.proto, opts);
    EXPECT_TRUE(r.exhausted);
    EXPECT_FALSE(r.found);
    EXPECT_EQ(r.enumerated, 0u);
    // next_offset is clamped to the enumeration size, so feeding it
    // back converges instead of chasing a phantom offset.
    EXPECT_EQ(r.next_offset, total);
  }
}

TEST(ParallelSearch, CutPlusResumeTopUnionCoversSerialResult) {
  // The documented invariant: (first run).top ∪ (resume_from = r).top
  // covers every candidate of one uncut run — now asserted against both
  // backends.  Rank argument: a global top-k candidate evaluated in
  // either call precedes at most k-1 candidates there too, so the
  // bounded per-call heap cannot have dropped it.
  sched::Scheduler pool(4);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 8x8", algos::editdist_spec(8, 8, s), 8, 1);

  SearchOptions base;
  base.top_k = 4;
  const SearchResult full = search_affine(f.spec, f.cfg, f.proto, base);
  ASSERT_TRUE(full.exhausted);
  ASSERT_FALSE(full.top.empty());

  for (const bool use_pool : {false, true}) {
    SCOPED_TRACE(use_pool ? "parallel" : "serial");
    SearchOptions cut = base;
    if (use_pool) {
      cut.scheduler = &pool;
      cut.grain = 8;  // several grains -> the cut lands mid-space
    }
    // Cancel after a handful of polls.  The serial backend polls per
    // slot (cut lands a few slots in); the parallel backend polls per
    // grain (the first lane claims survive, later grains are refused) —
    // both leave a genuinely partial first run.
    std::atomic<std::uint64_t> polls{0};
    cut.cancel = [&polls] {
      return polls.fetch_add(1, std::memory_order_relaxed) > 3;
    };
    const SearchResult first = search_affine(f.spec, f.cfg, f.proto, cut);
    ASSERT_FALSE(first.exhausted);
    ASSERT_LT(first.next_offset, full.next_offset);

    SearchOptions rest = base;
    if (use_pool) rest.scheduler = &pool;
    rest.resume_from = first.next_offset;
    const SearchResult second = search_affine(f.spec, f.cfg, f.proto, rest);
    ASSERT_TRUE(second.exhausted);
    EXPECT_EQ(second.next_offset, full.next_offset);

    for (const Candidate& want : full.top) {
      bool covered = false;
      for (const Candidate& got : first.top) {
        covered |= got.slot == want.slot && got.merit == want.merit;
      }
      for (const Candidate& got : second.top) {
        covered |= got.slot == want.slot && got.merit == want.merit;
      }
      EXPECT_TRUE(covered) << "slot " << want.slot << " missing from the "
                           << "cut+resume union";
    }

    // And the union's winner is the uncut winner.
    const double best = std::min(
        first.found ? first.best.merit
                    : std::numeric_limits<double>::infinity(),
        second.found ? second.best.merit
                     : std::numeric_limits<double>::infinity());
    EXPECT_EQ(best, full.best.merit);
  }
}

TEST(ParallelSearch, NonDividingGrainCutPlusResumeConverges) {
  // grain = 7 does not divide the editdist slot space, so the last grain
  // is short and every grain boundary is a "ragged" resume point.  The
  // covering invariant and the next_offset clamp must both hold: a cut
  // never reports a resume point past the enumeration size, and the
  // union of the cut and the resumed run reproduces the uncut top-k.
  sched::Scheduler pool(4);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 8x8", algos::editdist_spec(8, 8, s), 8, 1);

  SearchOptions base;
  base.top_k = 4;
  const SearchResult full = search_affine(f.spec, f.cfg, f.proto, base);
  ASSERT_TRUE(full.exhausted);
  const std::uint64_t total = full.next_offset;
  ASSERT_NE(total % 7, 0u) << "fixture no longer exercises a ragged tail";

  SearchOptions cut = base;
  cut.scheduler = &pool;
  cut.grain = 7;
  std::atomic<std::uint64_t> polls{0};
  cut.cancel = [&polls] {
    return polls.fetch_add(1, std::memory_order_relaxed) > 3;
  };
  const SearchResult first = search_affine(f.spec, f.cfg, f.proto, cut);
  ASSERT_FALSE(first.exhausted);
  EXPECT_LE(first.next_offset, total);  // the clamp, at a ragged boundary
  ASSERT_LT(first.next_offset, total);

  SearchOptions rest = base;
  rest.scheduler = &pool;
  rest.grain = 7;
  rest.resume_from = first.next_offset;
  const SearchResult second = search_affine(f.spec, f.cfg, f.proto, rest);
  ASSERT_TRUE(second.exhausted);
  // Resuming a ragged cut still lands next_offset exactly on the
  // enumeration size — clamped, never begin + grains * grain.
  EXPECT_EQ(second.next_offset, total);

  for (const Candidate& want : full.top) {
    bool covered = false;
    for (const Candidate& got : first.top) {
      covered |= got.slot == want.slot && got.merit == want.merit;
    }
    for (const Candidate& got : second.top) {
      covered |= got.slot == want.slot && got.merit == want.merit;
    }
    EXPECT_TRUE(covered) << "slot " << want.slot
                         << " missing from the ragged cut+resume union";
  }
}

TEST(ParallelSearch, SingleSlotGrainCancelLatencyIsBounded) {
  // Cancellation is polled once per grain, so grain = 1 gives the
  // tightest latency the backend offers: after the poll counter trips,
  // no lane starts another slot.  The cancel below returns false exactly
  // 4 times, so at most 4 slots are evaluated in total across all lanes
  // — and the resume point stays within those first few slots (lane 0
  // owns the head of the static partition, so first-unprocessed can
  // only be smaller).
  sched::Scheduler pool(4);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 6x6", algos::editdist_spec(6, 6, s), 6, 1);

  SearchOptions opts;
  opts.scheduler = &pool;
  opts.grain = 1;
  std::atomic<std::uint64_t> polls{0};
  opts.cancel = [&polls] {
    return polls.fetch_add(1, std::memory_order_relaxed) >= 4;
  };
  const SearchResult r = search_affine(f.spec, f.cfg, f.proto, opts);
  EXPECT_FALSE(r.exhausted);
  EXPECT_LE(r.enumerated, 4u);
  EXPECT_LE(r.next_offset, 4u);
}

TEST(ParallelSearch, CutSearchScoresOneSlotPerPollFromTheFirst) {
  // A search cut by `cancel` answers with what it scored before the cut
  // (a serving deadline relies on it), so no poll may go by before the
  // first slot runs: the serial backend scores one slot per poll that
  // returns false, the parallel backend one grain.  A cut just past the
  // first legal slot keeps that slot, whatever the search has yet to
  // build for the slots after it.
  sched::Scheduler pool(4);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 8x8", algos::editdist_spec(8, 8, s), 8, 1);
  SearchOptions base;
  base.keep_all_legal = true;
  const SearchResult full = search_affine(f.spec, f.cfg, f.proto, base);
  ASSERT_FALSE(full.all_legal.empty());
  const std::uint64_t first_legal = full.all_legal.front().slot;

  for (const bool use_pool : {false, true}) {
    SCOPED_TRACE(use_pool ? "parallel" : "serial");
    SearchOptions cut = base;
    if (use_pool) {
      cut.scheduler = &pool;
      cut.grain = 1;
    }
    std::atomic<std::uint64_t> polls{0};
    cut.cancel = [&polls, first_legal] {
      return polls.fetch_add(1, std::memory_order_relaxed) > first_legal;
    };
    const SearchResult r = search_affine(f.spec, f.cfg, f.proto, cut);
    EXPECT_FALSE(r.exhausted);
    EXPECT_EQ(r.enumerated, first_legal + 1);
    if (!use_pool) {
      EXPECT_EQ(r.next_offset, first_legal + 1);
      ASSERT_TRUE(r.found);
      EXPECT_EQ(r.best.slot, first_legal);
    }
  }
}

TEST(ParallelSearch, WorkerCapAndRequestedLanesAreRespected) {
  sched::Scheduler pool(8);
  algos::SwScores s;
  const Fixture f =
      make_fixture("editdist 6x6", algos::editdist_spec(6, 6, s), 6, 1);

  SearchOptions opts;
  opts.scheduler = &pool;
  opts.num_workers = 3;
  const SearchResult r = search_affine(f.spec, f.cfg, f.proto, opts);
  EXPECT_TRUE(r.exhausted);
  EXPECT_GE(r.workers_used, 1u);
  EXPECT_LE(r.workers_used, 3u);

  // Serial path reports exactly one lane.
  const SearchResult serial = search_affine(f.spec, f.cfg, f.proto, {});
  EXPECT_EQ(serial.workers_used, 1u);
}

}  // namespace
}  // namespace harmony::fm
