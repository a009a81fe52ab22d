// Systematic mapping search (Dally, paper §3).
//
// "For each function there are many possible mappings that range from
//  completely serial to minimum-depth parallel with many points between.
//  One can systematically search the space of possible mappings to
//  optimize a given figure of merit: execution time, energy per op,
//  memory footprint, or some combination."
//
// search_affine() enumerates the AffineMap family for a spec with a
// single computed tensor: time coefficients from one candidate set, space
// coefficients from another, with the time offset auto-normalized so the
// schedule starts at cycle 0.  Candidates pass three gates:
//   1. a cheap sampled causality pre-check (rejects most of the space),
//   2. full legality, stopped at the first violation
//      (affine_schedule_ok, fm/compiled.hpp; it agrees with
//      fm::verify's ok bit),
//   3. cost evaluation and ranking by the requested figure of merit.
// Benches E8 uses this to show the wavefront emerging from search rather
// than being hand-planted.
//
// The enumeration is slot-numbered: every candidate owns a deterministic
// 64-bit slot, so the space can be cut (cancel), resumed (resume_from),
// and partitioned across workers (SearchOptions::scheduler) while the
// ranked result stays bit-identical to a serial run — ties in merit break
// on the slot, never on arrival order.  See DESIGN.md §10.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "fm/compiled.hpp"
#include "fm/cost.hpp"
#include "fm/enum_plan.hpp"
#include "fm/legality.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "sched/parallel_ops.hpp"
#include "trace/trace.hpp"

namespace harmony::fm {

/// SearchOptions::grain sentinel: pick ~8 grains per lane automatically.
/// (0 is *not* auto — a zero grain would enumerate nothing and is
/// rejected by validate_search_options as FM005.)
inline constexpr std::uint64_t kAutoGrain = ~std::uint64_t{0};

/// The kAutoGrain sizing: ~8 grains per lane, clamped so the grain
/// count covers every lane.  Guarantees (pinned by unit test):
///   * result >= 1 always;
///   * ceil(range / result) >= lanes whenever range >= lanes — no lane
///     sits idle because a tiny slot space collapsed into fewer grains
///     than lanes (or a single covering grain);
///   * for large ranges, about 8 grains per lane, so the tail ticket
///     has enough pieces to rebalance a straggling lane.
[[nodiscard]] constexpr std::uint64_t auto_grain_slots(std::uint64_t range,
                                                       unsigned lanes) {
  if (range == 0) return 1;
  const std::uint64_t l = lanes == 0 ? 1 : lanes;
  std::uint64_t grain = range / (l * 8);
  if (grain == 0) grain = 1;
  // Never let one grain cover more than a lane's even share: with
  // grain <= floor(range / lanes), ceil(range / grain) >= lanes.
  const std::uint64_t share = range / l;
  if (share > 0 && grain > share) grain = share;
  return grain;
}

struct SearchOptions {
  SearchSpace space;
  FigureOfMerit fom = FigureOfMerit::kEnergyDelay;
  VerifyOptions verify;
  /// Points sampled by the causality pre-check.
  std::size_t quick_sample = 64;
  /// Candidates whose normalized makespan exceeds serial_size * this
  /// factor are discarded (guards against absurd stretched schedules).
  double makespan_slack = 4.0;
  /// How many best candidates to keep.
  std::size_t top_k = 5;
  /// Also retain every legal candidate (for pareto_front()).
  bool keep_all_legal = false;
  /// Cooperative cancellation.  The serial backend polls once per
  /// enumerated candidate; the parallel backend polls once per grain
  /// (so cancellation latency is bounded by one grain of evaluation).
  /// When it returns true the search stops and the result carries the
  /// best-so-far frontier with `exhausted == false` — this is how a
  /// serving deadline (serve/service.hpp) cuts tuning short yet still
  /// answers with a legal mapping.  Null means run to exhaustion.
  /// Under the parallel backend the callable is invoked concurrently
  /// from several workers and must be thread-safe.
  std::function<bool()> cancel;
  /// Skip this many enumeration slots before doing any work; pass a
  /// previous SearchResult::next_offset to resume a cut-short search
  /// where it stopped.  The enumeration order is deterministic, so
  /// (resume_from = r).top ∪ (first run).top covers every candidate of
  /// one uncut run (the parallel backend may evaluate some slots in
  /// both calls — see SearchResult::next_offset).  Counters in the
  /// result describe only the slots processed by this call.
  std::uint64_t resume_from = 0;
  /// Non-null: evaluate enumeration grains in parallel on this
  /// scheduler.  The ranked outcome (top, best, all_legal, counters) is
  /// identical to the serial backend on the same options.  The grains
  /// run through scheduler->run(): inline when the calling thread is one
  /// of its workers (a Service request), as a spawned root otherwise.
  sched::Scheduler* scheduler = nullptr;
  /// Fork-join lanes to spread grains over; 0 means one lane per
  /// scheduler worker.  Always clamped to scheduler->num_workers().
  unsigned num_workers = 0;
  /// Enumeration slots per grain (the unit of work distribution and of
  /// cancel polling); kAutoGrain picks ~8 grains per lane.  Zero is a
  /// degenerate value (FM005).
  std::uint64_t grain = kAutoGrain;
  /// Optional pre-compiled evaluation tables.  Null (the default) makes
  /// search_affine() compile the (spec, machine, input_proto) triple on
  /// entry; a caller that tunes the same triple repeatedly (the serving
  /// layer's CompiledSpec cache) passes its own to skip the compile.
  /// Must have been built by compile_spec() from the *same* triple — the
  /// search trusts it and never re-checks.  Purely an accelerator: it
  /// cannot change any result, so serve's cache keys exclude it.
  std::shared_ptr<const CompiledSpec> compiled;
};

struct Candidate {
  AffineMap map;
  CostReport cost;
  double merit = 0.0;
  /// Deterministic enumeration slot; total order with merit (below).
  std::uint64_t slot = 0;
};

/// The search's strict ranking: merit first, enumeration slot as the
/// tie-break.  Using the slot — not arrival order — is what makes the
/// parallel merge reproduce the serial top-k byte for byte.
[[nodiscard]] inline bool candidate_precedes(const Candidate& a,
                                             const Candidate& b) {
  if (a.merit != b.merit) return a.merit < b.merit;
  return a.slot < b.slot;
}

struct SearchResult {
  bool found = false;
  Candidate best;
  std::vector<Candidate> top;  ///< up to top_k, best first
  std::uint64_t enumerated = 0;
  std::uint64_t quick_rejected = 0;
  std::uint64_t verify_rejected = 0;
  std::uint64_t legal = 0;
  /// Filled when SearchOptions::keep_all_legal is set.
  std::vector<Candidate> all_legal;
  /// False when SearchOptions::cancel stopped the search before the whole
  /// space was covered.
  bool exhausted = true;
  /// Enumeration slot at which to resume; feed back via
  /// SearchOptions::resume_from.  Serial backend: the slot after the
  /// last one processed.  Parallel backend: the lowest slot of any
  /// unprocessed grain — grains complete out of order, so slots above
  /// this may already have been evaluated and will be evaluated again
  /// on resume (harmless: evaluation is deterministic and ranking
  /// deduplicates by merit/slot).
  std::uint64_t next_offset = 0;
  /// Fork-join lanes the search actually spread over (1 == serial).
  unsigned workers_used = 1;
};

/// Per-lane accumulator for the parallel search.  Each lane owns one
/// tally; the merge in search_affine() reduces them deterministically.
struct SearchTally {
  std::uint64_t enumerated = 0;
  std::uint64_t quick_rejected = 0;
  std::uint64_t verify_rejected = 0;
  std::uint64_t legal = 0;
  bool found = false;
  Candidate best;
  /// Max-heap under candidate_precedes: the *worst* kept candidate sits
  /// at front(), ready to be displaced.
  std::vector<Candidate> top;
  std::vector<Candidate> all_legal;
};

/// Inserts `c` into the tally: tracks best/found unconditionally (so
/// top_k == 0 still reports a winner) and keeps the k best candidates in
/// the bounded heap.
inline void tally_insert(SearchTally& tally, const Candidate& c,
                         std::size_t top_k) {
  if (!tally.found || candidate_precedes(c, tally.best)) {
    tally.best = c;
    tally.found = true;
  }
  if (top_k == 0) return;
  if (tally.top.size() < top_k) {
    tally.top.push_back(c);
    std::push_heap(tally.top.begin(), tally.top.end(), candidate_precedes);
  } else if (candidate_precedes(c, tally.top.front())) {
    std::pop_heap(tally.top.begin(), tally.top.end(), candidate_precedes);
    tally.top.back() = c;
    std::push_heap(tally.top.begin(), tally.top.end(), candidate_precedes);
  }
}

/// The quick causality gate's sample: every stride-th point of the
/// domain, for about `quick_sample` points, plus the last point, and the
/// computed dependences of each.  Every point carries its coordinates'
/// residues on the compiled grid, so the gate places it with table
/// lookups and adds — no division per point — and every dependence its
/// class, so the gate is one gap test per sampled class.
struct QuickSample {
  struct At {
    Point p;
    std::int32_t rx[3] = {};  ///< p.i, p.j, p.k mod the compiled cols
    std::int32_t ry[3] = {};  ///< p.i, p.j, p.k mod the compiled rows
  };
  std::vector<At> points;
  /// Sample point s's dependences are deps[dep_begin[s] .. dep_begin[s + 1]).
  std::vector<std::uint32_t> dep_begin;
  std::vector<At> deps;
  /// The dependence classes the sample meets, in first-seen order
  /// (CompiledSpec class ids), and each dependence's index into them.
  std::vector<std::uint32_t> classes;
  std::vector<std::uint32_t> dep_class;
  int cols = 1, rows = 1;  ///< the grid of the residues
};

[[nodiscard]] QuickSample quick_sample_points(const CompiledSpec& cs,
                                              std::size_t quick_sample);

/// The gate a candidate stopped at, or kLegal when it passed all three.
enum class Gate : std::uint8_t { kQuickRejected, kVerifyRejected, kLegal };

struct GateResult {
  Gate gate = Gate::kQuickRejected;
  CostReport cost;  ///< the candidate's cost when gate == kLegal
};

/// One candidate through the search's three gates on the compiled spec:
///   1. sampled causality: each sampled class's time gap against the
///      largest max(1, transit) over the class's sample edges;
///   2. the input-arrival shift — computed-dependence legality is
///      shift-invariant, input arrival is not, so map.t0 grows until
///      every element starts no earlier than its input operands can
///      reach it — then the first-violation legality pass under `opts`
///      (affine_schedule_ok over the placement's digest);
///   3. the cost.
/// This is the scratch path: the sample lags and the digest are built
/// into ctx for `map` alone.  search_affine scores each slot the same
/// way against its PlacementTable entry instead.  `map` comes back
/// shifted.  Throws InvalidArgument for a map that does not fit the
/// compiled grid.
[[nodiscard]] GateResult run_gates(const CompiledSpec& cs,
                                   const QuickSample& sample,
                                   const VerifyOptions& opts, AffineMap& map,
                                   EvalContext& ctx);

/// One search's placement table (DESIGN.md §15).  For every space tuple
/// of the enumeration (a slot's index modulo plan.space_size) it holds
/// the quick gate's sample lag of each sampled class and, once a slot of
/// that placement passes gate 1, the placement's digest with its link
/// loads and cost sums completed.  Nothing is built up front: each entry
/// is filled by the first slot that needs it, on that slot's lane, and
/// published to the other lanes through a per-entry atomic state (a
/// claim, then a release store), so the first slots run at once and a
/// search cut short still scores the slots before its cut.  A slot that
/// needs an entry another lane is still filling computes it into its own
/// EvalContext, or with `defer` steps aside (run()).  Entries and digests
/// fit within kBudgetBytes; a slot whose entry or digest does not fit is
/// scored through run_gates, the scratch path, with the same functions.
class PlacementTable {
 public:
  /// The whole table's bytes: entries, digest records and their arrays.
  static constexpr std::size_t kBudgetBytes = std::size_t{1} << 20;

  /// Sizes the table for `plan`'s space tuples; allocates, builds
  /// nothing.  `cs`, `sample` and `plan` must outlive the table.
  PlacementTable(const CompiledSpec& cs, const QuickSample& sample,
                 const EnumPlan& plan);

  /// Gates 1 to 3 for the slot at `at`, as run_gates, into `out`; `map`
  /// is set to the slot's map, shifted, when it passes gate 1.  Returns
  /// true, or — only with `defer` — false without scoring when another
  /// lane is building the slot's digest: the caller scores it again
  /// later.  Lanes call it concurrently, each with its own ctx.
  bool run(const SlotCursor& at, const VerifyOptions& opts, bool defer,
           AffineMap& map, GateResult& out, EvalContext& ctx);

  /// Space tuples with an entry ([0, entries())); entries whose sample
  /// lags are filled, whose digest was built, and whose digest is kept.
  [[nodiscard]] std::size_t entries() const { return entries_; }
  [[nodiscard]] std::size_t filled() const;
  [[nodiscard]] std::size_t digests() const;
  [[nodiscard]] std::size_t kept_digests() const;

 private:
  /// An entry's states, in the order it passes them.  From kLags on its
  /// lags are readable, at kDigest its digest_ slot (null: not kept).
  enum State : std::uint8_t {
    kEmpty,
    kFillingLags,
    kDead,  ///< fails gate 1 in every block: no lags stored
    kLags,
    kFillingDigest,
    kDigest,
  };

  /// Points `lag` at entry s's sample lags, for the slot at `at`: the
  /// table's once filled, else computed into ctx and stored when this
  /// lane claims the entry.  False when the placement fails gate 1 in
  /// every block.
  bool lags(std::size_t s, const SlotCursor& at, EvalContext& ctx,
            const std::uint16_t*& lag);
  /// Copies `dg` (the scratch digest of ctx), completed, into the arena;
  /// null when it no longer fits.
  PlacementDigest* keep(PlacementDigest& dg, EvalContext& ctx);

  const CompiledSpec& cs_;
  const QuickSample& sample_;
  const EnumPlan& plan_;
  /// gaps_[b * classes + c]: block b's time gap on sampled class c.
  std::vector<Cycle> gaps_;
  /// Per sampled class, the largest sample lag code that some block
  /// passes: a placement past it fails gate 1 everywhere.
  std::vector<std::uint16_t> lag_limit_;
  std::size_t entries_ = 0;
  std::unique_ptr<std::atomic<std::uint8_t>[]> state_;
  /// lags_[s * classes + c]: entry s's sample lag code on class c.
  std::vector<std::uint16_t> lags_;
  /// Kept digests are complete, so scoring only reads them.
  std::vector<PlacementDigest*> digest_;
  PageBlock arena_;
  std::atomic<std::size_t> arena_used_{0};
};

/// The parallel enumeration kernel, generic over the fork-join context
/// so analyze::RaceCtx can replay it under the SP-bags determinacy-race
/// detector (tests/analyze_race_test.cpp certifies it clean).
///
/// Spreads the slot range [begin, end) over `lanes` fork-join lanes in
/// grains of `grain_slots` slots.  Grains are **statically
/// partitioned**: each lane owns a contiguous run of the head grains
/// outright (claimed with no shared state at all), and only a small
/// tail — about two grains per lane — is left on an atomic ticket for
/// rebalancing a straggling lane.  The hot path therefore executes
/// zero atomic operations per owned grain; the per-grain dispatch
/// overhead the old all-ticket deal paid is gone (DESIGN.md §15).
///
/// Lane L writes only tallies[L]; a grain is claimed by exactly one
/// lane and its completion recorded in processed[g] — the only shared
/// state is the tail ticket and the sticky cancel flag.
/// `eval_range(lo, hi, lane, tally)` evaluates the grain's slot range
/// into the lane's tally; the explicit lane index is the contract for
/// reaching per-lane scratch (EvalContext, deferred slots) — never
/// recover it from an address.
///
/// Lane assignment cannot change the result: the tally merge is the
/// strict (merit, slot) order, so which lane evaluated which grain is
/// invisible in the output (serial-parity contract, DESIGN.md §10).
///
/// Under a simulation context (Ctx::is_simulation, e.g. RaceCtx) the
/// tail is dealt round-robin instead of by ticket so every lane does
/// work even when fork2 executes serially — same footprint,
/// deterministic replay.  `cancel` is polled once per grain; a
/// cancelled run leaves the remaining grains' processed[] flags zero.
template <typename Ctx, typename EvalRange>
void search_lanes(Ctx& ctx, unsigned lanes, std::uint64_t begin,
                  std::uint64_t end, std::uint64_t grain_slots,
                  const std::function<bool()>& cancel, SearchTally* tallies,
                  std::uint8_t* processed, EvalRange&& eval_range) {
  if (begin >= end || lanes == 0 || grain_slots == 0) return;
  // Overflow-safe ceil-divide: adding grain_slots - 1 first would wrap
  // uint64 for near-2^64 grains and leave the whole range unevaluated.
  const std::uint64_t num_grains =
      (end - begin) / grain_slots + ((end - begin) % grain_slots != 0);
  // Head grains are owned statically; the tail (~2 grains per lane, the
  // whole range when it is that small) stays dynamic so a lane that
  // finishes early can absorb a straggler's work.
  const std::uint64_t tail =
      lanes > 1 ? std::min<std::uint64_t>(num_grains,
                                          std::uint64_t{lanes} * 2)
                : 0;
  const std::uint64_t head = num_grains - tail;
  std::atomic<std::uint64_t> ticket{head};
  std::atomic<bool> cancelled{false};
  sched::parallel_for(
      ctx, 0, lanes, 1, [&](std::size_t lane) {
        sched::writer(ctx, tallies, lane);
        SearchTally& tally = tallies[lane];
        const auto run_grain = [&](std::uint64_t g) {
          // Sticky-flag fast path first so one worker observing cancel
          // stops the whole fleet without every lane re-invoking the
          // (possibly expensive) user callable.
          if (cancelled.load(std::memory_order_relaxed)) return false;
          if (cancel && cancel()) {
            cancelled.store(true, std::memory_order_relaxed);
            return false;
          }
          const std::uint64_t lo = begin + g * grain_slots;
          const std::uint64_t hi = std::min(end, lo + grain_slots);
          {
            // One span per grain: id = lane, args = the slot range, so a
            // timeline shows which lane evaluated which slice of the
            // enumeration (and where a deadline cut landed).
            trace::Span span("fm", "grain", lane, lo, hi);
            eval_range(lo, hi, static_cast<unsigned>(lane), tally);
          }
          sched::writer(ctx, processed, g);
          processed[g] = 1;
          return true;
        };
        // Static head share: contiguous, no shared state to claim it.
        const sched::PartRange own = sched::static_partition(
            static_cast<std::size_t>(head), lanes, lane);
        for (std::uint64_t g = own.lo; g < own.hi; ++g) {
          if (!run_grain(g)) return;
        }
        if constexpr (Ctx::is_simulation) {
          // Deterministic round-robin tail deal: under serial fork2
          // replay a shared ticket would hand every tail grain to the
          // first lane.
          for (std::uint64_t g = head + lane; g < num_grains; g += lanes) {
            if (!run_grain(g)) return;
          }
        } else {
          for (;;) {
            const std::uint64_t g =
                ticket.fetch_add(1, std::memory_order_relaxed);
            if (g >= num_grains || !run_grain(g)) break;
          }
        }
      });
}

/// The (makespan, energy) Pareto-optimal subset of `candidates` — the
/// paper's "execution time, energy per op, ... or some combination" made
/// explicit: everything on the front is a defensible design point.
/// Sorted by ascending makespan.
[[nodiscard]] std::vector<Candidate> pareto_front(
    const std::vector<Candidate>& candidates);

/// FM005 records for every degenerate SearchOptions value (top_k == 0,
/// quick_sample == 0, grain == 0 — each would silently search nothing
/// or stall the enumeration); empty means valid.  search_affine()
/// throws InvalidArgument with the first message.
[[nodiscard]] std::vector<analyze::Diagnostic> validate_search_options(
    const SearchOptions& opts);

/// Searches mappings for `spec`, which must have exactly one computed
/// tensor.  `input_proto` supplies the homes of all input tensors (its
/// computed assignments, if any, are ignored).
[[nodiscard]] SearchResult search_affine(const FunctionSpec& spec,
                                         const MachineConfig& machine,
                                         const Mapping& input_proto,
                                         const SearchOptions& opts = {});

}  // namespace harmony::fm
