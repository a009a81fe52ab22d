#include "fm/search.hpp"

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <limits>
#include <new>

#include "support/error.hpp"

namespace harmony::fm {

namespace {

/// Evaluates slots through the three gates into a tally, against the
/// search's placement table: a slot that fails gate 1 costs one table
/// load and a gap test per sampled class, and no other slot rebuilds
/// anything its placement's entry keeps.  Lanes share one Evaluator and
/// its table; each lane owns the EvalContext, tally and deferred-slot
/// list it passes in.
struct Evaluator {
  const SearchOptions& opts;
  const EnumPlan& plan;
  PlacementTable& table;

  /// The slot `slot` at `at`; with `defer`, returns false (and counts
  /// nothing) when its digest is being built on another lane.
  bool eval_slot(const SlotCursor& at, std::uint64_t slot, bool defer,
                 SearchTally& tally, EvalContext& ctx) const {
    AffineMap map;
    GateResult g;
    if (!table.run(at, opts.verify, defer, map, g, ctx)) return false;
    ++tally.enumerated;
    if (g.gate == Gate::kQuickRejected) {
      ++tally.quick_rejected;
      return true;
    }
    if (g.gate == Gate::kVerifyRejected) {
      ++tally.verify_rejected;
      return true;
    }
    ++tally.legal;
    const Candidate cand{map, g.cost, merit_value(g.cost, opts.fom), slot};
    if (opts.keep_all_legal) {
      tally.all_legal.push_back(cand);
    }
    tally_insert(tally, cand, opts.top_k);
    return true;
  }

  /// A whole slot range — the per-grain body of the parallel driver.  A
  /// slot whose digest another lane is building waits in `deferred` until
  /// the rest of the range is done, so lanes that meet one placement at
  /// once build it once and move on to others.  Results do not depend on
  /// the order: the tally ranks by (merit, slot).
  void eval_range(std::uint64_t lo, std::uint64_t hi, SearchTally& tally,
                  EvalContext& ctx,
                  std::vector<std::uint64_t>& deferred) const {
    SlotCursor at(plan, lo);
    for (std::uint64_t slot = lo; slot < hi; ++slot, at.next()) {
      if (!eval_slot(at, slot, /*defer=*/true, tally, ctx)) {
        deferred.push_back(slot);
      }
    }
    for (const std::uint64_t slot : deferred) {
      eval_slot(SlotCursor(plan, slot), slot, /*defer=*/false, tally, ctx);
    }
    deferred.clear();
  }
};

/// The quick gate's sample lags of placement `rp` into `out`: per sampled
/// class, the code of the largest transit over its sample edges.  The PEs
/// come from the coefficients reduced once: per axis, a table of
/// coefficient * residue mod the grid, so a point's coordinate is three
/// lookups and a sum below 4x the grid, folded by two compares.  With
/// `limit` (a code per class), returns false as soon as some class's lag
/// passes its limit — the placement then fails gate 1 in every block, and
/// the lags are left partial; true otherwise.
bool sample_lags(const CompiledSpec& cs, const QuickSample& sample,
                 const ReducedPlacement& rp, std::uint16_t* out,
                 EvalContext& ctx, const std::uint16_t* limit = nullptr) {
  const std::size_t P = cs.num_pes;
  const std::int64_t cols = rp.cols;
  const std::int64_t rows = rp.rows;
  const bool native = cols == sample.cols && rows == sample.rows;
  ctx.axis_table.resize(static_cast<std::size_t>(3 * (cols + rows)));
  std::int64_t* t = ctx.axis_table.data();
  const auto fill = [&t](std::int64_t c, std::int64_t m) {
    for (std::int64_t r = 0, v = 0; r < m; ++r) {
      *t++ = v;
      v += c;
      if (v >= m) v -= m;
    }
  };
  for (int d = 0; d < 3; ++d) fill(rp.x[d], cols);
  for (int d = 0; d < 3; ++d) fill(rp.y[d], rows);
  const std::int64_t* tx = ctx.axis_table.data();
  const std::int64_t* ty = tx + 3 * cols;
  const auto pe_of = [&](const QuickSample::At& a) -> std::size_t {
    const std::int64_t c[3] = {a.p.i, a.p.j, a.p.k};
    std::int64_t x = rp.x[3], y = rp.y[3];
    for (int d = 0; d < 3; ++d) {
      // A narrower map than the compiled grid (never a search
      // candidate) reduces its coordinates here.
      x += tx[d * cols + (native ? a.rx[d] : c[d] % cols)];
      y += ty[d * rows + (native ? a.ry[d] : c[d] % rows)];
    }
    if (x >= 2 * cols) x -= 2 * cols;
    if (x >= cols) x -= cols;
    if (y >= 2 * rows) y -= 2 * rows;
    if (y >= rows) y -= rows;
    return static_cast<std::size_t>(y * cs.cols + x);
  };
  std::fill(out, out + sample.classes.size(), std::uint16_t{0});
  for (std::size_t s = 0; s < sample.points.size(); ++s) {
    if (sample.dep_begin[s] == sample.dep_begin[s + 1]) continue;
    const std::size_t here = pe_of(sample.points[s]);
    for (std::uint32_t e = sample.dep_begin[s]; e < sample.dep_begin[s + 1];
         ++e) {
      const std::uint32_t c = sample.dep_class[e];
      out[c] = std::max(out[c],
                        cs.transit_code[pe_of(sample.deps[e]) * P + here]);
      if (limit != nullptr && out[c] > limit[c]) return false;
    }
  }
  return true;
}

/// Gate 1: each sampled class's time gap against its sample lag.
bool sample_ok(const CompiledSpec& cs, const Cycle* gaps,
               const std::uint16_t* lags, std::size_t classes) {
  for (std::size_t c = 0; c < classes; ++c) {
    if (gaps[c] < std::max<Cycle>(1, cs.latency[lags[c]])) return false;
  }
  return true;
}

/// Gates 2 and 3 over the placement's digest: the input shift, the
/// affine first-violation pass, the cost.
GateResult score(const CompiledSpec& cs, PlacementDigest& dg,
                 const VerifyOptions& opts, AffineMap& map,
                 EvalContext& ctx) {
  map.t0 += input_shift(cs, dg, map);
  const Cycle makespan = cs.makespan_cycles_of(map);
  if (!affine_schedule_ok(cs, dg, map, makespan, opts, ctx,
                          /*inputs_shifted=*/true)) {
    return {Gate::kVerifyRejected, {}};
  }
  return {Gate::kLegal, digest_cost(cs, dg, makespan, ctx)};
}

/// Deterministic reduction of the per-lane tallies: counter sums, best
/// by (merit, slot), top re-ranked and truncated, all_legal restored to
/// enumeration order.  Lane count never changes the outcome, and the
/// merge is the *only* cross-lane step of the whole search — the hot
/// loop shares nothing but the tail ticket (DESIGN.md §15).
void merge_tallies(std::vector<SearchTally>& tallies, std::size_t top_k,
                   SearchResult& out) {
  trace::Span span("fm", "merge", 0, tallies.size(), top_k);
  for (SearchTally& t : tallies) {
    out.enumerated += t.enumerated;
    out.quick_rejected += t.quick_rejected;
    out.verify_rejected += t.verify_rejected;
    out.legal += t.legal;
    if (t.found && (!out.found || candidate_precedes(t.best, out.best))) {
      out.best = t.best;
      out.found = true;
    }
    out.top.insert(out.top.end(), std::make_move_iterator(t.top.begin()),
                   std::make_move_iterator(t.top.end()));
    out.all_legal.insert(out.all_legal.end(),
                         std::make_move_iterator(t.all_legal.begin()),
                         std::make_move_iterator(t.all_legal.end()));
  }
  std::sort(out.top.begin(), out.top.end(), candidate_precedes);
  if (out.top.size() > top_k) out.top.resize(top_k);
  std::sort(out.all_legal.begin(), out.all_legal.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.slot < b.slot;
            });
}

}  // namespace

QuickSample quick_sample_points(const CompiledSpec& cs,
                                std::size_t quick_sample) {
  QuickSample s;
  s.cols = cs.cols;
  s.rows = cs.rows;
  const auto at = [&](std::int64_t lin) {
    const Point p = cs.domain.delinearize(lin);
    QuickSample::At a{p};
    const std::int64_t c[3] = {p.i, p.j, p.k};
    for (int d = 0; d < 3; ++d) {
      a.rx[d] = static_cast<std::int32_t>(c[d] % cs.cols);
      a.ry[d] = static_cast<std::int32_t>(c[d] % cs.rows);
    }
    return a;
  };
  const auto add = [&](std::int64_t lin) {
    s.points.push_back(at(lin));
    const auto v = static_cast<std::size_t>(lin);
    for (std::uint32_t e = cs.edge_offsets[v]; e < cs.edge_offsets[v + 1];
         ++e) {
      s.deps.push_back(at(cs.edge_src[e]));
      const auto c = std::find(s.classes.begin(), s.classes.end(),
                               cs.edge_class[e]);
      s.dep_class.push_back(static_cast<std::uint32_t>(c - s.classes.begin()));
      if (c == s.classes.end()) s.classes.push_back(cs.edge_class[e]);
    }
    s.dep_begin.push_back(static_cast<std::uint32_t>(s.deps.size()));
  };
  s.dep_begin.push_back(0);
  const std::int64_t n = cs.num_points;
  const std::int64_t stride =
      std::max<std::int64_t>(1, n / static_cast<std::int64_t>(quick_sample));
  for (std::int64_t lin = 0; lin < n; lin += stride) add(lin);
  add(n - 1);
  return s;
}

GateResult run_gates(const CompiledSpec& cs, const QuickSample& sample,
                     const VerifyOptions& opts, AffineMap& map,
                     EvalContext& ctx) {
  cs.require_fits(map);
  const ReducedPlacement rp = ReducedPlacement::of(map);
  const std::size_t classes = sample.classes.size();
  ctx.sample_lag.resize(classes);
  ctx.gaps.resize(classes);
  sample_lags(cs, sample, rp, ctx.sample_lag.data(), ctx);
  for (std::size_t c = 0; c < classes; ++c) {
    const Point& d = cs.class_delta[sample.classes[c]];
    ctx.gaps[c] = map.ti * d.i + map.tj * d.j + map.tk * d.k;
  }
  if (!sample_ok(cs, ctx.gaps.data(), ctx.sample_lag.data(), classes)) {
    return {Gate::kQuickRejected, {}};
  }
  return score(cs, ctx.digest(cs, rp), opts, map, ctx);
}

PlacementTable::PlacementTable(const CompiledSpec& cs,
                               const QuickSample& sample, const EnumPlan& plan)
    : cs_(cs), sample_(sample), plan_(plan) {
  const std::size_t classes = sample.classes.size();
  gaps_.resize(plan.blocks.size() * classes);
  for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
    const TimeBlock& tb = plan.blocks[b];
    for (std::size_t c = 0; c < classes; ++c) {
      const Point& d = cs.class_delta[sample.classes[c]];
      gaps_[b * classes + c] = tb.ti * d.i + tb.tj * d.j + tb.tk * d.k;
    }
  }
  // Per class, the largest lag code some block's gap covers.  Code 0
  // compares below every gap, so a class no block covers keeps 0 only
  // when even a lag of 1 fails (then every entry is dead).
  lag_limit_.assign(classes, 0);
  for (std::size_t c = 0; c < classes; ++c) {
    Cycle widest = std::numeric_limits<Cycle>::min();
    for (std::size_t b = 0; b < plan.blocks.size(); ++b) {
      widest = std::max(widest, gaps_[b * classes + c]);
    }
    while (lag_limit_[c] + 1u < cs.latency.size() &&
           std::max<Cycle>(1, cs.latency[lag_limit_[c] + 1u]) <= widest) {
      ++lag_limit_[c];
    }
  }
  // Entries take at most half the budget; the digests get the rest, but
  // no more than every entry's largest possible digest would need.
  const std::size_t entry_bytes =
      sizeof(std::uint8_t) + sizeof(PlacementDigest*) +
      classes * sizeof(std::uint16_t);
  entries_ = static_cast<std::size_t>(std::min<std::uint64_t>(
      plan.space_size, kBudgetBytes / 2 / entry_bytes));
  state_ = std::make_unique<std::atomic<std::uint8_t>[]>(entries_);
  lags_.assign(entries_ * classes, 0);
  digest_.assign(entries_, nullptr);
  const auto n = static_cast<std::size_t>(cs.num_points);
  const auto half_box = static_cast<std::size_t>(
      ((2 * cs.domain.extent(0) - 1) * (2 * cs.domain.extent(1) - 1) *
           (2 * cs.domain.extent(2) - 1) -
       1) /
      2);
  const std::size_t largest_digest =
      sizeof(PlacementDigest) + 16 +
      (cs.has_input_deps ? n : 0) * sizeof(std::uint16_t) + 16 +
      cs.num_classes() * sizeof(std::uint16_t) + 16 + half_box * sizeof(Point);
  const std::size_t room = kBudgetBytes - entries_ * entry_bytes;
  arena_ = PageBlock(entries_ != 0 && largest_digest > room / entries_
                         ? room
                         : entries_ * largest_digest);
}

namespace {

constexpr std::size_t kAlign = alignof(std::max_align_t);

std::size_t align_up(std::size_t bytes) {
  return (bytes + kAlign - 1) / kAlign * kAlign;
}

}  // namespace

bool PlacementTable::lags(std::size_t s, const SlotCursor& at,
                          EvalContext& ctx, const std::uint16_t*& lag) {
  const std::size_t classes = sample_.classes.size();
  std::uint8_t st = state_[s].load(std::memory_order_acquire);
  if (st == kDead) return false;
  std::uint16_t* entry = lags_.data() + s * classes;
  lag = entry;
  if (st >= kLags) return true;
  ctx.sample_lag.resize(classes);
  const ReducedPlacement rp = ReducedPlacement::of(at.map(cs_.cols, cs_.rows));
  const bool live = sample_lags(cs_, sample_, rp, ctx.sample_lag.data(), ctx,
                                lag_limit_.data());
  // Stored once from the lane's scratch: neighbouring entries may be
  // other lanes', and a store per sample edge would bounce their cache
  // lines.
  if (st == kEmpty && state_[s].compare_exchange_strong(
                          st, kFillingLags, std::memory_order_relaxed)) {
    if (live) std::copy_n(ctx.sample_lag.data(), classes, entry);
    state_[s].store(live ? kLags : kDead, std::memory_order_release);
  }
  lag = ctx.sample_lag.data();
  return live;
}

PlacementDigest* PlacementTable::keep(PlacementDigest& dg, EvalContext& ctx) {
  const std::size_t arrivals =
      dg.arrival != nullptr ? static_cast<std::size_t>(cs_.num_points) : 0;
  const std::size_t record = align_up(sizeof(PlacementDigest));
  const std::size_t arrival_bytes =
      align_up(arrivals * sizeof(std::uint16_t));
  const std::size_t lag_bytes =
      align_up(cs_.num_classes() * sizeof(std::uint16_t));
  const std::size_t collision_bytes = dg.num_collisions * sizeof(Point);
  const std::size_t bytes =
      record + arrival_bytes + lag_bytes + align_up(collision_bytes);
  // The bytes are this lane's alone once claimed; the entry's release
  // store publishes what it writes there.
  std::size_t used = arena_used_.load(std::memory_order_relaxed);
  do {
    if (arena_.size() - used < bytes) return nullptr;
  } while (!arena_used_.compare_exchange_weak(used, used + bytes,
                                              std::memory_order_relaxed));
  complete_digest(cs_, dg, ctx);
  std::byte* next = arena_.data() + used;
  auto* kept = new (next) PlacementDigest(dg);
  std::byte* at = next + record;
  // Copies `bytes` from `src` (null when empty) to `at` and steps past.
  const auto copy = [&at](const void* src, std::size_t bytes) {
    std::byte* to = at;
    if (bytes != 0) std::memcpy(to, src, bytes);
    at += align_up(bytes);
    return to;
  };
  if (arrivals != 0) {
    kept->arrival = reinterpret_cast<const std::uint16_t*>(
        copy(dg.arrival, arrivals * sizeof(std::uint16_t)));
  }
  kept->lag = reinterpret_cast<const std::uint16_t*>(
      copy(dg.lag, cs_.num_classes() * sizeof(std::uint16_t)));
  kept->collisions =
      reinterpret_cast<const Point*>(copy(dg.collisions, collision_bytes));
  return kept;
}

bool PlacementTable::run(const SlotCursor& at, const VerifyOptions& opts,
                         bool defer, AffineMap& map, GateResult& out,
                         EvalContext& ctx) {
  const std::size_t s = at.space;
  if (s >= entries_) {
    map = at.map(cs_.cols, cs_.rows);
    out = run_gates(cs_, sample_, opts, map, ctx);
    return true;
  }
  const std::size_t classes = sample_.classes.size();
  const std::uint16_t* lag = nullptr;
  if (!lags(s, at, ctx, lag) ||
      !sample_ok(cs_, gaps_.data() + at.block * classes, lag, classes)) {
    out = {Gate::kQuickRejected, {}};
    return true;
  }
  map = at.map(cs_.cols, cs_.rows);
  std::uint8_t st = state_[s].load(std::memory_order_acquire);
  if (st == kDigest && digest_[s] != nullptr) {
    out = score(cs_, *digest_[s], opts, map, ctx);
    return true;
  }
  if (st == kFillingDigest && defer) return false;
  PlacementDigest& dg = ctx.digest(cs_, ReducedPlacement::of(map));
  if (st == kLags && state_[s].compare_exchange_strong(
                         st, kFillingDigest, std::memory_order_relaxed)) {
    digest_[s] = keep(dg, ctx);
    state_[s].store(kDigest, std::memory_order_release);
  }
  out = score(cs_, dg, opts, map, ctx);
  return true;
}

std::size_t PlacementTable::filled() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < entries_; ++s) {
    n += state_[s].load(std::memory_order_acquire) >= kDead;
  }
  return n;
}

std::size_t PlacementTable::digests() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < entries_; ++s) {
    n += state_[s].load(std::memory_order_acquire) == kDigest;
  }
  return n;
}

std::size_t PlacementTable::kept_digests() const {
  std::size_t n = 0;
  for (std::size_t s = 0; s < entries_; ++s) {
    n += state_[s].load(std::memory_order_acquire) == kDigest &&
         digest_[s] != nullptr;
  }
  return n;
}

std::vector<analyze::Diagnostic> validate_search_options(
    const SearchOptions& opts) {
  std::vector<analyze::Diagnostic> diags;
  const auto flag = [&](const char* what) {
    diags.push_back(analyze::make_diagnostic(
        "FM005", analyze::Location{},
        std::string("fm::search_affine: ") + what));
  };
  if (opts.top_k == 0) {
    flag("top_k must be positive (0 would rank nothing)");
  }
  if (opts.quick_sample == 0) {
    flag("quick_sample must be positive (0 would sample no points)");
  }
  if (opts.grain == 0) {
    flag("grain must be positive (use kAutoGrain for automatic sizing)");
  }
  return diags;
}

SearchResult search_affine(const FunctionSpec& spec,
                           const MachineConfig& machine,
                           const Mapping& input_proto,
                           const SearchOptions& opts) {
  {
    const auto diags = validate_search_options(opts);
    if (!diags.empty()) throw InvalidArgument(diags.front().message);
  }
  const auto computed = spec.computed_tensors();
  HARMONY_REQUIRE(computed.size() == 1,
                  "search_affine: spec must have exactly one computed "
                  "tensor");
  const TensorId target = computed[0];
  const IndexDomain& dom = spec.domain(target);
  trace::Span search_span("fm", "search_affine", 0, opts.resume_from);

  // Compile the triple once per search (flat dependence + geometry
  // tables, see fm/compiled.hpp) unless the caller shares a precompiled
  // spec.  All lanes read it; each lane owns its own EvalContext scratch.
  std::shared_ptr<const CompiledSpec> cs = opts.compiled;
  if (cs == nullptr) cs = compile_spec(spec, machine, input_proto);

  const QuickSample sample = quick_sample_points(*cs, opts.quick_sample);

  const double serial_size = static_cast<double>(dom.size());
  const double makespan_bound = serial_size * opts.makespan_slack + 1.0;

  const EnumPlan plan =
      build_enum_plan(dom, machine, opts.space, makespan_bound);
  const std::uint64_t total = plan.total;
  const std::uint64_t begin = std::min(opts.resume_from, total);

  SearchResult result;
  if (begin >= total) {
    result.next_offset = total;
    return result;
  }

  unsigned lanes = 1;
  if (opts.scheduler != nullptr) {
    lanes = opts.scheduler->num_workers();
    if (opts.num_workers != 0) lanes = std::min(lanes, opts.num_workers);
  }

  if (lanes <= 1) {
    // Serial backend: one tally, one context and the table, cancel
    // polled per slot.
    std::vector<SearchTally> tally(1);
    EvalContext ctx(*cs);
    ctx.reserve_scratch(*cs);
    PlacementTable table(*cs, sample, plan);
    const Evaluator evaluate{opts, plan, table};
    SlotCursor at(plan, begin);
    for (std::uint64_t slot = begin; slot < total; ++slot, at.next()) {
      if (opts.cancel && opts.cancel()) {
        result.exhausted = false;
        result.next_offset = slot;
        merge_tallies(tally, opts.top_k, result);
        return result;
      }
      evaluate.eval_slot(at, slot, /*defer=*/false, tally[0], ctx);
    }
    result.next_offset = total;
    merge_tallies(tally, opts.top_k, result);
    return result;
  }

  // Parallel backend: grains over [begin, total) — a static head share
  // per lane plus a small ticketed tail (fm::search_lanes) — all lanes
  // filling and reading one placement table, cancel polled per grain,
  // completion tracked so next_offset is the lowest unprocessed slot
  // even when grains finish out of order.
  const std::uint64_t range = total - begin;
  const std::uint64_t grain_slots = opts.grain != kAutoGrain
                                        ? opts.grain
                                        : auto_grain_slots(range, lanes);
  // Overflow-safe ceil-divide: the naive (range + grain_slots - 1) form
  // wraps uint64 when a caller passes a near-2^64 grain (a legal value,
  // distinct from the kAutoGrain sentinel), collapsing num_grains to 0 —
  // the whole space is skipped yet next_offset lands on `total` with
  // exhausted=true, silently breaking the resume covering invariant.
  const std::uint64_t num_grains =
      range / grain_slots + (range % grain_slots != 0 ? 1 : 0);
  lanes = static_cast<unsigned>(
      std::min<std::uint64_t>(lanes, num_grains));

  std::vector<SearchTally> tallies(lanes);
  // Per-lane evaluation scratch, allocated and reserved before any lane
  // runs.  The kernel's explicit lane index selects a lane's context.
  EvalContextPool ctx_pool(*cs, lanes);
  std::vector<std::vector<std::uint64_t>> deferred(lanes);
  PlacementTable table(*cs, sample, plan);
  const Evaluator evaluate{opts, plan, table};
  std::vector<std::uint8_t> processed(num_grains, 0);
  sched::RealCtx ctx;
  const auto kernel = [&] {
    search_lanes(ctx, lanes, begin, total, grain_slots, opts.cancel,
                 tallies.data(), processed.data(),
                 [&](std::uint64_t lo, std::uint64_t hi, unsigned lane,
                     SearchTally& t) {
                   evaluate.eval_range(lo, hi, t, ctx_pool.lane(lane),
                                       deferred[lane]);
                 });
  };
  // On one of the pool's own workers (a Service request) run() forks
  // inline; from any other thread it spawns a root and waits for it.
  opts.scheduler->run(kernel);

  result.workers_used = lanes;
  merge_tallies(tallies, opts.top_k, result);
  std::uint64_t first_unprocessed = num_grains;
  for (std::uint64_t g = 0; g < num_grains; ++g) {
    if (processed[g] == 0) {
      first_unprocessed = g;
      break;
    }
  }
  if (first_unprocessed == num_grains) {
    result.next_offset = total;
  } else {
    result.exhausted = false;
    // The lowest unprocessed grain's first slot, clamped to the
    // enumeration size: with a grain that does not divide the slot
    // space the multiply could otherwise step past `total`, and a
    // resume must never chase a phantom offset.
    result.next_offset =
        std::min(total, begin + first_unprocessed * grain_slots);
  }
  return result;
}

std::vector<Candidate> pareto_front(
    const std::vector<Candidate>& candidates) {
  std::vector<Candidate> front;
  for (const Candidate& c : candidates) {
    bool dominated = false;
    for (const Candidate& other : candidates) {
      const bool no_worse =
          other.cost.makespan_cycles <= c.cost.makespan_cycles &&
          other.cost.total_energy().femtojoules() <=
              c.cost.total_energy().femtojoules();
      const bool strictly_better =
          other.cost.makespan_cycles < c.cost.makespan_cycles ||
          other.cost.total_energy().femtojoules() <
              c.cost.total_energy().femtojoules();
      if (no_worse && strictly_better) {
        dominated = true;
        break;
      }
    }
    if (!dominated) {
      // Deduplicate identical (time, energy) points.
      bool dup = false;
      for (const Candidate& f : front) {
        if (f.cost.makespan_cycles == c.cost.makespan_cycles &&
            f.cost.total_energy().femtojoules() ==
                c.cost.total_energy().femtojoules()) {
          dup = true;
          break;
        }
      }
      if (!dup) front.push_back(c);
    }
  }
  std::sort(front.begin(), front.end(),
            [](const Candidate& a, const Candidate& b) {
              return a.cost.makespan_cycles < b.cost.makespan_cycles;
            });
  return front;
}

}  // namespace harmony::fm
