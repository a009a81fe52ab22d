#include "fm/search.hpp"

#include <algorithm>
#include <limits>

#include "support/error.hpp"

namespace harmony::fm {

namespace {

/// Decode chunk of the batched inner loop: big enough that the odometer
/// seed (one div/mod chain) amortizes away and the evaluation loop
/// stays tight, small enough that a lane's decode buffer is a few KB.
constexpr std::size_t kDecodeBatch = 256;

/// Evaluates decoded candidates through the three gates into a tally.
/// Every gate runs on the CompiledSpec's flat arrays — no Mapping
/// object, no spec callback, no geometry query, no indirect call per
/// candidate.  Read-only over the compiled spec and plan, so lanes
/// share one Evaluator; each lane owns the EvalContext and decode
/// buffer it passes in along with its SearchTally.
struct Evaluator {
  const CompiledSpec& cs;
  const SearchOptions& opts;
  const QuickSample& sample;
  const EnumPlan& plan;

  /// One candidate: row `r` of `soa` is slot `slot`.
  void eval_decoded(const AffineSoA& soa, std::size_t r, std::uint64_t slot,
                    SearchTally& tally, EvalContext& ctx) const {
    ++tally.enumerated;
    AffineMap map = soa.map_at(r, cs.cols, cs.rows);
    const GateResult g = run_gates(cs, sample, opts.verify, map, ctx);
    if (g.gate == Gate::kQuickRejected) {
      ++tally.quick_rejected;
      return;
    }
    if (g.gate == Gate::kVerifyRejected) {
      ++tally.verify_rejected;
      return;
    }
    ++tally.legal;
    const Candidate cand{map, g.cost, merit_value(g.cost, opts.fom), slot};
    if (opts.keep_all_legal) {
      tally.all_legal.push_back(cand);
    }
    tally_insert(tally, cand, opts.top_k);
  }

  /// A whole slot range, batch-decoded into `soa` and evaluated in a
  /// tight loop — the per-grain body of the parallel driver.
  void eval_range(std::uint64_t lo, std::uint64_t hi, AffineSoA& soa,
                  SearchTally& tally, EvalContext& ctx) const {
    for (std::uint64_t base = lo; base < hi; base += kDecodeBatch) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kDecodeBatch, hi - base));
      decode_slots(plan, base, n, soa);
      for (std::size_t r = 0; r < n; ++r) {
        eval_decoded(soa, r, base + r, tally, ctx);
      }
    }
  }
};

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
  const auto at = [&](const Point& p, std::int64_t lin) {
    QuickSample::At a{p, static_cast<std::uint32_t>(lin)};
    const std::int64_t c[3] = {p.i, p.j, p.k};
    for (int d = 0; d < 3; ++d) {
      a.rx[d] = static_cast<std::int32_t>(c[d] % cs.cols);
      a.ry[d] = static_cast<std::int32_t>(c[d] % cs.rows);
    }
    return a;
  };
  const auto add = [&](std::int64_t lin) {
    s.points.push_back(at(cs.domain.delinearize(lin), lin));
    const auto v = static_cast<std::size_t>(lin);
    for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1]; ++o) {
      const CompiledDep& d = cs.deps[o];
      if (d.kind == CompiledDep::kComputed) {
        s.deps.push_back(at(d.point(), d.dep_lin));
      }
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
  // Gate 1: sampled causality over the compiled dependence lists.  An
  // edge whose time gap is below 1 fails and one at least max_lag passes
  // wherever its endpoints sit; only the others need PEs.  When this
  // lane already keeps the placement's digest they are loads from it.
  // Otherwise they come from the coefficients reduced once per
  // candidate: per axis, a table of coefficient * residue mod the grid,
  // so a point's coordinate is three lookups and a sum below 4x the
  // grid, folded by two compares.
  const std::size_t P = cs.num_pes;
  const std::int64_t cols = map.cols;
  const std::int64_t rows = map.rows;
  const bool native = cols == sample.cols && rows == sample.rows;
  ReducedPlacement rp;
  bool reduced = false;
  PlacementDigest* kept = nullptr;
  const auto prepare = [&] {
    rp = ReducedPlacement::of(map);
    reduced = true;
    kept = ctx.store.find(rp);
    if (kept != nullptr) return;
    ctx.gate_table.resize(static_cast<std::size_t>(3 * (cols + rows)));
    std::int64_t* t = ctx.gate_table.data();
    const auto fill = [&t](std::int64_t c, std::int64_t m) {
      for (std::int64_t r = 0, v = 0; r < m; ++r) {
        *t++ = v;
        v += c;
        if (v >= m) v -= m;
      }
    };
    for (int d = 0; d < 3; ++d) fill(rp.x[d], cols);
    for (int d = 0; d < 3; ++d) fill(rp.y[d], rows);
  };
  const auto pe_of = [&](const QuickSample::At& a) -> std::size_t {
    if (kept != nullptr) return kept->pe[a.lin];
    const std::int64_t* tx = ctx.gate_table.data();
    const std::int64_t* ty = tx + 3 * cols;
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
  // The gate is a conjunction, so the sample is walked from the point
  // that rejected this lane's previous candidate: neighbouring slots
  // tend to fail at the same point.
  const std::size_t points = sample.points.size();
  std::size_t s = ctx.gate_start < points ? ctx.gate_start : 0;
  for (std::size_t left = points; left > 0;
       --left, s = s + 1 < points ? s + 1 : 0) {
    const QuickSample::At& at = sample.points[s];
    const Cycle when = map.time(at.p);
    std::size_t here = P;  // placed on first need
    for (std::uint32_t e = sample.dep_begin[s]; e < sample.dep_begin[s + 1];
         ++e) {
      const QuickSample::At& dep = sample.deps[e];
      const Cycle gap = when - map.time(dep.p);
      if (gap >= cs.max_lag) continue;
      if (gap >= 1) {
        if (!reduced) prepare();
        if (here == P) here = pe_of(at);
        if (gap >= cs.transit[pe_of(dep) * P + here]) continue;
      }
      ctx.gate_start = s;
      return {Gate::kQuickRejected, {}};
    }
  }

  // One digest per placement and lane; the shift below moves only the
  // schedule.
  if (!reduced) rp = ReducedPlacement::of(map);
  PlacementDigest& dg = kept != nullptr ? *kept : ctx.digest(cs, rp);
  const Cycle* when = ctx.fill_times(cs, map);
  const Cycle shift = input_shift(cs, dg, when);
  if (shift != 0) {
    map.t0 += shift;
    for (Cycle& t : ctx.point_cycle) t += shift;
  }
  const Cycle makespan = cs.makespan_cycles_of(map);

  // Gate 2: full legality, stopped at the first violation — rejection is
  // the common case and the search never reads a rejected report.
  if (!schedule_ok(cs, dg, when, makespan, opts, ctx)) {
    return {Gate::kVerifyRejected, {}};
  }
  // Gate 3: cost.
  return {Gate::kLegal, digest_cost(cs, dg, makespan, ctx)};
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
  const Evaluator evaluate{*cs, opts, sample, plan};

  SearchResult result;

  unsigned lanes = 1;
  if (opts.scheduler != nullptr && begin < total) {
    lanes = opts.scheduler->num_workers();
    if (opts.num_workers != 0) lanes = std::min(lanes, opts.num_workers);
  }

  if (lanes <= 1) {
    // Serial backend: one tally, one context, cancel polled per slot.
    // Decoding still runs in batches (it has no side effects, so a
    // cancel between decoded slots loses nothing) and evaluation is the
    // same tight loop the lanes run.
    std::vector<SearchTally> tally(1);
    EvalContext ctx(*cs);
    ctx.reserve_scratch(*cs, plan.space_size);
    AffineSoA soa;
    for (std::uint64_t base = begin; base < total; base += kDecodeBatch) {
      const auto n = static_cast<std::size_t>(
          std::min<std::uint64_t>(kDecodeBatch, total - base));
      decode_slots(plan, base, n, soa);
      for (std::size_t r = 0; r < n; ++r) {
        if (opts.cancel && opts.cancel()) {
          result.exhausted = false;
          result.next_offset = base + r;
          merge_tallies(tally, opts.top_k, result);
          return result;
        }
        evaluate.eval_decoded(soa, r, base + r, tally[0], ctx);
      }
    }
    result.next_offset = total;
    merge_tallies(tally, opts.top_k, result);
    return result;
  }

  // Parallel backend: grains over [begin, total) — a static head share
  // per lane plus a small ticketed tail (fm::search_lanes) — cancel
  // polled per grain, completion tracked so next_offset is the lowest
  // unprocessed slot even when grains finish out of order.
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
  // runs: EvalContexts in an arena-style pool, decode buffers beside
  // them.  The kernel's explicit lane index selects a lane's pair.
  EvalContextPool ctx_pool(*cs, lanes, plan.space_size);
  std::vector<AffineSoA> decode_bufs(lanes);
  std::vector<std::uint8_t> processed(num_grains, 0);
  sched::RealCtx ctx;
  const auto kernel = [&] {
    search_lanes(ctx, lanes, begin, total, grain_slots, opts.cancel,
                 tallies.data(), processed.data(),
                 [&](std::uint64_t lo, std::uint64_t hi, unsigned lane,
                     SearchTally& t) {
                   evaluate.eval_range(lo, hi, decode_bufs[lane], t,
                                       ctx_pool.lane(lane));
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
