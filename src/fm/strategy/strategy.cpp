#include "fm/strategy/strategy.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>
#include <utility>

#include "fm/strategy/delta.hpp"
#include "sched/parallel_ops.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace harmony::fm {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Earliest causally safe cycle for op `u` on PE `pe` under the current
/// table: the latest operand arrival, with repeat input reads priced
/// conservatively as first deliveries.  Slot occupancy is deliberately
/// ignored — a colliding proposal just fails the legality check.
Cycle earliest_cycle(const StrategySpec& ss, const TableMap& cur,
                     std::int64_t u, std::int32_t pe) {
  const CompiledSpec& cs = *ss.cs;
  const auto P = cs.num_pes;
  const auto here = static_cast<std::size_t>(pe);
  Cycle c = 0;
  const std::uint64_t lo = cs.dep_offsets[static_cast<std::size_t>(u)];
  const std::uint64_t hi = cs.dep_offsets[static_cast<std::size_t>(u) + 1];
  for (std::uint64_t e = lo; e < hi; ++e) {
    const std::uint64_t code = cs.dep_code[e];
    const std::size_t src = dep_source(code);
    Cycle need = 0;
    if (dep_kind(code) == DepKind::kComputed) {
      if (src == static_cast<std::size_t>(u)) continue;
      const Cycle tr =
          cs.transit[static_cast<std::size_t>(cur.pe[src]) * P + here];
      need = cur.cycle[src] + std::max<Cycle>(1, tr);
    } else if (dep_kind(code) == DepKind::kInputDram) {
      need = cs.dram_cycles[here];
    } else {
      const auto home = static_cast<std::size_t>(cur.input_home[src]);
      need = cs.transit[home * P + here];
    }
    c = std::max(c, need);
  }
  return std::min<Cycle>(c, ss.cycle_bound - 1);
}

/// The proposal mixture: compaction pulls (an op re-placed at its
/// earliest causally safe cycle), window-bounded global re-placements
/// (the window tracks the current makespan, so proposals concentrate as
/// the schedule compresses), time-local nudges, swaps, and — when the
/// spec has PE-homed inputs — home shifts.  Draws depend only on the
/// chain's own Rng stream and table state, never on timing.
Move propose_move(const StrategySpec& ss, const DeltaEval& de, Rng& rng) {
  const TableMap& cur = de.table();
  const auto n = static_cast<std::uint64_t>(ss.cs->num_points);
  const auto P = static_cast<std::uint64_t>(ss.cs->num_pes);
  const std::uint64_t r = rng.next_below(100);
  if (r >= 92 && !ss.pe_homed.empty()) {
    Move m;
    m.kind = MoveKind::kShiftHome;
    m.a = ss.pe_homed[rng.next_below(ss.pe_homed.size())];
    m.pe = static_cast<std::int32_t>(rng.next_below(P));
    return m;
  }
  if (r >= 80 && r < 92 && n >= 2) {
    Move m;
    m.kind = MoveKind::kSwapOps;
    m.a = static_cast<std::int64_t>(rng.next_below(n));
    m.b = static_cast<std::int64_t>(rng.next_below(n));
    return m;
  }
  if (r >= 55 && r < 80) {
    // Local nudge: same PE, schedule shifted a few cycles.
    Move m;
    m.kind = MoveKind::kReplaceOp;
    m.a = static_cast<std::int64_t>(rng.next_below(n));
    const auto ai = static_cast<std::size_t>(m.a);
    m.pe = cur.pe[ai];
    const Cycle c = cur.cycle[ai] + rng.next_int(-8, 8);
    m.cycle = std::clamp<Cycle>(c, 0, ss.cycle_bound - 1);
    return m;
  }
  if (r >= 30 && r < 55) {
    // Compaction pull: as early as the operands allow, on the current
    // PE half the time and a random one otherwise.
    Move m;
    m.kind = MoveKind::kReplaceOp;
    m.a = static_cast<std::int64_t>(rng.next_below(n));
    m.pe = rng.next_below(2) == 0
               ? cur.pe[static_cast<std::size_t>(m.a)]
               : static_cast<std::int32_t>(rng.next_below(P));
    m.cycle = std::min<Cycle>(
        ss.cycle_bound - 1,
        earliest_cycle(ss, cur, m.a, m.pe) +
            static_cast<Cycle>(rng.next_below(4)));
    return m;
  }
  Move m;
  m.kind = MoveKind::kReplaceOp;
  m.a = static_cast<std::int64_t>(rng.next_below(n));
  m.pe = static_cast<std::int32_t>(rng.next_below(P));
  const Cycle window =
      std::min<Cycle>(ss.cycle_bound, de.makespan_cycles() + 16);
  m.cycle = static_cast<Cycle>(
      rng.next_below(static_cast<std::uint64_t>(window)));
  return m;
}

struct ChainResult {
  bool found = false;
  TableMap best;
  double merit = kInf;
  std::uint64_t tried = 0;
  std::uint64_t accepted = 0;
  std::uint64_t rejected_illegal = 0;
  int epochs_run = 0;
  int reheats = 0;
  bool cut = false;
};

ChainResult run_chain(std::size_t chain, Rng rng,
                      const std::shared_ptr<const StrategySpec>& ss,
                      const TableMap& seed, double seed_merit,
                      const StrategyOptions& opts) {
  ChainResult res;
  DeltaEval de(ss, opts.verify);
  de.reset(seed);
  double cur = seed_merit;
  res.best = seed;
  res.merit = seed_merit;
  res.found = true;

  const double t0 =
      opts.t0_fraction * std::max(std::abs(seed_merit), 1e-9);
  double temp = t0;
  int stall = 0;
  for (int epoch = 0; epoch < opts.epochs; ++epoch) {
    if (opts.cancel && opts.cancel()) {
      res.cut = true;
      break;
    }
    const double epoch_best = res.merit;
    {
      trace::Span span("fm", "anneal_epoch", chain,
                       static_cast<std::uint64_t>(epoch),
                       static_cast<std::uint64_t>(opts.iters_per_epoch));
      for (int it = 0; it < opts.iters_per_epoch; ++it) {
        const Move mv = propose_move(*ss, de, rng);
        ++res.tried;
        const Move inv = de.apply_move(mv);
        if (!de.legal()) {
          ++res.rejected_illegal;
          de.undo_move(inv);
          continue;
        }
        const double merit = de.merit(opts.fom);
        const double delta = merit - cur;
        if (delta <= 0.0 ||
            rng.next_double() < std::exp(-delta / temp)) {
          cur = merit;
          ++res.accepted;
          if (merit < res.merit) {
            res.merit = merit;
            res.best = de.table();
          }
        } else {
          de.undo_move(inv);
        }
      }
    }
    ++res.epochs_run;
    temp *= opts.cooling;
    stall = res.merit < epoch_best ? 0 : stall + 1;
    if (stall >= opts.stall_epochs) {
      if (res.reheats >= opts.max_reheats) break;
      ++res.reheats;
      temp = t0;
      stall = 0;
    }
  }
  return res;
}

/// One beam proposal, recorded with its strict rank key: parents and
/// proposal indices break merit ties, so the sort — and hence the whole
/// generation — is independent of evaluation order.
struct BeamCand {
  double merit = kInf;
  std::uint32_t parent = 0;
  std::uint32_t idx = 0;
  Move mv;
};

bool beam_precedes(const BeamCand& a, const BeamCand& b) {
  if (a.merit != b.merit) return a.merit < b.merit;
  if (a.parent != b.parent) return a.parent < b.parent;
  return a.idx < b.idx;
}

/// One beam lane's whole output, so the fan-out writes exactly one
/// results slot per lane (the strategy_lanes contract).
struct BeamLane {
  std::vector<BeamCand> cands;
  std::uint64_t illegal = 0;
};

/// Applies a (known-shape) move directly to a table copy.
void apply_to_table(TableMap& tm, const Move& mv) {
  switch (mv.kind) {
    case MoveKind::kReplaceOp:
      tm.pe[static_cast<std::size_t>(mv.a)] = mv.pe;
      tm.cycle[static_cast<std::size_t>(mv.a)] = mv.cycle;
      return;
    case MoveKind::kSwapOps:
      std::swap(tm.pe[static_cast<std::size_t>(mv.a)],
                tm.pe[static_cast<std::size_t>(mv.b)]);
      std::swap(tm.cycle[static_cast<std::size_t>(mv.a)],
                tm.cycle[static_cast<std::size_t>(mv.b)]);
      return;
    case MoveKind::kShiftHome:
      tm.input_home[static_cast<std::size_t>(mv.a)] = mv.pe;
      return;
  }
}

/// Spreads `results[i] = eval(ctx, i)` over [0, count) through the
/// strategy_lanes kernel — on the scheduler when one is given (inline
/// when already on one of its workers, Scheduler::run), serially
/// otherwise.  Returns the lane count used.
template <typename Result, typename Eval>
unsigned spread_lanes(sched::Scheduler* scheduler, unsigned num_workers,
                      std::size_t count, Result* results, Eval&& eval) {
  unsigned lanes = 1;
  if (scheduler != nullptr) {
    lanes = scheduler->num_workers();
    if (num_workers != 0) lanes = std::min(lanes, num_workers);
    lanes = static_cast<unsigned>(
        std::min<std::size_t>(lanes, std::max<std::size_t>(count, 1)));
  }
  sched::RealCtx ctx;
  if (lanes <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = eval(ctx, i);
    return 1;
  }
  scheduler->run([&] { strategy_lanes(ctx, count, results, eval); });
  return lanes;
}

}  // namespace

std::vector<analyze::Diagnostic> validate_strategy_options(
    const StrategyOptions& opts) {
  std::vector<analyze::Diagnostic> diags;
  const auto flag = [&](const char* what) {
    diags.push_back(analyze::make_diagnostic(
        "FM005", analyze::Location{},
        std::string("fm::search_table: ") + what));
  };
  if (opts.chains <= 0) flag("chains must be positive");
  if (opts.iters_per_epoch <= 0) flag("iters_per_epoch must be positive");
  if (opts.epochs <= 0) flag("epochs must be positive");
  if (!(opts.t0_fraction > 0.0)) flag("t0_fraction must be positive");
  if (!(opts.cooling > 0.0) || opts.cooling > 1.0) {
    flag("cooling must be in (0, 1]");
  }
  if (opts.stall_epochs <= 0) flag("stall_epochs must be positive");
  if (opts.max_reheats < 0) flag("max_reheats must be non-negative");
  if (!(opts.makespan_slack >= 1.0)) flag("makespan_slack must be >= 1");
  if (opts.beam_width <= 0) flag("beam_width must be positive");
  if (opts.beam_moves <= 0) flag("beam_moves must be positive");
  return diags;
}

StrategyResult search_table(const FunctionSpec& spec,
                            const MachineConfig& machine,
                            const Mapping& input_proto, StrategyKind kind,
                            const StrategyOptions& opts) {
  HARMONY_REQUIRE(kind != StrategyKind::kExhaustive,
                  "search_table: kExhaustive is search_affine's job — "
                  "call it (or serve with strategy = kExhaustive)");
  const auto diags = validate_strategy_options(opts);
  if (!diags.empty()) throw InvalidArgument(diags.front().message);

  std::shared_ptr<const CompiledSpec> cs =
      opts.compiled != nullptr ? opts.compiled
                               : compile_spec(spec, machine, input_proto);
  HARMONY_REQUIRE(cs->num_points > 0,
                  "search_table: empty computation domain");
  const std::shared_ptr<const StrategySpec> ss =
      build_strategy_spec(cs, opts.makespan_slack);
  const TableMap seed = seed_table(*ss);

  double seed_merit;
  {
    DeltaEval probe(ss, opts.verify);
    probe.reset(seed);
    HARMONY_REQUIRE(
        probe.legal(),
        "search_table: the serial seed schedule is not legal on this "
        "machine (PE capacity or link bandwidth too small for any "
        "one-op-per-cycle table)");
    seed_merit = probe.merit(opts.fom);
  }

  trace::Span span("fm", "strategy_search",
                   static_cast<std::uint64_t>(kind),
                   static_cast<std::uint64_t>(cs->num_points),
                   static_cast<std::uint64_t>(opts.seed));

  StrategyResult result;
  Rng root(opts.seed);

  if (kind == StrategyKind::kAnneal) {
    const auto chains = static_cast<std::size_t>(opts.chains);
    // Streams split in chain order on the coordinator: chain c's stream
    // is a function of (seed, c) alone, so any worker interleaving
    // produces the same per-chain results.
    std::vector<Rng> rngs;
    rngs.reserve(chains);
    for (std::size_t c = 0; c < chains; ++c) rngs.push_back(root.split());
    std::vector<ChainResult> chain_results(chains);
    result.workers_used = spread_lanes(
        opts.scheduler, opts.num_workers, chains, chain_results.data(),
        [&](auto& ctx, std::size_t c) {
          sched::reader(ctx, rngs.data(), c);
          return run_chain(c, rngs[c], ss, seed, seed_merit, opts);
        });
    result.chains_used = opts.chains;

    std::size_t winner = 0;
    for (std::size_t c = 0; c < chains; ++c) {
      const ChainResult& r = chain_results[c];
      result.moves_tried += r.tried;
      result.moves_accepted += r.accepted;
      result.moves_rejected_illegal += r.rejected_illegal;
      result.epochs_run = std::max(result.epochs_run, r.epochs_run);
      result.reheats += r.reheats;
      if (r.cut) result.completed = false;
      // Strict (merit, chain) order: the earliest chain wins ties.
      if (r.merit < chain_results[winner].merit) winner = c;
    }
    result.found = true;
    result.best = chain_results[winner].best;
  } else {
    std::vector<TableMap> parents{seed};
    TableMap best = seed;
    double best_merit = seed_merit;
    result.chains_used = 1;
    const auto width = static_cast<std::size_t>(opts.beam_width);
    const auto moves = static_cast<std::uint32_t>(opts.beam_moves);
    unsigned max_lanes = 1;

    // One DeltaEval per beam position, built once and reset() per
    // parent per epoch: reset is a full recompute, so reuse is
    // byte-identical to constructing fresh — it just keeps the
    // evaluator's arena of occupancy/aggregate state out of the
    // per-epoch hot path.  Lane i touches only de_pool[i].
    std::vector<DeltaEval> de_pool;
    de_pool.reserve(std::max<std::size_t>(width, 1));
    for (std::size_t i = 0; i < std::max<std::size_t>(width, 1); ++i) {
      de_pool.emplace_back(ss, opts.verify);
    }

    for (int epoch = 0; epoch < opts.epochs; ++epoch) {
      if (opts.cancel && opts.cancel()) {
        result.completed = false;
        break;
      }
      trace::Span epoch_span("fm", "beam_epoch", 0,
                             static_cast<std::uint64_t>(epoch),
                             static_cast<std::uint64_t>(parents.size()));
      std::vector<Rng> rngs;
      rngs.reserve(parents.size());
      for (std::size_t i = 0; i < parents.size(); ++i) {
        rngs.push_back(root.split());
      }
      std::vector<BeamLane> lane_results(parents.size());
      const unsigned lanes = spread_lanes(
          opts.scheduler, opts.num_workers, parents.size(),
          lane_results.data(), [&](auto& ctx, std::size_t i) {
            sched::reader(ctx, parents.data(), i);
            sched::reader(ctx, rngs.data(), i);
            sched::writer(ctx, de_pool.data(), i);
            BeamLane lane;
            DeltaEval& de = de_pool[i];
            de.reset(parents[i]);
            Rng rng = rngs[i];
            for (std::uint32_t j = 0; j < moves; ++j) {
              const Move mv = propose_move(*ss, de, rng);
              const Move inv = de.apply_move(mv);
              if (de.legal()) {
                lane.cands.push_back(BeamCand{de.merit(opts.fom),
                                              static_cast<std::uint32_t>(i),
                                              j, mv});
              } else {
                ++lane.illegal;
              }
              de.undo_move(inv);
            }
            return lane;
          });
      max_lanes = std::max(max_lanes, lanes);

      std::vector<BeamCand> all;
      for (std::size_t i = 0; i < parents.size(); ++i) {
        result.moves_tried += moves;
        result.moves_rejected_illegal += lane_results[i].illegal;
        all.insert(all.end(), lane_results[i].cands.begin(),
                   lane_results[i].cands.end());
      }
      ++result.epochs_run;
      if (all.empty()) break;  // every mutation of every parent illegal
      std::sort(all.begin(), all.end(), beam_precedes);
      if (all.size() > width) all.resize(width);

      std::vector<TableMap> children;
      children.reserve(all.size());
      for (const BeamCand& c : all) {
        TableMap child = parents[c.parent];
        apply_to_table(child, c.mv);
        children.push_back(std::move(child));
        ++result.moves_accepted;
      }
      if (all.front().merit < best_merit) {
        best_merit = all.front().merit;
        best = children.front();
      }
      parents = std::move(children);
    }
    result.workers_used = max_lanes;
    result.found = true;
    result.best = best;
  }

  // Winners are re-scored through the full evaluator: the published
  // numbers come from the pinned oracle, not the delta conversion.
  EvalContext ectx(*cs);
  result.cost = evaluate_cost(*cs, result.best, ectx);
  result.merit = merit_value(result.cost, opts.fom);
  return result;
}

}  // namespace harmony::fm
