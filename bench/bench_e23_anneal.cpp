// E23 — stochastic mapping search over non-affine spaces (DESIGN.md §13).
//
// search_affine() is exhaustive over the AffineMap family; that family
// cannot express per-op schedules, so on an irregular DAG the best it
// can do is whatever affine skeleton happens to be legal.  search_table()
// explores the TableMap space (per-op (pe, cycle) placement plus
// per-value input homes) with annealed / beamed mutation moves scored by
// the delta evaluator.  Three experiments:
//
// E23.a runs both searches on an affine-reachable kernel (editdist).
// The table space contains every affine schedule, so the anneal must
// match (or beat) the exhaustive affine optimum — a ground-truth check
// that the mutation search actually converges.
//
// E23.b runs an irregular-fanin DAG (algos::irregular_dag_spec) that no
// affine map schedules well.  The exhaustive affine search gets a wall-
// clock deadline (the serving layer's deadline-cut, via cancel) and
// reports its best-so-far; the anneal runs a fixed mutation budget and
// must land a strictly better mapping.  The beam runs for comparison
// and is not gated: a beam generation advances each survivor by one
// move, so its search depth equals its generation count — good for
// refining a decent schedule, far too shallow to restructure the
// serial seed this space starts from (the table records that honestly).
//
// E23.c measures the inner loop: candidates per second through
// DeltaEval::apply_move + legal() + makespan vs the same trajectory
// re-scored per candidate by the full compiled oracles
// (verify_ok + evaluate_cost).  Both passes walk the identical
// keep-if-legal trajectory and must agree on an exact checksum; the
// delta path must be at least 5x faster, as the median of the per-round
// ratios over timing.hpp's alternating rounds (one round alone is at the
// mercy of whatever else the host runs).  E23.b's elapsed times are
// medians over the same rounds.
//
// Flags:
//   --smoke   shrink the kernels and budgets (CI's perf label runs this)
//   --json    print one machine-readable JSON object instead of the
//             ASCII tables (BENCH_e23_anneal.json is this output)
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/specs.hpp"
#include "fm/compiled.hpp"
#include "fm/cost.hpp"
#include "fm/idioms.hpp"
#include "fm/legality.hpp"
#include "fm/search.hpp"
#include "fm/strategy/delta.hpp"
#include "fm/strategy/strategy.hpp"
#include "fm/strategy/table_map.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "timing.hpp"

using namespace harmony;

namespace {

/// Input proto with every input tensor block-distributed over the grid —
/// the same homes the tests seed their fixtures with.
fm::Mapping distributed_proto(const fm::FunctionSpec& spec,
                              const fm::MachineConfig& cfg) {
  fm::Mapping proto;
  for (fm::TensorId in : spec.input_tensors()) {
    proto.set_input(in, fm::InputHome::distributed(
                            fm::block_distribution(spec.domain(in),
                                                   cfg.geom).place));
  }
  return proto;
}

double elapsed_ms(bench::Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(bench::Clock::now() - t0)
      .count();
}

/// One random mutation drawn uniformly from the move set, bounded by the
/// strategy spec's move space (same distribution as the tests' parity
/// driver — the bench measures scoring cost, not proposal policy).
fm::Move random_move(const fm::StrategySpec& ss, Rng& rng) {
  const auto n = static_cast<std::uint64_t>(ss.cs->num_points);
  const auto P = static_cast<std::uint64_t>(ss.cs->num_pes);
  const auto bound = static_cast<std::uint64_t>(ss.cycle_bound);
  std::uint64_t kind = rng.next_below(3);
  if (kind == 2 && ss.pe_homed.empty()) kind = 0;
  if (kind == 1 && n < 2) kind = 0;
  fm::Move m;
  switch (kind) {
    case 1:
      m.kind = fm::MoveKind::kSwapOps;
      m.a = static_cast<std::int64_t>(rng.next_below(n));
      m.b = static_cast<std::int64_t>(rng.next_below(n));
      break;
    case 2:
      m.kind = fm::MoveKind::kShiftHome;
      m.a = static_cast<std::int64_t>(
          ss.pe_homed[rng.next_below(ss.pe_homed.size())]);
      m.pe = static_cast<std::int32_t>(rng.next_below(P));
      break;
    default:
      m.kind = fm::MoveKind::kReplaceOp;
      m.a = static_cast<std::int64_t>(rng.next_below(n));
      m.pe = static_cast<std::int32_t>(rng.next_below(P));
      m.cycle = static_cast<fm::Cycle>(rng.next_below(bound));
      break;
  }
  return m;
}

/// Exact trajectory checksum both E23.c passes must agree on.
struct Checksum {
  std::uint64_t legal = 0;
  std::int64_t cycles = 0;
  bool operator==(const Checksum& o) const {
    return legal == o.legal && cycles == o.cycles;
  }
};

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json") json = true;
    if (a == "--smoke") smoke = true;
  }
  if (!json) {
    std::cout << "E23: stochastic table search (anneal | beam) vs the "
                 "exhaustive affine family\n\n";
  }
  bool all_ok = true;

  // ── E23.a: ground truth — anneal must reach the affine optimum ──────
  Table ta({"kernel", "affine_candidates", "affine_optimum_merit",
            "anneal_moves", "anneal_merit", "matches"});
  bool anneal_matches = false;
  {
    algos::SwScores s;
    const int n = smoke ? 4 : 6;
    const fm::FunctionSpec spec = algos::editdist_spec(n, n, s);
    const fm::MachineConfig cfg = fm::make_machine(n, 1);
    const fm::Mapping proto = distributed_proto(spec, cfg);

    // Default energy-delay merit — the figure the search tests pin.
    fm::SearchOptions so;
    const fm::SearchResult affine = search_affine(spec, cfg, proto, so);

    fm::StrategyOptions ao;
    ao.chains = smoke ? 4 : 6;
    ao.epochs = smoke ? 48 : 96;
    ao.iters_per_epoch = smoke ? 256 : 512;
    const fm::StrategyResult anneal = fm::search_table(
        spec, cfg, proto, fm::StrategyKind::kAnneal, ao);

    // The table space contains every affine schedule, so the anneal is
    // allowed to beat the affine optimum but never to miss it.  Both
    // merits come from evaluate_cost, so equality is exact.
    anneal_matches = affine.found && anneal.found &&
                     anneal.merit <= affine.best.merit;
    all_ok &= anneal_matches;
    ta.title("E23.a — affine-reachable kernel (energy-delay merit): the "
             "anneal must reach the exhaustive optimum");
    ta.add_row({"editdist " + std::to_string(n) + "x" + std::to_string(n),
                static_cast<std::int64_t>(affine.enumerated),
                affine.best.merit,
                static_cast<std::int64_t>(anneal.moves_tried),
                anneal.merit,
                std::string(anneal_matches ? "yes" : "NO")});
  }

  // ── E23.b: irregular DAG — stochastic search beats the affine cut ───
  Table tb({"strategy", "merit", "makespan_cycles", "candidates",
            "elapsed_ms", "completed", "beats_exhaustive"});
  bool anneal_beats = false;
  bool beam_beats = false;
  {
    const int n = smoke ? 32 : 96;
    const fm::FunctionSpec spec = algos::irregular_dag_spec(n, 3, 0xD46u);
    const fm::MachineConfig cfg = fm::make_machine(4, 2);
    const fm::Mapping proto = distributed_proto(spec, cfg);
    const double deadline_ms = smoke ? 50.0 : 250.0;

    fm::StrategyOptions ao;
    ao.chains = smoke ? 4 : 6;
    ao.epochs = smoke ? 24 : 96;
    ao.iters_per_epoch = smoke ? 256 : 512;

    // Comparison row, not a gate: the beam's depth is its generation
    // count (one move per survivor per generation), so even with twice
    // the anneal's proposal budget it cannot restructure the serial
    // seed — see the file comment.
    fm::StrategyOptions bo;
    bo.beam_width = 8;
    bo.beam_moves = 32;
    bo.epochs = smoke ? 192 : 512;

    // All three searches are deterministic; each round reruns them for
    // its timing.
    fm::SearchResult ex;
    fm::StrategyResult anneal, beam;
    const auto ms = bench::alternate<3>(
        {[&] {
           // The serving layer's deadline-cut, reproduced: the
           // exhaustive affine search gets a wall-clock budget and
           // answers best-so-far.  Default energy-delay merit
           // throughout.
           fm::SearchOptions so;
           const bench::Clock::time_point e0 = bench::Clock::now();
           so.cancel = [&] { return elapsed_ms(e0) >= deadline_ms; };
           ex = search_affine(spec, cfg, proto, so);
           return elapsed_ms(e0);
         },
         [&] {
           return bench::time_ms([&] {
             anneal = fm::search_table(spec, cfg, proto,
                                       fm::StrategyKind::kAnneal, ao);
           });
         },
         [&] {
           return bench::time_ms([&] {
             beam = fm::search_table(spec, cfg, proto,
                                     fm::StrategyKind::kBeam, bo);
           });
         }});

    // "Beats": a strictly better mapping than the affine family's best
    // within its deadline — or a mapping at all when the affine family
    // has no legal member.  Only the anneal is gated.
    anneal_beats =
        anneal.found && (!ex.found || anneal.merit < ex.best.merit);
    beam_beats = beam.found && (!ex.found || beam.merit < ex.best.merit);
    all_ok &= anneal_beats;

    tb.title("E23.b — irregular DAG (n=" + std::to_string(n) +
             ", fanin<=3) on a 4x2 grid, energy-delay merit: "
             "deadline-cut exhaustive affine vs fixed-budget "
             "anneal/beam");
    tb.add_row({std::string("exhaustive (affine, deadline)"),
                ex.found ? Cell{ex.best.merit} : Cell{std::string("-")},
                ex.found ? Cell{ex.best.cost.makespan_cycles}
                         : Cell{std::string("-")},
                static_cast<std::int64_t>(ex.enumerated),
                bench::median(ms[0]),
                std::string(ex.exhausted ? "yes" : "cut"),
                std::string("-")});
    tb.add_row({std::string("anneal"), anneal.merit,
                anneal.cost.makespan_cycles,
                static_cast<std::int64_t>(anneal.moves_tried),
                bench::median(ms[1]),
                std::string(anneal.completed ? "yes" : "cut"),
                std::string(anneal_beats ? "yes" : "NO")});
    tb.add_row({std::string("beam"), beam.merit,
                beam.cost.makespan_cycles,
                static_cast<std::int64_t>(beam.moves_tried),
                bench::median(ms[2]),
                std::string(beam.completed ? "yes" : "cut"),
                std::string(beam_beats ? "yes" : "NO")});
  }

  // ── E23.c: delta-eval vs full re-evaluation per candidate ───────────
  Table tc({"fixture", "moves", "full_cands_per_s", "delta_cands_per_s",
            "speedup", "agree"});
  double delta_speedup = 0.0;
  bool paths_agree = true;
  {
    const int n = smoke ? 96 : 128;
    const fm::FunctionSpec spec = algos::irregular_dag_spec(n, 3, 0xD46u);
    const fm::MachineConfig cfg = fm::make_machine(4, 2);
    const fm::Mapping proto = distributed_proto(spec, cfg);
    const std::shared_ptr<const fm::CompiledSpec> cs =
        fm::compile_spec(spec, cfg, proto);
    const std::shared_ptr<const fm::StrategySpec> ss =
        fm::build_strategy_spec(cs);
    const fm::TableMap seed = fm::seed_table(*ss);

    // One fixed move sequence; both passes replay it with the same
    // keep-if-legal policy, so they visit identical tables.
    std::vector<fm::Move> moves;
    {
      Rng rng(0xE23u);
      const std::size_t count = smoke ? 1024 : 4096;
      moves.reserve(count);
      for (std::size_t i = 0; i < count; ++i) {
        moves.push_back(random_move(*ss, rng));
      }
    }

    // Full pass: mutate a plain TableMap and re-run the compiled
    // oracles per candidate — what a mutation search without the delta
    // evaluator would have to do.
    fm::EvalContext ctx(*cs);
    const auto full_pass = [&] {
      Checksum sum;
      fm::TableMap cur = seed;
      for (const fm::Move& m : moves) {
        const auto a = static_cast<std::size_t>(m.a);
        std::int32_t old_pe = 0;
        fm::Cycle old_cycle = 0;
        switch (m.kind) {
          case fm::MoveKind::kReplaceOp:
            old_pe = cur.pe[a];
            old_cycle = cur.cycle[a];
            cur.pe[a] = m.pe;
            cur.cycle[a] = m.cycle;
            break;
          case fm::MoveKind::kSwapOps: {
            const auto b = static_cast<std::size_t>(m.b);
            std::swap(cur.pe[a], cur.pe[b]);
            std::swap(cur.cycle[a], cur.cycle[b]);
            break;
          }
          case fm::MoveKind::kShiftHome:
            old_pe = cur.input_home[a];
            cur.input_home[a] = m.pe;
            break;
        }
        if (fm::verify_ok(*cs, cur, ctx)) {
          const fm::CostReport cr = fm::evaluate_cost(*cs, cur, ctx);
          ++sum.legal;
          sum.cycles += cr.makespan_cycles;
          continue;  // keep
        }
        switch (m.kind) {  // undo
          case fm::MoveKind::kReplaceOp:
            cur.pe[a] = old_pe;
            cur.cycle[a] = old_cycle;
            break;
          case fm::MoveKind::kSwapOps: {
            const auto b = static_cast<std::size_t>(m.b);
            std::swap(cur.pe[a], cur.pe[b]);
            std::swap(cur.cycle[a], cur.cycle[b]);
            break;
          }
          case fm::MoveKind::kShiftHome:
            cur.input_home[a] = old_pe;
            break;
        }
      }
      return sum;
    };

    // Delta pass: the strategy drivers' actual inner loop.
    fm::DeltaEval de(ss);
    const auto delta_pass = [&] {
      Checksum sum;
      de.reset(seed);
      for (const fm::Move& m : moves) {
        const fm::Move inv = de.apply_move(m);
        if (de.legal()) {
          ++sum.legal;
          sum.cycles += de.makespan_cycles();
        } else {
          de.undo_move(inv);
        }
      }
      return sum;
    };

    // Per round; the two passes alternate over timing.hpp's rounds.
    const double min_seconds = smoke ? 0.02 : 0.1;
    const double nm = static_cast<double>(moves.size());
    Checksum full_sum, delta_sum;
    const auto [full, delta] = bench::alternate<2>(
        {[&] { return nm * bench::run_timed(full_pass, min_seconds, full_sum); },
         [&] {
           return nm * bench::run_timed(delta_pass, min_seconds, delta_sum);
         }});
    paths_agree = full_sum == delta_sum;
    all_ok &= paths_agree;

    const double full_rate = bench::median(full);
    const double delta_rate = bench::median(delta);
    delta_speedup = bench::median_ratio(delta, full);
    all_ok &= delta_speedup >= 5.0;
    tc.title("E23.c — candidate scoring throughput: full compiled "
             "oracles vs DeltaEval on the identical trajectory "
             "(contract: median speedup >= 5x)");
    tc.add_row({"irregular_dag n=" + std::to_string(n) + " on 4x2",
                static_cast<std::int64_t>(moves.size()), full_rate,
                delta_rate, delta_speedup,
                std::string(paths_agree ? "yes" : "NO")});
  }

  if (json) {
    std::ostringstream ja, jb, jc;
    ta.print_json(ja);
    tb.print_json(jb);
    tc.print_json(jc);
    std::cout << "{\n\"bench\": \"e23_anneal\",\n\"smoke\": "
              << (smoke ? "true" : "false") << ",\n"
              << bench::host_header()
              << "\"anneal_matches_affine_optimum\": "
              << (anneal_matches ? "true" : "false")
              << ",\n\"anneal_beats_deadline_exhaustive\": "
              << (anneal_beats ? "true" : "false")
              << ",\n\"beam_beats_deadline_exhaustive\": "
              << (beam_beats ? "true" : "false")
              << ",\n\"delta_eval_speedup\": " << delta_speedup
              << ",\n\"paths_agree\": " << (paths_agree ? "true" : "false")
              << ",\n\"affine_ground_truth\": " << ja.str()
              << ",\n\"irregular_dag\": " << jb.str()
              << ",\n\"throughput\": " << jc.str() << "\n}\n";
  } else {
    ta.print(std::cout);
    std::cout << '\n';
    tb.print(std::cout);
    std::cout << '\n';
    tc.print(std::cout);
    std::cout << "\nShape check: the anneal recovers the exhaustive "
                 "affine optimum where one exists and beats the "
                 "deadline-cut affine search on the irregular DAG "
                 "(the depth-limited beam is reported for comparison), "
                 "and the delta evaluator scores the identical "
                 "candidate trajectory several times faster than full "
                 "re-evaluation.\n";
  }
  if (!all_ok) {
    std::cerr << "ERROR: E23 acceptance contract failed (convergence, "
                 "dominance, agreement, or speedup)\n";
    return 1;
  }
  return 0;
}
