// E24 — multi-kernel pipeline tuning: greedy stage-by-stage vs the
// co-optimizing paired tuner (DESIGN.md §16).
//
// Tuning each kernel of a chain in isolation leaves the inter-stage
// data-movement cost on the table: where a producer's output lives
// determines its consumer's cheapest mapping, and the producer's
// locally-best layout can be the consumer's worst.  fm::Pipeline makes
// the handoff a first-class cost (producer winners become distributed
// input homes, priced through the compiled P×P route/energy tables);
// this benchmark measures how much the co-optimizing tuner
// (tune_pipeline_paired — each stage's top candidates scored by own
// merit plus consumer probe searches) recovers over the greedy baseline
// (tune_pipeline_greedy — each stage commits its local best).
//
// Three scenarios, the ISSUE's list:
//   E24.a  FFT -> bit-reverse shuffle -> FFT   (exhaustive affine stages)
//   E24.b  scan -> pointwise filter -> scan    (exhaustive affine stages)
//   E24.c  irregular conv->conv chain from the DAG generator
//          (anneal strategy stages — the non-affine space)
//
// Acceptance contract (exit code, CI's perf leg runs --smoke):
//   * every scenario tunes to a full legal chain under both tuners,
//   * the paired tuner's total merit strictly beats greedy's on at
//     least 2 of the 3 scenarios (and never loses on any),
//   * every committed stage winner of BOTH tuners is certified clean by
//     analyze::ExecChecker against its resolved (producer-substituted)
//     input homes — the independent relational model agrees every
//     handoff the cost model priced is legal.
//
// The tuners are deterministic; greedy_ms and paired_ms are medians
// over timing.hpp's alternating rounds.
//
// Flags:
//   --smoke   shrink sizes and budgets (CI's perf label runs this)
//   --json    one machine-readable JSON object instead of ASCII tables
//             (BENCH_e24_pipeline.json is this output)
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "algos/pipelines.hpp"
#include "analyze/exec.hpp"
#include "fm/compiled.hpp"
#include "fm/pipeline.hpp"
#include "support/table.hpp"
#include "timing.hpp"

using namespace harmony;

namespace {

/// ExecChecker errors summed over every committed stage winner, each
/// replayed against the input homes the tuner actually priced it with
/// (external bindings as given, producer bindings distributed over the
/// producer's winning place function).  0 == the chain is certified.
std::uint64_t certify_errors(const fm::Pipeline& pipe,
                             const fm::MachineConfig& cfg,
                             fm::StrategyKind strategy,
                             const fm::PipelineResult& result) {
  std::uint64_t errors = 0;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    const fm::StageResult& st = result.stages[s];
    const fm::Mapping proto =
        fm::stage_input_proto(pipe, s, strategy, result);
    const auto cs = fm::compile_spec(*pipe.stage(s).spec, cfg, proto);
    const analyze::ExecWitness witness =
        strategy == fm::StrategyKind::kExhaustive
            ? analyze::build_exec_witness(*cs, st.affine)
            : analyze::build_exec_witness(*cs, st.table);
    errors += analyze::ExecChecker().check(witness).errors;
  }
  return errors;
}

struct Outcome {
  std::string name;
  std::size_t stages = 0;
  fm::PipelineResult greedy;
  fm::PipelineResult paired;
  double greedy_ms = 0.0;
  double paired_ms = 0.0;
  bool found = false;       ///< both tuners committed a full legal chain
  bool paired_wins = false; ///< strict: paired.merit < greedy.merit
  bool never_loses = false; ///< paired.merit <= greedy.merit (+epsilon)
  bool certified = false;   ///< both chains ExecChecker-clean
  double gap_pct = 0.0;     ///< (greedy - paired) / greedy, in percent
};

Outcome run_scenario(std::string name, const fm::Pipeline& pipe,
                     const fm::MachineConfig& cfg,
                     const fm::PipelineOptions& opts) {
  Outcome o;
  o.name = std::move(name);
  o.stages = pipe.size();
  const auto ms = bench::alternate<2>(
      {[&] {
         return bench::time_ms(
             [&] { o.greedy = fm::tune_pipeline_greedy(pipe, cfg, opts); });
       },
       [&] {
         return bench::time_ms(
             [&] { o.paired = fm::tune_pipeline_paired(pipe, cfg, opts); });
       }});
  o.greedy_ms = bench::median(ms[0]);
  o.paired_ms = bench::median(ms[1]);
  o.found = o.greedy.found && o.paired.found;
  if (!o.found) return o;
  o.paired_wins = o.paired.merit < o.greedy.merit;
  o.never_loses = o.paired.merit <= o.greedy.merit * (1.0 + 1e-9);
  o.gap_pct = (o.greedy.merit - o.paired.merit) / o.greedy.merit * 100.0;
  o.certified =
      certify_errors(pipe, cfg, opts.strategy, o.greedy) == 0 &&
      certify_errors(pipe, cfg, opts.strategy, o.paired) == 0;
  return o;
}

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
    std::cout << "E24: pipeline tuning — greedy stage-by-stage vs the "
                 "co-optimizing paired tuner\n\n";
  }

  std::vector<Outcome> outcomes;

  // ── E24.a: FFT -> bit-reverse shuffle -> FFT ────────────────────────
  // The shuffle stage is pure data movement: its own cost barely
  // discriminates between layouts, but the layout it commits decides
  // both handoffs around it — the paired tuner's home turf.  The grid
  // has two rows on purpose: on a 1-row mesh every spread layout in the
  // small affine space is a mirror image of every other, so consumers
  // adapt to any producer choice equally and the tuners tie exactly;
  // two rows break that symmetry and make the row split of the
  // producer's output a real decision the greedy tuner gets wrong.
  {
    const std::int64_t n = smoke ? 16 : 64;
    const fm::MachineConfig cfg = fm::make_machine(smoke ? 2 : 4, 2);
    fm::PipelineOptions opts;
    opts.pair_candidates = smoke ? 4 : 6;
    outcomes.push_back(run_scenario("fft-shuffle-fft n=" + std::to_string(n),
                                    algos::fft_shuffle_fft_pipeline(n), cfg,
                                    opts));
  }

  // ── E24.b: scan -> filter -> scan ───────────────────────────────────
  // The honest control: the serial recurrences pin both scans to a
  // near-serial schedule, and the pointwise filter's cheapest layout is
  // whatever matches its producer (zero-hop handoff), so the greedy
  // commitment is already globally optimal and the co-tuner's job is to
  // *not lose* while paying its probe overhead.  A measured gap of 0
  // here is the expected result, not a failure — the acceptance gate
  // asks for strict wins on 2 of the 3 chains.
  {
    const std::int64_t n = smoke ? 16 : 64;
    const fm::MachineConfig cfg = fm::make_machine(smoke ? 2 : 4, 2);
    fm::PipelineOptions opts;
    opts.pair_candidates = smoke ? 4 : 6;
    outcomes.push_back(run_scenario("scan-filter-scan n=" + std::to_string(n),
                                    algos::scan_filter_scan_pipeline(n), cfg,
                                    opts));
  }

  // ── E24.c: irregular conv->conv chain (anneal stages) ───────────────
  // No affine map schedules the DAG generator's fanin pattern well, so
  // both tuners search the TableMap space; the paired tuner ranks each
  // restart's table by what it does to the downstream stage.
  {
    const std::int64_t n = smoke ? 24 : 64;
    const fm::MachineConfig cfg = fm::make_machine(4, smoke ? 1 : 2);
    fm::PipelineOptions opts;
    opts.strategy = fm::StrategyKind::kAnneal;
    opts.strategy_opts.chains = smoke ? 2 : 4;
    opts.strategy_opts.epochs = smoke ? 8 : 32;
    opts.strategy_opts.iters_per_epoch = smoke ? 64 : 256;
    opts.pair_candidates = smoke ? 2 : 4;
    outcomes.push_back(
        run_scenario("irregular-chain n=" + std::to_string(n),
                     algos::irregular_chain_pipeline(n, 3, 0xE24u), cfg,
                     opts));
  }

  // ── acceptance ──────────────────────────────────────────────────────
  int wins = 0;
  bool all_found = true, all_certified = true, none_lose = true;
  for (const Outcome& o : outcomes) {
    all_found &= o.found;
    all_certified &= o.found && o.certified;
    none_lose &= o.found && o.never_loses;
    wins += o.found && o.paired_wins ? 1 : 0;
  }
  const bool all_ok =
      all_found && all_certified && none_lose && wins >= 2;

  Table t({"scenario", "stages", "greedy_merit", "paired_merit", "gap_pct",
           "probe_searches", "greedy_ms", "paired_ms", "paired_wins",
           "exec_certified"});
  t.title("E24 — chain total merit (energy-delay), greedy vs paired; "
          "gap_pct = share of the greedy total the co-tuner recovers");
  for (const Outcome& o : outcomes) {
    t.add_row({o.name, static_cast<std::int64_t>(o.stages),
               o.found ? Cell{o.greedy.merit} : Cell{std::string("-")},
               o.found ? Cell{o.paired.merit} : Cell{std::string("-")},
               o.gap_pct,
               static_cast<std::int64_t>(o.paired.probe_searches),
               o.greedy_ms, o.paired_ms,
               std::string(!o.found ? "-" : o.paired_wins ? "yes" : "no"),
               std::string(!o.found ? "-" : o.certified ? "yes" : "NO")});
  }

  if (json) {
    std::ostringstream jt;
    t.print_json(jt);
    std::cout << "{\n\"bench\": \"e24_pipeline\",\n\"smoke\": "
              << (smoke ? "true" : "false") << ",\n"
              << bench::host_header()
              << "\"scenarios\": " << outcomes.size()
              << ",\n\"paired_strict_wins\": " << wins
              << ",\n\"paired_never_loses\": "
              << (none_lose ? "true" : "false")
              << ",\n\"all_chains_found\": "
              << (all_found ? "true" : "false")
              << ",\n\"all_winners_exec_certified\": "
              << (all_certified ? "true" : "false")
              << ",\n\"results\": " << jt.str() << "\n}\n";
  } else {
    t.print(std::cout);
    std::cout << "\nShape check: the co-optimizing tuner strictly beats "
                 "greedy on at least 2 of 3 chains and never loses "
                 "(its pair scores include the greedy choice), and "
                 "every committed stage winner of both tuners passes "
                 "the independent ExecChecker replay with its "
                 "producer-substituted input homes.\n";
  }
  if (!all_ok) {
    std::cerr << "ERROR: E24 acceptance contract failed (chain "
                 "legality, paired dominance, or certification)\n";
    return 1;
  }
  return 0;
}
