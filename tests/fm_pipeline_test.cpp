// fm::Pipeline — DAG composition, layout-aware handoff, and the two
// tuners (tests for src/fm/pipeline.cpp).
//
// The load-bearing cases:
//   * a single-stage pipeline must reproduce a plain search_affine bit
//     for bit (the pipeline layer adds nothing when there is nothing to
//     compose);
//   * a diamond DAG where two consumers pull the shared producer toward
//     conflicting layouts;
//   * a join stage mixing an external home with producer-fixed homes;
//   * greedy vs. paired on a chain engineered so the producer's locally
//     best layout is the consumer's worst — paired must not lose;
//   * execute_pipeline runs what the tuner committed: every stage's
//     outputs match the spec's reference evaluation, and the executed
//     ledger reproduces the tuned per-stage cost.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/pipelines.hpp"
#include "fm/cost.hpp"
#include "fm/legality.hpp"
#include "fm/pipeline.hpp"
#include "fm/search.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace harmony::fm {
namespace {

SearchOptions small_space() {
  SearchOptions so;
  so.space.time_coeffs = {0, 1, 2};
  so.space.space_coeffs = {-1, 0, 1};
  return so;
}

TEST(Pipeline, AddStageValidates) {
  Pipeline pipe;
  // Null spec.
  EXPECT_THROW(pipe.add_stage({"bad", nullptr, {}}), InvalidArgument);
  // Two computed tensors (editdist has H plus helper tensors? it has
  // exactly one computed tensor — use a two-computed spec instead).
  {
    FunctionSpec two;
    const TensorId x = two.add_input("x", IndexDomain(4), 32);
    const auto dep = [x](const Point& p) {
      return std::vector<ValueRef>{{x, p}};
    };
    const auto ev = [](const Point&, const std::vector<double>& v) {
      return v[0];
    };
    two.add_computed("a", IndexDomain(4), dep, ev);
    two.add_computed("b", IndexDomain(4), dep, ev);
    EXPECT_THROW(pipe.add_stage({"two", std::make_shared<const FunctionSpec>(
                                            std::move(two)),
                                 {StageInput::external(InputHome::dram())}}),
                 InvalidArgument);
  }
  const auto scan = std::make_shared<const FunctionSpec>(
      algos::scan_pass_spec(8));
  // Binding count mismatch.
  EXPECT_THROW(pipe.add_stage({"scan", scan, {}}), InvalidArgument);
  // Producer index out of range (no stage 0 yet).
  EXPECT_THROW(pipe.add_stage({"scan", scan, {StageInput::from(0)}}),
               InvalidArgument);
  ASSERT_EQ(pipe.add_stage(
                {"scan", scan, {StageInput::external(InputHome::dram())}}),
            0u);
  // Domain mismatch: producer target has extent 8, consumer input 16.
  const auto wide = std::make_shared<const FunctionSpec>(
      algos::pointwise_filter_spec(16));
  EXPECT_THROW(pipe.add_stage({"wide", wide, {StageInput::from(0)}}),
               InvalidArgument);
  // Self/forward reference: producer must be strictly earlier.
  const auto filt = std::make_shared<const FunctionSpec>(
      algos::pointwise_filter_spec(8));
  EXPECT_THROW(pipe.add_stage({"fwd", filt, {StageInput::from(1)}}),
               InvalidArgument);
  EXPECT_EQ(pipe.add_stage({"filter", filt, {StageInput::from(0)}}), 1u);

  const auto cons = pipe.consumers_of(0);
  ASSERT_EQ(cons.size(), 1u);
  EXPECT_EQ(cons[0].stage, 1u);
  EXPECT_EQ(cons[0].input_ord, 0u);
}

TEST(Pipeline, SingleStageMatchesPlainSearchBitForBit) {
  algos::SwScores s;
  const auto spec = std::make_shared<const FunctionSpec>(
      algos::editdist_spec(8, 8, s));
  const MachineConfig machine = make_machine(8, 1);

  Mapping proto;
  proto.set_input(0, InputHome::dram());
  proto.set_input(1, InputHome::dram());
  const SearchResult plain =
      search_affine(*spec, machine, proto, small_space());

  Pipeline pipe;
  pipe.add_stage({"editdist", spec,
                  {StageInput::external(InputHome::dram()),
                   StageInput::external(InputHome::dram())}});
  PipelineOptions opts;
  opts.search = small_space();
  opts.fom = opts.search.fom;
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);

  ASSERT_TRUE(plain.found);
  ASSERT_TRUE(r.found);
  ASSERT_EQ(r.stages.size(), 1u);
  const StageResult& st = r.stages[0];
  // The committing run *is* a plain search: identical counters,
  // identical frontier, identical winner.
  EXPECT_EQ(st.search.enumerated, plain.enumerated);
  EXPECT_EQ(st.search.quick_rejected, plain.quick_rejected);
  EXPECT_EQ(st.search.verify_rejected, plain.verify_rejected);
  EXPECT_EQ(st.search.legal, plain.legal);
  ASSERT_EQ(st.search.top.size(), plain.top.size());
  for (std::size_t i = 0; i < plain.top.size(); ++i) {
    EXPECT_EQ(st.search.top[i].slot, plain.top[i].slot);
    EXPECT_DOUBLE_EQ(st.search.top[i].merit, plain.top[i].merit);
  }
  EXPECT_EQ(st.search.best.slot, plain.best.slot);
  EXPECT_DOUBLE_EQ(st.merit, plain.best.merit);
  // One stage: the pipeline totals are the stage's own report.
  EXPECT_EQ(r.total.makespan_cycles, st.cost.makespan_cycles);
  EXPECT_DOUBLE_EQ(r.total.total_energy().femtojoules(),
                   st.cost.total_energy().femtojoules());
  EXPECT_EQ(st.start_cycle, 0);
  EXPECT_EQ(st.finish_cycle, st.cost.makespan_cycles);
  EXPECT_EQ(r.probe_searches, 0u);
}

TEST(Pipeline, DiamondDagTunesEveryStageAndSchedulesTheJoin) {
  const Pipeline pipe = algos::diamond_pipeline(8);
  ASSERT_EQ(pipe.size(), 4u);
  const auto cons = pipe.consumers_of(0);
  ASSERT_EQ(cons.size(), 2u);  // filter and shuffle both read the scan

  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();

  for (const bool paired : {false, true}) {
    const PipelineResult r =
        paired ? tune_pipeline_paired(pipe, machine, opts)
               : tune_pipeline_greedy(pipe, machine, opts);
    ASSERT_TRUE(r.found) << (paired ? "paired" : "greedy");
    ASSERT_TRUE(r.completed);
    ASSERT_EQ(r.stages.size(), 4u);
    for (const StageResult& st : r.stages) {
      EXPECT_TRUE(st.found) << st.name;
      EXPECT_GT(st.cost.makespan_cycles, 0) << st.name;
    }
    // The join starts only after *both* middle stages finish, and the
    // middle stages only after the shared producer.
    const StageResult& scan = r.stages[0];
    const StageResult& filt = r.stages[1];
    const StageResult& shuf = r.stages[2];
    const StageResult& join = r.stages[3];
    EXPECT_EQ(filt.start_cycle, scan.finish_cycle);
    EXPECT_EQ(shuf.start_cycle, scan.finish_cycle);
    EXPECT_EQ(join.start_cycle,
              std::max(filt.finish_cycle, shuf.finish_cycle));
    EXPECT_EQ(r.total.makespan_cycles, join.finish_cycle);
    // Totals really are sums.
    const double sum = scan.cost.total_energy().femtojoules() +
                       filt.cost.total_energy().femtojoules() +
                       shuf.cost.total_energy().femtojoules() +
                       join.cost.total_energy().femtojoules();
    EXPECT_DOUBLE_EQ(r.total.total_energy().femtojoules(), sum);
    if (paired) {
      // The scan has two ready consumers; with >1 candidate each one
      // is probed per candidate.
      EXPECT_GT(r.probe_searches, 0u);
    } else {
      EXPECT_EQ(r.probe_searches, 0u);
    }
  }
}

TEST(Pipeline, JoinStageMixesExternalAndProducerHomes) {
  // combine(a, b) with a fed by a scan and b external on PE (1, 0):
  // the resolved prototype must keep the external home untouched and
  // substitute the producer's committed placement for a.
  const std::int64_t n = 8;
  fm::Pipeline pipe;
  const auto scan = std::make_shared<const FunctionSpec>(
      algos::scan_pass_spec(n));
  const auto comb = std::make_shared<const FunctionSpec>(
      algos::combine_spec(n));
  const std::size_t head = pipe.add_stage(
      {"scan", scan, {StageInput::external(InputHome::dram())}});
  pipe.add_stage({"combine", comb,
                  {StageInput::from(head),
                   StageInput::external(InputHome::at({1, 0}))}});

  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(r.found);

  const Mapping proto =
      stage_input_proto(pipe, 1, opts.strategy, r);
  const auto ins = comb->input_tensors();
  ASSERT_EQ(ins.size(), 2u);
  // a: distributed over the scan winner's placement.
  const InputHome& ha = proto.input_home(ins[0]);
  ASSERT_EQ(ha.kind, InputHome::Kind::kDistributed);
  const AffineMap& winner = r.stages[0].affine;
  for (std::int64_t i = 0; i < n; ++i) {
    const Point p{i};
    EXPECT_EQ(ha.home_of(p), winner.place(p)) << "element " << i;
  }
  // b: the external PE home, untouched.
  const InputHome& hb = proto.input_home(ins[1]);
  ASSERT_EQ(hb.kind, InputHome::Kind::kPe);
  EXPECT_EQ(hb.pe, (noc::Coord{1, 0}));

  // And the committed stage cost is exactly the oracle's price for the
  // winner under that prototype — the handoff really is charged.
  Mapping full = proto;
  const TensorId target = comb->computed_tensors().front();
  const AffineMap& jm = r.stages[1].affine;
  full.set_computed(target, jm.place_fn(), jm.time_fn());
  const CostReport direct = evaluate_cost(*comb, full, machine);
  EXPECT_EQ(r.stages[1].cost.makespan_cycles, direct.makespan_cycles);
  EXPECT_DOUBLE_EQ(r.stages[1].cost.total_energy().femtojoules(),
                   direct.total_energy().femtojoules());
}

TEST(Pipeline, PairedNeverLosesToGreedyOnTheCannedChains) {
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  opts.pair_candidates = 4;
  for (const auto& [name, pipe] :
       {std::pair<const char*, Pipeline>{
            "fft", algos::fft_shuffle_fft_pipeline(16)},
        {"scan", algos::scan_filter_scan_pipeline(16)},
        {"diamond", algos::diamond_pipeline(8)}}) {
    const PipelineResult g = tune_pipeline_greedy(pipe, machine, opts);
    const PipelineResult p = tune_pipeline_paired(pipe, machine, opts);
    ASSERT_TRUE(g.found) << name;
    ASSERT_TRUE(p.found) << name;
    // Probe scoring ties break toward the greedy pick, so paired can
    // only match or improve the chain merit.
    EXPECT_LE(p.merit, g.merit * (1.0 + 1e-9)) << name;
  }
}

TEST(Pipeline, CancelCutsTuningAndReportsIncomplete) {
  const Pipeline pipe = algos::scan_filter_scan_pipeline(16);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  opts.cancel = [] { return true; };  // cut before anything runs
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  EXPECT_FALSE(r.found);
  EXPECT_FALSE(r.completed);
}

TEST(Pipeline, StrategyStagesTuneTheIrregularChain) {
  const Pipeline pipe = algos::irregular_chain_pipeline(24, 3, 0xdadULL);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.strategy = StrategyKind::kAnneal;
  opts.strategy_opts.chains = 2;
  opts.strategy_opts.epochs = 6;
  opts.strategy_opts.iters_per_epoch = 48;
  opts.pair_candidates = 2;
  const PipelineResult g = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(g.found);
  ASSERT_EQ(g.stages.size(), 2u);
  for (const StageResult& st : g.stages) {
    EXPECT_GT(st.table.num_ops(), 0) << st.name;
    EXPECT_TRUE(st.strategy.found) << st.name;
  }
  // The tail stage's prototype resolves the head's per-element table
  // placement.
  const Mapping proto = stage_input_proto(pipe, 1, opts.strategy, g);
  const auto ins = pipe.stage(1).spec->input_tensors();
  const InputHome& h = proto.input_home(ins[0]);
  ASSERT_EQ(h.kind, InputHome::Kind::kDistributed);
  const TableMap& head = g.stages[0].table;
  for (std::int64_t lin = 0; lin < head.num_ops(); ++lin) {
    EXPECT_EQ(h.home_of(head.domain.delinearize(lin)), head.coord_of(lin));
  }

  const PipelineResult p = tune_pipeline_paired(pipe, machine, opts);
  ASSERT_TRUE(p.found);
  EXPECT_GT(p.probe_searches, 0u);
}

std::vector<double> random_tensor(std::int64_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<double> v(static_cast<std::size_t>(n));
  for (double& x : v) x = rng.next_double(-1.0, 1.0);
  return v;
}

/// Executes `tuned` and pins the executor to the tuner: each stage's
/// outputs are the spec's reference evaluation of the inputs the stage
/// was fed, and its ledger is the tuned StageResult::cost (counts
/// exactly; energies up to the GridMachine's schedule-order addition).
void expect_executes_as_tuned(const Pipeline& pipe,
                              const PipelineResult& tuned,
                              StrategyKind strategy,
                              const MachineConfig& machine,
                              const std::vector<std::vector<double>>& ext,
                              const std::string& label) {
  ASSERT_TRUE(tuned.found) << label;
  const std::vector<ExecutionResult> run =
      execute_pipeline(pipe, tuned, strategy, machine, ext);
  ASSERT_EQ(run.size(), pipe.size()) << label;
  std::size_t next_ext = 0;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    const PipelineStage& st = pipe.stage(s);
    const std::string where = label + " stage " + st.name;
    std::vector<std::vector<double>> inputs;
    for (const StageInput& b : st.inputs) {
      inputs.push_back(b.kind == StageInput::Kind::kProducer
                           ? run[b.producer].outputs.front()
                           : ext[next_ext++]);
    }
    EXPECT_EQ(run[s].outputs, st.spec->evaluate_reference(inputs)) << where;

    const CostReport& c = tuned.stages[s].cost;
    EXPECT_EQ(run[s].makespan_cycles, c.makespan_cycles) << where;
    EXPECT_EQ(run[s].messages, c.messages) << where;
    EXPECT_EQ(run[s].bit_hops, c.bit_hops) << where;
    const auto expect_close = [&](Energy got, Energy want, const char* what) {
      EXPECT_NEAR(got.femtojoules(), want.femtojoules(),
                  1e-12 * std::abs(want.femtojoules()))
          << where << " " << what;
    };
    expect_close(run[s].compute_energy, c.compute_energy, "compute");
    expect_close(run[s].onchip_movement_energy, c.onchip_movement_energy,
                 "onchip");
    expect_close(run[s].local_access_energy, c.local_access_energy, "local");
    expect_close(run[s].dram_energy, c.dram_energy, "dram");
    expect_close(run[s].total_energy(), c.total_energy(), "total");
  }
}

TEST(PipelineExecute, AffineChainsRunExactlyAsTuned) {
  // scan -> filter -> scan, the diamond's fan-out and two-producer join,
  // and FFT -> shuffle -> FFT, whose greedy chain hands values across
  // links on a 2x2 mesh.
  const MachineConfig machine = make_machine(2, 2);
  PipelineOptions opts;
  opts.search = small_space();
  std::uint64_t messages = 0;
  for (const auto& [name, pipe, n] :
       {std::tuple<const char*, Pipeline, std::int64_t>{
            "scan-filter-scan", algos::scan_filter_scan_pipeline(16), 16},
        {"diamond", algos::diamond_pipeline(8), 8},
        {"fft-shuffle-fft", algos::fft_shuffle_fft_pipeline(16), 16}}) {
    const std::vector<std::vector<double>> ext{random_tensor(n, 16)};
    for (const bool paired : {false, true}) {
      const PipelineResult r = paired
                                   ? tune_pipeline_paired(pipe, machine, opts)
                                   : tune_pipeline_greedy(pipe, machine, opts);
      expect_executes_as_tuned(pipe, r, opts.strategy, machine, ext,
                               std::string(name) +
                                   (paired ? " paired" : " greedy"));
      messages += r.total.messages;
    }
  }
  // Some chain really moves values between PEs, so the message and
  // bit-hop pins above are not vacuous.
  EXPECT_GT(messages, 0u);
}

TEST(PipelineExecute, AnnealedIrregularChainRunsExactlyAsTuned) {
  const Pipeline pipe = algos::irregular_chain_pipeline(24, 3, 0xdadULL);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.strategy = StrategyKind::kAnneal;
  opts.strategy_opts.chains = 2;
  opts.strategy_opts.epochs = 6;
  opts.strategy_opts.iters_per_epoch = 48;
  opts.pair_candidates = 2;
  const std::int64_t n_in =
      pipe.stage(0).spec->domain(pipe.stage(0).spec->input_tensors()[0])
          .size();
  const std::vector<std::vector<double>> ext{random_tensor(n_in, 24)};
  const PipelineResult g = tune_pipeline_greedy(pipe, machine, opts);
  expect_executes_as_tuned(pipe, g, opts.strategy, machine, ext, "greedy");
  const PipelineResult p = tune_pipeline_paired(pipe, machine, opts);
  expect_executes_as_tuned(pipe, p, opts.strategy, machine, ext, "paired");
}

TEST(PipelineExecute, IllegalCommittedStageThrowsWithItsFirstDiagnostic) {
  const Pipeline pipe = algos::scan_filter_scan_pipeline(16);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(r.found);
  // Every filter element at cycle 0: PEs collide and producer values
  // cannot have arrived.
  AffineMap& bad = r.stages[1].affine;
  bad.ti = bad.tj = bad.tk = bad.t0 = 0;

  // The legacy FunctionSpec oracle names the first violation.
  const FunctionSpec& spec = *pipe.stage(1).spec;
  Mapping full = stage_input_proto(pipe, 1, opts.strategy, r);
  full.set_computed(spec.computed_tensors().front(), bad.place_fn(),
                    bad.time_fn());
  const LegalityReport legacy = verify(spec, full, machine);
  ASSERT_FALSE(legacy.ok);
  ASSERT_FALSE(legacy.first_message().empty());
  try {
    (void)execute_pipeline(pipe, r, opts.strategy, machine,
                           {random_tensor(16, 1)});
    FAIL() << "an illegal stage must not run";
  } catch (const SimulationError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("filter"), std::string::npos) << what;
    EXPECT_NE(what.find(legacy.first_message()), std::string::npos) << what;
  }
}

TEST(PipelineExecute, RejectsMissingWinnersAndBadExternalInputs) {
  const Pipeline pipe = algos::scan_filter_scan_pipeline(16);
  const MachineConfig machine = make_machine(4, 1);
  PipelineOptions opts;
  opts.search = small_space();
  const PipelineResult r = tune_pipeline_greedy(pipe, machine, opts);
  ASSERT_TRUE(r.found);
  const StrategyKind k = opts.strategy;
  const std::vector<double> x = random_tensor(16, 2);

  PipelineResult unwon = r;
  unwon.stages[2].found = false;
  EXPECT_THROW((void)execute_pipeline(pipe, unwon, k, machine, {x}),
               InvalidArgument);
  PipelineResult truncated = r;
  truncated.stages.pop_back();
  EXPECT_THROW((void)execute_pipeline(pipe, truncated, k, machine, {x}),
               InvalidArgument);
  // Missing, extra, and wrongly sized external tensors.
  EXPECT_THROW((void)execute_pipeline(pipe, r, k, machine, {}),
               InvalidArgument);
  EXPECT_THROW((void)execute_pipeline(pipe, r, k, machine, {x, x}),
               InvalidArgument);
  EXPECT_THROW((void)execute_pipeline(pipe, r, k, machine,
                                      {random_tensor(15, 2)}),
               InvalidArgument);
  // The well-formed call runs.
  EXPECT_EQ(execute_pipeline(pipe, r, k, machine, {x}).size(), 3u);
}

}  // namespace
}  // namespace harmony::fm
