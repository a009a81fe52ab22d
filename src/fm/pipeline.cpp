#include "fm/pipeline.hpp"

#include <algorithm>
#include <limits>
#include <memory>
#include <utility>

#include "support/error.hpp"

namespace harmony::fm {

std::size_t Pipeline::add_stage(PipelineStage s) {
  HARMONY_REQUIRE(s.spec != nullptr, "Pipeline::add_stage: null spec");
  HARMONY_REQUIRE(s.spec->computed_tensors().size() == 1,
                  "Pipeline::add_stage: stage specs must have exactly one "
                  "computed tensor (the searchers' contract)");
  const std::vector<TensorId> ins = s.spec->input_tensors();
  HARMONY_REQUIRE(s.inputs.size() == ins.size(),
                  "Pipeline::add_stage: one binding per input tensor, in "
                  "input_tensors() order");
  for (std::size_t o = 0; o < s.inputs.size(); ++o) {
    const StageInput& b = s.inputs[o];
    if (b.kind != StageInput::Kind::kProducer) continue;
    HARMONY_REQUIRE(b.producer < stages_.size(),
                    "Pipeline::add_stage: producer must reference an "
                    "earlier stage (stage order is the topological order)");
    const PipelineStage& prod = stages_[b.producer];
    const TensorId target = prod.spec->computed_tensors().front();
    HARMONY_REQUIRE(
        prod.spec->domain(target) == s.spec->domain(ins[o]),
        "Pipeline::add_stage: producer target domain must match the "
        "consumer input tensor's domain");
  }
  stages_.push_back(std::move(s));
  return stages_.size() - 1;
}

std::vector<Pipeline::Consumer> Pipeline::consumers_of(std::size_t p) const {
  std::vector<Consumer> out;
  for (std::size_t s = p + 1; s < stages_.size(); ++s) {
    const std::vector<StageInput>& ins = stages_[s].inputs;
    for (std::size_t o = 0; o < ins.size(); ++o) {
      if (ins[o].kind == StageInput::Kind::kProducer && ins[o].producer == p) {
        out.push_back(Consumer{s, o});
      }
    }
  }
  return out;
}

namespace {

/// A probed consumer with no legal mapping under some candidate layout is
/// worse than any finite merit but must stay comparable (all-illegal
/// candidate sets still pick by own merit through the tie-break).
constexpr double kIllegalPenalty = 1e300;

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Order-sensitive accumulator for home fingerprints (same construction
/// as serve's cache-key Fingerprint, but local: fm cannot see serve).
struct HomeFp {
  std::uint64_t h = 0x9127bd3a5c6e41f7ULL;
  void mix(std::uint64_t v) { h = splitmix64(h ^ v); }
  void mix_i64(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
};

InputHome home_from_affine(const AffineMap& am) {
  return InputHome::distributed(
      [am](const Point& p) { return am.place(p); });
}

InputHome home_from_table(const TableMap& winner) {
  // The closure outlives the tuner's scratch, so it owns a snapshot.
  const auto tm = std::make_shared<const TableMap>(winner);
  return InputHome::distributed([tm](const Point& p) {
    return tm->coord_of(tm->domain.linearize(p));
  });
}

void mix_affine_home(HomeFp& fp, const AffineMap& am) {
  fp.mix_i64(am.ti);
  fp.mix_i64(am.tj);
  fp.mix_i64(am.tk);
  fp.mix_i64(am.t0);
  fp.mix_i64(am.xi);
  fp.mix_i64(am.xj);
  fp.mix_i64(am.xk);
  fp.mix_i64(am.x0);
  fp.mix_i64(am.yi);
  fp.mix_i64(am.yj);
  fp.mix_i64(am.yk);
  fp.mix_i64(am.y0);
  fp.mix_i64(am.cols);
  fp.mix_i64(am.rows);
}

void mix_table_home(HomeFp& fp, const TableMap& tm) {
  // Only placement shapes the consumer's input homes; cycles do not.
  fp.mix_i64(tm.cols);
  fp.mix(tm.pe.size());
  for (const std::int32_t q : tm.pe) fp.mix_i64(q);
}

/// One stage mapping the tuners weigh: the affine or table winner (per
/// PipelineOptions::strategy) plus its scored cost.  `src` indexes the
/// StrategyResult it came from (anneal/beam restarts).
struct StageCandidate {
  AffineMap affine;
  TableMap table;
  CostReport cost;
  double merit = 0.0;
  std::size_t src = 0;
};

/// The resolved input-home prototype of stage `s`, with producer
/// bindings taking their committed winners — except `override_stage`,
/// which (when `override_cand` is non-null) takes the candidate instead;
/// that is how the co-tuner probes a consumer under a hypothetical
/// producer layout.  Also accumulates the home fingerprint.
Mapping build_proto(const Pipeline& pipe, std::size_t s,
                    StrategyKind strategy,
                    const std::vector<StageResult>& committed,
                    std::size_t override_stage,
                    const StageCandidate* override_cand,
                    std::uint64_t* fp_out) {
  HomeFp fp;
  Mapping proto;
  const PipelineStage& st = pipe.stage(s);
  const std::vector<TensorId> ins = st.spec->input_tensors();
  for (std::size_t o = 0; o < ins.size(); ++o) {
    const StageInput& b = st.inputs[o];
    InputHome h;
    if (b.kind == StageInput::Kind::kExternal) {
      h = b.home;
      switch (b.home.kind) {
        case InputHome::Kind::kDram:
          fp.mix(1);
          break;
        case InputHome::Kind::kPe:
          fp.mix(2);
          fp.mix_i64(b.home.pe.x);
          fp.mix_i64(b.home.pe.y);
          break;
        case InputHome::Kind::kDistributed:
          // Opaque closure — structurally identified by its ordinal.
          // The serving layer's pipeline cache key covers the externals,
          // so two *different* pipelines never share a fingerprint.
          fp.mix(3);
          fp.mix(o);
          break;
      }
      proto.set_input(ins[o], std::move(h));
      continue;
    }
    const bool ov = override_cand != nullptr && b.producer == override_stage;
    fp.mix(strategy == StrategyKind::kExhaustive ? 4 : 5);
    fp.mix(b.producer);
    if (strategy == StrategyKind::kExhaustive) {
      const AffineMap& am =
          ov ? override_cand->affine : committed[b.producer].affine;
      mix_affine_home(fp, am);
      proto.set_input(ins[o], home_from_affine(am));
    } else {
      const TableMap& tm =
          ov ? override_cand->table : committed[b.producer].table;
      mix_table_home(fp, tm);
      proto.set_input(ins[o], home_from_table(tm));
    }
  }
  if (fp_out != nullptr) *fp_out = fp.h;
  return proto;
}

/// One stage search: search_affine over the template SearchOptions, or
/// `want_cands` seed-shifted search_table restarts.  Candidates come
/// back best-first.
struct StageRun {
  bool found = false;
  bool complete = true;  ///< searcher ran its full budget (not cut)
  std::vector<StageCandidate> cands;
  SearchResult search;                     ///< kExhaustive
  std::vector<StrategyResult> strategies;  ///< kAnneal / kBeam, per restart
};

StageRun run_stage(const Pipeline& pipe, const MachineConfig& machine,
                   const PipelineOptions& opts, std::size_t s,
                   const Mapping& proto, std::uint64_t fp,
                   std::size_t want_cands) {
  StageRun out;
  std::shared_ptr<const CompiledSpec> compiled;
  if (opts.compile) compiled = opts.compile(s, proto, fp);
  const PipelineStage& st = pipe.stage(s);
  if (opts.strategy == StrategyKind::kExhaustive) {
    SearchOptions so = opts.search;
    so.fom = opts.fom;
    so.cancel = opts.cancel;
    so.scheduler = opts.scheduler;
    so.num_workers = opts.num_workers;
    so.compiled = std::move(compiled);
    if (want_cands > 1) so.top_k = std::max(so.top_k, want_cands);
    out.search = search_affine(*st.spec, machine, proto, so);
    out.found = out.search.found;
    out.complete = out.search.exhausted;
    if (out.found && out.search.top.empty()) {
      // top_k == 0 template: best is still tracked.
      out.cands.push_back(StageCandidate{out.search.best.map, TableMap{},
                                         out.search.best.cost,
                                         out.search.best.merit, 0});
    }
    const std::size_t n = std::min(want_cands, out.search.top.size());
    for (std::size_t i = 0; i < n; ++i) {
      const Candidate& c = out.search.top[i];
      out.cands.push_back(StageCandidate{c.map, TableMap{}, c.cost, c.merit,
                                         0});
    }
    return out;
  }
  for (std::size_t i = 0; i < want_cands; ++i) {
    StrategyOptions sto = opts.strategy_opts;
    sto.fom = opts.fom;
    sto.cancel = opts.cancel;
    sto.scheduler = opts.scheduler;
    sto.num_workers = opts.num_workers;
    sto.compiled = compiled;
    sto.seed = opts.strategy_opts.seed + i;  // independent restarts
    StrategyResult r =
        search_table(*st.spec, machine, proto, opts.strategy, sto);
    if (!r.completed) out.complete = false;
    if (r.found) {
      out.cands.push_back(StageCandidate{AffineMap{}, r.best, r.cost,
                                         r.merit, out.strategies.size()});
    }
    out.strategies.push_back(std::move(r));
    if (opts.cancel && opts.cancel()) {
      out.complete = false;
      break;
    }
  }
  std::stable_sort(out.cands.begin(), out.cands.end(),
                   [](const StageCandidate& a, const StageCandidate& b) {
                     return a.merit < b.merit;
                   });
  out.found = !out.cands.empty();
  return out;
}

PipelineResult tune_impl(const Pipeline& pipe, const MachineConfig& machine,
                         const PipelineOptions& opts, bool paired) {
  HARMONY_REQUIRE(!pipe.empty(), "tune_pipeline: empty pipeline");
  PipelineResult out;
  out.stages.resize(pipe.size());
  const auto cancelled = [&] { return opts.cancel && opts.cancel(); };

  for (std::size_t s = 0; s < pipe.size(); ++s) {
    StageResult& sr = out.stages[s];
    sr.name = pipe.stage(s).name;
    if (cancelled()) {
      out.completed = false;
      break;
    }
    // A stage whose producer found no legal mapping has no input homes
    // to compile against; it stays un-tuned (found == false).
    bool producers_ok = true;
    for (const StageInput& b : pipe.stage(s).inputs) {
      if (b.kind == StageInput::Kind::kProducer &&
          !out.stages[b.producer].found) {
        producers_ok = false;
      }
    }
    if (!producers_ok) continue;

    const std::size_t want =
        paired ? std::max<std::size_t>(opts.pair_candidates, 1) : 1;
    std::uint64_t fp = 0;
    const Mapping proto = build_proto(pipe, s, opts.strategy, out.stages,
                                      pipe.size(), nullptr, &fp);
    StageRun run = run_stage(pipe, machine, opts, s, proto, fp, want);
    if (!run.complete) out.completed = false;
    sr.home_fingerprint = fp;
    sr.search = run.search;
    if (!run.found) continue;

    std::size_t pick = 0;
    if (paired && run.cands.size() > 1) {
      // Immediate consumers whose *other* producers are already
      // committed — those are the adjacent pairs this stage can be
      // co-optimized with right now.  (Deduped: a consumer reading this
      // stage at several ordinals is probed once.)
      std::vector<std::size_t> consumers;
      for (const Pipeline::Consumer& c : pipe.consumers_of(s)) {
        if (!consumers.empty() && consumers.back() == c.stage) continue;
        bool ready = true;
        for (const StageInput& b : pipe.stage(c.stage).inputs) {
          if (b.kind == StageInput::Kind::kProducer && b.producer != s &&
              !out.stages[b.producer].found) {
            ready = false;
          }
        }
        if (ready) consumers.push_back(c.stage);
      }
      if (!consumers.empty()) {
        double best_score = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i < run.cands.size(); ++i) {
          if (cancelled()) {
            out.completed = false;
            break;
          }
          double score = run.cands[i].merit;
          for (const std::size_t t : consumers) {
            std::uint64_t pfp = 0;
            const Mapping pproto =
                build_proto(pipe, t, opts.strategy, out.stages, s,
                            &run.cands[i], &pfp);
            const StageRun probe =
                run_stage(pipe, machine, opts, t, pproto, pfp, 1);
            ++out.probe_searches;
            if (!probe.complete) out.completed = false;
            score += probe.found ? probe.cands.front().merit
                                 : kIllegalPenalty;
          }
          // Strict < keeps the earlier (better own-merit) candidate on
          // ties, so a consumer-indifferent probe degenerates to greedy.
          if (score < best_score) {
            best_score = score;
            pick = i;
          }
        }
      }
    }
    const StageCandidate& c = run.cands[pick];
    sr.found = true;
    sr.affine = c.affine;
    sr.table = c.table;
    sr.cost = c.cost;
    sr.merit = c.merit;
    if (opts.strategy != StrategyKind::kExhaustive) {
      sr.strategy = run.strategies[c.src];
    }
  }

  out.found = std::all_of(out.stages.begin(), out.stages.end(),
                          [](const StageResult& r) { return r.found; });
  if (!out.found) return out;
  CostReport& total = out.total;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    StageResult& sr = out.stages[s];
    Cycle start = 0;
    for (const StageInput& b : pipe.stage(s).inputs) {
      if (b.kind == StageInput::Kind::kProducer) {
        start = std::max(start, out.stages[b.producer].finish_cycle);
      }
    }
    sr.start_cycle = start;
    sr.finish_cycle = start + sr.cost.makespan_cycles;
    total.makespan_cycles = std::max(total.makespan_cycles, sr.finish_cycle);
    total.compute_energy = total.compute_energy + sr.cost.compute_energy;
    total.onchip_movement_energy =
        total.onchip_movement_energy + sr.cost.onchip_movement_energy;
    total.local_access_energy =
        total.local_access_energy + sr.cost.local_access_energy;
    total.dram_energy = total.dram_energy + sr.cost.dram_energy;
    total.messages += sr.cost.messages;
    total.bit_hops += sr.cost.bit_hops;
    total.total_ops += sr.cost.total_ops;
  }
  total.makespan =
      machine.cycle * static_cast<double>(total.makespan_cycles);
  out.merit = merit_value(total, opts.fom);
  return out;
}

}  // namespace

PipelineResult tune_pipeline_greedy(const Pipeline& pipe,
                                    const MachineConfig& machine,
                                    const PipelineOptions& opts) {
  return tune_impl(pipe, machine, opts, /*paired=*/false);
}

PipelineResult tune_pipeline_paired(const Pipeline& pipe,
                                    const MachineConfig& machine,
                                    const PipelineOptions& opts) {
  return tune_impl(pipe, machine, opts, /*paired=*/true);
}

Mapping stage_input_proto(const Pipeline& pipe, std::size_t s,
                          StrategyKind strategy,
                          const PipelineResult& result) {
  HARMONY_REQUIRE(s < pipe.size(), "stage_input_proto: stage out of range");
  HARMONY_REQUIRE(result.stages.size() == pipe.size(),
                  "stage_input_proto: result does not match the pipeline");
  for (const StageInput& b : pipe.stage(s).inputs) {
    HARMONY_REQUIRE(b.kind != StageInput::Kind::kProducer ||
                        result.stages[b.producer].found,
                    "stage_input_proto: producer stage has no committed "
                    "mapping");
  }
  return build_proto(pipe, s, strategy, result.stages, pipe.size(), nullptr,
                     nullptr);
}

std::vector<ExecutionResult> execute_pipeline(
    const Pipeline& pipe, const PipelineResult& tuned, StrategyKind strategy,
    const MachineConfig& machine,
    const std::vector<std::vector<double>>& external_inputs) {
  std::size_t externals = 0;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    for (const StageInput& b : pipe.stage(s).inputs) {
      if (b.kind == StageInput::Kind::kExternal) ++externals;
    }
  }
  HARMONY_REQUIRE(external_inputs.size() == externals,
                  "execute_pipeline: need one external input per external "
                  "binding");

  const GridMachine gm(machine);
  std::vector<ExecutionResult> out;
  std::size_t next_external = 0;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    // The homes the tuner priced; also checks that `tuned` fits `pipe`.
    const Mapping proto = stage_input_proto(pipe, s, strategy, tuned);
    const PipelineStage& st = pipe.stage(s);
    const StageResult& sr = tuned.stages[s];
    const FunctionSpec& spec = *st.spec;
    const TensorId target = spec.computed_tensors().front();
    HARMONY_REQUIRE(sr.found, "execute_pipeline: stage " + st.name +
                                  " has no committed mapping");
    HARMONY_REQUIRE(spec.is_output(target),
                    "execute_pipeline: stage " + st.name +
                        " does not mark its target as an output");

    // Inputs in input_tensors() order: producer outputs as executed,
    // external tensors as supplied.
    const std::vector<TensorId> ins = spec.input_tensors();
    std::vector<std::vector<double>> inputs;
    for (std::size_t o = 0; o < ins.size(); ++o) {
      const StageInput& b = st.inputs[o];
      if (b.kind == StageInput::Kind::kProducer) {
        inputs.push_back(out[b.producer].outputs.front());
        continue;
      }
      inputs.push_back(external_inputs[next_external++]);
      HARMONY_REQUIRE(
          static_cast<std::int64_t>(inputs.back().size()) ==
              spec.domain(ins[o]).size(),
          "execute_pipeline: external input " + spec.name(ins[o]) +
              " of stage " + st.name + " has the wrong size");
    }

    // Verify the mapping the machine runs before running it.
    const bool affine = strategy == StrategyKind::kExhaustive;
    Mapping mapping = affine ? proto : to_mapping(spec, sr.table);
    if (affine) {
      mapping.set_computed(target, sr.affine.place_fn(), sr.affine.time_fn());
    }
    const LegalityReport legality = verify(spec, mapping, machine);
    if (!legality.ok) {
      throw SimulationError("execute_pipeline: stage " + st.name +
                            " has an illegal mapping: " +
                            legality.first_message());
    }
    out.push_back(gm.run(spec, mapping, inputs));
  }
  return out;
}

}  // namespace harmony::fm
