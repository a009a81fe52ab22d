#include "serve/request.hpp"

#include <algorithm>
#include <bit>

namespace harmony::serve {

const char* to_string(RequestKind kind) {
  switch (kind) {
    case RequestKind::kCostEval: return "cost_eval";
    case RequestKind::kLegality: return "legality";
    case RequestKind::kTune: return "tune";
    case RequestKind::kPipelineTune: return "pipeline_tune";
  }
  return "?";
}

namespace {

/// Two SplitMix64-finalized accumulators fed in lockstep with different
/// injection functions; order-sensitive, so field order is part of the
/// canonical form (never reorder mixes without bumping kKeySchema).
class Fingerprint {
 public:
  void mix(std::uint64_t v) {
    a_ = finalize(a_ ^ v);
    b_ = finalize(b_ + v + 0x9e3779b97f4a7c15ULL);
  }
  void mix(std::int64_t v) { mix(static_cast<std::uint64_t>(v)); }
  void mix(int v) { mix(static_cast<std::uint64_t>(static_cast<std::int64_t>(v))); }
  void mix(bool v) { mix(static_cast<std::uint64_t>(v ? 1 : 2)); }
  void mix(double v) { mix(std::bit_cast<std::uint64_t>(v)); }
  void mix(const std::string& s) {
    mix(static_cast<std::uint64_t>(s.size()));
    std::uint64_t word = 0;
    int n = 0;
    for (unsigned char ch : s) {
      word = (word << 8) | ch;
      if (++n == 8) {
        mix(word);
        word = 0;
        n = 0;
      }
    }
    if (n) mix(word);
  }

  [[nodiscard]] CacheKey key() const { return CacheKey{a_, b_}; }

 private:
  static std::uint64_t finalize(std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  std::uint64_t a_ = 0x243f6a8885a308d3ULL;  // pi, nothing up the sleeve
  std::uint64_t b_ = 0x13198a2e03707344ULL;
};

// Bump when the mix order or field set below changes, so stale
// serialized keys (if anyone persists them) can never alias.
constexpr std::uint64_t kKeySchema = 2;

void mix_point(Fingerprint& fp, const fm::Point& p) {
  fp.mix(p.i);
  fp.mix(p.j);
  fp.mix(p.k);
}

/// Deterministic sample of `n` points: the same stride walk the
/// autotuner's causality pre-check uses, plus the last point.
std::vector<fm::Point> sample_points(const fm::IndexDomain& dom,
                                     std::size_t n) {
  std::vector<fm::Point> pts;
  const std::int64_t size = dom.size();
  const std::int64_t stride = std::max<std::int64_t>(
      1, size / static_cast<std::int64_t>(std::max<std::size_t>(1, n)));
  for (std::int64_t lin = 0; lin < size; lin += stride) {
    pts.push_back(dom.delinearize(lin));
  }
  pts.push_back(dom.delinearize(size - 1));
  return pts;
}

void mix_spec_fp(Fingerprint& fp, const CacheKey& spec_fp) {
  fp.mix(spec_fp.hi);
  fp.mix(spec_fp.lo);
}

void mix_machine(Fingerprint& fp, const fm::MachineConfig& m) {
  fp.mix(m.geom.cols());
  fp.mix(m.geom.rows());
  fp.mix(m.geom.pitch().millimetres());
  fp.mix(static_cast<std::uint64_t>(m.geom.topology()));
  const noc::TechnologyModel& t = m.geom.tech();
  fp.mix(t.add_energy_per_bit_fj);
  fp.mix(t.add_delay.picoseconds());
  fp.mix(t.wire_energy_per_bit_mm_fj);
  fp.mix(t.wire_delay_per_mm.picoseconds());
  fp.mix(t.sram_cell_energy_per_bit_fj);
  fp.mix(t.sram_cell_delay.picoseconds());
  fp.mix(t.offchip_multiplier);
  fp.mix(t.offchip_latency.picoseconds());
  fp.mix(t.instruction_overhead_factor);
  fp.mix(t.die.mm2());
  fp.mix(m.cycle.picoseconds());
  fp.mix(m.pe_capacity_values);
  fp.mix(m.link_bits_per_cycle);
  fp.mix(m.local_access_pitch_fraction);
}

/// What fm::compile_spec consumes — spec, machine, input homes — and so
/// the common prefix of a single-spec request's result and compile keys.
void mix_compile_inputs(Fingerprint& fp, const Request& req,
                        const CacheKey& spec_fp) {
  mix_spec_fp(fp, spec_fp);
  mix_machine(fp, req.machine);
  fp.mix(static_cast<std::uint64_t>(req.inputs.size()));
  for (const InputPlacement& in : req.inputs) {
    fp.mix(static_cast<std::uint64_t>(in.kind));
    fp.mix(in.pe.x);
    fp.mix(in.pe.y);
  }
}

void mix_affine(Fingerprint& fp, const fm::AffineMap& a) {
  fp.mix(a.ti); fp.mix(a.tj); fp.mix(a.tk); fp.mix(a.t0);
  fp.mix(a.xi); fp.mix(a.xj); fp.mix(a.xk); fp.mix(a.x0);
  fp.mix(a.yi); fp.mix(a.yj); fp.mix(a.yk); fp.mix(a.y0);
  fp.mix(a.cols); fp.mix(a.rows);
}

void mix_verify(Fingerprint& fp, const fm::VerifyOptions& v) {
  fp.mix(v.check_storage);
  fp.mix(v.check_bandwidth);
}

void mix_search(Fingerprint& fp, const fm::SearchOptions& s) {
  // Everything that shapes the candidate set and ranking; cancel and
  // resume_from deliberately excluded (they shape *coverage of one call*,
  // not the converged answer, and only exhausted results are cached).
  // The parallel-backend knobs (scheduler, num_workers, grain) and
  // Request::tune_workers are excluded for the same reason: the lane
  // merge is deterministic, so worker count never changes the answer.
  fp.mix(static_cast<std::uint64_t>(s.space.time_coeffs.size()));
  for (std::int64_t c : s.space.time_coeffs) fp.mix(c);
  fp.mix(static_cast<std::uint64_t>(s.space.space_coeffs.size()));
  for (std::int64_t c : s.space.space_coeffs) fp.mix(c);
  fp.mix(s.space.search_y);
  fp.mix(static_cast<std::uint64_t>(s.fom));
  mix_verify(fp, s.verify);
  fp.mix(static_cast<std::uint64_t>(s.quick_sample));
  fp.mix(s.makespan_slack);
  fp.mix(static_cast<std::uint64_t>(s.top_k));
  fp.mix(s.keep_all_legal);
}

void mix_strategy(Fingerprint& fp, const fm::StrategyOptions& s) {
  // Same exclusion policy as mix_search: everything that shapes the
  // converged answer (seeds, budgets, cooling schedule) is keyed;
  // cancel / scheduler / num_workers / compiled are service-owned
  // execution detail that cannot change the deterministic result.
  fp.mix(static_cast<std::uint64_t>(s.fom));
  mix_verify(fp, s.verify);
  fp.mix(s.seed);
  fp.mix(static_cast<std::uint64_t>(s.chains));
  fp.mix(static_cast<std::uint64_t>(s.iters_per_epoch));
  fp.mix(static_cast<std::uint64_t>(s.epochs));
  fp.mix(s.t0_fraction);
  fp.mix(s.cooling);
  fp.mix(static_cast<std::uint64_t>(s.stall_epochs));
  fp.mix(static_cast<std::uint64_t>(s.max_reheats));
  fp.mix(s.makespan_slack);
  fp.mix(static_cast<std::uint64_t>(s.beam_width));
  fp.mix(static_cast<std::uint64_t>(s.beam_moves));
}

/// Stage bindings are structural: producer edges by index, external
/// homes by (kind, pe).  Callers must have screened out distributed
/// externals (cacheable() does) — a closure has no canonical form.
void mix_pipeline(Fingerprint& fp, const fm::Pipeline& pipe,
                  std::size_t samples) {
  fp.mix(static_cast<std::uint64_t>(pipe.size()));
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    const fm::PipelineStage& st = pipe.stage(s);
    fp.mix(st.name);
    mix_spec_fp(fp, spec_fingerprint(*st.spec, samples));
    fp.mix(static_cast<std::uint64_t>(st.inputs.size()));
    for (const fm::StageInput& b : st.inputs) {
      fp.mix(static_cast<std::uint64_t>(b.kind));
      if (b.kind == fm::StageInput::Kind::kProducer) {
        fp.mix(static_cast<std::uint64_t>(b.producer));
      } else {
        fp.mix(static_cast<std::uint64_t>(b.home.kind));
        fp.mix(b.home.pe.x);
        fp.mix(b.home.pe.y);
      }
    }
  }
}

}  // namespace

bool cacheable(const Request& req) {
  if (req.kind == RequestKind::kPipelineTune) {
    if (req.pipeline == nullptr) return false;
    for (std::size_t s = 0; s < req.pipeline->size(); ++s) {
      for (const fm::StageInput& b : req.pipeline->stage(s).inputs) {
        if (b.kind == fm::StageInput::Kind::kExternal &&
            b.home.kind == fm::InputHome::Kind::kDistributed) {
          return false;  // closure homes have no canonical fingerprint
        }
      }
    }
    return true;
  }
  return req.spec != nullptr;
}

CacheKey spec_fingerprint(const fm::FunctionSpec& spec,
                          std::size_t sample_points_n) {
  Fingerprint fp;
  fp.mix(static_cast<std::uint64_t>(spec.num_tensors()));
  for (fm::TensorId t = 0; t < spec.num_tensors(); ++t) {
    fp.mix(spec.name(t));
    const fm::IndexDomain& dom = spec.domain(t);
    fp.mix(dom.rank());
    for (int d = 0; d < 3; ++d) fp.mix(dom.extent(d));
    fp.mix(spec.is_input(t));
    fp.mix(spec.is_output(t));
    fp.mix(static_cast<std::uint64_t>(spec.bits(t)));
    fp.mix(spec.cost(t).ops);
    fp.mix(static_cast<std::uint64_t>(spec.cost(t).bits));
    if (spec.is_input(t)) continue;
    // Sampled dependence edges: the dep function is a black box, so the
    // relation itself is what gets fingerprinted.
    for (const fm::Point& p : sample_points(dom, sample_points_n)) {
      mix_point(fp, p);
      const auto deps = spec.deps(t, p);
      fp.mix(static_cast<std::uint64_t>(deps.size()));
      for (const fm::ValueRef& d : deps) {
        fp.mix(static_cast<std::uint64_t>(d.tensor));
        mix_point(fp, d.point);
      }
    }
  }
  return fp.key();
}

CacheKey make_cache_key(const Request& req, std::size_t sample_points_n) {
  if (req.kind != RequestKind::kPipelineTune) {
    HARMONY_REQUIRE(req.spec != nullptr, "make_cache_key: null spec");
    return make_cache_key(req, spec_fingerprint(*req.spec, sample_points_n));
  }
  HARMONY_REQUIRE(req.pipeline != nullptr, "make_cache_key: null pipeline");
  Fingerprint fp;
  fp.mix(kKeySchema);
  fp.mix(static_cast<std::uint64_t>(req.kind));
  mix_pipeline(fp, *req.pipeline, sample_points_n);
  mix_machine(fp, req.machine);
  fp.mix(static_cast<std::uint64_t>(req.fom));
  fp.mix(req.pipeline_paired);
  fp.mix(static_cast<std::uint64_t>(req.pipeline_pair_candidates));
  fp.mix(static_cast<std::uint64_t>(req.strategy));
  if (req.strategy == fm::StrategyKind::kExhaustive) {
    mix_search(fp, req.search);
  } else {
    mix_strategy(fp, req.strategy_opts);
  }
  return fp.key();
}

CacheKey make_cache_key(const Request& req, const CacheKey& spec_fp) {
  HARMONY_REQUIRE(req.kind != RequestKind::kPipelineTune,
                  "make_cache_key: a pipeline has no single spec fingerprint");
  Fingerprint fp;
  fp.mix(kKeySchema);
  fp.mix(static_cast<std::uint64_t>(req.kind));
  mix_compile_inputs(fp, req, spec_fp);
  fp.mix(static_cast<std::uint64_t>(req.fom));
  switch (req.kind) {
    case RequestKind::kCostEval:
      mix_affine(fp, req.map);
      break;
    case RequestKind::kLegality:
      mix_affine(fp, req.map);
      mix_verify(fp, req.verify);
      break;
    case RequestKind::kTune:
      fp.mix(static_cast<std::uint64_t>(req.strategy));
      if (req.strategy == fm::StrategyKind::kExhaustive) {
        mix_search(fp, req.search);
      } else {
        mix_strategy(fp, req.strategy_opts);
      }
      break;
    case RequestKind::kPipelineTune:
      break;  // rejected above
  }
  return fp.key();
}

CacheKey make_compile_key(const Request& req, std::size_t sample_points_n) {
  HARMONY_REQUIRE(req.spec != nullptr, "make_compile_key: null spec");
  return make_compile_key(req, spec_fingerprint(*req.spec, sample_points_n));
}

CacheKey make_compile_key(const Request& req, const CacheKey& spec_fp) {
  Fingerprint fp;
  fp.mix(kKeySchema);
  // Domain-separation tag: result keys mix RequestKind (0..2) here, so a
  // compile key can never collide with any result key.
  fp.mix(std::uint64_t{0xc04111edULL});
  mix_compile_inputs(fp, req, spec_fp);
  return fp.key();
}

CacheKey make_stage_compile_key(const Request& req, std::size_t stage,
                                std::uint64_t home_fingerprint,
                                std::size_t sample_points_n) {
  HARMONY_REQUIRE(req.pipeline != nullptr && stage < req.pipeline->size(),
                  "make_stage_compile_key: bad pipeline stage");
  Fingerprint fp;
  fp.mix(kKeySchema);
  // Domain-separation tag, distinct from make_compile_key's.
  fp.mix(std::uint64_t{0x51a6e5edULL});
  mix_spec_fp(fp, spec_fingerprint(*req.pipeline->stage(stage).spec,
                                   sample_points_n));
  mix_machine(fp, req.machine);
  // The resolved input homes, compressed by the tuner: externals
  // structurally, producer winners by their committed coefficients /
  // placement tables (fm/pipeline.cpp).
  fp.mix(home_fingerprint);
  return fp.key();
}

}  // namespace harmony::serve
