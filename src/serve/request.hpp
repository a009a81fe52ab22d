// harmony::serve request/response vocabulary and canonical cache keys.
//
// Dally's §3 framing makes (function, mapping) cost a *pure* query: the
// analytic evaluator prices a pair without executing it, and the answer
// depends only on the spec, the mapping, the machine, and the figure of
// merit.  Pure queries are memoizable, so the serving layer fronts the
// expensive oracles (fm/cost.hpp, fm/legality.hpp, fm/search.hpp) with a
// typed request/response interface plus a 128-bit canonical cache key.
//
// The key is a *fingerprint*, not a proof of semantic equality: spec
// structure (domains, bit widths, op costs) is hashed exactly, and the
// dependence relation — a black-box std::function — is hashed by
// enumerating deps at a deterministic sample of domain points (the same
// trick the autotuner's causality pre-check uses).  Two specs that agree
// on every sampled edge but differ elsewhere would collide; callers that
// synthesize adversarial spec families can raise `sample_points` up to
// the domain size for an exact edge hash.  That spec part is computed
// by spec_fingerprint() and mixed into every key as two words, so a
// caller that fingerprints a spec once can key any number of requests
// on it without re-sampling the dependence function.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "fm/cost.hpp"
#include "fm/legality.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/pipeline.hpp"
#include "fm/search.hpp"
#include "fm/spec.hpp"
#include "fm/strategy/strategy.hpp"
#include "noc/mesh.hpp"

namespace harmony::serve {

enum class RequestKind : std::uint8_t {
  kCostEval,      ///< price one (spec, AffineMap) pair: fm::evaluate_cost
  kLegality,      ///< check one (spec, AffineMap) pair: fm::verify
  kTune,          ///< autotune the mapping: fm::search_affine
  kPipelineTune,  ///< tune a multi-kernel DAG: fm::tune_pipeline_*
};

[[nodiscard]] const char* to_string(RequestKind kind);

/// Hashable subset of fm::InputHome (kDistributed carries an arbitrary
/// closure and cannot be fingerprinted, so the service does not accept it).
struct InputPlacement {
  enum class Kind : std::uint8_t { kDram, kPe } kind = Kind::kDram;
  noc::Coord pe{};

  [[nodiscard]] static InputPlacement dram() { return {}; }
  [[nodiscard]] static InputPlacement at(noc::Coord c) {
    return InputPlacement{Kind::kPe, c};
  }
  [[nodiscard]] fm::InputHome to_home() const {
    return kind == Kind::kDram ? fm::InputHome::dram()
                               : fm::InputHome::at(pe);
  }
};

struct Request {
  RequestKind kind = RequestKind::kCostEval;
  /// The function under query; shared so in-flight work keeps it alive
  /// after the submitting thread moves on.  Must have exactly one
  /// computed tensor (the AffineMap family maps a single tensor).
  std::shared_ptr<const fm::FunctionSpec> spec;
  /// Target machine; defaults to a 1x1 grid (callers always set this).
  fm::MachineConfig machine = fm::make_machine(1, 1);
  fm::FigureOfMerit fom = fm::FigureOfMerit::kEnergyDelay;
  /// Input-tensor homes in spec->input_tensors() order; missing trailing
  /// entries default to DRAM.
  std::vector<InputPlacement> inputs;
  /// kCostEval / kLegality: the candidate map on the computed tensor.
  fm::AffineMap map;
  /// kLegality: verifier options.
  fm::VerifyOptions verify;
  /// kTune: search options.  `search.cancel` is chained with the
  /// service's deadline check; it, `search.resume_from`, and the
  /// parallel-backend knobs (`search.scheduler` / `num_workers` /
  /// `grain` are overridden by the service anyway) are excluded from
  /// the cache key.
  fm::SearchOptions search;
  /// kTune: which searcher answers the tune.  kExhaustive (the default)
  /// runs fm::search_affine with `search`; kAnneal / kBeam run
  /// fm::search_table over the non-affine TableMap space with
  /// `strategy_opts`.  Part of the cache key.
  fm::StrategyKind strategy = fm::StrategyKind::kExhaustive;
  /// kTune with strategy != kExhaustive: stochastic-search budget and
  /// seeds.  Result-shaping fields are cache-keyed; `cancel`,
  /// `scheduler`, `num_workers`, and `compiled` are service-owned and
  /// excluded, like their SearchOptions counterparts.
  fm::StrategyOptions strategy_opts;
  /// kPipelineTune: the stage DAG under tuning (spec stays null).  The
  /// per-stage searcher is `strategy` with `search` / `strategy_opts` as
  /// the stage templates, exactly like kTune; `fom` ranks both the stage
  /// searches and the chain total.  Cacheable unless an external stage
  /// input carries a distributed home (an arbitrary closure cannot be
  /// fingerprinted — such requests run uncached).
  std::shared_ptr<const fm::Pipeline> pipeline;
  /// kPipelineTune: co-optimizing tuner (tune_pipeline_paired) when
  /// true, the greedy stage-by-stage baseline when false.
  bool pipeline_paired = true;
  /// kPipelineTune: candidates per stage the co-tuner probes consumers
  /// with (fm::PipelineOptions::pair_candidates).
  std::size_t pipeline_pair_candidates = 4;
  /// kTune: fork-join lanes this tune may spread over on the service's
  /// shared scheduler.  0 means one per scheduler worker
  /// (ServiceConfig::num_workers); nonzero is clamped to that count.
  /// Excluded from the cache key — the parallel merge is deterministic,
  /// so lane count never changes the answer.
  unsigned tune_workers = 0;
  /// Per-request completion deadline; zero means none.  A tune that
  /// reaches its deadline answers with the autotuner's best-so-far
  /// frontier (Response::deadline_cut) instead of failing.
  std::chrono::nanoseconds deadline{0};
};

enum class Status : std::uint8_t {
  kOk,        ///< executed (possibly deadline-cut for tunes)
  kRejected,  ///< admission queue full or service shutting down; see
              ///< Response::retry_after
  kError,     ///< the oracle threw; see Response::error
};

struct Response {
  Status status = Status::kOk;
  RequestKind kind = RequestKind::kCostEval;
  bool cache_hit = false;
  /// Tune only: the deadline fired before the search space was exhausted;
  /// `search.best` is the best legal mapping found so far.
  bool deadline_cut = false;
  fm::CostReport cost;          ///< kCostEval; also the best tune cost
  fm::LegalityReport legality;  ///< kLegality
  fm::SearchResult search;      ///< kTune (strategy == kExhaustive)
  /// kTune with strategy == kAnneal / kBeam: the stochastic search's
  /// winner (TableMap), full re-scored cost, and move counters.
  fm::StrategyResult strategy;
  /// kPipelineTune: per-stage winners, chain totals (critical-path
  /// makespan), and the co-tuner's probe count.  `cost` mirrors
  /// `pipeline.total`.
  fm::PipelineResult pipeline;
  /// kTune: mapping-linter diagnostics (analyze::lint_mapping) for the
  /// best mapping found — warnings a merit number alone would hide.
  std::vector<analyze::Diagnostic> lint;
  /// kTune / kPipelineTune with a winner: the winner's execution
  /// witness was replayed through analyze::ExecChecker.  `exec` holds
  /// any EXEC axiom violations (empty = the independent relational
  /// model agrees the winner is legal).
  bool exec_checked = false;
  std::vector<analyze::Diagnostic> exec;
  std::string error;            ///< kError
  /// Submit-to-response time as observed by this waiter.
  std::chrono::nanoseconds latency{0};
  /// kRejected: suggested client backoff before retrying.
  std::chrono::nanoseconds retry_after{0};

  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// 128-bit cache key (two independently mixed 64-bit streams; the pair
/// makes accidental collision odds negligible at serving cache sizes).
struct CacheKey {
  std::uint64_t hi = 0;
  std::uint64_t lo = 0;
  friend bool operator==(const CacheKey&, const CacheKey&) = default;
};

struct CacheKeyHash {
  [[nodiscard]] std::size_t operator()(const CacheKey& k) const noexcept {
    return static_cast<std::size_t>(k.hi ^ (k.lo * 0x9e3779b97f4a7c15ULL));
  }
};

/// True for requests whose responses are pure functions of the key and
/// therefore memoizable.  All three kinds qualify; a deadline-cut tune
/// result is nevertheless *stored* only when the search ran to
/// exhaustion (service.cpp), so a short deadline can never poison the
/// cache for a later, more patient caller.
[[nodiscard]] bool cacheable(const Request& req);

/// Fingerprint of one spec: its structure (domains, bit widths, op
/// costs) and its dependence edges at `sample_points` sampled domain
/// points.  The costly part of every key — it calls the dependence
/// function at each sample — so the Service computes it once per live
/// spec object and feeds it to the overloads below.
[[nodiscard]] CacheKey spec_fingerprint(const fm::FunctionSpec& spec,
                                        std::size_t sample_points = 32);

/// Canonical key over (kind, spec fingerprint, machine config, input
/// placements, FoM, and the kind-specific payload: AffineMap
/// coefficients, verify options, or search-space knobs).  Stable across
/// processes and runs — no pointer values, no iteration order
/// dependence.  For a single-spec request this is
/// make_cache_key(req, spec_fingerprint(*req.spec, sample_points)).
[[nodiscard]] CacheKey make_cache_key(const Request& req,
                                      std::size_t sample_points = 32);
/// make_cache_key for a single-spec request (not kPipelineTune) whose
/// spec fingerprint `spec_fp` is already known.
[[nodiscard]] CacheKey make_cache_key(const Request& req,
                                      const CacheKey& spec_fp);

/// Key over only what fm::compile_spec consumes: spec fingerprint,
/// machine config, and input placements.  Deliberately coarser than
/// make_cache_key — two tunes that differ in FoM or search knobs share
/// one CompiledSpec, so the service's compile cache can hand both the
/// same flat tables.  Tagged so it can never alias a result key.
[[nodiscard]] CacheKey make_compile_key(const Request& req,
                                        std::size_t sample_points = 32);
/// make_compile_key with the spec fingerprint already known.
[[nodiscard]] CacheKey make_compile_key(const Request& req,
                                        const CacheKey& spec_fp);

/// Compile key for one pipeline stage: stage spec structure, machine,
/// and the resolved-input-home fingerprint the pipeline tuner reports
/// (fm::PipelineOptions::compile).  Producer-fed stages recompile when
/// — and only when — the producer's committed layout changes, and two
/// pipeline tunes sharing a stage triple share its flat tables.  Tagged
/// so it can never alias a result key or a single-spec compile key.
[[nodiscard]] CacheKey make_stage_compile_key(const Request& req,
                                              std::size_t stage,
                                              std::uint64_t home_fingerprint,
                                              std::size_t sample_points = 32);

}  // namespace harmony::serve
