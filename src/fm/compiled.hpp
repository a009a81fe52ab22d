// Compile-once candidate evaluation for the mapping-search inner loop.
//
// Dally's §3 pitch is that the F&M cost model makes mappings
// *systematically searchable* — so the searcher's candidates/second is
// the headline metric.  Yet most of what the per-candidate oracles
// (fm/cost.cpp, fm/legality.cpp) compute is invariant across a whole
// search: the spec's dependence relation, value indices, per-tensor
// bits/ops/op-energy, and every geometry query (hop counts, transfer
// energies, transit cycles, DRAM costs, dimension-ordered routes).
//
// CompiledSpec freezes a (FunctionSpec, MachineConfig, input_proto)
// triple into flat arrays once per search:
//   * per-point dependence lists flattened into one contiguous array
//     with a CSR-style offset table (no std::function calls, no
//     per-point vector allocation, no domain re-validation);
//   * input values renumbered to dense ordinals so delivery tracking is
//     an array index, not a hash probe;
//   * geometry memoized as [from * num_pes + to] tables plus per-PE DRAM
//     costs and precomputed XY routes for the bandwidth check;
//   * the candidate-invariant compute-energy / total-ops sums, folded by
//     the *same* addition loop the legacy evaluator runs.
//
// EvalContext is the per-lane scratch: an epoch-stamped delivered table
// (one uint32 compare per dependence instead of an unordered_set insert;
// cleared once per context, not once per candidate), the per-point PE
// table of the candidate, and the reusable by-PE run, link and storage
// buffers of the verifier.  One CompiledSpec is
// shared read-only by all search lanes; each lane owns one EvalContext,
// which keeps fm::search_lanes RaceCtx-certifiable.
//
// Hard invariant: evaluate_cost(CompiledSpec) and verify(CompiledSpec)
// are *bit-identical* to their FunctionSpec counterparts on every report
// field — same dependence visit order, same branch order, same
// floating-point addition sequence — so the deterministic top-k
// guarantee of DESIGN.md §10 is untouched.  Tests pin compiled vs.
// legacy vs. the executing GridMachine ledger.  DESIGN.md §12.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fm/cost.hpp"
#include "fm/legality.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "support/units.hpp"

namespace harmony::fm {

/// One flattened dependence edge of the target tensor.  The input home
/// (including kDistributed closures) is resolved to a concrete PE at
/// compile time, so evaluation never touches an InputHome again.
struct CompiledDep {
  enum Kind : std::uint8_t {
    kComputed = 0,   ///< dep on the target tensor itself
    kInputDram = 1,  ///< input tensor homed in DRAM
    kInputPe = 2,    ///< input tensor homed on a PE (home_pe below)
  };
  Kind kind = kComputed;
  TensorId tensor = -1;         ///< dep tensor id (diagnostics)
  std::int32_t home_pe = -1;    ///< kInputPe: resolved home PE index
  std::uint32_t input_ord = 0;  ///< kInput*: dense input-value ordinal
  std::int64_t dep_lin = -1;    ///< kComputed: linearized target index
  std::int64_t i = 0, j = 0, k = 0;  ///< dep point

  [[nodiscard]] Point point() const { return Point{i, j, k}; }
};

/// The search-invariant half of candidate evaluation, frozen flat.
/// Read-only after compile_spec() — safe to share across lanes.
struct CompiledSpec {
  // --- target tensor ---
  TensorId target = -1;
  IndexDomain domain{1};
  bool target_is_output = false;
  std::size_t bits = 32;
  double ops = 1.0;
  std::int64_t num_points = 0;
  /// Tensor names by id, for diagnostics identical to the legacy path.
  std::vector<std::string> tensor_names;

  // --- machine ---
  int cols = 1, rows = 1;
  std::size_t num_pes = 1;
  Time cycle = Time::zero();
  std::int64_t pe_capacity_values = 0;
  double link_bits_per_cycle = 0.0;

  // --- candidate-invariant totals (legacy addition order) ---
  Energy compute_energy_total = Energy::zero();
  double total_ops_total = 0.0;
  /// tech.sram_access_energy(bits, local_reach): constant per machine.
  Energy sram_access = Energy::zero();

  // --- geometry tables, indexed [from * num_pes + to] ---
  std::vector<Energy> transfer_energy;
  std::vector<std::int64_t> hop_count;
  std::vector<Cycle> transit;
  // Per-PE DRAM access cost/latency.
  std::vector<Energy> dram_energy;
  std::vector<Cycle> dram_cycles;
  /// Dimension-ordered routes for the bandwidth check: directed-link ids
  /// of the walk from `from` to `to`, CSR over [from * num_pes + to].
  std::vector<std::uint32_t> route_offsets;
  std::vector<std::uint32_t> route_links;

  // --- flattened dependences, CSR over linearized target points ---
  std::vector<std::uint64_t> dep_offsets;  ///< num_points + 1 entries
  std::vector<CompiledDep> deps;
  /// True when any edge reads an input tensor; false lets the search
  /// skip the input-arrival normalization sweep entirely.
  bool has_input_deps = false;
  /// Dense input-value ordinal space size (delivered-table rows).
  std::uint32_t num_input_values = 0;

  /// PE index of an on-grid coordinate: geom.index() without its bounds
  /// check.  AffineMap::place stays on the grid when the map's cols and
  /// rows are the compiled ones (every search candidate's are).
  [[nodiscard]] std::size_t pe_index(noc::Coord c) const {
    return static_cast<std::size_t>(c.y) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(c.x);
  }

  /// max(0, max over the domain of time(p) + 1): the affine form attains
  /// its extremes at domain corners, so this is exact — identical to the
  /// legacy per-point running max, in integer arithmetic.
  [[nodiscard]] Cycle makespan_cycles_of(const AffineMap& map) const;
};

/// Freezes the triple into a CompiledSpec (one pass over the dependence
/// relation).  The spec must have exactly one computed tensor (the
/// AffineMap family maps a single tensor — same precondition as
/// search_affine); `input_proto` must supply a home for every input
/// tensor.  Traced as trace::Span("fm", "compile").
[[nodiscard]] std::shared_ptr<const CompiledSpec> compile_spec(
    const FunctionSpec& spec, const MachineConfig& machine,
    const Mapping& input_proto);

/// Per-lane mutable scratch.  All buffers are sized once and reused
/// across candidates; the delivered table is epoch-stamped so "clear"
/// is one counter increment (a full wipe only on uint32 wraparound).
class EvalContext {
 public:
  explicit EvalContext(const CompiledSpec& cs)
      : num_pes_(cs.num_pes),
        delivered_(static_cast<std::size_t>(cs.num_input_values) * cs.num_pes,
                   0) {}

  /// Pre-reserves every scratch buffer to its steady-state size for
  /// `cs` so the first candidates of a search do not grow them inside
  /// the hot loop (the passes size them on use: the per-point tables
  /// and run_cycles to num_points, run_events to 2x, pe_run to one
  /// more than the PE count, link_bits to 4 per PE).  Purely an
  /// allocation accelerator — buffer *contents* are still established
  /// per candidate exactly as before.
  void reserve_scratch(const CompiledSpec& cs) {
    const auto n = static_cast<std::size_t>(cs.num_points);
    point_pe.reserve(n);
    point_cycle.reserve(n);
    last_use.reserve(n);
    pe_run.reserve(cs.num_pes + 1);
    run_cycles.reserve(n);
    run_events.reserve(n * 2);
    link_bits.reserve(cs.num_pes * 4);
  }

  /// Lowers `map`'s placement onto the compiled grid: afterwards
  /// point_pe[lin] == cs.pe_index(map.place(p)) for every point.  An
  /// odometer over (i, j, k) fills the table with no division per
  /// point.  Throws InvalidArgument for a map with no columns or rows,
  /// and for any point placed at x >= cs.cols or y >= cs.rows (the
  /// legacy oracles reject those too).
  void place(const CompiledSpec& cs, const AffineMap& map);

  /// Starts a fresh delivered-set scope (one oracle call = one scope,
  /// mirroring the legacy per-call unordered_set).
  void begin_candidate() {
    if (++epoch_ == 0) {  // uint32 wrapped: wipe once, restart at 1
      std::fill(delivered_.begin(), delivered_.end(), 0u);
      epoch_ = 1;
    }
  }

  /// True exactly the first time (input ordinal, pe) is seen this scope.
  bool first_delivery(std::uint32_t input_ord, std::size_t pe) {
    std::uint32_t& stamp =
        delivered_[static_cast<std::size_t>(input_ord) * num_pes_ + pe];
    if (stamp == epoch_) return false;
    stamp = epoch_;
    return true;
  }

  // Reusable buffers (see compiled.cpp).
  /// PE of each linearized point, filled by place().
  std::vector<std::int32_t> point_pe;
  /// Schedule cycle and last use of each point (legality pass).
  std::vector<Cycle> point_cycle;
  std::vector<Cycle> last_use;
  /// Counting sort by PE: PE q's run is [pe_run[q], pe_run[q + 1]) of
  /// run_cycles (exclusivity) and twice that of run_events (storage).
  std::vector<std::size_t> pe_run;
  std::vector<std::uint64_t> run_cycles;
  std::vector<std::uint64_t> run_events;
  std::vector<std::uint64_t> link_bits;

 private:
  std::size_t num_pes_;
  std::vector<std::uint32_t> delivered_;
  std::uint32_t epoch_ = 0;
};

/// Arena of per-lane evaluation scratch: every lane's EvalContext (and
/// its delivered table and verifier buffers) is allocated and
/// pre-reserved up front, in one construction pass, so nothing in the
/// search inner loop ever touches the allocator.  Lane L's context is
/// reached by the explicit lane index the driver's kernel carries
/// (fm::search_lanes) — the pool is the replacement for the old
/// "recover the lane from the tally's address" arithmetic, which broke
/// silently if the tally storage moved.  Contexts are mutually
/// independent, so lanes use theirs concurrently; the pool itself is
/// not resized while lanes run.
class EvalContextPool {
 public:
  EvalContextPool(const CompiledSpec& cs, unsigned lanes) {
    ctxs_.reserve(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      ctxs_.emplace_back(cs);
      ctxs_.back().reserve_scratch(cs);
    }
  }

  [[nodiscard]] EvalContext& lane(unsigned l) { return ctxs_[l]; }
  [[nodiscard]] unsigned lanes() const {
    return static_cast<unsigned>(ctxs_.size());
  }

 private:
  std::vector<EvalContext> ctxs_;
};

/// The compiled fast path of fm::evaluate_cost — bit-identical on every
/// CostReport field to evaluate_cost(spec, mapping, machine) for the
/// mapping (AffineMap on the target + the compiled input homes).
[[nodiscard]] CostReport evaluate_cost(const CompiledSpec& cs,
                                       const AffineMap& map,
                                       EvalContext& ctx);

/// The compiled fast path of fm::verify — identical LegalityReport
/// (counters, peaks, diagnostics text and order) to the legacy checker.
[[nodiscard]] LegalityReport verify(const CompiledSpec& cs,
                                    const AffineMap& map, EvalContext& ctx,
                                    const VerifyOptions& opts = {});

/// verify(...).ok without the report: the same legality pass, stopped at
/// the first violation of any enabled check, with no diagnostics.  That
/// is what the search inner loop wants — rejected candidates are the
/// common case there and their reports were discarded unread.  Honors
/// opts.check_storage / check_bandwidth exactly as verify() does;
/// always agrees with verify(...).ok on the same (cs, map, opts).
[[nodiscard]] bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
                             EvalContext& ctx,
                             const VerifyOptions& opts = {});

// The same AffineMap oracles over the PE table a preceding
// ctx.place(cs, m) filled, for a caller that runs several passes over
// one candidate (the search's gates, fm/search.hpp): `map` must place
// every point where `m` did; its schedule may differ.  The overloads
// above are these after their own ctx.place(cs, map).
[[nodiscard]] CostReport evaluate_cost_placed(const CompiledSpec& cs,
                                              const AffineMap& map,
                                              EvalContext& ctx);

[[nodiscard]] bool verify_ok_placed(const CompiledSpec& cs,
                                    const AffineMap& map, EvalContext& ctx,
                                    const VerifyOptions& opts = {});

// --- TableMap (per-op) overloads --------------------------------------
// The same oracles over a per-op placement table (strategy/table_map.hpp)
// instead of an affine form.  Same dependence visit order, same branch
// order, same floating-point addition sequence — bit-identical to the
// legacy path on the lowered to_mapping(spec, tm) mapping, exactly as
// the AffineMap overloads are pinned to theirs.  The table's per-value
// input homes override the compiled home_pe (a move may re-home a
// PE-resident value); DRAM/PE kinds never change.  The table must match
// the compiled spec: num_points ops, num_input_values homes.
struct TableMap;

[[nodiscard]] CostReport evaluate_cost(const CompiledSpec& cs,
                                       const TableMap& tm, EvalContext& ctx);

[[nodiscard]] LegalityReport verify(const CompiledSpec& cs,
                                    const TableMap& tm, EvalContext& ctx,
                                    const VerifyOptions& opts = {});

[[nodiscard]] bool verify_ok(const CompiledSpec& cs, const TableMap& tm,
                             EvalContext& ctx,
                             const VerifyOptions& opts = {});

}  // namespace harmony::fm
