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
// What is left per candidate splits in two (DESIGN.md §12):
//   * the PlacementDigest — everything that depends only on where the
//     points go: each point's input arrival, each dependence class's lag
//     (the largest max(1, transit) over the class's edges), the offsets
//     at which two points share a PE (the collision list), the link
//     loads and the placement-only cost sums;
//   * the schedule pass — everything that depends on when they run:
//     causality, exclusivity, storage, the bandwidth rate and makespan.
//     Under an affine schedule every edge of a class has the same time
//     gap, and two points share a cycle only at an offset the schedule
//     maps to 0, so the affine pass is O(classes + collisions) plus the
//     input shift (affine_schedule_ok).
// The search builds each placement's digest once per search, in its
// placement table (fm/search.hpp, DESIGN.md §15), so a candidate pays
// only for its schedule.
//
// EvalContext is the per-lane scratch: an epoch-stamped delivered table
// (one uint32 compare per dependence instead of an unordered_set insert;
// cleared once per context, not once per candidate), the per-point PE
// and cycle tables of the candidate, the scratch digest and the schedule
// pass's buffers.  One CompiledSpec is shared read-only by all search
// lanes; each lane owns one EvalContext, which keeps fm::search_lanes
// RaceCtx-certifiable.
//
// Hard invariant: evaluate_cost(CompiledSpec) and verify_ok(CompiledSpec)
// agree bit for bit with their FunctionSpec counterparts: the cost on
// every CostReport field (same dependence visit order, same branch
// order, same floating-point addition sequence), and verify_ok with
// fm::verify(...).ok on the same mapping and options, so the
// deterministic top-k guarantee of DESIGN.md §10 is untouched.  The
// LegalityReport itself (counters, peaks, diagnostics) exists once, in
// fm/legality.cpp.  Tests pin compiled vs. legacy vs. the executing
// GridMachine ledger.  DESIGN.md §12.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fm/cost.hpp"
#include "fm/legality.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "support/units.hpp"

namespace harmony::fm {

/// What one dependence reads: the top two bits of its dep_code.
enum class DepKind : std::uint8_t {
  kComputed = 0,   ///< a point of the target tensor itself
  kInputDram = 1,  ///< an input value homed in DRAM
  kInputPe = 2,    ///< an input value homed on a PE
};

/// The kind of the dependence `code` (CompiledSpec::dep_code).
[[nodiscard]] inline DepKind dep_kind(std::uint64_t code) {
  return static_cast<DepKind>(code >> 62);
}
/// Its source: the producer's linearized point (kComputed) or the dense
/// input ordinal (kInput*).
[[nodiscard]] inline std::uint32_t dep_source(std::uint64_t code) {
  return static_cast<std::uint32_t>(code);
}
/// kInputPe only: the input's compiled home PE, which is also
/// CompiledSpec::input_home of its ordinal.
[[nodiscard]] inline std::size_t dep_home(std::uint64_t code) {
  return static_cast<std::size_t>((code >> 32) & 0xFFFF);
}

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

  // --- latencies as 16-bit codes, for compact digests ---
  /// Every distinct latency the tables hold (transit and DRAM),
  /// ascending from index 1; index 0 is the "no input" code.  Codes
  /// preserve order, so the max of codes is the code of the max.
  std::vector<Cycle> latency;
  /// Code of transit[e] and of dram_cycles[pe].
  std::vector<std::uint16_t> transit_code;
  std::vector<std::uint16_t> dram_code;
  /// max over the table of max(1, transit): a computed edge with at
  /// least this much slack is causal wherever its endpoints sit.
  Cycle max_lag = 1;

  // --- flattened dependences, CSR over linearized target points ---
  std::vector<std::uint64_t> dep_offsets;  ///< num_points + 1 entries
  /// Every dependence in spec.deps() order, 8 bytes each: the kind in
  /// bits 62-63, a PE-homed input's home PE in bits 32-47, and the
  /// producer's linearized point (kComputed) or the input ordinal in
  /// bits 0-31.  Read only through dep_kind, dep_source and dep_home.
  std::vector<std::uint64_t> dep_code;
  /// The computed dependences alone, in the same order: the edges of
  /// point v are [edge_offsets[v], edge_offsets[v + 1]) and edge_src
  /// holds each one's producer point.
  std::vector<std::uint32_t> edge_offsets;
  std::vector<std::uint32_t> edge_src;
  /// Each edge's dependence class: the edges that share one offset
  /// (consumer point - producer point), numbered in first-seen order.
  /// Under an affine schedule t, every edge of class c has the time gap
  /// t . class_delta[c].
  std::vector<std::uint32_t> edge_class;
  std::vector<Point> class_delta;
  /// True when any edge reads an input tensor; false lets the search
  /// skip the input-arrival normalization sweep entirely.
  bool has_input_deps = false;
  /// Dense input-value ordinal space size (delivered-table rows).
  std::uint32_t num_input_values = 0;
  /// Per input ordinal, numbered first-seen in dependence order: the
  /// value it names and its compiled home PE (-1: DRAM).
  std::vector<ValueRef> input_refs;
  std::vector<std::int32_t> input_home;

  /// PE index of an on-grid coordinate: geom.index() without its bounds
  /// check.  AffineMap::place stays on the grid when the map's cols and
  /// rows are the compiled ones (every search candidate's are).
  [[nodiscard]] std::size_t pe_index(noc::Coord c) const {
    return static_cast<std::size_t>(c.y) * static_cast<std::size_t>(cols) +
           static_cast<std::size_t>(c.x);
  }

  [[nodiscard]] std::size_t num_classes() const { return class_delta.size(); }

  /// Adds `load` to link[l] for every directed link l on the
  /// dimension-ordered route of PE pair r = from * num_pes + to.
  void add_route_load(std::size_t r, std::uint64_t load,
                      std::uint64_t* link) const {
    const std::uint32_t end = route_offsets[r + 1];
    for (std::uint32_t o = route_offsets[r]; o < end; ++o) {
      link[route_links[o]] += load;
    }
  }

  /// max(0, max over the domain of time(p) + 1): the affine form attains
  /// its extremes at domain corners, so this is exact — identical to the
  /// legacy per-point running max, in integer arithmetic.
  [[nodiscard]] Cycle makespan_cycles_of(const AffineMap& map) const;
  /// min over the domain of time(p), from the corners likewise.
  [[nodiscard]] Cycle first_cycle_of(const AffineMap& map) const;

  /// Throws InvalidArgument unless `map`'s grid has at least one column
  /// and row and fits inside the compiled grid — the precondition of
  /// every AffineMap oracle here (a wider map places points the machine
  /// does not have).
  void require_fits(const AffineMap& map) const;
};

/// Freezes the triple into a CompiledSpec (one pass over the dependence
/// relation).  The spec must have exactly one computed tensor (the
/// AffineMap family maps a single tensor — same precondition as
/// search_affine); `input_proto` must supply a home for every input
/// tensor.  Traced as trace::Span("fm", "compile").
[[nodiscard]] std::shared_ptr<const CompiledSpec> compile_spec(
    const FunctionSpec& spec, const MachineConfig& machine,
    const Mapping& input_proto);

/// An AffineMap's placement with every space coefficient and offset
/// reduced into [0, cols) or [0, rows): two maps place every point alike
/// exactly when these agree, so it is a digest's key.
struct ReducedPlacement {
  std::int32_t x[4] = {};  ///< xi, xj, xk, x0 mod cols
  std::int32_t y[4] = {};  ///< yi, yj, yk, y0 mod rows
  std::int32_t cols = 1, rows = 1;

  /// Requires map.cols and map.rows positive (CompiledSpec::require_fits).
  [[nodiscard]] static ReducedPlacement of(const AffineMap& map);
  [[nodiscard]] bool operator==(const ReducedPlacement&) const = default;
};

/// The placement-only sums of the cost model, added in the legacy
/// evaluator's order so every double is bit-identical.
struct PlacementCost {
  Energy onchip_movement_energy = Energy::zero();
  Energy local_access_energy = Energy::zero();
  Energy dram_energy = Energy::zero();
  std::uint64_t messages = 0;
  std::uint64_t bit_hops = 0;
};

/// Everything about a candidate that depends only on its placement.
/// Views into storage owned by an EvalContext (its scratch digest) or by
/// the search's placement table.  Latencies and lags are
/// CompiledSpec::latency codes.  The link loads and cost sums are
/// completed on first need, so a scratch candidate rejected before the
/// bandwidth check or the cost pays for neither; a digest the table
/// keeps has both.
struct PlacementDigest {
  /// The placement, for an affine digest (EvalContext::digest): what a
  /// later stage re-places from.  A TableMap digest reads its PEs from
  /// the context's PE table instead.
  ReducedPlacement key;
  /// Per point: the code of its latest input arrival at its PE (DRAM
  /// cycles, or transit from the input's home), 0 when it reads no
  /// input.  Null when the spec reads no input at all.
  const std::uint16_t* arrival = nullptr;
  /// Affine digests only.  Per dependence class: the code of the
  /// largest transit over its edges, so its lag is max(1, that).
  const std::uint16_t* lag = nullptr;
  /// Affine digests only.  Every offset d of the half difference box
  /// (d != 0, lexicographically positive, |d_a| < extent_a) at which
  /// the placement maps two points to one PE: x . d = 0 (mod cols) and
  /// y . d = 0 (mod rows).  The domain is a box, so each is the offset
  /// of some pair of points.
  const Point* collisions = nullptr;
  std::size_t num_collisions = 0;
  /// The largest directed-link load in bits: computed edges plus first
  /// deliveries of PE-homed inputs, as the bandwidth check records them.
  std::uint64_t max_link_bits = 0;
  bool links_ready = false;
  PlacementCost cost;
  bool cost_ready = false;
};

namespace detail {
void* page_allocate(std::size_t bytes);
void page_deallocate(void* p, std::size_t bytes);
}  // namespace detail

/// A block of raw bytes for a search's placement table: 64 KiB or more
/// is mapped from the OS and unmapped when freed, so the table leaves
/// no resident high-water mark in the allocating thread's malloc arena;
/// smaller blocks use operator new.  Only the pages a search writes
/// become resident.
class PageBlock {
 public:
  PageBlock() = default;
  explicit PageBlock(std::size_t bytes)
      : data_(bytes != 0 ? static_cast<std::byte*>(detail::page_allocate(bytes))
                         : nullptr),
        size_(bytes) {}
  PageBlock(PageBlock&& o) noexcept
      : data_(std::exchange(o.data_, nullptr)),
        size_(std::exchange(o.size_, 0)) {}
  PageBlock& operator=(PageBlock&& o) noexcept {
    std::swap(data_, o.data_);
    std::swap(size_, o.size_);
    return *this;
  }
  PageBlock(const PageBlock&) = delete;
  PageBlock& operator=(const PageBlock&) = delete;
  ~PageBlock() {
    if (data_ != nullptr) detail::page_deallocate(data_, size_);
  }

  [[nodiscard]] std::byte* data() const { return data_; }
  [[nodiscard]] std::size_t size() const { return size_; }

 private:
  std::byte* data_ = nullptr;
  std::size_t size_ = 0;
};

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
  /// `cs`, so no candidate of a search grows them inside the hot loop.
  /// Purely an allocation accelerator — buffer *contents* are still
  /// established per candidate.
  void reserve_scratch(const CompiledSpec& cs);

  /// Lowers `map`'s placement onto the compiled grid: afterwards
  /// pe[lin] == cs.pe_index(map.place(p)) for every point.  An odometer
  /// over (i, j, k) fills the table with no division per point.  Throws
  /// InvalidArgument for a map that does not fit the compiled grid
  /// (CompiledSpec::require_fits).
  void place(const CompiledSpec& cs, const AffineMap& map);
  /// The same over a placement already reduced (and checked to fit).
  void place(const CompiledSpec& cs, const ReducedPlacement& rp);
  /// place(cs, key) unless the PE table already holds that placement.
  void ensure_placed(const CompiledSpec& cs, const ReducedPlacement& key);

  /// The affine digest of the placement `key` (of a map that fits `cs`)
  /// in this context's scratch: its arrivals, class lags and collision
  /// list, with the link loads and cost sums left to complete on need.
  /// Returned as is when the scratch already holds `key`'s digest.
  PlacementDigest& digest(const CompiledSpec& cs, const ReducedPlacement& key);

  /// Fills point_cycle with map.time of every point (an odometer, no
  /// multiply per point) and returns it.
  const Cycle* fill_times(const CompiledSpec& cs, const AffineMap& map);

  /// Starts a fresh delivered-set scope (one sweep = one scope,
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

  /// Marks the PE table and the scratch digest as overwritten (by a
  /// TableMap's PEs) since the affine placement they were built for.
  void forget_placement() {
    placed_cs_ = nullptr;
    digest_cs_ = nullptr;
  }

  // Reusable buffers (see compiled.cpp).
  /// PE of each linearized point, in 16 bits (compile_spec caps the grid
  /// at 65535 PEs): filled by place(), or copied from a TableMap.
  std::vector<std::uint16_t> pe;
  /// Schedule cycle of each point (fill_times) and its last use (the
  /// storage ledger).
  std::vector<Cycle> point_cycle;
  std::vector<Cycle> last_use;
  /// Counting sort by PE: PE q's run is [pe_run[q], pe_run[q + 1]) of
  /// run_cycles (exclusivity) and twice that of run_events (storage).
  std::vector<std::uint32_t> pe_run;
  std::vector<std::uint64_t> run_cycles;
  std::vector<std::uint64_t> run_events;
  /// The scratch digest and its arrays.
  PlacementDigest scratch;
  std::vector<std::uint16_t> arrival;
  std::vector<std::uint16_t> lag;
  std::vector<Point> collisions;
  /// Every directed link's load while a digest's largest is found.
  std::vector<std::uint64_t> link_bits;
  /// Transfers per (src, dst) PE pair while link loads are summed: a
  /// table of (pair, count) slots, O(min(PEs^2, dependences)) of them
  /// (compiled.cpp), and the slots in use; all empty between uses.
  std::vector<std::uint64_t> pair_slot;
  std::vector<std::uint32_t> pairs;
  /// Per-axis residue tables (the quick gate's sample PEs, the
  /// collision scan), and the quick gate's per sampled class lags and
  /// gaps for a placement outside the search's table (fm/search.cpp).
  std::vector<std::int64_t> axis_table;
  std::vector<std::uint16_t> sample_lag;
  std::vector<Cycle> gaps;

 private:
  std::size_t num_pes_;
  std::vector<std::uint32_t> delivered_;
  std::uint32_t epoch_ = 0;
  /// pe holds placed_key_ of *placed_cs_ (null: no known placement).
  const CompiledSpec* placed_cs_ = nullptr;
  ReducedPlacement placed_key_;
  /// scratch is the affine digest of scratch.key of *digest_cs_.
  const CompiledSpec* digest_cs_ = nullptr;
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

// --- the affine schedule pass over a digest ---------------------------
// For a caller that drives the two halves itself (the search): `dg` is
// the placement's affine digest (EvalContext::digest, or the search's
// placement table) and `map` the candidate.

/// The input-arrival shift: max(0, max over points of arrival - time),
/// the least t0 increase after which every input operand arrives in
/// time.  One pass over the arrival codes with the times from an
/// odometer over `map`; zero when the spec reads no input.
[[nodiscard]] Cycle input_shift(const CompiledSpec& cs,
                                const PlacementDigest& dg,
                                const AffineMap& map);

/// fm::verify(...).ok for `map` over the affine digest `dg` of its
/// placement, stopped at the first violation; no report.  In order:
/// makespan <= 2^40 (else it throws like fm::verify), no point before
/// cycle 0 (the corners), every input arrival (skipped when
/// `inputs_shifted`: input_shift() is then 0 by construction), each
/// class's gap against its lag, no collision offset at gap 0, the
/// storage ledger (only when pe_capacity_values < num_points), and the
/// largest link load over the makespan.  `makespan` is
/// cs.makespan_cycles_of(map).
[[nodiscard]] bool affine_schedule_ok(const CompiledSpec& cs,
                                      PlacementDigest& dg,
                                      const AffineMap& map, Cycle makespan,
                                      const VerifyOptions& opts,
                                      EvalContext& ctx, bool inputs_shifted);

/// Completes `dg`'s link loads and cost sums (an affine digest of
/// ctx's scratch), as a digest the search keeps holds them.
void complete_digest(const CompiledSpec& cs, PlacementDigest& dg,
                     EvalContext& ctx);

/// The CostReport: the digest's sums plus the closed-form makespan.
[[nodiscard]] CostReport digest_cost(const CompiledSpec& cs,
                                     PlacementDigest& dg, Cycle makespan,
                                     EvalContext& ctx);

// --- AffineMap oracles ------------------------------------------------
// Each builds one scratch digest: verify_ok runs the affine pass above
// over it, evaluate_cost completes its cost sums.

/// The compiled fast path of fm::evaluate_cost — bit-identical on every
/// CostReport field to evaluate_cost(spec, mapping, machine) for the
/// mapping (AffineMap on the target + the compiled input homes).
[[nodiscard]] CostReport evaluate_cost(const CompiledSpec& cs,
                                       const AffineMap& map,
                                       EvalContext& ctx);

/// fm::verify(spec, mapping, machine, opts).ok for the same mapping,
/// without the report: the affine digest and affine_schedule_ok, the
/// search's own gate 2, stopped at the first violation of any enabled
/// check.  Honors opts.check_storage / check_bandwidth exactly as
/// fm::verify does.
[[nodiscard]] bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
                             EvalContext& ctx,
                             const VerifyOptions& opts = {});

// --- TableMap (per-op) overloads --------------------------------------
// The same oracles over a per-op placement table (strategy/table_map.hpp)
// instead of an affine form, pinned to the legacy oracles on the lowered
// to_mapping(spec, tm) mapping as the AffineMap overloads are to theirs.
// The table's per-value input homes override the compiled ones (a move
// may re-home a PE-resident value); DRAM/PE kinds never change.  The
// table must match the compiled spec (num_points ops, num_input_values
// homes) and place every op on the grid, else InvalidArgument.
struct TableMap;

[[nodiscard]] CostReport evaluate_cost(const CompiledSpec& cs,
                                       const TableMap& tm, EvalContext& ctx);

/// fm::verify(...).ok on the lowered mapping, stopped at the first
/// violation: per point its cycle, input arrival and computed edges,
/// then a counting sort by PE for exclusivity, the storage ledger (only
/// when pe_capacity_values < num_points) and the largest link load.
[[nodiscard]] bool verify_ok(const CompiledSpec& cs, const TableMap& tm,
                             EvalContext& ctx,
                             const VerifyOptions& opts = {});

}  // namespace harmony::fm
