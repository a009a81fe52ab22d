// Delta evaluation over CompiledSpec — the mutation-search inner loop.
//
// PR 5's CompiledSpec made one full candidate evaluation cheap; a
// mutation-based search (strategy.hpp) makes thousands of *nearly
// identical* candidates, and re-walking every dependence edge per move
// wastes almost all of that work.  DeltaEval keeps the complete
// legality-and-cost state of one TableMap and re-scores only what a
// move touches: the moved op's CSR dependence row, its reverse-CSR
// consumer edges, the delivered-set entries of its input reads, and the
// (pe, cycle) occupancy / storage-interval bookkeeping of its old and
// new slots.  A move costs O(degree + P) instead of O(E + n log n).
//
// Exactness contract (pinned by tests/fm_strategy_test.cpp):
//   * all state that decides legality and the integer cost fields is
//     kept in exact integer counters, so after ANY apply_move/undo_move
//     sequence the state — and cost_report(), which derives every field
//     from it by a fixed-order conversion — is bit-identical to a fresh
//     reset() on the same table;
//   * the four violation counters equal those of the legacy report
//     fm::verify(spec, to_mapping(spec, tm), machine, opts), and
//     legal() always agrees with its ok bit and with
//     verify_ok(cs, tm, ctx, opts);
//   * cost_report() matches evaluate_cost(cs, tm, ctx) exactly on the
//     integer fields (makespan_cycles, messages, bit_hops, total_ops);
//     the energy doubles are the same count-weighted sums evaluated in
//     table order rather than edge order, so they agree to addition-
//     reassociation (≈1 ulp per term), not bit-for-bit — the winners a
//     search reports are always re-scored through evaluate_cost.
// DESIGN.md §13 records these invariants.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fm/compiled.hpp"
#include "fm/strategy/table_map.hpp"

namespace harmony::fm {

/// The mutation move set of the stochastic searchers.
enum class MoveKind : std::uint8_t {
  kReplaceOp,  ///< re-place op `a` at (pe, cycle)
  kSwapOps,    ///< swap the (pe, cycle) slots of ops `a` and `b`
  kShiftHome,  ///< re-home PE-resident input ordinal `a` to `pe`
};

struct Move {
  MoveKind kind = MoveKind::kReplaceOp;
  std::int64_t a = 0;   ///< op lin (kReplaceOp/kSwapOps) or input ordinal
  std::int64_t b = 0;   ///< kSwapOps: second op lin
  std::int32_t pe = 0;  ///< kReplaceOp/kShiftHome: new PE
  Cycle cycle = 0;      ///< kReplaceOp: new cycle
};

/// Search-invariant adjacency the delta evaluator needs beyond the
/// CompiledSpec: the reverse dependence relation (op -> consumer edges),
/// the per-input-ordinal consumer edges, and the move-space bounds.
/// Built once per search; read-only, shared across lanes.
struct StrategySpec {
  std::shared_ptr<const CompiledSpec> cs;

  /// Reverse CSR over target ops: for producer v, the edges that read
  /// it.  `op` is the consuming op, `edge` indexes cs->dep_code.
  struct ConsumerRef {
    std::int64_t op = 0;
    std::uint64_t edge = 0;
  };
  std::vector<std::uint64_t> consumer_offsets;  ///< num_points + 1
  std::vector<ConsumerRef> consumers;
  /// Consuming op of every edge in cs->dep_code.
  std::vector<std::int64_t> edge_owner;
  /// Per input ordinal: the edges that read it (CSR).
  std::vector<std::uint64_t> input_consumer_offsets;
  std::vector<std::uint64_t> input_consumers;
  /// Ordinals with a PE home — the kShiftHome move targets.
  std::vector<std::uint32_t> pe_homed;
  /// Worst-case hop latency and input-arrival latency on this machine —
  /// the seed schedule's stride and offset.
  Cycle max_transit = 0;
  Cycle max_input_need = 0;
  /// Exclusive upper bound on schedule cycles in the move space: wide
  /// enough for both ceil(num_points * slack) and the serial seed.
  Cycle cycle_bound = 0;
};

[[nodiscard]] std::shared_ptr<const StrategySpec> build_strategy_spec(
    std::shared_ptr<const CompiledSpec> cs, double makespan_slack = 4.0);

/// A legal serial-style starting table: ops on PE 0 in topological order
/// (row-major when row-major is already topological), one per cycle,
/// shifted so every input operand can arrive; inputs at their compiled
/// homes.  Throws SimulationError on a cyclic dependence relation.
[[nodiscard]] TableMap seed_table(const StrategySpec& ss);

/// Incremental cost + legality state of one TableMap candidate.
class DeltaEval {
 public:
  explicit DeltaEval(std::shared_ptr<const StrategySpec> ss,
                     VerifyOptions opts = {});

  /// Full recompute from `tm` — the reference every incremental state
  /// must match bit-for-bit.  The table must fit the spec's shape and
  /// the strategy spec's cycle bound.
  void reset(const TableMap& tm);

  /// Applies `m` and returns the inverse move; undoing is applying the
  /// inverse.  All aggregate updates are exact integer transitions, so
  /// apply(m) followed by apply(inverse) restores the state exactly.
  Move apply_move(const Move& m);
  void undo_move(const Move& inverse) { (void)apply_move(inverse); }

  [[nodiscard]] const TableMap& table() const { return tm_; }
  [[nodiscard]] const StrategySpec& strategy() const { return *ss_; }
  [[nodiscard]] const VerifyOptions& options() const { return opts_; }

  /// Agrees with verify_ok(cs, table(), ctx, opts) always.  Non-const:
  /// flushes lazily-dirtied per-PE storage peaks.
  [[nodiscard]] bool legal();

  /// Violation counters matching the legacy fm::verify report on
  /// to_mapping(spec, table()) exactly.  Storage/bandwidth are computed
  /// on demand (and regardless of the VerifyOptions gates — the gates
  /// only affect legal()).
  [[nodiscard]] std::uint64_t causality_violations() const {
    return causality_bad_;
  }
  [[nodiscard]] std::uint64_t exclusivity_violations() const {
    return excl_extra_;
  }
  [[nodiscard]] std::uint64_t storage_violations();
  [[nodiscard]] std::uint64_t bandwidth_violations();

  [[nodiscard]] Cycle makespan_cycles() const { return max_cycle_ + 1; }

  /// CostReport derived from the exact counters by a fixed-order
  /// count-weighted conversion (see file comment for how this relates
  /// to evaluate_cost).
  [[nodiscard]] CostReport cost_report() const;

  /// merit_value(cost_report(), fom) without building the full report:
  /// O(1) for kTime, O(P^2) table scan for the energy figures.
  [[nodiscard]] double merit(FigureOfMerit fom) const;

 private:
  void set_bad(std::uint64_t e, bool bad);
  [[nodiscard]] std::size_t occ_home(std::uint64_t key) const;
  [[nodiscard]] std::size_t occ_find(std::uint64_t key) const;
  void occ_insert(std::size_t pe, Cycle c);
  void occ_erase(std::size_t pe, Cycle c);
  void hist_insert(Cycle c);
  void hist_erase(Cycle c);
  void sync_links();
  void movement_add(std::size_t from, std::size_t to, bool add);
  void delivery_add(std::uint64_t code, std::size_t pe, bool add);
  void deliv_change(std::uint64_t code, std::size_t pe, bool add);
  void value_insert(std::int64_t v, std::size_t pe);
  void value_erase(std::int64_t v, std::size_t pe);
  void apply_replace(std::int64_t u, std::int32_t pe, Cycle cycle);
  void apply_shift_home(std::int64_t ord, std::int32_t pe);
  void update_producer_last_use(std::int64_t u);
  void set_peak(std::size_t pe, std::int64_t peak);
  void mark_storage_dirty(std::size_t pe);
  void flush_storage();
  [[nodiscard]] std::int64_t pe_peak_of(std::size_t pe);

  std::shared_ptr<const StrategySpec> ss_;
  VerifyOptions opts_;
  TableMap tm_;
  std::size_t P_ = 1;
  bool output_ = false;

  // Cost counters (exact integers).
  std::uint64_t n_local_ = 0;
  std::vector<std::uint64_t> n_dram_;      // per PE
  std::vector<std::uint64_t> n_transfer_;  // per [from * P + to]
  std::vector<std::uint32_t> deliv_;       // reads per (ord * P + pe)

  // Makespan: bounded cycle histogram + running max.
  std::vector<std::uint32_t> cyc_hist_;
  Cycle max_cycle_ = 0;

  // Causality: per-edge violation bit + count.
  std::vector<std::uint8_t> edge_bad_;
  std::uint64_t causality_bad_ = 0;

  // Exclusivity: (pe << 40 | cycle) occupancy counts in an open-
  // addressed table (linear probing, at most half full), so a move
  // never touches the allocator; excl_extra_ counts the same pairs
  // verify()'s duplicate scan does (c - 1 per slot).
  static constexpr std::uint64_t kNoOcc = ~std::uint64_t{0};
  std::vector<std::uint64_t> occ_key_;
  std::vector<std::uint32_t> occ_count_;
  unsigned occ_shift_ = 63;
  std::uint64_t excl_extra_ = 0;

  // Bandwidth: exact per-directed-link bits, brought up to date from
  // the per-pair transfer counts when read.  A move only marks the
  // pairs whose count it changed; sync_links() walks each marked
  // pair's route once, for its net change since the last sync, so a
  // move and its undo between two reads cost no route walk.
  std::vector<std::uint64_t> link_bits_;
  std::vector<std::uint64_t> link_synced_;  // n_transfer_ at last sync
  std::vector<std::uint8_t> link_dirty_;
  std::vector<std::uint32_t> link_dirty_list_;

  // Storage.  Output target: every value lives to the makespan, so the
  // per-PE peak is just the value count.  Otherwise: per-value last-use
  // maintained from the reverse CSR, per-PE peaks recomputed lazily for
  // dirtied PEs by the same interval sweep verify() runs.
  std::vector<Cycle> cons_last_;                    // max consumer cycle
  std::vector<std::vector<std::int64_t>> pe_values_;
  std::vector<std::uint32_t> value_pos_;
  std::vector<std::int64_t> pe_peak_;
  std::vector<std::uint8_t> pe_dirty_;
  std::vector<std::int32_t> dirty_list_;
  std::uint64_t storage_over_ = 0;  // PEs whose peak exceeds capacity
  std::vector<std::pair<Cycle, std::int32_t>> ev_scratch_;
};

}  // namespace harmony::fm
