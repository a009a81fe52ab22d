// TableMap — per-op / per-value placement, the non-affine half of the
// mapping space (Dally, paper §3).
//
// "One can systematically search the space of possible mappings" — but
// the AffineMap family search_affine() enumerates is a vanishing slice
// of that space.  A TableMap stores one (pe, cycle) per linearized
// element of the target tensor and one home PE per input value, so
// *every* legal mapping of a single-tensor spec is representable, at
// the price of an O(n) representation instead of twelve coefficients.
//
// TableMap lowers into the existing machinery two ways:
//   * to_mapping() builds a closure-based fm::Mapping, so the legacy
//     oracles (evaluate_cost, verify), the linter, and the GridMachine
//     all consume it unchanged;
//   * compiled.hpp's TableMap overloads of evaluate_cost / verify_ok
//     run it through the CompiledSpec flat arrays, pinned to the
//     lowered-Mapping path by tests (the cost bit for bit, verify_ok to
//     the legacy report's ok bit).
// The stochastic searchers (fm/strategy/strategy.hpp) mutate TableMaps
// through the delta evaluator (fm/strategy/delta.hpp).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fm/mapping.hpp"
#include "fm/spec.hpp"
#include "noc/mesh.hpp"

namespace harmony::fm {

struct CompiledSpec;  // fm/compiled.hpp

/// Per-op/per-value placement table for a spec with one computed tensor.
/// Op order is the row-major linearization of the target domain; input
/// values use the CompiledSpec's dense ordinal numbering.
struct TableMap {
  TensorId target = -1;
  IndexDomain domain{1};
  int cols = 1, rows = 1;
  /// Linear PE index and schedule cycle of each target element,
  /// indexed by the row-major linearization of `domain`.
  std::vector<std::int32_t> pe;
  std::vector<Cycle> cycle;
  /// Home PE per dense input-value ordinal; -1 means DRAM.  The kind is
  /// fixed at compile time (a DRAM-homed value never moves on-chip), so
  /// entries are either always -1 or always a valid PE index.
  std::vector<std::int32_t> input_home;
  /// The value each input ordinal names (CompiledSpec::input_refs) —
  /// what to_mapping() needs to rebuild per-tensor InputHome closures.
  std::vector<ValueRef> input_refs;

  [[nodiscard]] std::int64_t num_ops() const {
    return static_cast<std::int64_t>(pe.size());
  }
  [[nodiscard]] noc::Coord coord_of(std::int64_t lin) const {
    const std::int32_t q = pe[static_cast<std::size_t>(lin)];
    return noc::Coord{q % cols, q / cols};
  }
  /// max(0, max over elements of cycle + 1) — the same integers as the
  /// legacy evaluator's per-point running max seeded at 0.
  [[nodiscard]] Cycle makespan_cycles() const {
    Cycle m = 0;
    for (const Cycle c : cycle) m = std::max(m, c + 1);
    return m;
  }
};

/// The affine family embedded in the table space: snapshots `map` (and
/// the compiled input homes) into a TableMap.  Used to seed searches
/// from an affine winner and to pin table-vs-affine oracle parity.
[[nodiscard]] TableMap table_from_affine(const CompiledSpec& cs,
                                         const AffineMap& map);

/// Any closure Mapping embedded in the table space: snapshots the
/// mapping's (place, time) per target element and its input homes per
/// ordinal.  This is how non-affine hand mappings (serial, wavefront)
/// reach consumers that speak TableMap — `harmony-lint --check-exec`
/// lowers through here to build an execution witness.  The mapping must
/// cover the compiled target tensor and every input tensor.
[[nodiscard]] TableMap table_from_mapping(const CompiledSpec& cs,
                                          const Mapping& m);

/// Lowers a TableMap to the closure-based Mapping every legacy consumer
/// (cost, legality, lint, GridMachine) understands.  Input tensors whose
/// ordinals are DRAM-homed get InputHome::dram(); PE-homed tensors get a
/// distributed closure over the table's per-value homes (unreferenced
/// elements of the tensor default to PE 0 — no oracle ever asks for
/// them, they are off every dependence edge).
[[nodiscard]] Mapping to_mapping(const FunctionSpec& spec,
                                 const TableMap& tm);

}  // namespace harmony::fm
