// Slot-numbered enumeration of the AffineMap family (DESIGN.md §10, §15).
//
// The search flattens its nine-deep coefficient loop nest into a dense
// [0, total) slot range: the surviving time-coefficient triples
// (makespan-bound failures dropped *before* numbering, so slots stay
// dense) crossed with the pinned space-coefficient lists, innermost
// coefficient varying fastest.  Every candidate owns one deterministic
// 64-bit slot — which is what lets the search cut (cancel), resume
// (resume_from), and statically partition the space across lanes while
// the ranked result stays bit-identical to a serial run.
//
// This header owns the plan itself plus the SlotCursor the driver's
// inner loop steps through a grain with: one div/mod chain seeds it,
// then each slot is a mixed-radix digit increment.  The stepped cursor
// is pinned against a cursor seeded at every slot by unit test — the
// two must agree on every coefficient of every slot.
#pragma once

#include <cstdint>
#include <vector>

#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"

namespace harmony::fm {

/// The affine coefficient pools the search enumerates.
struct SearchSpace {
  std::vector<std::int64_t> time_coeffs{0, 1, 2};
  std::vector<std::int64_t> space_coeffs{-1, 0, 1};
  /// Explore the second grid dimension (else y is pinned to 0).
  bool search_y = true;
};

/// One surviving (ti, tj, tk) time triple with its normalized offset.
/// Triples whose makespan blows the slack bound are dropped *before*
/// slot numbering, exactly as the original loop nest `continue`d before
/// entering the space loops — so slot numbers are dense and identical.
struct TimeBlock {
  std::int64_t ti;
  std::int64_t tj;
  std::int64_t tk;
  std::int64_t t0;
};

/// The enumeration flattened to a slot-indexed space: slot s maps to
/// (blocks[s / space_size], space coefficients decoded from
/// s % space_size, innermost yk fastest).  Same candidate order as the
/// original nine-deep loop nest.
struct EnumPlan {
  std::vector<TimeBlock> blocks;
  std::vector<std::int64_t> xi;
  std::vector<std::int64_t> xj;
  std::vector<std::int64_t> xk;
  std::vector<std::int64_t> yi;
  std::vector<std::int64_t> yj;
  std::vector<std::int64_t> yk;
  std::uint64_t space_size = 0;
  std::uint64_t total = 0;
};

/// Builds the slot numbering for `dom` on `machine`: time triples from
/// space.time_coeffs filtered by `makespan_bound`, space coefficients
/// from space.space_coeffs (y pinned to {0} unless search_y and the
/// grid has rows to use).
[[nodiscard]] EnumPlan build_enum_plan(const IndexDomain& dom,
                                       const MachineConfig& machine,
                                       const SearchSpace& space,
                                       double makespan_bound);

/// A position in the enumeration that steps one slot at a time: the
/// slot's time block, its space index within the block (the space
/// tuple, which the search's placement table is indexed by) and the six
/// space-coefficient digits, innermost yk first.  One div/mod chain
/// seeds it; next() is a constant-time digit increment.
struct SlotCursor {
  SlotCursor(const EnumPlan& plan, std::uint64_t slot);

  /// Steps to the next slot, rolling into the next time block when the
  /// space tuples wrap.
  void next();
  /// The slot's map, with the block's normalized time offset.
  [[nodiscard]] AffineMap map(int cols, int rows) const;

  const EnumPlan* plan;
  std::uint64_t block = 0;
  std::uint64_t space = 0;
  std::size_t digit[6] = {};  ///< yk, yj, yi, xk, xj, xi
};

}  // namespace harmony::fm
