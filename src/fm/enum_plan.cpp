#include "fm/enum_plan.hpp"

#include <algorithm>
#include <limits>
#include <optional>

#include "analyze/diagnostic.hpp"
#include "support/error.hpp"

namespace harmony::fm {

namespace {

/// a * b, or nullopt on uint64 wrap — the mixed-radix slot count must
/// be exact; a wrapped total would silently enumerate a truncated
/// space (every slot above the wrap point would simply never exist).
std::optional<std::uint64_t> checked_mul(std::uint64_t a, std::uint64_t b) {
  if (a != 0 && b > std::numeric_limits<std::uint64_t>::max() / a) {
    return std::nullopt;
  }
  return a * b;
}

/// Extremes of an affine form over the domain box (attained at corners).
struct Range {
  std::int64_t lo;
  std::int64_t hi;
};

Range affine_range(const IndexDomain& dom, std::int64_t ci, std::int64_t cj,
                   std::int64_t ck, std::int64_t c0) {
  Range r{std::numeric_limits<std::int64_t>::max(),
          std::numeric_limits<std::int64_t>::min()};
  const std::int64_t is[2] = {0, dom.extent(0) - 1};
  const std::int64_t js[2] = {0, dom.extent(1) - 1};
  const std::int64_t ks[2] = {0, dom.extent(2) - 1};
  for (std::int64_t i : is) {
    for (std::int64_t j : js) {
      for (std::int64_t k : ks) {
        const std::int64_t v = ci * i + cj * j + ck * k + c0;
        r.lo = std::min(r.lo, v);
        r.hi = std::max(r.hi, v);
      }
    }
  }
  return r;
}

}  // namespace

EnumPlan build_enum_plan(const IndexDomain& dom, const MachineConfig& machine,
                         const SearchSpace& space, double makespan_bound) {
  const bool use_j = dom.rank() >= 2;
  const bool use_k = dom.rank() >= 3;
  const std::vector<std::int64_t> zero{0};
  const auto& tc = space.time_coeffs;
  const auto& sc = space.space_coeffs;
  const auto& tcj = use_j ? tc : zero;
  const auto& tck = use_k ? tc : zero;
  const auto& scy = space.search_y && machine.geom.rows() > 1 ? sc : zero;

  EnumPlan plan;
  for (std::int64_t ti : tc) {
    for (std::int64_t tj : tcj) {
      for (std::int64_t tk : tck) {
        // Normalize the offset so the schedule starts at cycle 0.
        const Range tr = affine_range(dom, ti, tj, tk, 0);
        if (static_cast<double>(tr.hi - tr.lo + 1) > makespan_bound) {
          continue;  // hopelessly stretched; contributes no slots
        }
        plan.blocks.push_back(TimeBlock{ti, tj, tk, -tr.lo});
      }
    }
  }
  plan.xi = sc;
  plan.xj = use_j ? sc : zero;
  plan.xk = use_k ? sc : zero;
  plan.yi = scy;
  plan.yj = use_j ? scy : zero;
  plan.yk = use_k ? scy : zero;
  // Overflow-checked mixed-radix product: for large affine families the
  // naive product wraps uint64, and the enumeration would cover only
  // total mod 2^64 slots while reporting itself exhausted.  Fail loudly
  // with the FM-series diagnostic instead.
  std::optional<std::uint64_t> space_sz = std::uint64_t{1};
  for (const std::uint64_t radix :
       {plan.xi.size(), plan.xj.size(), plan.xk.size(), plan.yi.size(),
        plan.yj.size(), plan.yk.size()}) {
    if (space_sz) space_sz = checked_mul(*space_sz, radix);
  }
  const std::optional<std::uint64_t> total =
      space_sz ? checked_mul(*space_sz, plan.blocks.size()) : std::nullopt;
  if (!total) {
    const analyze::Diagnostic d = analyze::make_diagnostic(
        "FM006", analyze::Location{},
        "fm::build_enum_plan: mixed-radix slot count overflows uint64; "
        "the enumeration would silently truncate");
    throw InvalidArgument(d.rule_id + ": " + d.message + " (" + d.hint + ")");
  }
  plan.space_size = *space_sz;
  plan.total = *total;
  return plan;
}

SlotCursor::SlotCursor(const EnumPlan& plan, std::uint64_t slot)
    : plan(&plan) {
  if (plan.space_size == 0) return;
  // One div/mod chain, innermost coefficient (yk) peeled first —
  // identical digit order to the per-slot decode.
  block = slot / plan.space_size;
  space = slot % plan.space_size;
  const std::size_t radix[6] = {plan.yk.size(), plan.yj.size(),
                                plan.yi.size(), plan.xk.size(),
                                plan.xj.size(), plan.xi.size()};
  std::uint64_t rem = space;
  for (int d = 0; d < 6; ++d) {
    digit[d] = static_cast<std::size_t>(rem % radix[d]);
    rem /= radix[d];
  }
}

void SlotCursor::next() {
  const std::size_t radix[6] = {plan->yk.size(), plan->yj.size(),
                                plan->yi.size(), plan->xk.size(),
                                plan->xj.size(), plan->xi.size()};
  int d = 0;
  while (d < 6 && ++digit[d] == radix[d]) {
    digit[d] = 0;
    ++d;
  }
  if (d == 6) {
    ++block;
    space = 0;
  } else {
    ++space;
  }
}

AffineMap SlotCursor::map(int cols, int rows) const {
  const TimeBlock& tb = plan->blocks[block];
  return AffineMap{.ti = tb.ti, .tj = tb.tj, .tk = tb.tk, .t0 = tb.t0,
                   .xi = plan->xi[digit[5]], .xj = plan->xj[digit[4]],
                   .xk = plan->xk[digit[3]], .x0 = 0,
                   .yi = plan->yi[digit[2]], .yj = plan->yj[digit[1]],
                   .yk = plan->yk[digit[0]], .y0 = 0,
                   .cols = cols, .rows = rows};
}

}  // namespace harmony::fm
