#include "fm/compiled.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <new>
#include <unordered_map>
#include <utility>

#include "fm/strategy/table_map.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace harmony::fm {

namespace {

/// Slots of EvalContext's (src, dst) pair table: one per PE pair, when
/// that is no more than a hash table for the pairs one link pass can
/// meet (one per dependence at most) would take — a power of two at
/// least twice that many.  So it is O(min(PEs^2, dependences)).
std::size_t pair_slots(const CompiledSpec& cs) {
  const std::size_t dense = cs.num_pes * cs.num_pes;
  const std::size_t hashed =
      std::bit_ceil(std::max<std::size_t>(2 * cs.dep_code.size(), 2));
  return std::min(dense, hashed);
}

/// v mod m in [0, m) for m > 0, with no division when |v| <= m (every
/// coefficient the search enumerates).
std::int64_t reduce(std::int64_t v, std::int64_t m) {
  if (v >= 0) {
    if (v < m) return v;
  } else if (v >= -m) {
    return v + m;
  }
  const std::int64_t r = v % m;
  return r < 0 ? r + m : r;
}

/// The least and largest time of `map` over the corners of `dom`: the
/// schedule is affine over a dense box, so its extremes sit at corners.
std::pair<Cycle, Cycle> corner_times(const IndexDomain& dom,
                                     const AffineMap& map) {
  const std::int64_t is[2] = {0, dom.extent(0) - 1};
  const std::int64_t js[2] = {0, dom.extent(1) - 1};
  const std::int64_t ks[2] = {0, dom.extent(2) - 1};
  Cycle lo = std::numeric_limits<Cycle>::max();
  Cycle hi = std::numeric_limits<Cycle>::min();
  for (std::int64_t i : is) {
    for (std::int64_t j : js) {
      for (std::int64_t k : ks) {
        const Cycle t = map.time(Point{i, j, k});
        lo = std::min(lo, t);
        hi = std::max(hi, t);
      }
    }
  }
  return {lo, hi};
}

}  // namespace

Cycle CompiledSpec::makespan_cycles_of(const AffineMap& map) const {
  // The legacy evaluator's per-point running max (seeded at 0) computes
  // the same integers, just num_points times slower.
  return std::max<Cycle>(0, corner_times(domain, map).second + 1);
}

Cycle CompiledSpec::first_cycle_of(const AffineMap& map) const {
  return corner_times(domain, map).first;
}

void CompiledSpec::require_fits(const AffineMap& map) const {
  HARMONY_REQUIRE(map.cols > 0 && map.rows > 0,
                  "compiled: AffineMap grid has no columns or rows");
  HARMONY_REQUIRE(map.cols <= cols && map.rows <= rows,
                  "compiled: AffineMap grid is larger than the compiled "
                  "grid, so it places points off it");
}

ReducedPlacement ReducedPlacement::of(const AffineMap& map) {
  ReducedPlacement r;
  r.cols = map.cols;
  r.rows = map.rows;
  const std::int64_t xs[4] = {map.xi, map.xj, map.xk, map.x0};
  const std::int64_t ys[4] = {map.yi, map.yj, map.yk, map.y0};
  for (int a = 0; a < 4; ++a) {
    r.x[a] = static_cast<std::int32_t>(reduce(xs[a], map.cols));
    r.y[a] = static_cast<std::int32_t>(reduce(ys[a], map.rows));
  }
  return r;
}

std::shared_ptr<const CompiledSpec> compile_spec(const FunctionSpec& spec,
                                                 const MachineConfig& machine,
                                                 const Mapping& input_proto) {
  const auto computed = spec.computed_tensors();
  HARMONY_REQUIRE(computed.size() == 1,
                  "compile_spec: spec must have exactly one computed tensor");
  auto cs = std::make_shared<CompiledSpec>();
  const noc::GridGeometry& geom = machine.geom;
  const noc::TechnologyModel& tech = geom.tech();

  cs->target = computed[0];
  cs->domain = spec.domain(cs->target);
  cs->target_is_output = spec.is_output(cs->target);
  cs->bits = spec.bits(cs->target);
  cs->ops = spec.cost(cs->target).ops;
  cs->num_points = cs->domain.size();
  HARMONY_REQUIRE(cs->num_points <= std::numeric_limits<std::uint32_t>::max(),
                  "compile_spec: more than 2^32 - 1 target points");
  trace::Span span("fm", "compile", 0,
                   static_cast<std::uint64_t>(cs->num_points),
                   static_cast<std::uint64_t>(geom.num_nodes()));

  cs->cols = geom.cols();
  cs->rows = geom.rows();
  cs->num_pes = static_cast<std::size_t>(geom.num_nodes());
  HARMONY_REQUIRE(cs->num_pes <= std::numeric_limits<std::uint16_t>::max(),
                  "compile_spec: more than 65535 PEs");
  cs->cycle = machine.cycle;
  cs->pe_capacity_values = machine.pe_capacity_values;
  cs->link_bits_per_cycle = machine.link_bits_per_cycle;

  const Length local_reach =
      geom.pitch() * machine.local_access_pitch_fraction;
  cs->sram_access = tech.sram_access_energy(cs->bits, local_reach);

  // Candidate-invariant sums, folded by the exact addition loop the
  // legacy evaluator runs (one += per point) so the doubles match bit
  // for bit.
  const Energy op_e = tech.op_energy(cs->bits) * cs->ops;
  for (std::int64_t n = 0; n < cs->num_points; ++n) {
    cs->compute_energy_total += op_e;
    cs->total_ops_total += cs->ops;
  }

  // Geometry tables: every pure query the per-candidate loops make,
  // asked once.  Table lookups return the identical doubles a direct
  // call would.
  const std::size_t P = cs->num_pes;
  cs->transfer_energy.resize(P * P, Energy::zero());
  cs->hop_count.resize(P * P, 0);
  cs->transit.resize(P * P, 0);
  cs->dram_energy.resize(P, Energy::zero());
  cs->dram_cycles.resize(P, 0);
  cs->route_offsets.assign(P * P + 1, 0);
  for (std::size_t from = 0; from < P; ++from) {
    const noc::Coord a = geom.coord(from);
    cs->dram_energy[from] = geom.dram_access_energy(cs->bits, a);
    cs->dram_cycles[from] = machine.dram_cycles(a);
    for (std::size_t to = 0; to < P; ++to) {
      const noc::Coord b = geom.coord(to);
      const std::size_t e = from * P + to;
      cs->transfer_energy[e] = geom.transfer_energy(cs->bits, a, b);
      cs->hop_count[e] = geom.hops(a, b);
      cs->transit[e] = machine.transit_cycles(a, b);
      // Dimension-ordered route as directed-link ids, the same walk the
      // legacy bandwidth checker does per candidate (legality.cpp).
      if (!(a == b)) {
        noc::Coord at = a;
        while (!(at == b)) {
          const noc::Coord next = geom.next_hop(at, b);
          int dir;
          if (next.x == (at.x + 1) % geom.cols()) {
            dir = 0;  // E
          } else if (next.x != at.x) {
            dir = 1;  // W
          } else if (next.y == (at.y + 1) % geom.rows()) {
            dir = 2;  // N
          } else {
            dir = 3;  // S
          }
          cs->route_links.push_back(static_cast<std::uint32_t>(
              geom.index(at) * 4 + static_cast<std::size_t>(dir)));
          at = next;
        }
      }
      cs->route_offsets[e + 1] =
          static_cast<std::uint32_t>(cs->route_links.size());
    }
  }

  // Latency codes: the distinct transit and DRAM latencies in ascending
  // order, so a digest stores each input arrival in 16 bits and the max
  // of codes is the code of the max.  Code 0 means "no input" and
  // compares below every cycle.
  {
    std::vector<Cycle> lat(cs->transit);
    lat.insert(lat.end(), cs->dram_cycles.begin(), cs->dram_cycles.end());
    std::sort(lat.begin(), lat.end());
    lat.erase(std::unique(lat.begin(), lat.end()), lat.end());
    HARMONY_REQUIRE(lat.size() < std::numeric_limits<std::uint16_t>::max(),
                    "compile_spec: more than 65534 distinct latencies");
    cs->latency.assign(1, std::numeric_limits<Cycle>::min());
    cs->latency.insert(cs->latency.end(), lat.begin(), lat.end());
    const auto code = [&](Cycle c) {
      return static_cast<std::uint16_t>(
          std::lower_bound(cs->latency.begin() + 1, cs->latency.end(), c) -
          cs->latency.begin());
    };
    cs->transit_code.resize(P * P);
    for (std::size_t e = 0; e < P * P; ++e) {
      cs->transit_code[e] = code(cs->transit[e]);
      cs->max_lag = std::max(cs->max_lag, cs->transit[e]);
    }
    cs->dram_code.resize(P);
    for (std::size_t q = 0; q < P; ++q) {
      cs->dram_code[q] = code(cs->dram_cycles[q]);
    }
  }

  // Flatten the dependence relation: one spec.deps() call per point for
  // the whole search, instead of three per candidate per point.  Input
  // values get dense ordinals so the per-candidate delivered table is an
  // array, immune to the packed-key overflow the legacy set had.
  std::unordered_map<std::int64_t, std::uint32_t> input_ords;
  // Dependence classes: one per distinct offset, keyed by the offset's
  // index in the difference box [-(e - 1), e - 1]^3.
  std::unordered_map<std::int64_t, std::uint32_t> class_of;
  const std::int64_t width[3] = {2 * cs->domain.extent(0) - 1,
                                 2 * cs->domain.extent(1) - 1,
                                 2 * cs->domain.extent(2) - 1};
  cs->dep_offsets.reserve(static_cast<std::size_t>(cs->num_points) + 1);
  cs->dep_offsets.push_back(0);
  cs->edge_offsets.reserve(static_cast<std::size_t>(cs->num_points) + 1);
  cs->edge_offsets.push_back(0);
  const auto code = [](DepKind kind, std::uint64_t home, std::uint32_t src) {
    return (static_cast<std::uint64_t>(kind) << 62) | (home << 32) | src;
  };
  cs->domain.for_each([&](const Point& p) {
    for (const ValueRef& d : spec.deps(cs->target, p)) {
      if (!spec.is_input(d.tensor)) {
        const auto src =
            static_cast<std::uint32_t>(cs->domain.linearize(d.point));
        cs->dep_code.push_back(code(DepKind::kComputed, 0, src));
        cs->edge_src.push_back(src);
        const Point delta{p.i - d.point.i, p.j - d.point.j, p.k - d.point.k};
        const std::int64_t box =
            ((delta.i + width[0] / 2) * width[1] + delta.j + width[1] / 2) *
                width[2] +
            delta.k + width[2] / 2;
        const auto [it, fresh] = class_of.try_emplace(
            box, static_cast<std::uint32_t>(cs->class_delta.size()));
        if (fresh) cs->class_delta.push_back(delta);
        cs->edge_class.push_back(it->second);
        continue;
      }
      cs->has_input_deps = true;
      const auto [it, fresh] = input_ords.try_emplace(
          spec.value_index(d), static_cast<std::uint32_t>(input_ords.size()));
      const std::uint32_t ord = it->second;
      if (fresh) {
        const InputHome& home = input_proto.input_home(d.tensor);
        cs->input_refs.push_back(d);
        cs->input_home.push_back(
            home.kind == InputHome::Kind::kDram
                ? -1
                : static_cast<std::int32_t>(
                      geom.index(home.home_of(d.point))));
      }
      const std::int32_t home = cs->input_home[ord];
      cs->dep_code.push_back(
          home < 0 ? code(DepKind::kInputDram, 0, ord)
                   : code(DepKind::kInputPe,
                          static_cast<std::uint64_t>(home), ord));
    }
    cs->dep_offsets.push_back(static_cast<std::uint64_t>(cs->dep_code.size()));
    HARMONY_REQUIRE(
        cs->edge_src.size() <= std::numeric_limits<std::uint32_t>::max(),
        "compile_spec: more than 2^32 - 1 computed dependences");
    cs->edge_offsets.push_back(
        static_cast<std::uint32_t>(cs->edge_src.size()));
  });
  cs->num_input_values = static_cast<std::uint32_t>(input_ords.size());
  return cs;
}

void EvalContext::reserve_scratch(const CompiledSpec& cs) {
  const auto n = static_cast<std::size_t>(cs.num_points);
  pe.reserve(n);
  point_cycle.reserve(n);
  last_use.reserve(n);
  run_cycles.reserve(n);
  run_events.reserve(2 * n);
  pe_run.reserve(cs.num_pes + 1);
  arrival.reserve(n);
  lag.reserve(cs.num_classes());
  link_bits.reserve(cs.num_pes * 4);
  pair_slot.assign(pair_slots(cs), 0);
  axis_table.reserve(3 * static_cast<std::size_t>(cs.cols + cs.rows));
}

void EvalContext::place(const CompiledSpec& cs, const AffineMap& map) {
  cs.require_fits(map);
  place(cs, ReducedPlacement::of(map));
}

void EvalContext::place(const CompiledSpec& cs, const ReducedPlacement& rp) {
  placed_cs_ = &cs;
  placed_key_ = rp;
  digest_cs_ = nullptr;
  // Every coefficient and offset is already reduced into [0, m), so a
  // sum of two stays below 2m and one conditional subtract per odometer
  // step keeps x and y exact, where AffineMap::place pays two int64 %
  // per point.
  const auto step = [](std::int64_t& v, std::int64_t d, std::int64_t m) {
    v += d;
    if (v >= m) v -= m;
  };
  const std::int64_t cols = rp.cols;
  const std::int64_t rows = rp.rows;
  const std::int64_t ni = cs.domain.extent(0);
  const std::int64_t nj = cs.domain.extent(1);
  const std::int64_t nk = cs.domain.extent(2);
  pe.resize(static_cast<std::size_t>(cs.num_points));
  std::size_t lin = 0;  // row-major, the order IndexDomain::for_each visits
  std::int64_t x_i = rp.x[3], y_i = rp.y[3];
  for (std::int64_t i = 0; i < ni; ++i) {
    std::int64_t x_j = x_i, y_j = y_i;
    for (std::int64_t j = 0; j < nj; ++j) {
      std::int64_t x = x_j, y = y_j;
      for (std::int64_t k = 0; k < nk; ++k, ++lin) {
        pe[lin] = static_cast<std::uint16_t>(y * cs.cols + x);
        step(x, rp.x[2], cols);
        step(y, rp.y[2], rows);
      }
      step(x_j, rp.x[1], cols);
      step(y_j, rp.y[1], rows);
    }
    step(x_i, rp.x[0], cols);
    step(y_i, rp.y[0], rows);
  }
}

void EvalContext::ensure_placed(const CompiledSpec& cs,
                                const ReducedPlacement& key) {
  if (!(placed_cs_ == &cs && placed_key_ == key)) place(cs, key);
}

const Cycle* EvalContext::fill_times(const CompiledSpec& cs,
                                     const AffineMap& map) {
  const std::int64_t ni = cs.domain.extent(0);
  const std::int64_t nj = cs.domain.extent(1);
  const std::int64_t nk = cs.domain.extent(2);
  point_cycle.resize(static_cast<std::size_t>(cs.num_points));
  std::size_t lin = 0;
  Cycle t_i = map.t0;
  for (std::int64_t i = 0; i < ni; ++i, t_i += map.ti) {
    Cycle t_j = t_i;
    for (std::int64_t j = 0; j < nj; ++j, t_j += map.tj) {
      Cycle t = t_j;
      for (std::int64_t k = 0; k < nk; ++k, ++lin, t += map.tk) {
        point_cycle[lin] = t;
      }
    }
  }
  return point_cycle.data();
}

// ---- page-mapped blocks ------------------------------------------------

namespace detail {

namespace {
constexpr std::size_t kMapBytes = std::size_t{64} << 10;
}  // namespace

void* page_allocate(std::size_t bytes) {
  if (bytes < kMapBytes) return ::operator new(bytes);
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  return p;
}

void page_deallocate(void* p, std::size_t bytes) {
  if (bytes < kMapBytes) {
    ::operator delete(p);
    return;
  }
  ::munmap(p, bytes);
}

}  // namespace detail

namespace {

// The oracles read a placement from ctx's PE table: EvalContext::place
// fills it for an AffineMap, place_table copies a TableMap's.  A
// PE-homed input's home is the compiled one (in its dep_code), or for a
// TableMap the table's per-ordinal `homes`.  The schedule comes in
// separately as one cycle per point.

/// Copies `tm`'s PEs into ctx's PE table after checking that the table
/// matches the compiled spec and places every op on the grid.
void place_table(const CompiledSpec& cs, const TableMap& tm,
                 EvalContext& ctx) {
  HARMONY_REQUIRE(
      static_cast<std::int64_t>(tm.pe.size()) == cs.num_points &&
          static_cast<std::int64_t>(tm.cycle.size()) == cs.num_points &&
          tm.input_home.size() == cs.num_input_values,
      "compiled: TableMap does not match the compiled spec's shape");
  const auto num_pes = static_cast<std::int32_t>(cs.num_pes);
  HARMONY_REQUIRE(std::all_of(tm.pe.begin(), tm.pe.end(),
                              [num_pes](std::int32_t q) {
                                return q >= 0 && q < num_pes;
                              }),
                  "compiled: TableMap places a point off the compiled grid");
  ctx.forget_placement();
  ctx.pe.resize(tm.pe.size());
  for (std::size_t v = 0; v < tm.pe.size(); ++v) {
    ctx.pe[v] = static_cast<std::uint16_t>(tm.pe[v]);
  }
}

/// The home PE of the PE-homed input that dependence `code` reads:
/// homes[ordinal] for a TableMap's `homes`, the compiled home for null.
std::size_t home_of(std::uint64_t code, const std::int32_t* homes) {
  return homes != nullptr ? static_cast<std::size_t>(homes[dep_source(code)])
                          : dep_home(code);
}

/// Builds the core of the placement digest of ctx's PE table into its
/// scratch digest: every point's input arrival.  The link loads and cost
/// sums follow on demand (complete), so a candidate rejected first pays
/// for neither.
PlacementDigest& build_digest(const CompiledSpec& cs,
                              const std::int32_t* homes, EvalContext& ctx) {
  HARMONY_ASSERT_MSG(
      static_cast<std::int64_t>(ctx.pe.size()) == cs.num_points,
      "compiled: the PE table was not filled for this spec");
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  PlacementDigest& dg = ctx.scratch;
  if (cs.has_input_deps) {
    ctx.arrival.resize(n);
    for (std::size_t v = 0; v < n; ++v) {
      // The max code of the point's input operands' arrivals: DRAM, or
      // transit from the value's home PE.
      const std::size_t here = ctx.pe[v];
      std::uint16_t arrive = 0;
      for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1];
           ++o) {
        const std::uint64_t c = cs.dep_code[o];
        if (dep_kind(c) == DepKind::kInputDram) {
          arrive = std::max(arrive, cs.dram_code[here]);
        } else if (dep_kind(c) == DepKind::kInputPe) {
          arrive = std::max(arrive,
                            cs.transit_code[home_of(c, homes) * P + here]);
        }
      }
      ctx.arrival[v] = arrive;
    }
  }
  dg.arrival = cs.has_input_deps ? ctx.arrival.data() : nullptr;
  dg.lag = nullptr;
  dg.collisions = nullptr;
  dg.num_collisions = 0;
  dg.links_ready = false;
  dg.cost_ready = false;
  return dg;
}

/// Completes the digest's link loads (kLinks) and cost sums (kCost) in
/// one walk over the dependences of ctx's PE table.
///
/// The link loads: every computed edge, and the first delivery of each
/// PE-homed input value to each consumer PE (DRAM homes excluded), along
/// its dimension-ordered route — as legality.cpp records them.  The
/// transfers are counted per (src, dst) PE pair, then each pair's route
/// is walked once with count x bits, so the loads are the same integers;
/// the digest keeps the largest.  `when` null: every point runs (an
/// affine digest, checked only for a schedule that starts at cycle 0 or
/// later).  Else points at a negative cycle route nothing, as in the
/// legacy checker, so the loads are those of this schedule.
///
/// The cost sums: the legacy evaluator's sweep, in its dependence and
/// branch order (repeat-use short-circuit first for inputs, which also
/// stamps the delivery, then DRAM / local home / remote home), so every
/// double is bit-identical.
template <bool kLinks, bool kCost>
void complete(const CompiledSpec& cs, const std::int32_t* homes,
              const Cycle* when, PlacementDigest& dg, EvalContext& ctx) {
  static_assert(kLinks || kCost);
  HARMONY_ASSERT(!(kLinks && kCost) || when == nullptr);
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  const auto bits = static_cast<std::uint64_t>(cs.bits);
  const std::uint16_t* pe = ctx.pe.data();
  PlacementCost cost;
  ctx.begin_candidate();
  // The pair table: per slot, key src * P + dst + 1 in the high 32 bits
  // (the grid's 65535-PE cap keeps it there; 0 marks an empty slot) and
  // the count in the low.  With a slot per PE pair, the slot is key - 1;
  // else it is probed linearly from a multiplicative hash.
  const std::size_t slots = pair_slots(cs);
  const bool direct = slots == P * P;
  if constexpr (kLinks) {
    if (ctx.pair_slot.size() != slots) ctx.pair_slot.assign(slots, 0);
    ctx.pairs.clear();
  }
  const int shift = 64 - std::countr_zero(std::bit_ceil(slots));
  std::uint64_t* table = ctx.pair_slot.data();
  const auto route = [&](std::size_t src, std::size_t dst) {
    if (src == dst) return;
    const std::uint64_t key = src * P + dst + 1;
    std::size_t i = direct ? key - 1 : (key * 0x9E3779B97F4A7C15ull) >> shift;
    while (table[i] != 0 && table[i] >> 32 != key) i = (i + 1) & (slots - 1);
    if (table[i] == 0) {
      table[i] = key << 32;
      ctx.pairs.push_back(static_cast<std::uint32_t>(i));
    }
    ++table[i];
  };
  const auto move = [&](std::size_t from, std::size_t here) {
    if (from == here) {
      cost.local_access_energy += cs.sram_access;
    } else {
      cost.onchip_movement_energy += cs.transfer_energy[from * P + here];
      ++cost.messages;
      cost.bit_hops +=
          bits * static_cast<std::uint64_t>(cs.hop_count[from * P + here]);
    }
  };
  for (std::size_t v = 0; v < n; ++v) {
    const bool routes = when == nullptr || when[v] >= 0;
    if (!kCost && !routes) continue;
    const std::size_t here = pe[v];
    for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1];
         ++o) {
      const std::uint64_t c = cs.dep_code[o];
      const DepKind kind = dep_kind(c);
      const std::uint32_t src = dep_source(c);
      if (kind == DepKind::kComputed) {
        const std::size_t from = pe[src];
        if constexpr (kLinks) {
          if (routes) route(from, here);
        }
        if constexpr (kCost) move(from, here);
        continue;
      }
      const bool first = ctx.first_delivery(src, here);
      if constexpr (kLinks) {
        if (routes && first && kind == DepKind::kInputPe) {
          route(home_of(c, homes), here);
        }
      }
      if constexpr (kCost) {
        if (!first) {
          cost.local_access_energy += cs.sram_access;
        } else if (kind == DepKind::kInputDram) {
          cost.dram_energy += cs.dram_energy[here];
        } else {
          move(home_of(c, homes), here);
        }
      }
    }
  }
  if constexpr (kLinks) {
    ctx.link_bits.assign(P * 4, 0);
    for (const std::uint32_t i : ctx.pairs) {
      const std::uint64_t slot = std::exchange(table[i], 0);
      cs.add_route_load((slot >> 32) - 1, (slot & 0xFFFFFFFFu) * bits,
                        ctx.link_bits.data());
    }
    dg.max_link_bits = 0;
    for (const std::uint64_t b : ctx.link_bits) {
      dg.max_link_bits = std::max(dg.max_link_bits, b);
    }
    dg.links_ready = true;
  }
  if constexpr (kCost) {
    dg.cost = cost;
    dg.cost_ready = true;
  }
}

/// Fills ctx.collisions with every offset of the half difference box at
/// which the placement `rp` maps two points to one PE
/// (PlacementDigest::collisions).  Per axis a, tables hold the PE offset
/// (x_a d mod cols, y_a d mod rows) of each |d| < extent_a.  The last
/// axis with more than one point is scanned innermost, its table as one
/// code x * rows + y: for each offset of the axes before it, the scan
/// compares each code with the one that cancels that offset, so it adds
/// and compares, with no division.
void collect_collisions(const CompiledSpec& cs, const ReducedPlacement& rp,
                        EvalContext& ctx) {
  const std::int64_t cols = rp.cols;
  const std::int64_t rows = rp.rows;
  const std::int64_t e[3] = {cs.domain.extent(0), cs.domain.extent(1),
                             cs.domain.extent(2)};
  std::vector<Point>& out = ctx.collisions;
  out.clear();
  const int inner = e[2] > 1 ? 2 : e[1] > 1 ? 1 : 0;
  if (e[inner] == 1) return;  // one point: no pairs
  // Table layout, each centred at offset 0: x and y of axes 0 and 1,
  // then the inner axis's codes.
  const auto len = [&e](int a) {
    return static_cast<std::size_t>(2 * e[a] - 1);
  };
  std::vector<std::int64_t>& table = ctx.axis_table;
  table.resize(2 * len(0) + 2 * len(1) + len(inner));
  std::int64_t* xs[2] = {table.data() + (e[0] - 1),
                         table.data() + 2 * len(0) + (e[1] - 1)};
  std::int64_t* ys[2] = {xs[0] + len(0), xs[1] + len(1)};
  std::int64_t* code = table.data() + 2 * len(0) + 2 * len(1) + (e[inner] - 1);
  for (int a = 0; a < 3; ++a) {
    if (a > 1 && a != inner) continue;
    std::int64_t x = 0, y = 0;
    for (std::int64_t d = 0; d < e[a]; ++d) {
      const std::int64_t nx = x == 0 ? 0 : cols - x;
      const std::int64_t ny = y == 0 ? 0 : rows - y;
      if (a < 2) {
        xs[a][d] = x;
        xs[a][-d] = nx;
        ys[a][d] = y;
        ys[a][-d] = ny;
      }
      if (a == inner) {
        code[d] = x * rows + y;
        code[-d] = nx * rows + ny;
      }
      x += rp.x[a];
      if (x >= cols) x -= cols;
      y += rp.y[a];
      if (y >= rows) y -= rows;
    }
  }
  // The axes before the inner one range over the lexicographically
  // positive half: the first nonzero component is positive.
  const std::int64_t ni = inner > 0 ? e[0] : 1;
  const std::int64_t nj = inner > 1 ? e[1] : 1;
  for (std::int64_t di = 0; di < ni; ++di) {
    for (std::int64_t dj = di == 0 ? 0 : 1 - nj; dj < nj; ++dj) {
      // The PE offset of the outer components (an axis at or past the
      // inner one stays at offset 0, whose entry is 0), and the inner
      // code that cancels it.
      std::int64_t x = xs[0][di] + xs[1][dj];
      std::int64_t y = ys[0][di] + ys[1][dj];
      if (x >= cols) x -= cols;
      if (y >= rows) y -= rows;
      const std::int64_t want =
          (x == 0 ? 0 : cols - x) * rows + (y == 0 ? 0 : rows - y);
      for (std::int64_t d = di == 0 && dj == 0 ? 1 : 1 - e[inner];
           d < e[inner]; ++d) {
        if (code[d] != want) continue;
        std::int64_t c[3] = {di, dj, 0};
        c[inner] = d;
        out.push_back(Point{c[0], c[1], c[2]});
      }
    }
  }
}

/// Sorts one PE's short run: insertion sort below 16 elements, where
/// std::sort's call and partition overhead dominates.
void sort_run(std::uint64_t* first, std::uint64_t* last) {
  if (last - first > 16) {
    std::sort(first, last);
    return;
  }
  for (std::uint64_t* a = first + (first != last ? 1 : 0); a < last; ++a) {
    const std::uint64_t x = *a;
    std::uint64_t* b = a;
    for (; b > first && *(b - 1) > x; --b) *b = *(b - 1);
    *b = x;
  }
}

/// Counting sort by PE of the elements that run (negative-time ones are
/// not on the grid).  Inclusive prefix sums leave pe_run[q] at the end
/// of PE q's run; scattering from the last element down steps each back
/// to its run's start, so PE q's elements end up at [pe_run[q],
/// pe_run[q + 1]).  With `cycles` each contributes its cycle to
/// run_cycles (exclusivity); with `events` its alloc and free to
/// run_events as (cycle << 1) | alloc, so that frees sort before allocs
/// at a tick (storage).  The storage ledger holds the target tensor's
/// values only (inputs live off-ledger, as in legality.cpp), each from
/// its cycle to its last use, or to the makespan for an output.
void sort_by_pe(const CompiledSpec& cs, const std::uint16_t* pe,
                const Cycle* when, Cycle makespan, bool cycles, bool events,
                EvalContext& ctx) {
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  if (events) {
    ctx.last_use.assign(n, -1);
    for (std::size_t v = 0; v < n; ++v) {
      const Cycle t = when[v];
      if (t < 0) continue;
      ctx.last_use[v] = std::max(ctx.last_use[v], t);
      for (std::uint32_t e = cs.edge_offsets[v]; e < cs.edge_offsets[v + 1];
           ++e) {
        Cycle& last = ctx.last_use[cs.edge_src[e]];
        last = std::max(last, t);
      }
    }
  }
  ctx.pe_run.assign(P + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (when[v] >= 0) ++ctx.pe_run[pe[v]];
  }
  for (std::size_t q = 1; q <= P; ++q) ctx.pe_run[q] += ctx.pe_run[q - 1];
  if (cycles) ctx.run_cycles.resize(ctx.pe_run[P]);
  if (events) ctx.run_events.resize(2 * std::size_t{ctx.pe_run[P]});
  for (std::size_t v = n; v-- > 0;) {
    const Cycle t = when[v];
    if (t < 0) continue;
    const std::uint32_t at = --ctx.pe_run[pe[v]];
    if (cycles) ctx.run_cycles[at] = static_cast<std::uint64_t>(t);
    if (events) {
      const Cycle end = cs.target_is_output ? makespan : ctx.last_use[v];
      ctx.run_events[2 * at] = (static_cast<std::uint64_t>(t) << 1) | 1;
      ctx.run_events[2 * at + 1] = static_cast<std::uint64_t>(end + 1) << 1;
    }
  }
}

/// The storage ledger over sort_by_pe's run_events: false once some PE
/// holds more live values than its capacity.
bool storage_ok(const CompiledSpec& cs, EvalContext& ctx) {
  for (std::size_t q = 0; q < cs.num_pes; ++q) {
    std::uint64_t* ev = ctx.run_events.data();
    const std::size_t lo = 2 * std::size_t{ctx.pe_run[q]};
    const std::size_t hi = 2 * std::size_t{ctx.pe_run[q + 1]};
    sort_run(ev + lo, ev + hi);
    std::int64_t live = 0;
    for (std::size_t a = lo; a < hi; ++a) {
      live += (ev[a] & 1) != 0 ? 1 : -1;
      if (live > cs.pe_capacity_values) return false;
    }
  }
  return true;
}

/// The TableMap schedule pass over the digest `dg` of ctx's PE table
/// (the table's homes are `homes`), stopped at the first violation.
/// An AffineMap's is affine_schedule_ok.
bool table_schedule_ok(const CompiledSpec& cs, const std::int32_t* homes,
                       PlacementDigest& dg, const Cycle* when,
                       Cycle makespan, const VerifyOptions& opts,
                       EvalContext& ctx) {
  HARMONY_REQUIRE(makespan <= (Cycle{1} << 40),
                  "verify: schedule exceeds 2^40 cycles");
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  const std::uint16_t* pe = ctx.pe.data();

  // ---- 1. causality & transit ----------------------------------------
  // Per point: its own cycle, its latest input arrival, then each
  // computed edge's gap against max(1, transit) between the two PEs —
  // looked up only for a gap that some placement could violate.
  for (std::size_t v = 0; v < n; ++v) {
    const Cycle t = when[v];
    if (t < 0) return false;
    if (dg.arrival != nullptr && t < cs.latency[dg.arrival[v]]) return false;
    const std::size_t here = pe[v];
    for (std::uint32_t e = cs.edge_offsets[v]; e < cs.edge_offsets[v + 1];
         ++e) {
      const std::uint32_t u = cs.edge_src[e];
      const Cycle gap = t - when[u];
      if (gap < 1) return false;
      if (gap < cs.max_lag && gap < cs.transit[pe[u] * P + here]) {
        return false;
      }
    }
  }

  // The storage ledger is skipped when the capacity is at least the
  // point count: no PE can exceed it then.
  const bool storage =
      opts.check_storage && cs.num_points > cs.pe_capacity_values;
  sort_by_pe(cs, pe, when, makespan, /*cycles=*/true, storage, ctx);

  // ---- 2. exclusivity: no two elements share a (PE, cycle) -----------
  for (std::size_t q = 0; q < P; ++q) {
    std::uint64_t* run = ctx.run_cycles.data();
    const std::uint32_t lo = ctx.pe_run[q];
    const std::uint32_t hi = ctx.pe_run[q + 1];
    if (hi - lo < 2) continue;
    sort_run(run + lo, run + hi);
    for (std::uint32_t a = lo + 1; a < hi; ++a) {
      if (run[a] == run[a - 1]) return false;
    }
  }

  // ---- 3. storage: peak live values per PE ---------------------------
  if (storage && !storage_ok(cs, ctx)) return false;

  // ---- 4. bandwidth: average bits/cycle per directed link ------------
  // Division is monotone, so the largest load's rate is the largest
  // rate, and fm::verify divides the same integers.
  if (opts.check_bandwidth && makespan > 0) {
    complete</*kLinks=*/true, /*kCost=*/false>(cs, homes, when, dg, ctx);
    const double rate = static_cast<double>(dg.max_link_bits) /
                        static_cast<double>(makespan);
    if (rate > cs.link_bits_per_cycle) return false;
  }
  return true;
}

/// One digest of ctx's PE table and its cost sums: every evaluate_cost.
CostReport cost_of(const CompiledSpec& cs, const std::int32_t* homes,
                   Cycle makespan, EvalContext& ctx) {
  PlacementDigest& dg = build_digest(cs, homes, ctx);
  complete</*kLinks=*/false, /*kCost=*/true>(cs, homes, nullptr, dg, ctx);
  return digest_cost(cs, dg, makespan, ctx);
}

}  // namespace

PlacementDigest& EvalContext::digest(const CompiledSpec& cs,
                                     const ReducedPlacement& key) {
  if (digest_cs_ == &cs && scratch.key == key) return scratch;
  ensure_placed(cs, key);
  PlacementDigest& dg = build_digest(cs, nullptr, *this);
  // Each class's lag: the largest transit over its edges, as a code.
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  lag.assign(cs.num_classes(), 0);
  std::uint16_t* l = lag.data();
  const std::uint16_t* at = pe.data();
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t here = at[v];
    for (std::uint32_t e = cs.edge_offsets[v]; e < cs.edge_offsets[v + 1];
         ++e) {
      const std::uint32_t c = cs.edge_class[e];
      l[c] = std::max(l[c], cs.transit_code[at[cs.edge_src[e]] * P + here]);
    }
  }
  collect_collisions(cs, key, *this);
  dg.key = key;
  dg.lag = lag.data();
  dg.collisions = collisions.data();
  dg.num_collisions = collisions.size();
  digest_cs_ = &cs;
  return dg;
}

Cycle input_shift(const CompiledSpec& cs, const PlacementDigest& dg,
                  const AffineMap& map) {
  if (dg.arrival == nullptr) return 0;
  const std::int64_t ni = cs.domain.extent(0);
  const std::int64_t nj = cs.domain.extent(1);
  const std::int64_t nk = cs.domain.extent(2);
  const std::uint16_t* a = dg.arrival;
  Cycle deficit = 0;
  Cycle t_i = map.t0;
  for (std::int64_t i = 0; i < ni; ++i, t_i += map.ti) {
    Cycle t_j = t_i;
    for (std::int64_t j = 0; j < nj; ++j, t_j += map.tj) {
      Cycle t = t_j;
      for (std::int64_t k = 0; k < nk; ++k, ++a, t += map.tk) {
        if (*a != 0) deficit = std::max(deficit, cs.latency[*a] - t);
      }
    }
  }
  return deficit;
}

bool affine_schedule_ok(const CompiledSpec& cs, PlacementDigest& dg,
                        const AffineMap& map, Cycle makespan,
                        const VerifyOptions& opts, EvalContext& ctx,
                        bool inputs_shifted) {
  HARMONY_REQUIRE(makespan <= (Cycle{1} << 40),
                  "verify: schedule exceeds 2^40 cycles");
  // Causality of the points themselves: the schedule is affine over a
  // box, so its least cycle sits at a corner.  From here every time is
  // in [0, 2^40), so |t_a| (extent_a - 1) < 2^40 on each axis and each
  // gap below is under 3 * 2^40 in magnitude: no product overflows.
  if (cs.first_cycle_of(map) < 0) return false;
  if (!inputs_shifted && input_shift(cs, dg, map) > 0) return false;
  const auto gap = [&map](const Point& d) {
    return map.ti * d.i + map.tj * d.j + map.tk * d.k;
  };
  // Causality of the computed edges: every edge of a class has the
  // class's gap, and its largest lag is the class's.
  for (std::size_t c = 0; c < cs.num_classes(); ++c) {
    if (gap(cs.class_delta[c]) < std::max<Cycle>(1, cs.latency[dg.lag[c]])) {
      return false;
    }
  }
  // Exclusivity: two points share a PE exactly at a collision offset,
  // and a cycle exactly where the schedule maps the offset to 0.
  for (std::size_t o = 0; o < dg.num_collisions; ++o) {
    if (gap(dg.collisions[o]) == 0) return false;
  }
  if (opts.check_storage && cs.num_points > cs.pe_capacity_values) {
    ctx.ensure_placed(cs, dg.key);
    const Cycle* when = ctx.fill_times(cs, map);
    sort_by_pe(cs, ctx.pe.data(), when, makespan, /*cycles=*/false,
               /*events=*/true, ctx);
    if (!storage_ok(cs, ctx)) return false;
  }
  // Bandwidth, with fm::verify's own division.
  if (opts.check_bandwidth && makespan > 0) {
    if (!dg.links_ready) {
      ctx.ensure_placed(cs, dg.key);
      complete</*kLinks=*/true, /*kCost=*/false>(cs, nullptr, nullptr, dg,
                                                 ctx);
    }
    const double rate = static_cast<double>(dg.max_link_bits) /
                        static_cast<double>(makespan);
    if (rate > cs.link_bits_per_cycle) return false;
  }
  return true;
}

void complete_digest(const CompiledSpec& cs, PlacementDigest& dg,
                     EvalContext& ctx) {
  ctx.ensure_placed(cs, dg.key);
  complete</*kLinks=*/true, /*kCost=*/true>(cs, nullptr, nullptr, dg, ctx);
}

CostReport digest_cost(const CompiledSpec& cs, PlacementDigest& dg,
                       Cycle makespan, EvalContext& ctx) {
  if (!dg.cost_ready) {
    ctx.ensure_placed(cs, dg.key);
    complete</*kLinks=*/false, /*kCost=*/true>(cs, nullptr, nullptr, dg,
                                               ctx);
  }
  CostReport rep;
  rep.makespan_cycles = makespan;
  rep.compute_energy = cs.compute_energy_total;
  rep.total_ops = cs.total_ops_total;
  rep.onchip_movement_energy = dg.cost.onchip_movement_energy;
  rep.local_access_energy = dg.cost.local_access_energy;
  rep.dram_energy = dg.cost.dram_energy;
  rep.messages = dg.cost.messages;
  rep.bit_hops = dg.cost.bit_hops;
  rep.makespan = cs.cycle * static_cast<double>(makespan);
  return rep;
}

CostReport evaluate_cost(const CompiledSpec& cs, const AffineMap& map,
                         EvalContext& ctx) {
  ctx.place(cs, map);
  return cost_of(cs, nullptr, cs.makespan_cycles_of(map), ctx);
}

bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
               EvalContext& ctx, const VerifyOptions& opts) {
  cs.require_fits(map);
  PlacementDigest& dg = ctx.digest(cs, ReducedPlacement::of(map));
  return affine_schedule_ok(cs, dg, map, cs.makespan_cycles_of(map), opts,
                            ctx, /*inputs_shifted=*/false);
}

CostReport evaluate_cost(const CompiledSpec& cs, const TableMap& tm,
                         EvalContext& ctx) {
  place_table(cs, tm, ctx);
  return cost_of(cs, tm.input_home.data(), tm.makespan_cycles(), ctx);
}

bool verify_ok(const CompiledSpec& cs, const TableMap& tm,
               EvalContext& ctx, const VerifyOptions& opts) {
  place_table(cs, tm, ctx);
  const std::int32_t* homes = tm.input_home.data();
  PlacementDigest& dg = build_digest(cs, homes, ctx);
  return table_schedule_ok(cs, homes, dg, tm.cycle.data(),
                           tm.makespan_cycles(), opts, ctx);
}

}  // namespace harmony::fm
