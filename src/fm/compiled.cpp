#include "fm/compiled.hpp"

#include <sys/mman.h>

#include <algorithm>
#include <limits>
#include <new>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "fm/strategy/table_map.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace harmony::fm {

namespace {

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

}  // namespace

Cycle CompiledSpec::makespan_cycles_of(const AffineMap& map) const {
  // The schedule is affine over a dense box, so its maximum sits at a
  // corner; the legacy evaluator's per-point running max (seeded at 0)
  // computes the same integers, just num_points times slower.
  const std::int64_t is[2] = {0, domain.extent(0) - 1};
  const std::int64_t js[2] = {0, domain.extent(1) - 1};
  const std::int64_t ks[2] = {0, domain.extent(2) - 1};
  Cycle m = 0;
  for (std::int64_t i : is) {
    for (std::int64_t j : js) {
      for (std::int64_t k : ks) {
        m = std::max(m, map.time(Point{i, j, k}) + 1);
      }
    }
  }
  return m;
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

  cs->tensor_names.reserve(static_cast<std::size_t>(spec.num_tensors()));
  for (TensorId t = 0; t < spec.num_tensors(); ++t) {
    cs->tensor_names.push_back(spec.name(t));
  }

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
  cs->dep_offsets.reserve(static_cast<std::size_t>(cs->num_points) + 1);
  cs->dep_offsets.push_back(0);
  cs->edge_offsets.reserve(static_cast<std::size_t>(cs->num_points) + 1);
  cs->edge_offsets.push_back(0);
  cs->domain.for_each([&](const Point& p) {
    for (const ValueRef& d : spec.deps(cs->target, p)) {
      CompiledDep cd;
      cd.tensor = d.tensor;
      cd.i = d.point.i;
      cd.j = d.point.j;
      cd.k = d.point.k;
      if (spec.is_input(d.tensor)) {
        cs->has_input_deps = true;
        cd.input_ord =
            input_ords
                .try_emplace(spec.value_index(d),
                             static_cast<std::uint32_t>(input_ords.size()))
                .first->second;
        const InputHome& home = input_proto.input_home(d.tensor);
        if (home.kind == InputHome::Kind::kDram) {
          cd.kind = CompiledDep::kInputDram;
        } else {
          cd.kind = CompiledDep::kInputPe;
          cd.home_pe =
              static_cast<std::int32_t>(geom.index(home.home_of(d.point)));
        }
      } else {
        cd.kind = CompiledDep::kComputed;
        cd.dep_lin = cs->domain.linearize(d.point);
        cs->edge_src.push_back(static_cast<std::uint32_t>(cd.dep_lin));
      }
      cs->deps.push_back(cd);
    }
    cs->dep_offsets.push_back(static_cast<std::uint64_t>(cs->deps.size()));
    HARMONY_REQUIRE(
        cs->edge_src.size() <= std::numeric_limits<std::uint32_t>::max(),
        "compile_spec: more than 2^32 - 1 computed dependences");
    cs->edge_offsets.push_back(
        static_cast<std::uint32_t>(cs->edge_src.size()));
  });
  cs->num_input_values = static_cast<std::uint32_t>(input_ords.size());
  return cs;
}

void EvalContext::reserve_scratch(const CompiledSpec& cs,
                                  std::uint64_t max_placements) {
  const auto n = static_cast<std::size_t>(cs.num_points);
  point_pe.reserve(n);
  point_cycle.reserve(n);
  last_use.reserve(n);
  run_cycles.reserve(n);
  run_events.reserve(2 * n);
  pe_run.reserve(cs.num_pes + 1);
  pe.reserve(n);
  arrival.reserve(n);
  link_bits.reserve(cs.num_pes * 4);
  gate_table.reserve(3 * static_cast<std::size_t>(cs.cols + cs.rows));
  store.reserve(cs, max_placements);
}

void EvalContext::place(const CompiledSpec& cs, const AffineMap& map) {
  cs.require_fits(map);
  place(cs, ReducedPlacement::of(map));
}

void EvalContext::place(const CompiledSpec& cs, const ReducedPlacement& rp) {
  placed_ = true;
  placed_key_ = rp;
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
  point_pe.resize(static_cast<std::size_t>(cs.num_points));
  std::size_t lin = 0;  // row-major, the order IndexDomain::for_each visits
  std::int64_t x_i = rp.x[3], y_i = rp.y[3];
  for (std::int64_t i = 0; i < ni; ++i) {
    std::int64_t x_j = x_i, y_j = y_i;
    for (std::int64_t j = 0; j < nj; ++j) {
      std::int64_t x = x_j, y = y_j;
      for (std::int64_t k = 0; k < nk; ++k, ++lin) {
        point_pe[lin] = static_cast<std::int32_t>(y * cs.cols + x);
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

// ---- the digest store -------------------------------------------------

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

std::uint64_t hash_of(const ReducedPlacement& key) {
  std::uint64_t h = 0x9E3779B97F4A7C15ULL;
  const auto mix = [&h](std::int32_t v) {
    h = (h ^ static_cast<std::uint32_t>(v)) * 0xFF51AFD7ED558CCDULL;
    h ^= h >> 29;
  };
  for (const std::int32_t v : key.x) mix(v);
  for (const std::int32_t v : key.y) mix(v);
  mix(key.cols);
  mix(key.rows);
  return h ^ (h >> 32);
}

}  // namespace

void DigestStore::reserve(const CompiledSpec& cs,
                          std::uint64_t max_placements) {
  const auto n = static_cast<std::size_t>(cs.num_points);
  const std::size_t halves = n + (cs.has_input_deps ? n : 0);
  const std::size_t per_digest =
      halves * sizeof(std::uint16_t) + sizeof(PlacementDigest);
  const auto index_slots = [](std::size_t digests) {
    std::size_t slots = 1;
    while (slots < 2 * digests) slots <<= 1;  // load factor <= 1/2
    return slots;
  };
  std::size_t cap = static_cast<std::size_t>(std::min<std::uint64_t>(
      max_placements, kBudgetBytes / (per_digest + 2 * sizeof(Slot))));
  while (cap > 0 && cap * per_digest + index_slots(cap) * sizeof(Slot) >
                        kBudgetBytes) {
    --cap;
  }
  capacity_ = cap;
  halves_.clear();
  digests_.clear();
  index_.clear();
  if (cap == 0) return;
  halves_.reserve(cap * halves);
  digests_.reserve(cap);
  index_.assign(index_slots(cap), Slot{});
}

PlacementDigest* DigestStore::find(const ReducedPlacement& key) {
  if (index_.empty()) return nullptr;
  const std::uint64_t h = hash_of(key);
  const std::size_t mask = index_.size() - 1;
  for (std::size_t s = h & mask;; s = (s + 1) & mask) {
    const Slot& slot = index_[s];
    if (slot.digest < 0) return nullptr;
    const auto d = static_cast<std::size_t>(slot.digest);
    if (slot.hash == h && digests_[d].key == key) return &digests_[d];
  }
}

PlacementDigest* DigestStore::keep(const CompiledSpec& cs,
                                   const PlacementDigest& dg) {
  if (digests_.size() >= capacity_) return nullptr;
  // Appends stay inside the reserved capacity, so no array moves and
  // every kept pointer stays valid for the store's life.
  const auto append = [](auto& pool, const auto* src, std::size_t count) {
    const std::size_t at = pool.size();
    HARMONY_ASSERT(at + count <= pool.capacity());
    pool.insert(pool.end(), src, src + count);
    return pool.data() + at;
  };
  const auto n = static_cast<std::size_t>(cs.num_points);
  PlacementDigest kept = dg;
  kept.pe = append(halves_, dg.pe, n);
  if (dg.arrival != nullptr) kept.arrival = append(halves_, dg.arrival, n);
  kept.link_bits = nullptr;
  const auto d = static_cast<std::int32_t>(digests_.size());
  digests_.push_back(kept);
  const std::uint64_t h = hash_of(kept.key);
  const std::size_t mask = index_.size() - 1;
  std::size_t s = h & mask;
  while (index_[s].digest >= 0) s = (s + 1) & mask;
  index_[s] = Slot{h, d};
  return &digests_.back();
}

namespace {

// The oracles are written once against a *placement view* — the PE of
// each linearized target point and the home PE of each PE-resident
// input value — instantiated for the AffineMap (the PE table
// EvalContext::place filled) and the TableMap (array lookups); the
// schedule comes in separately as one cycle per point.  One template
// body serves both views, so the bit-identical-to-legacy pin covers
// both instantiations.
struct AffineView {
  const std::int32_t* point_pe;
  [[nodiscard]] std::size_t pe(std::size_t lin) const {
    return static_cast<std::size_t>(point_pe[lin]);
  }
  [[nodiscard]] std::int32_t home(const CompiledDep& d) const {
    return d.home_pe;
  }
};

AffineView affine_view(const CompiledSpec& cs, const EvalContext& ctx) {
  HARMONY_ASSERT_MSG(
      static_cast<std::int64_t>(ctx.point_pe.size()) == cs.num_points,
      "compiled: the PE table was not filled by place() for this spec");
  return AffineView{ctx.point_pe.data()};
}

struct TableView {
  const TableMap& tm;
  [[nodiscard]] std::size_t pe(std::size_t lin) const {
    return static_cast<std::size_t>(tm.pe[lin]);
  }
  [[nodiscard]] std::int32_t home(const CompiledDep& d) const {
    return tm.input_home[d.input_ord];
  }
};

TableView table_view(const CompiledSpec& cs, const TableMap& tm) {
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
  return TableView{tm};
}

/// Builds the core of `view`'s placement digest into ctx's scratch
/// digest: every point's PE (which fixes every computed edge's lag) and
/// its input arrival.  The link loads and cost sums follow on demand
/// (complete_links, complete_cost), so a candidate rejected first pays
/// for neither.
template <typename View>
PlacementDigest& build_digest(const CompiledSpec& cs, const View& view,
                              EvalContext& ctx) {
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  PlacementDigest& dg = ctx.scratch;
  ctx.pe.resize(n);
  ctx.arrival.resize(cs.has_input_deps ? n : 0);
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t here = view.pe(v);
    ctx.pe[v] = static_cast<std::uint16_t>(here);
    if (!cs.has_input_deps) continue;
    // The max code of the point's input operands' arrivals: DRAM, or
    // transit from the value's home PE.
    std::uint16_t arrive = 0;
    for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1];
         ++o) {
      const CompiledDep& d = cs.deps[o];
      if (d.kind == CompiledDep::kInputDram) {
        arrive = std::max(arrive, cs.dram_code[here]);
      } else if (d.kind == CompiledDep::kInputPe) {
        const auto from = static_cast<std::size_t>(view.home(d));
        arrive = std::max(arrive, cs.transit_code[from * P + here]);
      }
    }
    ctx.arrival[v] = arrive;
  }
  dg.pe = ctx.pe.data();
  dg.arrival = cs.has_input_deps ? ctx.arrival.data() : nullptr;
  dg.link_bits = nullptr;
  dg.links_ready = false;
  dg.cost_ready = false;
  return dg;
}

/// The digest's link loads: every computed edge, and the first delivery
/// of each PE-homed input value to each consumer PE (DRAM homes
/// excluded), along its dimension-ordered route — as legality.cpp
/// records them.  `when` null: every point runs (a digest the store
/// keeps).  Else points at a negative cycle route nothing, as in the
/// legacy checker, so the loads are those of this schedule.  Only the
/// scratch digest keeps every link; a kept one keeps the largest.
template <typename View>
void complete_links(const CompiledSpec& cs, const View& view,
                    const Cycle* when, PlacementDigest& dg,
                    EvalContext& ctx) {
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  const auto bits = static_cast<std::uint64_t>(cs.bits);
  ctx.begin_candidate();
  ctx.link_bits.assign(P * 4, 0);
  const auto route = [&](std::size_t src, std::size_t dst) {
    if (src == dst) return;
    const std::size_t r = src * P + dst;
    for (std::uint32_t o = cs.route_offsets[r]; o < cs.route_offsets[r + 1];
         ++o) {
      ctx.link_bits[cs.route_links[o]] += bits;
    }
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (when != nullptr && when[v] < 0) continue;
    const std::size_t here = view.pe(v);
    for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1];
         ++o) {
      const CompiledDep& d = cs.deps[o];
      if (d.kind == CompiledDep::kComputed) {
        route(view.pe(static_cast<std::size_t>(d.dep_lin)), here);
      } else if (d.kind == CompiledDep::kInputPe &&
                 ctx.first_delivery(d.input_ord, here)) {
        route(static_cast<std::size_t>(view.home(d)), here);
      }
    }
  }
  dg.max_link_bits = 0;
  for (const std::uint64_t b : ctx.link_bits) {
    dg.max_link_bits = std::max(dg.max_link_bits, b);
  }
  dg.link_bits = &dg == &ctx.scratch ? ctx.link_bits.data() : nullptr;
  dg.links_ready = true;
}

/// The digest's cost sums: the legacy evaluator's sweep, in its
/// dependence and branch order (repeat-use short-circuit first for
/// inputs, which also stamps the delivery, then DRAM / local home /
/// remote home), so every double is bit-identical.
template <typename View>
void complete_cost(const CompiledSpec& cs, const View& view,
                   PlacementDigest& dg, EvalContext& ctx) {
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);
  const auto bits = static_cast<std::uint64_t>(cs.bits);
  PlacementCost& cost = dg.cost;
  cost = PlacementCost{};
  ctx.begin_candidate();
  for (std::size_t v = 0; v < n; ++v) {
    const std::size_t here = view.pe(v);
    for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1];
         ++o) {
      const CompiledDep& d = cs.deps[o];
      std::size_t from;
      if (d.kind == CompiledDep::kComputed) {
        from = view.pe(static_cast<std::size_t>(d.dep_lin));
      } else if (!ctx.first_delivery(d.input_ord, here)) {
        cost.local_access_energy += cs.sram_access;
        continue;
      } else if (d.kind == CompiledDep::kInputDram) {
        cost.dram_energy += cs.dram_energy[here];
        continue;
      } else {
        from = static_cast<std::size_t>(view.home(d));
      }
      if (from == here) {
        cost.local_access_energy += cs.sram_access;
      } else {
        cost.onchip_movement_energy += cs.transfer_energy[from * P + here];
        ++cost.messages;
        cost.bit_hops +=
            bits * static_cast<std::uint64_t>(cs.hop_count[from * P + here]);
      }
    }
  }
  dg.cost_ready = true;
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

// The schedule pass, written once with a compile-time reporting policy;
// it returns whether the schedule `when` is legal over the placement
// `dg`.  kReport (verify) counts every violation, formats a diagnostic
// only while fewer than max_messages are kept, and tracks the storage
// and link peaks in `*rep`; it reads the placement view for diagnostic
// locations and input arrival cycles.  Otherwise (verify_ok, the
// search) the pass returns false at the first violation: no
// diagnostics, no peaks, no view.
// `links()` completes the digest's link loads before the bandwidth
// check, which is the only check that reads them.
template <bool kReport, typename View, typename Links>
bool schedule_pass(const CompiledSpec& cs, const View* view,
                   const PlacementDigest& dg, const Cycle* when,
                   Cycle makespan, const VerifyOptions& opts,
                   EvalContext& ctx, LegalityReport* rep,
                   const Links& links) {
  HARMONY_REQUIRE(makespan <= (Cycle{1} << 40),
                  "verify: schedule exceeds 2^40 cycles");
  const std::size_t P = cs.num_pes;
  const auto n = static_cast<std::size_t>(cs.num_points);

  // Every violation goes through fail(); false means stop the pass.
  // `format(os)` writes the message and returns its Location, and runs
  // only for a diagnostic that is kept.
  const auto fail = [&](std::uint64_t LegalityReport::*counter,
                        const char* rule_id, const auto& format) {
    if constexpr (kReport) {
      ++(rep->*counter);
      if (rep->diagnostics.size() < opts.max_messages) {
        std::ostringstream os;
        analyze::Location loc = format(os);
        rep->diagnostics.push_back(
            analyze::make_diagnostic(rule_id, std::move(loc), os.str()));
      }
    }
    return kReport;
  };

  // ---- 1. causality & transit ----------------------------------------
  if constexpr (kReport) {
    // Every dependence in the legacy visit order, for its diagnostics.
    // Negative-time elements report once and check nothing else.
    const auto element = [&](TensorId t, const Point& p) {
      std::ostringstream os;
      os << cs.tensor_names[static_cast<std::size_t>(t)] << p;
      return os.str();
    };
    const std::int64_t ni = cs.domain.extent(0);
    const std::int64_t nj = cs.domain.extent(1);
    const std::int64_t nk = cs.domain.extent(2);
    std::size_t v = 0;  // row-major, the order IndexDomain::for_each visits
    for (std::int64_t i = 0; i < ni; ++i) {
      for (std::int64_t j = 0; j < nj; ++j) {
        for (std::int64_t k = 0; k < nk; ++k, ++v) {
          const Point p{i, j, k};
          const Cycle t = when[v];
          const std::size_t here = view->pe(v);
          const auto at = [&] {
            return analyze::Location{element(cs.target, p),
                                     static_cast<std::int32_t>(here), t};
          };
          if (t < 0) {
            fail(&LegalityReport::causality_violations, "FM001",
                 [&](std::ostream& os) {
                   os << element(cs.target, p)
                      << " scheduled at negative cycle " << t;
                   return at();
                 });
            continue;
          }
          for (std::uint64_t o = cs.dep_offsets[v]; o < cs.dep_offsets[v + 1];
               ++o) {
            const CompiledDep& d = cs.deps[o];
            Cycle need;
            if (d.kind == CompiledDep::kComputed) {
              const auto u = static_cast<std::size_t>(d.dep_lin);
              need = when[u] + std::max<Cycle>(1, cs.transit[dg.pe[u] * P +
                                                             here]);
            } else if (d.kind == CompiledDep::kInputDram) {
              need = cs.dram_cycles[here];
            } else {
              need = cs.transit[static_cast<std::size_t>(view->home(d)) * P +
                                here];
            }
            if (t < need) {
              fail(&LegalityReport::causality_violations, "FM001",
                   [&](std::ostream& os) {
                     os << element(cs.target, p) << " at cycle " << t
                        << " consumes " << element(d.tensor, d.point())
                        << " which arrives at cycle " << need;
                     return at();
                   });
            }
          }
        }
      }
    }
  } else {
    // Per point: its own cycle, its latest input arrival, then each
    // computed edge's gap against max(1, transit) between the two PEs —
    // looked up only for a gap that some placement could violate.
    for (std::size_t v = 0; v < n; ++v) {
      const Cycle t = when[v];
      if (t < 0) return false;
      if (dg.arrival != nullptr && t < cs.latency[dg.arrival[v]]) {
        return false;
      }
      const std::size_t here = dg.pe[v];
      for (std::uint32_t e = cs.edge_offsets[v]; e < cs.edge_offsets[v + 1];
           ++e) {
        const std::uint32_t u = cs.edge_src[e];
        const Cycle gap = t - when[u];
        if (gap < 1) return false;
        if (gap < cs.max_lag && gap < cs.transit[dg.pe[u] * P + here]) {
          return false;
        }
      }
    }
  }

  // The storage ledger holds the target tensor's values only (inputs
  // live off-ledger, as in legality.cpp), each from its cycle to its
  // last use, or to the makespan for an output.  A first-violation pass
  // skips it when the capacity is at least the point count: no PE can
  // exceed it then.
  const bool storage =
      opts.check_storage && (kReport || cs.num_points > cs.pe_capacity_values);
  if (storage) {
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

  // Counting sort by PE of the elements that run (negative-time ones
  // are not on the grid).  Inclusive prefix sums leave pe_run[q] at the
  // end of PE q's run; scattering from the last element down steps each
  // back to its run's start, so PE q's elements end up at [pe_run[q],
  // pe_run[q + 1]).  Each contributes its cycle to run_cycles and, for
  // storage, its alloc and free to run_events as (cycle << 1) | alloc,
  // so that frees sort before allocs at a tick.
  ctx.pe_run.assign(P + 1, 0);
  for (std::size_t v = 0; v < n; ++v) {
    if (when[v] >= 0) ++ctx.pe_run[dg.pe[v]];
  }
  for (std::size_t q = 1; q <= P; ++q) ctx.pe_run[q] += ctx.pe_run[q - 1];
  ctx.run_cycles.resize(ctx.pe_run[P]);
  if (storage) ctx.run_events.resize(2 * std::size_t{ctx.pe_run[P]});
  for (std::size_t v = n; v-- > 0;) {
    const Cycle t = when[v];
    if (t < 0) continue;
    const std::uint32_t at = --ctx.pe_run[dg.pe[v]];
    ctx.run_cycles[at] = static_cast<std::uint64_t>(t);
    if (storage) {
      const Cycle end = cs.target_is_output ? makespan : ctx.last_use[v];
      ctx.run_events[2 * at] = (static_cast<std::uint64_t>(t) << 1) | 1;
      ctx.run_events[2 * at + 1] = static_cast<std::uint64_t>(end + 1) << 1;
    }
  }

  // ---- 2. exclusivity: no two elements share a (PE, cycle) -----------
  // PEs in order and each run sorted by cycle: the same visit order as
  // one sort of every (PE, cycle) pair.
  for (std::size_t q = 0; q < P; ++q) {
    std::uint64_t* run = ctx.run_cycles.data();
    const std::uint32_t lo = ctx.pe_run[q];
    const std::uint32_t hi = ctx.pe_run[q + 1];
    if (hi - lo < 2) continue;
    sort_run(run + lo, run + hi);
    for (std::uint32_t a = lo + 1; a < hi; ++a) {
      if (run[a] == run[a - 1] &&
          !fail(&LegalityReport::exclusivity_violations, "FM002",
                [&](std::ostream& os) {
                  const auto pe = static_cast<std::int32_t>(q);
                  const auto cycle = static_cast<Cycle>(run[a]);
                  os << "two elements share PE " << pe << " at cycle "
                     << cycle;
                  return analyze::Location{"", pe, cycle};
                })) {
        return false;
      }
    }
  }

  // ---- 3. storage: peak live values per PE ---------------------------
  if (storage) {
    for (std::size_t q = 0; q < P; ++q) {
      std::uint64_t* ev = ctx.run_events.data();
      const std::size_t lo = 2 * std::size_t{ctx.pe_run[q]};
      const std::size_t hi = 2 * std::size_t{ctx.pe_run[q + 1]};
      sort_run(ev + lo, ev + hi);
      const auto pe = static_cast<std::int32_t>(q);
      std::int64_t live = 0;
      bool flagged_this_pe = false;
      for (std::size_t a = lo; a < hi; ++a) {
        live += (ev[a] & 1) != 0 ? 1 : -1;
        if constexpr (kReport) {
          if (live > rep->peak_live_values) {
            rep->peak_live_values = live;
            rep->peak_live_pe = pe;
          }
        }
        if (live > cs.pe_capacity_values && !flagged_this_pe) {
          flagged_this_pe = true;
          if (!fail(&LegalityReport::storage_violations, "FM003",
                    [&](std::ostream& os) {
                      const auto cycle = static_cast<Cycle>(ev[a] >> 1);
                      os << "PE " << pe << " holds " << live
                         << " live values at cycle " << cycle
                         << " (capacity " << cs.pe_capacity_values << ")";
                      return analyze::Location{"", pe, cycle};
                    })) {
            return false;
          }
        }
      }
    }
  }

  // ---- 4. bandwidth: average bits/cycle per directed link ------------
  // Division is monotone, so the largest load's rate is the largest
  // rate: the first-violation pass divides once, with the same division.
  if (opts.check_bandwidth && makespan > 0) {
    links();
    if constexpr (kReport) {
      HARMONY_ASSERT(dg.link_bits != nullptr);
      for (std::size_t l = 0; l < P * 4; ++l) {
        const double rate = static_cast<double>(dg.link_bits[l]) /
                            static_cast<double>(makespan);
        if (rate > rep->peak_link_bits_per_cycle) {
          rep->peak_link_bits_per_cycle = rate;
          rep->peak_link = static_cast<std::int64_t>(l);
        }
        if (rate > cs.link_bits_per_cycle) {
          fail(&LegalityReport::bandwidth_violations, "FM004",
               [&](std::ostream& os) {
                 os << "directed link " << l << " carries " << rate
                    << " bits/cycle on average (capacity "
                    << cs.link_bits_per_cycle << ")";
                 return analyze::Location{"link " + std::to_string(l),
                                          static_cast<std::int32_t>(l / 4),
                                          analyze::Location::kNoCycle};
               });
        }
      }
    } else {
      const double rate = static_cast<double>(dg.max_link_bits) /
                          static_cast<double>(makespan);
      if (rate > cs.link_bits_per_cycle) return false;
    }
  }
  if constexpr (kReport) return rep->total_violations() == 0;
  return true;
}

/// One digest, then one schedule pass: every verify and verify_ok.
template <bool kReport, typename View>
bool check(const CompiledSpec& cs, const View& view, const Cycle* when,
           Cycle makespan, const VerifyOptions& opts, EvalContext& ctx,
           LegalityReport* rep) {
  PlacementDigest& dg = build_digest(cs, view, ctx);
  return schedule_pass<kReport>(
      cs, &view, dg, when, makespan, opts, ctx, rep,
      [&] { complete_links(cs, view, when, dg, ctx); });
}

/// One digest and its cost sums: every evaluate_cost.
template <typename View>
CostReport cost_of(const CompiledSpec& cs, const View& view, Cycle makespan,
                   EvalContext& ctx) {
  PlacementDigest& dg = build_digest(cs, view, ctx);
  complete_cost(cs, view, dg, ctx);
  return digest_cost(cs, dg, makespan, ctx);
}

}  // namespace

PlacementDigest& EvalContext::digest(const CompiledSpec& cs,
                                     const ReducedPlacement& key) {
  if (PlacementDigest* kept = store.find(key)) return *kept;
  place(cs, key);
  PlacementDigest& built = build_digest(cs, affine_view(cs, *this), *this);
  built.key = key;
  PlacementDigest* kept = store.keep(cs, built);
  return kept != nullptr ? *kept : built;
}

void EvalContext::ensure_placed(const CompiledSpec& cs,
                                const ReducedPlacement& key) {
  if (!(placed_ && placed_key_ == key)) place(cs, key);
}

Cycle input_shift(const CompiledSpec& cs, const PlacementDigest& dg,
                  const Cycle* when) {
  if (dg.arrival == nullptr) return 0;
  Cycle deficit = 0;
  const auto n = static_cast<std::size_t>(cs.num_points);
  for (std::size_t v = 0; v < n; ++v) {
    const std::uint16_t a = dg.arrival[v];
    if (a != 0) deficit = std::max(deficit, cs.latency[a] - when[v]);
  }
  return deficit;
}

bool schedule_ok(const CompiledSpec& cs, PlacementDigest& dg,
                 const Cycle* when, Cycle makespan, const VerifyOptions& opts,
                 EvalContext& ctx) {
  return schedule_pass<false, AffineView>(
      cs, nullptr, dg, when, makespan, opts, ctx, nullptr, [&] {
        if (dg.links_ready) return;
        ctx.ensure_placed(cs, dg.key);
        complete_links(cs, affine_view(cs, ctx), nullptr, dg, ctx);
      });
}

CostReport digest_cost(const CompiledSpec& cs, PlacementDigest& dg,
                       Cycle makespan, EvalContext& ctx) {
  if (!dg.cost_ready) {
    ctx.ensure_placed(cs, dg.key);
    complete_cost(cs, affine_view(cs, ctx), dg, ctx);
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
  return cost_of(cs, affine_view(cs, ctx), cs.makespan_cycles_of(map), ctx);
}

LegalityReport verify(const CompiledSpec& cs, const AffineMap& map,
                      EvalContext& ctx, const VerifyOptions& opts) {
  ctx.place(cs, map);
  const Cycle* when = ctx.fill_times(cs, map);
  LegalityReport rep;
  rep.ok = check<true>(cs, affine_view(cs, ctx), when,
                       cs.makespan_cycles_of(map), opts, ctx, &rep);
  return rep;
}

bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
               EvalContext& ctx, const VerifyOptions& opts) {
  ctx.place(cs, map);
  const Cycle* when = ctx.fill_times(cs, map);
  return check<false>(cs, affine_view(cs, ctx), when,
                      cs.makespan_cycles_of(map), opts, ctx, nullptr);
}

CostReport evaluate_cost(const CompiledSpec& cs, const TableMap& tm,
                         EvalContext& ctx) {
  return cost_of(cs, table_view(cs, tm), tm.makespan_cycles(), ctx);
}

LegalityReport verify(const CompiledSpec& cs, const TableMap& tm,
                      EvalContext& ctx, const VerifyOptions& opts) {
  LegalityReport rep;
  rep.ok = check<true>(cs, table_view(cs, tm), tm.cycle.data(),
                       tm.makespan_cycles(), opts, ctx, &rep);
  return rep;
}

bool verify_ok(const CompiledSpec& cs, const TableMap& tm,
               EvalContext& ctx, const VerifyOptions& opts) {
  return check<false>(cs, table_view(cs, tm), tm.cycle.data(),
                      tm.makespan_cycles(), opts, ctx, nullptr);
}

}  // namespace harmony::fm
