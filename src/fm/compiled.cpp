#include "fm/compiled.hpp"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include "fm/strategy/table_map.hpp"
#include "support/error.hpp"
#include "trace/trace.hpp"

namespace harmony::fm {

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

  // Flatten the dependence relation: one spec.deps() call per point for
  // the whole search, instead of three per candidate per point.  Input
  // values get dense ordinals so the per-candidate delivered table is an
  // array, immune to the packed-key overflow the legacy set had.
  std::unordered_map<std::int64_t, std::uint32_t> input_ords;
  cs->dep_offsets.reserve(static_cast<std::size_t>(cs->num_points) + 1);
  cs->dep_offsets.push_back(0);
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
      }
      cs->deps.push_back(cd);
    }
    cs->dep_offsets.push_back(static_cast<std::uint64_t>(cs->deps.size()));
  });
  cs->num_input_values = static_cast<std::uint32_t>(input_ords.size());
  return cs;
}

void EvalContext::place(const CompiledSpec& cs, const AffineMap& map) {
  HARMONY_REQUIRE(map.cols > 0 && map.rows > 0,
                  "compiled: AffineMap grid has no columns or rows");
  // Every coefficient and offset is reduced into [0, m) once.  A sum of
  // two reduced values stays below 2m, so one conditional subtract per
  // odometer step keeps x and y exact for any int64 coefficients, where
  // place() pays two int64 % per point.
  const auto reduce = [](std::int64_t v, std::int64_t m) {
    const std::int64_t r = v % m;
    return r < 0 ? r + m : r;
  };
  const auto step = [](std::int64_t& v, std::int64_t d, std::int64_t m) {
    v += d;
    if (v >= m) v -= m;
  };
  const std::int64_t cols = map.cols;
  const std::int64_t rows = map.rows;
  const std::int64_t xi = reduce(map.xi, cols), yi = reduce(map.yi, rows);
  const std::int64_t xj = reduce(map.xj, cols), yj = reduce(map.yj, rows);
  const std::int64_t xk = reduce(map.xk, cols), yk = reduce(map.yk, rows);
  const std::int64_t ni = cs.domain.extent(0);
  const std::int64_t nj = cs.domain.extent(1);
  const std::int64_t nk = cs.domain.extent(2);
  point_pe.resize(static_cast<std::size_t>(cs.num_points));
  std::size_t lin = 0;  // row-major, the order IndexDomain::for_each visits
  std::int64_t x_i = reduce(map.x0, cols), y_i = reduce(map.y0, rows);
  for (std::int64_t i = 0; i < ni; ++i) {
    std::int64_t x_j = x_i, y_j = y_i;
    for (std::int64_t j = 0; j < nj; ++j) {
      std::int64_t x = x_j, y = y_j;
      for (std::int64_t k = 0; k < nk; ++k, ++lin) {
        HARMONY_REQUIRE(x < cs.cols && y < cs.rows,
                        "compiled: AffineMap places a point off the "
                        "compiled grid");
        point_pe[lin] = static_cast<std::int32_t>(y * cs.cols + x);
        step(x, xk, cols);
        step(y, yk, rows);
      }
      step(x_j, xj, cols);
      step(y_j, yj, rows);
    }
    step(x_i, xi, cols);
    step(y_i, yi, rows);
  }
}

namespace {

// The per-candidate oracles are written once against a *map view* —
// time per linearized target point, its PE, and the input-value home —
// and instantiated for the AffineMap (closed-form time over the PE
// table EvalContext::place filled) and the TableMap (array lookups).
// One template body serves both views, so the bit-identical-to-legacy
// pin covers both instantiations.
struct AffineView {
  const CompiledSpec& cs;
  const AffineMap& map;
  const std::int32_t* point_pe;
  [[nodiscard]] Cycle time(std::size_t, const Point& p) const {
    return map.time(p);
  }
  [[nodiscard]] std::size_t pe(std::size_t lin) const {
    return static_cast<std::size_t>(point_pe[lin]);
  }
  [[nodiscard]] std::int32_t home(const CompiledDep& d) const {
    return d.home_pe;
  }
  [[nodiscard]] Cycle makespan_cycles() const {
    return cs.makespan_cycles_of(map);
  }
};

AffineView affine_view(const CompiledSpec& cs, const AffineMap& map,
                       const EvalContext& ctx) {
  HARMONY_ASSERT_MSG(
      static_cast<std::int64_t>(ctx.point_pe.size()) == cs.num_points,
      "compiled: the PE table was not filled by place() for this spec");
  return AffineView{cs, map, ctx.point_pe.data()};
}

struct TableView {
  const CompiledSpec& cs;
  const TableMap& tm;
  [[nodiscard]] Cycle time(std::size_t lin, const Point&) const {
    return tm.cycle[lin];
  }
  [[nodiscard]] std::size_t pe(std::size_t lin) const {
    return static_cast<std::size_t>(tm.pe[lin]);
  }
  [[nodiscard]] std::int32_t home(const CompiledDep& d) const {
    return tm.input_home[d.input_ord];
  }
  [[nodiscard]] Cycle makespan_cycles() const { return tm.makespan_cycles(); }
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
  return TableView{cs, tm};
}

template <typename View>
CostReport evaluate_cost_impl(const CompiledSpec& cs, const View& view,
                              EvalContext& ctx) {
  ctx.begin_candidate();
  CostReport rep;
  rep.makespan_cycles = view.makespan_cycles();
  rep.compute_energy = cs.compute_energy_total;
  rep.total_ops = cs.total_ops_total;

  const std::size_t P = cs.num_pes;
  const auto bits = static_cast<std::uint64_t>(cs.bits);
  const auto total = static_cast<std::size_t>(cs.num_points);
  for (std::size_t v = 0; v < total; ++v) {
    const std::uint64_t lo = cs.dep_offsets[v];
    const std::uint64_t hi = cs.dep_offsets[v + 1];
    if (lo == hi) continue;
    const std::size_t here = view.pe(v);
    for (std::uint64_t o = lo; o < hi; ++o) {
      const CompiledDep& d = cs.deps[o];
      // Branch order mirrors cost.cpp exactly: repeat-use short-circuit
      // first for inputs (which also stamps the delivery), then DRAM /
      // local-home / remote-home.
      if (d.kind == CompiledDep::kComputed) {
        const std::size_t there = view.pe(static_cast<std::size_t>(d.dep_lin));
        if (there == here) {
          rep.local_access_energy += cs.sram_access;
        } else {
          rep.onchip_movement_energy += cs.transfer_energy[there * P + here];
          ++rep.messages;
          rep.bit_hops +=
              bits * static_cast<std::uint64_t>(cs.hop_count[there * P + here]);
        }
      } else if (!ctx.first_delivery(d.input_ord, here)) {
        rep.local_access_energy += cs.sram_access;
      } else if (d.kind == CompiledDep::kInputDram) {
        rep.dram_energy += cs.dram_energy[here];
      } else if (static_cast<std::size_t>(view.home(d)) == here) {
        rep.local_access_energy += cs.sram_access;
      } else {
        const auto from = static_cast<std::size_t>(view.home(d));
        rep.onchip_movement_energy += cs.transfer_energy[from * P + here];
        ++rep.messages;
        rep.bit_hops +=
            bits * static_cast<std::uint64_t>(cs.hop_count[from * P + here]);
      }
    }
  }
  rep.makespan = cs.cycle * static_cast<double>(rep.makespan_cycles);
  return rep;
}

// The legality pass, written once with a compile-time reporting policy;
// it returns whether the mapping is legal.  kReport (verify) counts
// every violation, formats a diagnostic only while fewer than
// max_messages are kept, and tracks the storage and link peaks in
// `*rep`.  Otherwise (verify_ok) the pass returns false at the first
// violation: no diagnostics, no peak bookkeeping, no report.
template <bool kReport, typename View>
bool legality_pass(const CompiledSpec& cs, const View& view,
                   EvalContext& ctx, const VerifyOptions& opts,
                   LegalityReport* rep) {
  ctx.begin_candidate();
  const std::size_t P = cs.num_pes;
  const auto bits = static_cast<std::uint64_t>(cs.bits);

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
  const auto element = [&](TensorId t, const Point& p) {
    std::ostringstream os;
    os << cs.tensor_names[static_cast<std::size_t>(t)] << p;
    return os.str();
  };
  const auto record_route = [&](std::size_t src, std::size_t dst) {
    if (!opts.check_bandwidth || src == dst) return;
    const std::size_t r = src * P + dst;
    for (std::uint32_t o = cs.route_offsets[r]; o < cs.route_offsets[r + 1];
         ++o) {
      ctx.link_bits[cs.route_links[o]] += bits;
    }
  };

  // ---- 1. causality & transit, plus per-edge link traffic ------------
  // The same sweep records each element's cycle, counts the elements
  // of each PE for the counting sort below, and fills the storage
  // check's last-use ledger: as in legality.cpp, restricted to the
  // target tensor's values (inputs live off-ledger).  Negative-time
  // elements are neither counted nor stored.
  ctx.link_bits.assign(opts.check_bandwidth ? P * 4 : 0, 0);
  ctx.pe_run.assign(P + 1, 0);
  Cycle makespan = 0;
  const bool storage = opts.check_storage;
  const auto total = static_cast<std::size_t>(cs.num_points);
  ctx.point_cycle.resize(total);
  if (storage) ctx.last_use.assign(total, -1);

  const std::int64_t ni = cs.domain.extent(0);
  const std::int64_t nj = cs.domain.extent(1);
  const std::int64_t nk = cs.domain.extent(2);
  std::size_t lin = 0;  // row-major, the order IndexDomain::for_each visits
  for (std::int64_t i = 0; i < ni; ++i) {
    for (std::int64_t j = 0; j < nj; ++j) {
      for (std::int64_t k = 0; k < nk; ++k, ++lin) {
        const Point p{i, j, k};
        const Cycle when = view.time(lin, p);
        ctx.point_cycle[lin] = when;
        if (when < 0) {
          if (!fail(&LegalityReport::causality_violations, "FM001",
                    [&](std::ostream& os) {
                      os << element(cs.target, p)
                         << " scheduled at negative cycle " << when;
                      return analyze::Location{
                          element(cs.target, p),
                          static_cast<std::int32_t>(view.pe(lin)), when};
                    })) {
            return false;
          }
          continue;
        }
        makespan = std::max(makespan, when + 1);
        HARMONY_REQUIRE(when < (Cycle{1} << 40),
                        "verify: schedule exceeds 2^40 cycles");
        const std::size_t here = view.pe(lin);
        ++ctx.pe_run[here];
        if (storage) ctx.last_use[lin] = std::max(ctx.last_use[lin], when);
        const auto late = [&](TensorId t, const Point& dp, Cycle need) {
          return fail(&LegalityReport::causality_violations, "FM001",
                      [&](std::ostream& os) {
                        os << element(cs.target, p) << " at cycle " << when
                           << " consumes " << element(t, dp)
                           << " which arrives at cycle " << need;
                        return analyze::Location{
                            element(cs.target, p),
                            static_cast<std::int32_t>(here), when};
                      });
        };

        for (std::uint64_t o = cs.dep_offsets[lin];
             o < cs.dep_offsets[lin + 1]; ++o) {
          const CompiledDep& d = cs.deps[o];
          if (d.kind == CompiledDep::kComputed) {
            const Point dp = d.point();
            const auto dl = static_cast<std::size_t>(d.dep_lin);
            const std::size_t there = view.pe(dl);
            const Cycle need = view.time(dl, dp) +
                               std::max<Cycle>(1, cs.transit[there * P + here]);
            if (when < need && !late(d.tensor, dp, need)) return false;
            record_route(there, here);
            if (storage) ctx.last_use[dl] = std::max(ctx.last_use[dl], when);
          } else {
            const Cycle need =
                d.kind == CompiledDep::kInputDram
                    ? cs.dram_cycles[here]
                    : cs.transit[static_cast<std::size_t>(view.home(d)) * P +
                                 here];
            if (when < need && !late(d.tensor, d.point(), need)) {
              return false;
            }
            // Mirror of the cost model's input-residency rule: an input
            // value is routed to a consumer PE once (DRAM homes excluded,
            // as in legality.cpp).
            if (d.kind == CompiledDep::kInputPe &&
                ctx.first_delivery(d.input_ord, here)) {
              record_route(static_cast<std::size_t>(view.home(d)), here);
            }
          }
        }
      }
    }
  }

  // Counting sort by PE.  Inclusive prefix sums leave pe_run[q] at the
  // end of PE q's run; scattering from the last element down steps each
  // back to its run's start, so PE q's elements end up at
  // [pe_run[q], pe_run[q + 1]).  Each element contributes its cycle to
  // run_cycles and, for storage, its alloc and free to run_events as
  // (cycle << 1) | alloc, so that frees sort before allocs at a tick.
  for (std::size_t q = 1; q <= P; ++q) ctx.pe_run[q] += ctx.pe_run[q - 1];
  ctx.run_cycles.resize(ctx.pe_run[P]);
  if (storage) ctx.run_events.resize(2 * ctx.pe_run[P]);
  for (std::size_t v = total; v-- > 0;) {
    const Cycle when = ctx.point_cycle[v];
    if (when < 0) continue;
    const std::size_t at = --ctx.pe_run[view.pe(v)];
    ctx.run_cycles[at] = static_cast<std::uint64_t>(when);
    if (storage) {
      // Outputs stay live until the end of the computation.
      const Cycle end = cs.target_is_output ? makespan : ctx.last_use[v];
      ctx.run_events[2 * at] = (static_cast<std::uint64_t>(when) << 1) | 1;
      ctx.run_events[2 * at + 1] = static_cast<std::uint64_t>(end + 1) << 1;
    }
  }

  // ---- 2. exclusivity: no two elements share a (PE, cycle) -----------
  // PEs in order and each run sorted by cycle: the same visit order as
  // one sort of every (PE, cycle) pair.
  for (std::size_t q = 0; q < P; ++q) {
    const std::size_t lo = ctx.pe_run[q];
    const std::size_t hi = ctx.pe_run[q + 1];
    std::sort(ctx.run_cycles.begin() + static_cast<std::ptrdiff_t>(lo),
              ctx.run_cycles.begin() + static_cast<std::ptrdiff_t>(hi));
    for (std::size_t a = lo + 1; a < hi; ++a) {
      if (ctx.run_cycles[a] == ctx.run_cycles[a - 1] &&
          !fail(&LegalityReport::exclusivity_violations, "FM002",
                [&](std::ostream& os) {
                  const auto pe = static_cast<std::int32_t>(q);
                  const auto cycle = static_cast<Cycle>(ctx.run_cycles[a]);
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
      const std::size_t lo = 2 * ctx.pe_run[q];
      const std::size_t hi = 2 * ctx.pe_run[q + 1];
      std::sort(ctx.run_events.begin() + static_cast<std::ptrdiff_t>(lo),
                ctx.run_events.begin() + static_cast<std::ptrdiff_t>(hi));
      const auto pe = static_cast<std::int32_t>(q);
      std::int64_t live = 0;
      bool flagged_this_pe = false;
      for (std::size_t a = lo; a < hi; ++a) {
        live += (ctx.run_events[a] & 1) != 0 ? 1 : -1;
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
                      const auto cycle =
                          static_cast<Cycle>(ctx.run_events[a] >> 1);
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
  if (opts.check_bandwidth && makespan > 0) {
    for (std::size_t l = 0; l < ctx.link_bits.size(); ++l) {
      const double rate = static_cast<double>(ctx.link_bits[l]) /
                          static_cast<double>(makespan);
      if constexpr (kReport) {
        if (rate > rep->peak_link_bits_per_cycle) {
          rep->peak_link_bits_per_cycle = rate;
          rep->peak_link = static_cast<std::int64_t>(l);
        }
      }
      if (rate > cs.link_bits_per_cycle &&
          !fail(&LegalityReport::bandwidth_violations, "FM004",
                [&](std::ostream& os) {
                  os << "directed link " << l << " carries " << rate
                     << " bits/cycle on average (capacity "
                     << cs.link_bits_per_cycle << ")";
                  return analyze::Location{"link " + std::to_string(l),
                                           static_cast<std::int32_t>(l / 4),
                                           analyze::Location::kNoCycle};
                })) {
        return false;
      }
    }
  }
  if constexpr (kReport) return rep->total_violations() == 0;
  return true;
}

}  // namespace

CostReport evaluate_cost(const CompiledSpec& cs, const AffineMap& map,
                         EvalContext& ctx) {
  ctx.place(cs, map);
  return evaluate_cost_placed(cs, map, ctx);
}

LegalityReport verify(const CompiledSpec& cs, const AffineMap& map,
                      EvalContext& ctx, const VerifyOptions& opts) {
  ctx.place(cs, map);
  LegalityReport rep;
  rep.ok =
      legality_pass<true>(cs, affine_view(cs, map, ctx), ctx, opts, &rep);
  return rep;
}

bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
               EvalContext& ctx, const VerifyOptions& opts) {
  ctx.place(cs, map);
  return verify_ok_placed(cs, map, ctx, opts);
}

CostReport evaluate_cost_placed(const CompiledSpec& cs, const AffineMap& map,
                                EvalContext& ctx) {
  return evaluate_cost_impl(cs, affine_view(cs, map, ctx), ctx);
}

bool verify_ok_placed(const CompiledSpec& cs, const AffineMap& map,
                      EvalContext& ctx, const VerifyOptions& opts) {
  return legality_pass<false>(cs, affine_view(cs, map, ctx), ctx, opts,
                              nullptr);
}

CostReport evaluate_cost(const CompiledSpec& cs, const TableMap& tm,
                         EvalContext& ctx) {
  return evaluate_cost_impl(cs, table_view(cs, tm), ctx);
}

LegalityReport verify(const CompiledSpec& cs, const TableMap& tm,
                      EvalContext& ctx, const VerifyOptions& opts) {
  LegalityReport rep;
  rep.ok = legality_pass<true>(cs, table_view(cs, tm), ctx, opts, &rep);
  return rep;
}

bool verify_ok(const CompiledSpec& cs, const TableMap& tm,
               EvalContext& ctx, const VerifyOptions& opts) {
  return legality_pass<false>(cs, table_view(cs, tm), ctx, opts, nullptr);
}

}  // namespace harmony::fm
