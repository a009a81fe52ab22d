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

namespace {

// The per-candidate oracles are written once against a *map view* —
// time/place per linearized target point plus the input-value home —
// and instantiated for the AffineMap (closed-form, ignores lin) and the
// TableMap (array lookup, ignores the point).  One template body serves
// both views, so the bit-identical-to-legacy pin covers both
// instantiations.
struct AffineView {
  const CompiledSpec& cs;
  const AffineMap& map;
  [[nodiscard]] Cycle time(std::size_t, const Point& p) const {
    return map.time(p);
  }
  [[nodiscard]] std::size_t pe(std::size_t, const Point& p) const {
    return cs.pe_index(map.place(p));
  }
  [[nodiscard]] std::int32_t home(const CompiledDep& d) const {
    return d.home_pe;
  }
  [[nodiscard]] Cycle makespan_cycles() const {
    return cs.makespan_cycles_of(map);
  }
};

struct TableView {
  const CompiledSpec& cs;
  const TableMap& tm;
  [[nodiscard]] Cycle time(std::size_t lin, const Point&) const {
    return tm.cycle[lin];
  }
  [[nodiscard]] std::size_t pe(std::size_t lin, const Point&) const {
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
  std::int64_t lin = 0;
  cs.domain.for_each([&](const Point& p) {
    const auto v = static_cast<std::size_t>(lin);
    const std::uint64_t lo = cs.dep_offsets[v];
    const std::uint64_t hi = cs.dep_offsets[v + 1];
    ++lin;
    if (lo == hi) return;
    const std::size_t here = view.pe(v, p);
    for (std::uint64_t o = lo; o < hi; ++o) {
      const CompiledDep& d = cs.deps[o];
      // Branch order mirrors cost.cpp exactly: repeat-use short-circuit
      // first for inputs (which also stamps the delivery), then DRAM /
      // local-home / remote-home.
      if (d.kind == CompiledDep::kComputed) {
        const std::size_t there =
            view.pe(static_cast<std::size_t>(d.dep_lin), d.point());
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
  });
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
  // ---- 2. exclusivity: collect (pe, cycle) of every element ----------
  // The same sweep fills the storage check's def/last-use ledger: as in
  // legality.cpp, restricted to the target tensor's values (inputs live
  // off-ledger), and negative-time elements are skipped by def_time.
  ctx.slots.clear();
  ctx.link_bits.assign(opts.check_bandwidth ? P * 4 : 0, 0);
  Cycle makespan = 0;
  const bool storage = opts.check_storage;
  const auto total = static_cast<std::size_t>(cs.num_points);
  if (storage) {
    ctx.def_time.resize(total);
    ctx.last_use.assign(total, -1);
    ctx.owner_pe.resize(total);
  }

  const std::int64_t ni = cs.domain.extent(0);
  const std::int64_t nj = cs.domain.extent(1);
  const std::int64_t nk = cs.domain.extent(2);
  std::size_t lin = 0;  // row-major, the order IndexDomain::for_each visits
  for (std::int64_t i = 0; i < ni; ++i) {
    for (std::int64_t j = 0; j < nj; ++j) {
      for (std::int64_t k = 0; k < nk; ++k, ++lin) {
        const Point p{i, j, k};
        const Cycle when = view.time(lin, p);
        if (storage) ctx.def_time[lin] = when;
        if (when < 0) {
          if (!fail(&LegalityReport::causality_violations, "FM001",
                    [&](std::ostream& os) {
                      os << element(cs.target, p)
                         << " scheduled at negative cycle " << when;
                      return analyze::Location{
                          element(cs.target, p),
                          static_cast<std::int32_t>(view.pe(lin, p)), when};
                    })) {
            return false;
          }
          continue;
        }
        makespan = std::max(makespan, when + 1);
        HARMONY_REQUIRE(when < (Cycle{1} << 40),
                        "verify: schedule exceeds 2^40 cycles");
        const std::size_t here = view.pe(lin, p);
        ctx.slots.push_back((static_cast<std::uint64_t>(here) << 40) |
                            static_cast<std::uint64_t>(when));
        if (storage) {
          ctx.owner_pe[lin] = static_cast<std::int32_t>(here);
          ctx.last_use[lin] = std::max(ctx.last_use[lin], when);
        }
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
            const std::size_t there = view.pe(dl, dp);
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

  std::sort(ctx.slots.begin(), ctx.slots.end());
  for (std::size_t i = 1; i < ctx.slots.size(); ++i) {
    if (ctx.slots[i] == ctx.slots[i - 1] &&
        !fail(&LegalityReport::exclusivity_violations, "FM002",
              [&](std::ostream& os) {
                const auto pe = static_cast<std::int32_t>(ctx.slots[i] >> 40);
                const auto cycle = static_cast<Cycle>(
                    ctx.slots[i] & ((std::uint64_t{1} << 40) - 1));
                os << "two elements share PE " << pe << " at cycle "
                   << cycle;
                return analyze::Location{"", pe, cycle};
              })) {
      return false;
    }
  }

  // ---- 3. storage: peak live values per PE ---------------------------
  if (storage) {
    // Outputs stay live until the end of the computation.
    if (cs.target_is_output) {
      for (std::size_t v = 0; v < total; ++v) ctx.last_use[v] = makespan;
    }

    ctx.events.clear();
    ctx.events.reserve(total * 2);
    for (std::size_t v = 0; v < total; ++v) {
      if (ctx.def_time[v] < 0) continue;  // negative-time element
      ctx.events.push_back({ctx.owner_pe[v], ctx.def_time[v], +1});
      ctx.events.push_back({ctx.owner_pe[v], ctx.last_use[v] + 1, -1});
    }
    std::sort(ctx.events.begin(), ctx.events.end(),
              [](const EvalContext::StorageEvent& a,
                 const EvalContext::StorageEvent& b) {
                if (a.pe != b.pe) return a.pe < b.pe;
                if (a.cycle != b.cycle) return a.cycle < b.cycle;
                return a.delta < b.delta;  // frees before allocs at a tick
              });
    std::int64_t live = 0;
    std::int32_t cur_pe = -1;
    bool flagged_this_pe = false;
    for (const EvalContext::StorageEvent& e : ctx.events) {
      if (e.pe != cur_pe) {
        cur_pe = e.pe;
        live = 0;
        flagged_this_pe = false;
      }
      live += e.delta;
      if constexpr (kReport) {
        if (live > rep->peak_live_values) {
          rep->peak_live_values = live;
          rep->peak_live_pe = e.pe;
        }
      }
      if (live > cs.pe_capacity_values && !flagged_this_pe) {
        flagged_this_pe = true;
        if (!fail(&LegalityReport::storage_violations, "FM003",
                  [&](std::ostream& os) {
                    os << "PE " << e.pe << " holds " << live
                       << " live values at cycle " << e.cycle
                       << " (capacity " << cs.pe_capacity_values << ")";
                    return analyze::Location{"", e.pe, e.cycle};
                  })) {
          return false;
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
  return evaluate_cost_impl(cs, AffineView{cs, map}, ctx);
}

LegalityReport verify(const CompiledSpec& cs, const AffineMap& map,
                      EvalContext& ctx, const VerifyOptions& opts) {
  LegalityReport rep;
  rep.ok = legality_pass<true>(cs, AffineView{cs, map}, ctx, opts, &rep);
  return rep;
}

bool verify_ok(const CompiledSpec& cs, const AffineMap& map,
               EvalContext& ctx, const VerifyOptions& opts) {
  return legality_pass<false>(cs, AffineView{cs, map}, ctx, opts, nullptr);
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
