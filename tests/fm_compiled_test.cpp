// Compiled candidate evaluation (fm/compiled.hpp): bit-exact parity of
// the flat fast path against the legacy FunctionSpec oracles and the
// executing GridMachine ledger, a randomized parity sweep over specs,
// machines, affine and table maps, off-grid placements, the
// delivered-set key-packing overflow regression, EvalContext reuse,
// the collision lattice against a brute-force (PE, cycle) scan,
// precompiled parallel search parity, and search-level parity of the
// three gates (with the placement table kept and overflowed) against the
// legacy gates slot by slot.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/specs.hpp"
#include "fm/compiled.hpp"
#include "fm/enum_plan.hpp"
#include "fm/idioms.hpp"
#include "fm/search.hpp"
#include "fm/strategy/table_map.hpp"
#include "sched/scheduler.hpp"
#include "support/error.hpp"
#include "support/rng.hpp"

namespace harmony::fm {
namespace {

/// Field-for-field CostReport equality — exact, not approximate: the
/// compiled path promises the identical floating-point addition
/// sequence, so EXPECT_EQ on the doubles is the contract.
void expect_cost_identical(const CostReport& a, const CostReport& b) {
  EXPECT_EQ(a.makespan_cycles, b.makespan_cycles);
  EXPECT_EQ(a.makespan.picoseconds(), b.makespan.picoseconds());
  EXPECT_EQ(a.compute_energy.femtojoules(), b.compute_energy.femtojoules());
  EXPECT_EQ(a.onchip_movement_energy.femtojoules(),
            b.onchip_movement_energy.femtojoules());
  EXPECT_EQ(a.local_access_energy.femtojoules(),
            b.local_access_energy.femtojoules());
  EXPECT_EQ(a.dram_energy.femtojoules(), b.dram_energy.femtojoules());
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.bit_hops, b.bit_hops);
  EXPECT_EQ(a.total_ops, b.total_ops);
}

/// The full Mapping a (compiled-spec, AffineMap) pair describes, for
/// feeding the legacy oracles and the grid machine.
Mapping materialize(const FunctionSpec& spec, TensorId target,
                    const AffineMap& map, const Mapping& input_proto) {
  Mapping m;
  m.set_computed(target, map.place_fn(), map.time_fn());
  for (TensorId t : spec.input_tensors()) {
    m.set_input(t, input_proto.input_home(t));
  }
  return m;
}

/// A multi-input spec whose single schedule exercises all four input
/// dependence branches of the cost model at once:
///   - a is DRAM-homed; its values are re-read from different PEs and
///     re-read again from the same PE (DRAM access + repeat-use SRAM hit)
///   - b lives on PE (1,0); it is read from its home PE (local home),
///     from other PEs (remote home transfer), and repeatedly (SRAM hit)
///   - y(i) reads y(i-1) (cross-PE computed transfer) and y(i-4)
///     (same-PE computed local access under the x = i mod 4 placement).
struct FourBranch {
  FunctionSpec spec;
  TensorId a = -1, b = -1, y = -1;
};

FourBranch four_branch_spec(bool output = true) {
  FourBranch f;
  f.a = f.spec.add_input("a", IndexDomain(2));
  f.b = f.spec.add_input("b", IndexDomain(1));
  auto self = std::make_shared<TensorId>(-1);
  f.y = f.spec.add_computed(
      "y", IndexDomain(8),
      [a = f.a, b = f.b, self](const Point& p) {
        std::vector<ValueRef> d;
        d.push_back({a, Point{p.i % 2, 0, 0}});
        d.push_back({b, Point{0, 0, 0}});
        if (p.i >= 1) d.push_back({*self, Point{p.i - 1, 0, 0}});
        if (p.i >= 4) d.push_back({*self, Point{p.i - 4, 0, 0}});
        return d;
      },
      [](const Point&, const std::vector<double>& v) {
        double s = 0.0;
        for (const double x : v) s += x;
        return s;
      });
  *self = f.y;
  if (output) f.spec.mark_output(f.y);
  return f;
}

/// Input homes for the four-branch spec: a from DRAM, b on PE (1,0).
Mapping four_branch_proto(const FourBranch& f) {
  Mapping proto;
  proto.set_input(f.a, InputHome::dram());
  proto.set_input(f.b, InputHome::at({1, 0}));
  return proto;
}

/// A legal schedule for the four-branch spec on `cfg`: PE x = i mod 4,
/// time strides generously past every transit/DRAM latency.
AffineMap four_branch_map(const MachineConfig& cfg) {
  Cycle worst = 1;
  for (int x0 = 0; x0 < cfg.geom.cols(); ++x0) {
    const noc::Coord c{x0, 0};
    worst = std::max(worst, cfg.dram_cycles(c));
    for (int x1 = 0; x1 < cfg.geom.cols(); ++x1) {
      worst = std::max(worst, cfg.transit_cycles({x1, 0}, c));
    }
  }
  return AffineMap{.ti = worst + 1, .t0 = worst + 1, .xi = 1,
                   .cols = cfg.geom.cols(), .rows = cfg.geom.rows()};
}

TEST(CompiledCost, FourBranchSpecMatchesLegacyAndMachineLedger) {
  const FourBranch f = four_branch_spec();
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = four_branch_proto(f);
  const AffineMap amap = four_branch_map(cfg);
  const Mapping mapping = materialize(f.spec, f.y, amap, proto);

  // Sanity: the schedule is legal, and every branch is actually hit.
  const LegalityReport legal = verify(f.spec, mapping, cfg);
  ASSERT_TRUE(legal.ok) << legal.first_message();

  const CostReport legacy = evaluate_cost(f.spec, mapping, cfg);
  EXPECT_GT(legacy.dram_energy.femtojoules(), 0.0);       // a via DRAM
  EXPECT_GT(legacy.local_access_energy.femtojoules(), 0.0);  // SRAM hits
  EXPECT_GT(legacy.onchip_movement_energy.femtojoules(), 0.0);  // transfers
  EXPECT_GT(legacy.messages, 0u);

  const auto cs = compile_spec(f.spec, cfg, proto);
  EvalContext ctx(*cs);
  const CostReport compiled = evaluate_cost(*cs, amap, ctx);
  expect_cost_identical(compiled, legacy);

  EXPECT_TRUE(verify_ok(*cs, amap, ctx));

  // The executing machine's ledger agrees field for field: the slots
  // run in ascending time order, which under this schedule is domain
  // order, so even the floating-point sums match exactly.
  const std::vector<double> a_data{3.0, 5.0};
  const std::vector<double> b_data{7.0};
  const auto res = GridMachine(cfg).run(f.spec, mapping, {a_data, b_data});
  EXPECT_EQ(res.makespan_cycles, legacy.makespan_cycles);
  EXPECT_EQ(res.compute_energy.femtojoules(),
            legacy.compute_energy.femtojoules());
  EXPECT_EQ(res.local_access_energy.femtojoules(),
            legacy.local_access_energy.femtojoules());
  EXPECT_EQ(res.dram_energy.femtojoules(), legacy.dram_energy.femtojoules());
  EXPECT_EQ(res.onchip_movement_energy.femtojoules(),
            legacy.onchip_movement_energy.femtojoules());
  EXPECT_EQ(res.messages, legacy.messages);
  EXPECT_EQ(res.bit_hops, legacy.bit_hops);
  EXPECT_EQ(res.outputs[0],
            f.spec.evaluate_reference({a_data, b_data})[0]);
}

TEST(CompiledInputs, OrdinalsMatchFirstSeenScan) {
  // compile_spec numbers input values first-seen in dependence order and
  // records each ordinal's value and compiled home once.  A direct scan
  // of spec.deps() must find the same ordinals, values and homes, and
  // every dep_code must decode to its dependence: kind, producer point
  // or ordinal, and for a PE-homed input its home.  The four-branch
  // spec under DRAM, single-PE and block-distributed homes.
  const FourBranch f = four_branch_spec();
  const MachineConfig cfg = make_machine(4, 1);
  const auto block = [&](TensorId t) {
    return InputHome::distributed(
        block_distribution(f.spec.domain(t), cfg.geom).place);
  };
  std::vector<std::pair<std::string, Mapping>> protos;
  protos.emplace_back("a dram, b on PE 1", four_branch_proto(f));
  protos.emplace_back("a distributed, b on PE 1", Mapping{});
  protos.back().second.set_input(f.a, block(f.a));
  protos.back().second.set_input(f.b, InputHome::at({1, 0}));
  protos.emplace_back("a on PE 3, b distributed", Mapping{});
  protos.back().second.set_input(f.a, InputHome::at({3, 0}));
  protos.back().second.set_input(f.b, block(f.b));
  std::set<std::int32_t> seen_homes;
  for (const auto& [name, proto] : protos) {
    SCOPED_TRACE(name);
    const auto cs = compile_spec(f.spec, cfg, proto);
    std::vector<ValueRef> refs;
    std::vector<std::int32_t> homes;
    std::size_t e = 0;
    std::int64_t lin = 0;
    f.spec.domain(f.y).for_each([&](const Point& p) {
      for (const ValueRef& d : f.spec.deps(f.y, p)) {
        ASSERT_LT(e, cs->dep_code.size());
        const std::uint64_t code = cs->dep_code[e++];
        if (!f.spec.is_input(d.tensor)) {
          EXPECT_EQ(dep_kind(code), DepKind::kComputed);
          EXPECT_EQ(dep_source(code), f.spec.domain(f.y).linearize(d.point));
          continue;
        }
        auto at = std::find(refs.begin(), refs.end(), d);
        if (at == refs.end()) {
          const InputHome& home = proto.input_home(d.tensor);
          refs.push_back(d);
          homes.push_back(home.kind == InputHome::Kind::kDram
                              ? -1
                              : static_cast<std::int32_t>(
                                    cfg.geom.index(home.home_of(d.point))));
          at = refs.end() - 1;
        }
        const auto ord = static_cast<std::size_t>(at - refs.begin());
        EXPECT_EQ(dep_source(code), ord);
        if (homes[ord] < 0) {
          EXPECT_EQ(dep_kind(code), DepKind::kInputDram);
        } else {
          EXPECT_EQ(dep_kind(code), DepKind::kInputPe);
          EXPECT_EQ(dep_home(code), static_cast<std::size_t>(homes[ord]));
        }
      }
      EXPECT_EQ(cs->dep_offsets[static_cast<std::size_t>(++lin)], e);
    });
    EXPECT_EQ(e, cs->dep_code.size());
    EXPECT_EQ(cs->input_refs, refs);
    EXPECT_EQ(cs->input_home, homes);
    EXPECT_EQ(cs->num_input_values, refs.size());
    const TableMap tm = table_from_affine(*cs, four_branch_map(cfg));
    EXPECT_EQ(tm.input_refs, refs);
    EXPECT_EQ(tm.input_home, homes);
    seen_homes.insert(homes.begin(), homes.end());
  }
  // DRAM and at least two distinct PE homes were exercised.
  EXPECT_TRUE(seen_homes.count(-1) == 1);
  EXPECT_GE(seen_homes.size(), 3u);
}

/// Input homes for every input tensor of `spec`: block-distributed over
/// the grid, or all in DRAM.
Mapping input_homes(const FunctionSpec& spec, const MachineConfig& cfg,
                    bool dram) {
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, dram ? InputHome::dram()
                             : InputHome::distributed(
                                   block_distribution(spec.domain(in),
                                                      cfg.geom).place));
  }
  return proto;
}

TEST(CompiledParity, RandomizedSweepMatchesLegacyOracles) {
  // Fixed seed and count.  Affine coefficients reach |c| >= cols and
  // negative steps, so the PE table's odometer wraps every way;
  // table maps draw PEs and cycles from small ranges, so collisions,
  // negative cycles and over-capacity PEs are common.  Every case
  // compares the first-violation gate with the legacy report's ok bit
  // and the cost report with the legacy oracle, bit for bit; the rule
  // coverage below is counted from the legacy report.
  struct SpecCase {
    std::string name;
    FunctionSpec spec;
    bool four_branch = false;
  };
  std::vector<SpecCase> specs;
  {
    algos::SwScores sw;
    specs.push_back({"editdist:5x5", algos::editdist_spec(5, 5, sw)});
    specs.push_back({"stencil:6,3", algos::stencil1d_spec(6, 3)});
    specs.push_back({"conv:5,3", algos::conv1d_spec(5, 3)});
    specs.push_back({"matmul:3", algos::matmul_spec(3)});
    specs.push_back({"irregular:20,3,7", algos::irregular_dag_spec(20, 3, 7)});
    specs.push_back({"irregular-nonoutput:20,3,9",
                     algos::irregular_dag_spec(20, 3, 9, /*output=*/false)});
    specs.push_back({"four-branch", four_branch_spec(true).spec, true});
    specs.push_back(
        {"four-branch-nonoutput", four_branch_spec(false).spec, true});
  }
  const std::vector<std::pair<int, int>> grids = {
      {1, 5}, {5, 1}, {2, 2}, {3, 4}, {7, 7}};
  const std::vector<std::int64_t> capacities = {
      1, 2, make_machine(1, 1).pe_capacity_values};
  // The default link capacity, and a narrow one that average traffic
  // can exceed (FM004).
  const std::vector<double> link_caps = {
      make_machine(1, 1).link_bits_per_cycle, 4.0};

  struct Compiled {
    MachineConfig cfg;
    Mapping proto;
    std::shared_ptr<const CompiledSpec> cs;
  };
  std::map<std::tuple<std::size_t, std::size_t, std::size_t, std::size_t,
                      bool>,
           Compiled>
      compiled;

  Rng rng(0xC0FFEEu);
  const auto coef = [&] { return rng.next_int(-7, 7); };
  std::uint64_t fm001 = 0, fm002 = 0, fm003 = 0, fm004 = 0, legal = 0;
  constexpr int kCases = 2000;
  for (int c = 0; c < kCases; ++c) {
    const auto si = static_cast<std::size_t>(
        rng.next_below(specs.size()));
    const auto gi = static_cast<std::size_t>(rng.next_below(grids.size()));
    const auto ci =
        static_cast<std::size_t>(rng.next_below(capacities.size()));
    const auto li =
        static_cast<std::size_t>(rng.next_below(link_caps.size()));
    const bool dram = rng.next_below(2) == 0;
    const SpecCase& sc = specs[si];
    const auto key = std::make_tuple(si, gi, ci, li, dram);
    auto it = compiled.find(key);
    if (it == compiled.end()) {
      const auto [cols, rows] = grids[gi];
      MachineConfig cfg = make_machine(cols, rows);
      cfg.pe_capacity_values = capacities[ci];
      cfg.link_bits_per_cycle = link_caps[li];
      Mapping proto;
      if (sc.four_branch) {
        // Tensor ids 0 and 1 are the inputs a and b; b lives on a PE
        // that exists on every grid (PE 1 in index order).
        proto.set_input(0, dram ? InputHome::dram() : InputHome::at({0, 0}));
        proto.set_input(1, InputHome::at(cfg.geom.coord(1)));
      } else {
        proto = input_homes(sc.spec, cfg, dram);
      }
      auto cs = compile_spec(sc.spec, cfg, proto);
      it = compiled.emplace(key, Compiled{cfg, proto, cs}).first;
    }
    const Compiled& k = it->second;
    const CompiledSpec& cs = *k.cs;
    const TensorId target = cs.target;
    VerifyOptions opts;
    opts.check_storage = rng.next_below(5) != 0;
    opts.check_bandwidth = rng.next_below(5) != 0;
    opts.max_messages = static_cast<std::size_t>(rng.next_int(0, 8));
    EvalContext ctx(cs);

    std::ostringstream what;
    what << "case " << c << ": " << sc.name << " on " << cs.cols << "x"
         << cs.rows << " capacity " << cs.pe_capacity_values << " link "
         << cs.link_bits_per_cycle
         << (dram ? " dram inputs" : " pe inputs");
    LegalityReport rep;
    if (rng.next_below(2) == 0) {
      const AffineMap map{.ti = coef(), .tj = coef(), .tk = coef(),
                          .t0 = rng.next_int(-3, 20),
                          .xi = coef(), .xj = coef(), .xk = coef(),
                          .x0 = rng.next_int(-9, 9),
                          .yi = coef(), .yj = coef(), .yk = coef(),
                          .y0 = rng.next_int(-9, 9),
                          .cols = cs.cols, .rows = cs.rows};
      what << " affine t=(" << map.ti << "," << map.tj << "," << map.tk
           << "," << map.t0 << ") x=(" << map.xi << "," << map.xj << ","
           << map.xk << "," << map.x0 << ") y=(" << map.yi << "," << map.yj
           << "," << map.yk << "," << map.y0 << ")";
      SCOPED_TRACE(what.str());
      const Mapping m = materialize(sc.spec, target, map, k.proto);
      rep = verify(sc.spec, m, k.cfg, opts);
      EXPECT_EQ(verify_ok(cs, map, ctx, opts), rep.ok);
      expect_cost_identical(evaluate_cost(cs, map, ctx),
                            evaluate_cost(sc.spec, m, k.cfg));
    } else {
      TableMap tm = table_from_affine(cs, AffineMap{.cols = cs.cols,
                                                    .rows = cs.rows});
      const auto pes = static_cast<std::int64_t>(
          rng.next_int(1, static_cast<std::int64_t>(cs.num_pes)));
      const std::int64_t span = rng.next_int(1, cs.num_points + 2);
      for (std::size_t v = 0; v < tm.pe.size(); ++v) {
        tm.pe[v] = static_cast<std::int32_t>(rng.next_below(
            static_cast<std::uint64_t>(pes)));
        tm.cycle[v] = rng.next_int(-2, span);
      }
      for (std::int32_t& home : tm.input_home) {
        if (home >= 0) {
          home = static_cast<std::int32_t>(rng.next_below(cs.num_pes));
        }
      }
      what << " table over " << pes << " PEs and cycles [-2, " << span
           << "]";
      SCOPED_TRACE(what.str());
      const Mapping m = to_mapping(sc.spec, tm);
      rep = verify(sc.spec, m, k.cfg, opts);
      EXPECT_EQ(verify_ok(cs, tm, ctx, opts), rep.ok);
      expect_cost_identical(evaluate_cost(cs, tm, ctx),
                            evaluate_cost(sc.spec, m, k.cfg));
    }
    fm001 += rep.causality_violations > 0 ? 1 : 0;
    fm002 += rep.exclusivity_violations > 0 ? 1 : 0;
    fm003 += rep.storage_violations > 0 ? 1 : 0;
    fm004 += rep.bandwidth_violations > 0 ? 1 : 0;
    legal += rep.ok ? 1 : 0;
  }
  // Every rule and the accepting path must have been exercised.
  EXPECT_GT(fm001, 0u);
  EXPECT_GT(fm002, 0u);
  EXPECT_GT(fm003, 0u);
  EXPECT_GT(fm004, 0u);
  EXPECT_GT(legal, 0u);
  std::cout << "sweep: " << kCases << " cases, FM001 " << fm001
            << ", FM002 " << fm002 << ", FM003 " << fm003 << ", FM004 "
            << fm004 << ", legal " << legal << "\n";
}

TEST(CompiledPlacement, OffGridAffineMapThrowsLikeLegacy) {
  // A map wider than the compiled grid places points the machine does
  // not have.  The legacy oracles throw (GridGeometry::index asserts);
  // the compiled path must throw too rather than index past its tables.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(6, 6, s);
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = input_homes(spec, cfg, /*dram=*/false);
  const auto cs = compile_spec(spec, cfg, proto);
  const TensorId target = spec.computed_tensors()[0];
  EvalContext ctx(*cs);

  const AffineMap wide{.ti = 1, .tj = 1, .xi = 1, .cols = 8, .rows = 1};
  const Mapping wide_m = materialize(spec, target, wide, proto);
  EXPECT_THROW((void)verify(spec, wide_m, cfg), std::logic_error);
  EXPECT_THROW((void)evaluate_cost(spec, wide_m, cfg), std::logic_error);
  EXPECT_THROW((void)verify_ok(*cs, wide, ctx), std::logic_error);
  EXPECT_THROW((void)evaluate_cost(*cs, wide, ctx), std::logic_error);

  // Narrower than the grid: every point is on it, and both paths agree.
  const AffineMap narrow{.ti = 1, .tj = 1, .xi = 1, .cols = 3, .rows = 1};
  const Mapping narrow_m = materialize(spec, target, narrow, proto);
  const LegalityReport legacy = verify(spec, narrow_m, cfg);
  EXPECT_EQ(verify_ok(*cs, narrow, ctx), legacy.ok);
  expect_cost_identical(evaluate_cost(*cs, narrow, ctx),
                        evaluate_cost(spec, narrow_m, cfg));

  // A table whose PE index is outside [0, P) is rejected the same way.
  TableMap tm = table_from_affine(*cs, AffineMap{.ti = 1, .tj = 1, .xi = 1,
                                                 .cols = 4, .rows = 1});
  for (const std::int32_t bad : {-1, 4}) {
    tm.pe[3] = bad;
    EXPECT_THROW((void)verify_ok(*cs, tm, ctx), std::logic_error) << bad;
    EXPECT_THROW((void)evaluate_cost(*cs, tm, ctx), std::logic_error)
        << bad;
  }
}

TEST(CompiledCost, DeliveredKeyPackingOverflowRegression) {
  // A packed `value_index * num_pes + pe` key wraps uint64 once
  // value_index reaches 2^62 on a 4-PE machine: big(1) at PE 0 packed to
  // 4, and big(2^62 + 1) at PE 0 packed to (2^64 + 4) mod 2^64 = 4.  The
  // old tracking then mistook the second DRAM read for a repeat use of
  // the first value.  Pair-exact tracking must charge DRAM twice.
  const std::int64_t kBig = (std::int64_t{1} << 62) + 2;
  FunctionSpec spec;
  const TensorId big = spec.add_input("big", IndexDomain(kBig));
  spec.add_computed(
      "y", IndexDomain(2),
      [big](const Point& p) {
        std::vector<ValueRef> d;
        d.push_back({big, Point{p.i == 0 ? std::int64_t{1}
                                         : (std::int64_t{1} << 62) + 1,
                                0, 0}});
        return d;
      },
      [](const Point&, const std::vector<double>& v) { return v[0]; });

  const MachineConfig cfg = make_machine(2, 2);
  ASSERT_EQ(cfg.geom.num_nodes(), 4u);
  Mapping proto;
  proto.set_input(big, InputHome::dram());
  const AffineMap amap{.ti = 1, .cols = 2, .rows = 2};  // both at PE 0
  const Mapping mapping = materialize(spec, /*target=*/1, amap, proto);

  const CostReport legacy = evaluate_cost(spec, mapping, cfg);
  const Energy one_access = cfg.geom.dram_access_energy(32, {0, 0});
  EXPECT_EQ(legacy.dram_energy.femtojoules(),
            (one_access + one_access).femtojoules());
  EXPECT_EQ(legacy.local_access_energy.femtojoules(), 0.0);

  const auto cs = compile_spec(spec, cfg, proto);
  EvalContext ctx(*cs);
  expect_cost_identical(evaluate_cost(*cs, amap, ctx), legacy);
}

TEST(CompiledVerify, ViolatingSchedulesRejectedLikeLegacy) {
  const FourBranch f = four_branch_spec();
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = four_branch_proto(f);
  const auto cs = compile_spec(f.spec, cfg, proto);
  EvalContext ctx(*cs);

  // Everything on PE 0 at cycle 0: exclusivity pile-up plus causality
  // violations (inputs can't arrive by cycle 0, computed deps need a
  // cycle of transit).
  const AffineMap collide{.cols = 4, .rows = 1};
  // Time marches backwards: the negative-cycle early-return path.
  const AffineMap negative{.ti = -1, .xi = 1, .cols = 4, .rows = 1};

  for (const AffineMap& amap : {collide, negative}) {
    const Mapping mapping = materialize(f.spec, f.y, amap, proto);
    const LegalityReport legacy = verify(f.spec, mapping, cfg);
    EXPECT_FALSE(legacy.ok);
    EXPECT_GT(legacy.causality_violations, 0u);
    EXPECT_FALSE(verify_ok(*cs, amap, ctx));
    EXPECT_FALSE(verify_ok(*cs, table_from_affine(*cs, amap), ctx));
  }
}

TEST(CompiledVerify, NonOutputLifetimesEndAtLastUseAsInLegacy) {
  // Without the outputs-live-to-the-end rule a value's residency ends at
  // its last consumer, so the storage check depends on every consumer's
  // cycle: y(i) stays on PE i mod 4 until y(i + 4) reads it there.
  const FourBranch f = four_branch_spec(/*output=*/false);
  MachineConfig cfg = make_machine(4, 1);
  cfg.pe_capacity_values = 1;
  const Mapping proto = four_branch_proto(f);
  const auto cs = compile_spec(f.spec, cfg, proto);
  EvalContext ctx(*cs);
  const AffineMap amap = four_branch_map(cfg);
  const LegalityReport legacy =
      verify(f.spec, materialize(f.spec, f.y, amap, proto), cfg);
  EXPECT_EQ(legacy.peak_live_values, 2);
  EXPECT_GT(legacy.storage_violations, 0u);
  EXPECT_EQ(verify_ok(*cs, amap, ctx), legacy.ok);
  EXPECT_EQ(verify_ok(*cs, table_from_affine(*cs, amap), ctx), legacy.ok);
}

TEST(CompiledCost, EvalContextReuseAcrossCandidatesIsClean) {
  const FourBranch f = four_branch_spec();
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = four_branch_proto(f);
  const auto cs = compile_spec(f.spec, cfg, proto);
  const AffineMap good = four_branch_map(cfg);
  AffineMap other = good;
  other.xi = 2;  // different placement -> different delivered pattern

  // One context reused across candidates (the search's usage pattern):
  // evaluating `other` in between must not leak delivered state into the
  // re-evaluation of `good`.
  EvalContext ctx(*cs);
  const CostReport first = evaluate_cost(*cs, good, ctx);
  (void)evaluate_cost(*cs, other, ctx);
  (void)verify_ok(*cs, other, ctx);
  expect_cost_identical(evaluate_cost(*cs, good, ctx), first);
  EXPECT_EQ(verify_ok(*cs, good, ctx),
            verify(f.spec, materialize(f.spec, f.y, good, proto), cfg).ok);
}

TEST(CompiledLegality, VerifyOkAgreesWithFullVerifyAcrossTheFamily) {
  // The report-free short-circuit gate the search runs must agree with
  // the full verifier's ok bit on every candidate — legal, causality-
  // violating, colliding, and negative-time alike.  Sweep the whole
  // affine coefficient family the search enumerates.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(6, 6, s);
  const MachineConfig cfg = make_machine(6, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  const auto cs = compile_spec(spec, cfg, proto);
  const TensorId target = spec.computed_tensors()[0];
  EvalContext ctx(*cs);
  int checked = 0, legal = 0;
  for (std::int64_t ti : {-1, 0, 1, 2}) {
    for (std::int64_t tj : {0, 1, 2}) {
      for (std::int64_t xi : {-1, 0, 1}) {
        for (std::int64_t xj : {-1, 0, 1}) {
          for (std::int64_t t0 : {0, 12}) {
            const AffineMap map{.ti = ti, .tj = tj, .t0 = t0, .xi = xi,
                                .xj = xj, .cols = 6, .rows = 1};
            const bool full =
                verify(spec, materialize(spec, target, map, proto), cfg).ok;
            EXPECT_EQ(verify_ok(*cs, map, ctx), full)
                << "ti=" << ti << " tj=" << tj << " xi=" << xi
                << " xj=" << xj << " t0=" << t0;
            ++checked;
            legal += full ? 1 : 0;
          }
        }
      }
    }
  }
  EXPECT_EQ(checked, 216);
  EXPECT_GT(legal, 0);  // the sweep must exercise the accepting path too
}

TEST(CompiledLattice, CollisionListMatchesBruteForce) {
  // Two points share a (PE, cycle) exactly when their offset is on the
  // placement's collision list and the schedule maps it to 0.  Random
  // boxes of rank 1-3, grids down to 1x1 and 1xN, and coefficients of
  // both signs (some wider than the grid): the list must be exactly the
  // lexicographically positive offsets of the pairs that share a PE, and
  // "some listed offset has gap 0" must match a duplicate (PE, cycle)
  // scan.
  const std::vector<std::pair<int, int>> grids = {
      {1, 1}, {1, 4}, {5, 1}, {2, 3}, {3, 3}, {4, 2}};
  Rng rng(0x1A77CEu);
  int shared = 0, exclusive = 0;
  for (int c = 0; c < 2000; ++c) {
    const std::int64_t rank = rng.next_int(1, 3);
    const std::int64_t e0 = rng.next_int(1, 5);
    const std::int64_t e1 = rank >= 2 ? rng.next_int(1, 5) : 1;
    const std::int64_t e2 = rank >= 3 ? rng.next_int(1, 5) : 1;
    const IndexDomain dom = rank == 1   ? IndexDomain(e0)
                            : rank == 2 ? IndexDomain(e0, e1)
                                        : IndexDomain(e0, e1, e2);
    FunctionSpec spec;
    spec.add_computed(
        "y", dom, [](const Point&) { return std::vector<ValueRef>{}; },
        [](const Point&, const std::vector<double>&) { return 0.0; });
    const auto [cols, rows] = grids[rng.next_below(grids.size())];
    const MachineConfig cfg = make_machine(cols, rows);
    const auto cs = compile_spec(spec, cfg, Mapping{});
    const auto coef = [&rng] { return rng.next_int(-3, 3); };
    const auto tcoef = [&rng] { return rng.next_int(-2, 3); };
    const AffineMap map{.ti = tcoef(), .tj = tcoef(), .tk = tcoef(),
                        .t0 = rng.next_int(-4, 4),
                        .xi = coef(), .xj = coef(), .xk = coef(),
                        .x0 = coef(), .yi = coef(), .yj = coef(),
                        .yk = coef(), .y0 = coef(), .cols = cols,
                        .rows = rows};
    std::ostringstream what;
    what << "case " << c << ": " << e0 << "x" << e1 << "x" << e2 << " on "
         << cols << "x" << rows << " t=(" << map.ti << "," << map.tj << ","
         << map.tk << ") x=(" << map.xi << "," << map.xj << "," << map.xk
         << "," << map.x0 << ") y=(" << map.yi << "," << map.yj << ","
         << map.yk << "," << map.y0 << ")";
    SCOPED_TRACE(what.str());

    EvalContext ctx(*cs);
    const PlacementDigest& dg = ctx.digest(*cs, ReducedPlacement::of(map));
    std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> listed;
    bool listed_zero_gap = false;
    for (std::size_t o = 0; o < dg.num_collisions; ++o) {
      const Point& d = dg.collisions[o];
      listed.emplace_back(d.i, d.j, d.k);
      listed_zero_gap |= map.ti * d.i + map.tj * d.j + map.tk * d.k == 0;
    }
    std::sort(listed.begin(), listed.end());

    std::vector<Point> pts;
    dom.for_each([&pts](const Point& p) { pts.push_back(p); });
    std::vector<std::tuple<std::int64_t, std::int64_t, std::int64_t>> brute;
    bool duplicate = false;
    for (std::size_t a = 0; a < pts.size(); ++a) {
      for (std::size_t b = a + 1; b < pts.size(); ++b) {
        if (!(map.place(pts[a]) == map.place(pts[b]))) continue;
        duplicate |= map.time(pts[a]) == map.time(pts[b]);
        // pts is row-major, so b - a is lexicographically positive.
        brute.emplace_back(pts[b].i - pts[a].i, pts[b].j - pts[a].j,
                           pts[b].k - pts[a].k);
      }
    }
    std::sort(brute.begin(), brute.end());
    brute.erase(std::unique(brute.begin(), brute.end()), brute.end());
    EXPECT_EQ(listed, brute);
    EXPECT_EQ(listed_zero_gap, duplicate);
    (duplicate ? shared : exclusive) += 1;
  }
  // Both verdicts must have been exercised.
  EXPECT_GT(shared, 0);
  EXPECT_GT(exclusive, 0);
  std::cout << "lattice: " << shared << " shared (PE, cycle), " << exclusive
            << " exclusive\n";
}

TEST(CompiledSearch, WinnersMatchLegacyOraclesExactly) {
  // Search-driven parity: every candidate the compiled inner loop ranks
  // must carry the exact CostReport the legacy oracle computes for the
  // materialized mapping — and the legacy verifier must agree it's legal.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(8, 8, s);
  const MachineConfig cfg = make_machine(8, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  SearchOptions opts;
  opts.keep_all_legal = true;
  const SearchResult r = search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(r.found);
  ASSERT_FALSE(r.all_legal.empty());
  const TensorId target = spec.computed_tensors()[0];
  for (const Candidate& c : r.all_legal) {
    const Mapping m = materialize(spec, target, c.map, proto);
    EXPECT_TRUE(verify(spec, m, cfg).ok) << "slot " << c.slot;
    expect_cost_identical(c.cost, evaluate_cost(spec, m, cfg));
  }
}

TEST(CompiledSearch, PrecompiledSharedAcrossParallelLanesMatchesSerial) {
  // One CompiledSpec shared read-only by every lane (the serving layer's
  // usage): the parallel top-k must stay byte-identical to serial.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(8, 8, s);
  const MachineConfig cfg = make_machine(8, 1);
  Mapping proto;
  for (TensorId in : spec.input_tensors()) {
    proto.set_input(in, InputHome::distributed(
                            block_distribution(spec.domain(in),
                                               cfg.geom).place));
  }
  SearchOptions opts;
  opts.keep_all_legal = true;
  opts.compiled = compile_spec(spec, cfg, proto);

  const SearchResult serial = search_affine(spec, cfg, proto, opts);
  ASSERT_TRUE(serial.found);

  sched::Scheduler pool(4);
  SearchOptions par = opts;
  par.scheduler = &pool;
  const SearchResult parallel = search_affine(spec, cfg, proto, par);

  EXPECT_EQ(parallel.found, serial.found);
  EXPECT_EQ(parallel.enumerated, serial.enumerated);
  EXPECT_EQ(parallel.quick_rejected, serial.quick_rejected);
  EXPECT_EQ(parallel.verify_rejected, serial.verify_rejected);
  EXPECT_EQ(parallel.legal, serial.legal);
  ASSERT_EQ(parallel.top.size(), serial.top.size());
  for (std::size_t i = 0; i < serial.top.size(); ++i) {
    EXPECT_EQ(parallel.top[i].slot, serial.top[i].slot) << "top[" << i << "]";
    EXPECT_EQ(parallel.top[i].merit, serial.top[i].merit)
        << "top[" << i << "]";
    expect_cost_identical(parallel.top[i].cost, serial.top[i].cost);
  }
  ASSERT_EQ(parallel.all_legal.size(), serial.all_legal.size());
  for (std::size_t i = 0; i < serial.all_legal.size(); ++i) {
    EXPECT_EQ(parallel.all_legal[i].slot, serial.all_legal[i].slot);
    EXPECT_EQ(parallel.all_legal[i].merit, serial.all_legal[i].merit);
  }
}

/// Field-for-field AffineMap equality.
void expect_map_identical(const AffineMap& a, const AffineMap& b) {
  EXPECT_EQ(a.ti, b.ti);
  EXPECT_EQ(a.tj, b.tj);
  EXPECT_EQ(a.tk, b.tk);
  EXPECT_EQ(a.t0, b.t0);
  EXPECT_EQ(a.xi, b.xi);
  EXPECT_EQ(a.xj, b.xj);
  EXPECT_EQ(a.xk, b.xk);
  EXPECT_EQ(a.x0, b.x0);
  EXPECT_EQ(a.yi, b.yi);
  EXPECT_EQ(a.yj, b.yj);
  EXPECT_EQ(a.yk, b.yk);
  EXPECT_EQ(a.y0, b.y0);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.rows, b.rows);
}

/// The quick gate's sample as the search draws it: every stride-th
/// point of the domain, for about `quick_sample` points, plus the last.
std::vector<Point> legacy_sample(const IndexDomain& dom,
                                 std::size_t quick_sample) {
  std::vector<Point> pts;
  const std::int64_t n = dom.size();
  const std::int64_t stride =
      std::max<std::int64_t>(1, n / static_cast<std::int64_t>(quick_sample));
  for (std::int64_t lin = 0; lin < n; lin += stride) {
    pts.push_back(dom.delinearize(lin));
  }
  pts.push_back(dom.delinearize(n - 1));
  return pts;
}

/// One candidate through the search's three gates on the FunctionSpec
/// oracles, as E22.a's legacy pass runs them: sampled causality through
/// AffineMap::place, the input-arrival shift through the machine's
/// timing rules, then fm::verify and fm::evaluate_cost.
struct LegacyGates {
  Gate gate = Gate::kQuickRejected;
  AffineMap map;
  CostReport cost;
};

LegacyGates legacy_gates(const FunctionSpec& spec, const MachineConfig& cfg,
                         const Mapping& proto,
                         const std::vector<Point>& sample,
                         const VerifyOptions& vopts, AffineMap map) {
  const TensorId target = spec.computed_tensors()[0];
  for (const Point& p : sample) {
    const Cycle when = map.time(p);
    for (const ValueRef& d : spec.deps(target, p)) {
      if (spec.is_input(d.tensor)) continue;
      const Cycle need =
          map.time(d.point) +
          std::max<Cycle>(1, cfg.transit_cycles(map.place(d.point),
                                                map.place(p)));
      if (when < need) return {Gate::kQuickRejected, map, {}};
    }
  }
  Cycle deficit = 0;
  spec.domain(target).for_each([&](const Point& p) {
    const Cycle when = map.time(p);
    const noc::Coord here = map.place(p);
    for (const ValueRef& d : spec.deps(target, p)) {
      if (!spec.is_input(d.tensor)) continue;
      const InputHome& home = proto.input_home(d.tensor);
      const Cycle need = home.kind == InputHome::Kind::kDram
                             ? cfg.dram_cycles(here)
                             : cfg.transit_cycles(home.home_of(d.point), here);
      deficit = std::max(deficit, need - when);
    }
  });
  map.t0 += deficit;
  const Mapping m = materialize(spec, target, map, proto);
  if (!verify(spec, m, cfg, vopts).ok) return {Gate::kVerifyRejected, map, {}};
  return {Gate::kLegal, map, evaluate_cost(spec, m, cfg)};
}

/// search_affine with keep_all_legal, serially and on `pool`'s lanes,
/// against the legacy gates run on every slot of the same enumeration:
/// the gate counts, the legal slots, their shifted maps and their costs
/// must all be identical.  Returns how many distinct placements (space
/// coefficients reduced modulo the grid) passed the quick gate.
std::size_t expect_search_matches_legacy(const FunctionSpec& spec,
                                         const MachineConfig& cfg,
                                         const Mapping& proto,
                                         const SearchOptions& base,
                                         sched::Scheduler& pool) {
  const IndexDomain& dom = spec.domain(spec.computed_tensors()[0]);
  const EnumPlan plan = build_enum_plan(
      dom, cfg, base.space,
      static_cast<double>(dom.size()) * base.makespan_slack + 1.0);
  const std::vector<Point> sample = legacy_sample(dom, base.quick_sample);
  const std::uint64_t begin = std::min(base.resume_from, plan.total);
  std::uint64_t quick = 0, rejected = 0;
  std::vector<std::pair<std::uint64_t, LegacyGates>> legal;
  std::vector<std::vector<std::int64_t>> placements;
  SlotCursor at(plan, begin);
  for (std::uint64_t slot = begin; slot < plan.total; ++slot, at.next()) {
    const AffineMap map = at.map(cfg.geom.cols(), cfg.geom.rows());
    const LegacyGates g =
        legacy_gates(spec, cfg, proto, sample, base.verify, map);
    if (g.gate == Gate::kQuickRejected) {
      ++quick;
      continue;
    }
    const auto mod = [](std::int64_t v, std::int64_t m) {
      return ((v % m) + m) % m;
    };
    const std::vector<std::int64_t> placement = {
        mod(map.xi, map.cols), mod(map.xj, map.cols), mod(map.xk, map.cols),
        mod(map.x0, map.cols), mod(map.yi, map.rows), mod(map.yj, map.rows),
        mod(map.yk, map.rows), mod(map.y0, map.rows)};
    if (std::find(placements.begin(), placements.end(), placement) ==
        placements.end()) {
      placements.push_back(placement);
    }
    if (g.gate == Gate::kVerifyRejected) {
      ++rejected;
    } else {
      legal.emplace_back(slot, g);
    }
  }
  for (sched::Scheduler* lanes : {static_cast<sched::Scheduler*>(nullptr),
                                  &pool}) {
    SCOPED_TRACE(lanes == nullptr ? "serial" : "4 lanes");
    SearchOptions opts = base;
    opts.keep_all_legal = true;
    opts.scheduler = lanes;
    const SearchResult r = search_affine(spec, cfg, proto, opts);
    EXPECT_EQ(r.enumerated, plan.total - begin);
    EXPECT_EQ(r.quick_rejected, quick);
    EXPECT_EQ(r.verify_rejected, rejected);
    EXPECT_EQ(r.legal, legal.size());
    EXPECT_TRUE(r.exhausted);
    EXPECT_EQ(r.all_legal.size(), legal.size());
    if (r.all_legal.size() != legal.size()) continue;
    for (std::size_t i = 0; i < legal.size(); ++i) {
      SCOPED_TRACE("slot " + std::to_string(legal[i].first));
      EXPECT_EQ(r.all_legal[i].slot, legal[i].first);
      expect_map_identical(r.all_legal[i].map, legal[i].second.map);
      expect_cost_identical(r.all_legal[i].cost, legal[i].second.cost);
    }
  }
  return placements.size();
}

TEST(CompiledSearch, GateCountsAndLegalSlotsMatchLegacyGates) {
  // Every spec shape, on row, square and rectangular grids plus a tight
  // machine (2 live values per PE, 4 bits per link-cycle) where the
  // storage ledger and the bandwidth check reject candidates, with
  // inputs in DRAM, on one PE, and block-distributed.
  algos::SwScores sw;
  const std::vector<std::pair<std::string, FunctionSpec>> specs = {
      {"editdist:5x5", algos::editdist_spec(5, 5, sw)},
      {"stencil:6,3", algos::stencil1d_spec(6, 3)},
      {"conv:5,3", algos::conv1d_spec(5, 3)},
      {"matmul:2", algos::matmul_spec(2)},
      {"four-branch", four_branch_spec(true).spec},
      {"four-branch-nonoutput", four_branch_spec(false).spec}};
  std::vector<std::pair<std::string, MachineConfig>> machines = {
      {"1x5", make_machine(1, 5)},
      {"2x2", make_machine(2, 2)},
      {"3x4", make_machine(3, 4)},
      {"tight 3x4", make_machine(3, 4)}};
  machines.back().second.pe_capacity_values = 2;
  machines.back().second.link_bits_per_cycle = 4.0;
  sched::Scheduler pool(4);
  std::uint64_t tight_rejects = 0;
  for (const auto& [spec_name, spec] : specs) {
    for (const auto& [machine_name, cfg] : machines) {
      for (const char* homes : {"dram", "pe", "block"}) {
        SCOPED_TRACE(spec_name + " on " + machine_name + ", " + homes +
                     " inputs");
        Mapping proto;
        for (TensorId in : spec.input_tensors()) {
          const std::string h = homes;
          proto.set_input(
              in, h == "dram" ? InputHome::dram()
                  : h == "pe"
                      ? InputHome::at(cfg.geom.coord(cfg.geom.num_nodes() - 1))
                      : InputHome::distributed(
                            block_distribution(spec.domain(in), cfg.geom)
                                .place));
        }
        SearchOptions opts;
        opts.num_workers = 4;
        expect_search_matches_legacy(spec, cfg, proto, opts, pool);
        if (machine_name.rfind("tight", 0) == 0) {
          // The tight machine must reject through storage or bandwidth,
          // not only causality and exclusivity.
          VerifyOptions loose;
          loose.check_storage = false;
          loose.check_bandwidth = false;
          SearchOptions relaxed = opts;
          relaxed.verify = loose;
          const SearchResult strict = search_affine(spec, cfg, proto, opts);
          const SearchResult lax = search_affine(spec, cfg, proto, relaxed);
          tight_rejects += lax.legal - strict.legal;
        }
      }
    }
  }
  EXPECT_GT(tight_rejects, 0u);

  // Random coefficient pools — negative, and wider than the grid, so
  // several space coefficients reduce to one placement — with the
  // search resumed part-way through, over PE-homed and distributed
  // inputs.
  Rng rng(0x7AB1Eu);
  const auto pool_of = [&rng](std::int64_t lo, std::int64_t hi) {
    std::vector<std::int64_t> v;
    const std::int64_t n = rng.next_int(2, 4);
    while (static_cast<std::int64_t>(v.size()) < n) {
      const std::int64_t c = rng.next_int(lo, hi);
      if (std::find(v.begin(), v.end(), c) == v.end()) v.push_back(c);
    }
    return v;
  };
  for (int c = 0; c < 24; ++c) {
    const auto& [spec_name, spec] = specs[rng.next_below(specs.size())];
    const auto& [machine_name, cfg] =
        machines[rng.next_below(machines.size())];
    const bool block = rng.next_below(2) == 0;
    Mapping proto;
    for (TensorId in : spec.input_tensors()) {
      proto.set_input(
          in, block ? InputHome::distributed(
                          block_distribution(spec.domain(in), cfg.geom).place)
                    : InputHome::at(cfg.geom.coord(cfg.geom.num_nodes() / 2)));
    }
    SearchOptions opts;
    opts.num_workers = 4;
    opts.space.time_coeffs = pool_of(-2, 3);
    opts.space.space_coeffs = pool_of(-6, 6);
    const IndexDomain& dom = spec.domain(spec.computed_tensors()[0]);
    const EnumPlan plan = build_enum_plan(
        dom, cfg, opts.space,
        static_cast<double>(dom.size()) * opts.makespan_slack + 1.0);
    opts.resume_from = plan.total == 0 ? 0 : rng.next_below(plan.total);
    std::ostringstream what;
    what << "random pools, case " << c << ": " << spec_name << " on "
         << machine_name << (block ? ", block" : ", one-PE")
         << " inputs, resume_from " << opts.resume_from << " of "
         << plan.total;
    SCOPED_TRACE(what.str());
    expect_search_matches_legacy(spec, cfg, proto, opts, pool);
  }
}

TEST(CompiledSearch, OverflowedPlacementTableMatchesLegacyGates) {
  // A 64x64 edit distance on 4x2 has digests of tens of KiB (arrival
  // codes for 4225 points plus long collision lists), so the table's
  // budget keeps only some of the placements' digests: the rest are
  // scored through the lane's scratch digest on every candidate.
  algos::SwScores sw;
  const FunctionSpec spec = algos::editdist_spec(64, 64, sw);
  const MachineConfig cfg = make_machine(4, 2);
  const Mapping proto = input_homes(spec, cfg, /*dram=*/false);
  SearchOptions opts;
  opts.space.time_coeffs = {0, 1, 2, 3};
  opts.num_workers = 4;
  sched::Scheduler pool(4);
  const std::size_t placements =
      expect_search_matches_legacy(spec, cfg, proto, opts, pool);

  // The same slots through a fresh table, as a serial search scores
  // them: every entry is filled, every placement that passes gate 1 has
  // its digest built, and only some of those digests fit the budget.
  const auto cs = compile_spec(spec, cfg, proto);
  const QuickSample sample = quick_sample_points(*cs, opts.quick_sample);
  const IndexDomain& dom = spec.domain(cs->target);
  const EnumPlan plan = build_enum_plan(
      dom, cfg, opts.space,
      static_cast<double>(dom.size()) * opts.makespan_slack + 1.0);
  EvalContext ctx(*cs);
  PlacementTable table(*cs, sample, plan);
  SlotCursor at(plan, 0);
  for (std::uint64_t slot = 0; slot < plan.total; ++slot, at.next()) {
    AffineMap map;
    GateResult g;
    ASSERT_TRUE(table.run(at, opts.verify, /*defer=*/false, map, g, ctx));
  }
  EXPECT_EQ(table.entries(), plan.space_size);
  EXPECT_EQ(table.filled(), table.entries());
  // Space tuples that reduce to one placement are separate entries.
  EXPECT_GE(table.digests(), placements);
  EXPECT_GT(table.kept_digests(), 0u);
  EXPECT_LT(table.kept_digests(), table.digests());
  std::cout << "placement table: " << table.kept_digests() << " of "
            << table.digests() << " digests kept\n";
}

TEST(CompiledSearch, RunGatesRejectsMapsOffTheCompiledGrid) {
  // The gates index the compiled P x P tables with the map's PEs: a map
  // wider or taller than the compiled grid places points the machine
  // does not have, and one with no columns divides by zero.  Both must
  // be rejected before the quick gate, as verify and evaluate_cost
  // reject them; a narrower map is evaluable and agrees with the legacy
  // gates.
  algos::SwScores s;
  const FunctionSpec spec = algos::editdist_spec(6, 6, s);
  const MachineConfig cfg = make_machine(4, 1);
  const Mapping proto = input_homes(spec, cfg, /*dram=*/false);
  const auto cs = compile_spec(spec, cfg, proto);
  const QuickSample sample = quick_sample_points(*cs, 64);
  EvalContext ctx(*cs);
  ctx.reserve_scratch(*cs);
  for (const auto& [cols, rows] : std::vector<std::pair<int, int>>{
           {8, 1}, {0, 1}, {4, 2}, {4, 0}, {-1, 1}}) {
    AffineMap map{.ti = 1, .tj = 1, .xi = 1, .cols = cols, .rows = rows};
    EXPECT_THROW((void)run_gates(*cs, sample, {}, map, ctx), InvalidArgument)
        << cols << "x" << rows;
  }
  for (const std::int64_t tj : {1, 2, 3}) {
    for (const std::int64_t xi : {0, 1, 2, -1}) {
      SCOPED_TRACE("tj " + std::to_string(tj) + " xi " + std::to_string(xi));
      AffineMap narrow{.ti = 2, .tj = tj, .xi = xi, .cols = 3, .rows = 1};
      const LegacyGates legacy =
          legacy_gates(spec, cfg, proto,
                       legacy_sample(spec.domain(cs->target), 64), {}, narrow);
      const GateResult g = run_gates(*cs, sample, {}, narrow, ctx);
      EXPECT_EQ(g.gate, legacy.gate);
      if (g.gate != Gate::kQuickRejected) {
        expect_map_identical(narrow, legacy.map);
      }
      if (g.gate == Gate::kLegal) expect_cost_identical(g.cost, legacy.cost);
    }
  }
}

}  // namespace
}  // namespace harmony::fm
