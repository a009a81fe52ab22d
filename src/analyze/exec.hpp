// analyze::ExecChecker — axiomatic execution checking against a
// relational model (ROADMAP item 4; Martonosi §4: make the
// algorithm↔architecture contract *checkable*, not folklore).
//
// The idea, borrowed from declarative memory-model checkers (mc2lib's
// event sets + po/rf/co relations closed under acyclicity axioms, and
// CDSChecker's model-grounded oracle separate from the code under
// test): represent one execution as a small relational structure — a
// *witness* — and check it axiom by axiom, in code that shares nothing
// with the cost model or the legality verifier that produced it.
//
// Two witness families:
//
//   ExecWitness — one Fulcrum-mapping execution.  Events are per-op
//   executions (op_pe / op_cycle) and per-value deliveries; relations
//   are dependence order (`deps`, from the spec's CSR dependence
//   lists), delivery-before-use (`deliveries`, with modelled arrival
//   cycles), storage residency (`residency` intervals), and a
//   routability relation (`routable`).  Axioms:
//     EXEC001  acyclicity of dependence order ∪ same-PE program order
//     EXEC002  event domain: every op in a valid (PE, cycle) slot,
//              no two ops sharing one (program order total per PE)
//     EXEC003  every consumed value delivered no later than its use
//     EXEC004  residency never exceeds PE capacity at any cycle
//     EXEC005  no delivery without a route between its endpoints
//
//   ForkJoinWitness (analyze/witness.hpp) — one traced scheduler run,
//   extracted from harmony::trace spans.  Axioms:
//     EXEC006  spans on one thread nest (series-parallel shape)
//     EXEC007  lane/grain integrity (disjoint slot ranges, no
//              mid-lane thread migration, no same-lane time overlap)
//     EXEC008  steal sanity (no self-steals, known workers, inside a
//              run session)
//     EXEC009  (warning) the trace ring dropped events — the witness
//              is incomplete, so a clean verdict is advisory.  Drops
//              can only *remove* spans, never create overlaps, so the
//              error axioms above still hold when they fire.
//
// build_exec_witness() models a (CompiledSpec, AffineMap | TableMap)
// pair with exactly the timing contract the oracles use (computed dep:
// producer cycle + max(1, transit); PE-homed input: transit from home;
// DRAM input: per-PE DRAM latency; residency from def to last use,
// outputs to makespan) — so a mapping fm::verify accepts yields a
// witness that checks clean, and the two implementations cross-check
// each other.  The checker itself never reads a CompiledSpec: mutation
// tests corrupt witnesses one relation at a time and assert exactly
// the intended axiom fires (tests/analyze_exec_test.cpp).
//
// Wired three ways: `harmony-lint --check-exec` replays a (spec,
// machine, mapping) triple; serve validates every tune winner post-hoc
// (1% to 12% of the tune it guards, by tune size — DESIGN.md §14); and
// the searchers' winners are certified in tests across fixtures,
// drivers, and worker counts.  DESIGN.md §14.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "fm/mapping.hpp"
#include "fm/spec.hpp"

namespace harmony::fm {
struct CompiledSpec;  // fm/compiled.hpp
struct TableMap;      // fm/strategy/table_map.hpp
}  // namespace harmony::fm

namespace harmony::analyze {

struct ForkJoinWitness;  // analyze/witness.hpp

/// One Fulcrum-mapping execution as a self-contained relational
/// structure.  Self-contained on purpose: the checker consumes only
/// this struct, so tests can synthesize and corrupt witnesses without
/// a CompiledSpec, and the checker cannot accidentally lean on the
/// code it is meant to cross-check.
struct ExecWitness {
  /// Schedule cycles at or above this bound are domain violations
  /// (mirrors the verifier's packed-slot limit).
  static constexpr std::int64_t kMaxCycle = std::int64_t{1} << 40;

  std::int64_t num_ops = 0;
  std::int32_t num_pes = 0;
  std::int64_t pe_capacity = 0;
  /// Label for diagnostics ("affine", "table", "synthetic", ...).
  std::string origin;

  /// Op events: execution (PE, cycle) per linearized op.
  std::vector<std::int32_t> op_pe;
  std::vector<fm::Cycle> op_cycle;

  /// Dependence order: src must execute before dst can.
  struct DepEdge {
    std::int64_t src = -1;
    std::int64_t dst = -1;
  };
  std::vector<DepEdge> deps;

  /// One value delivery per consumed operand: the value leaves
  /// `from_pe` (-1 = DRAM) and is available at the consumer's PE at
  /// cycle `ready`.
  struct Delivery {
    enum Kind : std::uint8_t { kComputed = 0, kInputDram = 1, kInputPe = 2 };
    std::int64_t use_op = -1;
    std::int32_t from_pe = -1;
    fm::Cycle ready = 0;
    Kind kind = kComputed;
  };
  std::vector<Delivery> deliveries;

  /// Storage residency: one value occupies a slot on `pe` over the
  /// half-open cycle interval [begin, end).
  struct Residency {
    std::int32_t pe = -1;
    fm::Cycle begin = 0;
    fm::Cycle end = 0;
  };
  std::vector<Residency> residency;

  /// Routability relation, indexed [from * num_pes + to]; nonzero
  /// means a route exists.  Local (from == to) and DRAM deliveries
  /// need no entry.
  std::vector<std::uint8_t> routable;
};

/// Models the execution a mapping denotes on a compiled spec: op
/// events from the map's (place, time), deliveries per dependence edge
/// under the machine timing contract, residency from the def/last-use
/// sweep (outputs live to the makespan), full mesh routability.
[[nodiscard]] ExecWitness build_exec_witness(const fm::CompiledSpec& cs,
                                             const fm::AffineMap& map);
[[nodiscard]] ExecWitness build_exec_witness(const fm::CompiledSpec& cs,
                                             const fm::TableMap& tm);

struct ExecOptions {
  /// Cap on stored diagnostic records (counts continue past it).
  std::size_t max_diagnostics = 64;
};

struct ExecReport {
  std::vector<Diagnostic> diagnostics;
  std::uint64_t errors = 0;
  std::uint64_t warnings = 0;
  /// Records dropped at the max_diagnostics cap.
  std::uint64_t dropped = 0;
  /// Axiom families evaluated (EXEC001–005 for ExecWitness,
  /// EXEC006–009 for ForkJoinWitness).
  std::uint64_t axioms_checked = 0;
  /// False when the witness itself declares missing evidence
  /// (ForkJoinWitness with dropped spans); a clean pass is advisory.
  bool complete = true;

  [[nodiscard]] bool ok() const { return errors == 0; }
  [[nodiscard]] std::uint64_t count(std::string_view rule_id) const {
    std::uint64_t n = 0;
    for (const Diagnostic& d : diagnostics) {
      if (d.rule_id == rule_id) ++n;
    }
    return n;
  }
};

/// The axiom checker.  Stateless apart from options; check() may be
/// called concurrently from different threads on different witnesses.
class ExecChecker {
 public:
  explicit ExecChecker(ExecOptions opts = {}) : opts_(opts) {}

  /// Checks EXEC001–EXEC005 over a mapping-execution witness.
  [[nodiscard]] ExecReport check(const ExecWitness& w) const;

  /// Checks EXEC006–EXEC009 over a traced fork-join witness.
  [[nodiscard]] ExecReport check(const ForkJoinWitness& w) const;

 private:
  ExecOptions opts_;
};

}  // namespace harmony::analyze
