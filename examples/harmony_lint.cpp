// harmony-lint: the mapping linter as a command-line tool.
//
// Loads a (FunctionSpec, Mapping, MachineConfig) triple from the
// command line, runs analyze::lint_mapping, and prints the structured
// diagnostics — as a table for humans or JSON (--json) for machines.
// Exit status: 0 clean, 1 warnings only, 2 errors (illegal mapping).
//
//   harmony-lint --spec=editdist:64x64 --machine=8x1 --map=wavefront
//   harmony-lint --spec=editdist:16x16 --machine=4x4 --map=serial --json
//   harmony-lint --spec=conv:256,8 --machine=8x1 --map=affine:0,1,8,1,0,0
//   harmony-lint --spec=stencil:64,8 --machine=4x1 --map=table --check-exec
//   harmony-lint --pipeline=scanchain:16 --machine=4x1
//   harmony-lint --pipeline=irregular:24,3,7 --machine=4x1 --tuner=greedy
//
// Specs: serve::SpecCatalog's names — editdist:NxM, stencil:N,STEPS,
//        conv:N,K, matmul:N, irregular:N,FANIN,SEED.
// Maps:  serial | wavefront (editdist only) | affine:ti,tj,t0,xi,xj,x0 |
//        table (the stochastic searchers' serial seed TableMap).
// Knobs: --pe-capacity=N, --link-bits=B, --max-diagnostics=N.
// An argument that does not parse prints the usage and exits 2.
//
// --check-exec additionally replays the triple through the compiled
// oracles' timing model into an execution witness and checks it against
// the relational axioms (analyze::ExecChecker, EXEC001–EXEC005) — an
// independent second opinion that shares no code with the linter's
// legality gate.  Its diagnostics merge into the output and exit code.
//
// --pipeline=<scenario> switches to multi-kernel mode: it tunes one of
// the canned stage DAGs (fft:N | scanchain:N | diamond:N with the
// exhaustive affine searcher; irregular:N,FANIN,SEED with the anneal
// strategy) end to end via fm::tune_pipeline_paired (--tuner=greedy for
// the stage-by-stage baseline), then certifies every committed stage
// winner — with its *resolved* input homes, i.e. the producer-fixed
// distributed layouts the tuner actually priced the handoffs against —
// through both the linter and ExecChecker.  Exec checking is always on
// in this mode; that certification is the point.
#include <charconv>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "algos/pipelines.hpp"
#include "analyze/exec.hpp"
#include "analyze/lint.hpp"
#include "fm/compiled.hpp"
#include "fm/machine.hpp"
#include "fm/mapping.hpp"
#include "fm/pipeline.hpp"
#include "fm/strategy/delta.hpp"
#include "fm/strategy/table_map.hpp"
#include "serve/catalog.hpp"
#include "support/table.hpp"

namespace {

using harmony::analyze::LintOptions;
using harmony::analyze::LintReport;

struct Args {
  std::string spec = "editdist:32x32";
  std::string machine = "4x1";
  std::string map = "serial";
  std::string pipeline;  ///< nonempty switches to multi-kernel mode
  bool paired = true;    ///< --tuner=paired (default) | greedy
  bool json = false;
  bool check_exec = false;
  std::optional<std::int64_t> pe_capacity;
  std::optional<double> link_bits;
  std::size_t max_diagnostics = 64;
};

[[noreturn]] void usage(const char* argv0) {
  std::cerr
      << "usage: " << argv0
      << " [--spec=editdist:NxM|stencil:N,STEPS|conv:N,K|matmul:N|"
         "irregular:N,FANIN,SEED]\n"
         "       [--machine=CxR] [--map=serial|wavefront|affine:ti,tj,t0,"
         "xi,xj,x0|table]\n"
         "       [--pipeline=fft:N|scanchain:N|diamond:N|irregular:N,F,S]"
         " [--tuner=paired|greedy]\n"
         "       [--json] [--check-exec] [--pe-capacity=N] [--link-bits=B]"
         " [--max-diagnostics=N]\n";
  std::exit(2);
}

/// Parses all of `s` as one number; anything else (empty, trailing
/// text, out of range) is a usage error.
template <typename T>
T parse_number(const std::string& s, const char* argv0) {
  T v{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, v);
  if (s.empty() || ec != std::errc{} || ptr != end) usage(argv0);
  return v;
}

/// Splits "a,b,c" (or "AxB") on any of ",x" into int64 fields.
std::vector<std::int64_t> split_ints(const std::string& s,
                                     const char* argv0) {
  std::vector<std::int64_t> out;
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t end = s.find_first_of(",x", pos);
    if (end == std::string::npos) end = s.size();
    out.push_back(
        parse_number<std::int64_t>(s.substr(pos, end - pos), argv0));
    pos = end + 1;
  }
  return out;
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg.rfind("--spec=", 0) == 0) {
      a.spec = value("--spec=");
    } else if (arg.rfind("--machine=", 0) == 0) {
      a.machine = value("--machine=");
    } else if (arg.rfind("--map=", 0) == 0) {
      a.map = value("--map=");
    } else if (arg.rfind("--pipeline=", 0) == 0) {
      a.pipeline = value("--pipeline=");
    } else if (arg.rfind("--tuner=", 0) == 0) {
      const std::string t = value("--tuner=");
      if (t == "paired") {
        a.paired = true;
      } else if (t == "greedy") {
        a.paired = false;
      } else {
        usage(argv[0]);
      }
    } else if (arg == "--json") {
      a.json = true;
    } else if (arg == "--check-exec") {
      a.check_exec = true;
    } else if (arg.rfind("--pe-capacity=", 0) == 0) {
      a.pe_capacity =
          parse_number<std::int64_t>(value("--pe-capacity="), argv[0]);
    } else if (arg.rfind("--link-bits=", 0) == 0) {
      a.link_bits = parse_number<double>(value("--link-bits="), argv[0]);
    } else if (arg.rfind("--max-diagnostics=", 0) == 0) {
      a.max_diagnostics =
          parse_number<std::size_t>(value("--max-diagnostics="), argv[0]);
    } else {
      usage(argv[0]);
    }
  }
  return a;
}

/// Multi-kernel mode (--pipeline=...): tune one of the canned stage
/// DAGs end to end, then lint + exec-check every committed stage winner
/// against its resolved (producer-substituted) input homes.  Exit codes
/// match single-spec mode: 0 clean, 1 warnings, 2 errors / no mapping.
int run_pipeline(const Args& args, const harmony::fm::MachineConfig& machine,
                 const char* argv0) {
  namespace fm = harmony::fm;
  namespace algos = harmony::algos;
  namespace analyze = harmony::analyze;

  const std::size_t colon = args.pipeline.find(':');
  if (colon == std::string::npos) usage(argv0);
  const std::string family = args.pipeline.substr(0, colon);
  const auto dims = split_ints(args.pipeline.substr(colon + 1), argv0);

  fm::Pipeline pipe;
  fm::PipelineOptions opts;
  fm::PipelineResult result;
  try {
    // The builders reject sizes they cannot take (an FFT of 0 points).
    if (family == "fft" && dims.size() == 1) {
      pipe = algos::fft_shuffle_fft_pipeline(dims[0]);
    } else if (family == "scanchain" && dims.size() == 1) {
      pipe = algos::scan_filter_scan_pipeline(dims[0]);
    } else if (family == "diamond" && dims.size() == 1) {
      pipe = algos::diamond_pipeline(dims[0]);
    } else if (family == "irregular" && dims.size() == 3) {
      pipe = algos::irregular_chain_pipeline(
          dims[0], static_cast<int>(dims[1]),
          static_cast<std::uint64_t>(dims[2]));
      // Irregular dependence defeats the affine family; tune the chain
      // with the anneal strategy on a modest, deterministic budget.
      opts.strategy = fm::StrategyKind::kAnneal;
      opts.strategy_opts.chains = 2;
      opts.strategy_opts.epochs = 12;
      opts.strategy_opts.iters_per_epoch = 96;
    } else {
      usage(argv0);
    }
    result = args.paired ? fm::tune_pipeline_paired(pipe, machine, opts)
                         : fm::tune_pipeline_greedy(pipe, machine, opts);
  } catch (const std::exception& e) {
    std::cerr << "harmony-lint: --pipeline: " << e.what() << "\n";
    return 2;
  }
  if (!result.found) {
    std::cerr << "harmony-lint: --pipeline=" << args.pipeline << " on "
              << args.machine << ": no legal mapping for every stage\n";
    return 2;
  }

  // Certify each stage winner with the input homes the tuner actually
  // priced its handoffs against — producer bindings resolve to
  // distributed homes over the producer's committed place function.
  std::uint64_t errors = 0, warnings = 0, dropped = 0;
  std::vector<analyze::Diagnostic> diags;
  std::vector<std::string> lines;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    const fm::StageResult& st = result.stages[s];
    const fm::FunctionSpec& spec = *pipe.stage(s).spec;
    std::uint64_t stage_errors = 0;
    try {
      const fm::Mapping proto =
          fm::stage_input_proto(pipe, s, opts.strategy, result);
      fm::Mapping full;
      if (opts.strategy == fm::StrategyKind::kExhaustive) {
        full = proto;
        full.set_computed(spec.computed_tensors().front(),
                          st.affine.place_fn(), st.affine.time_fn());
      } else {
        full = fm::to_mapping(spec, st.table);
      }
      LintOptions lopts;
      lopts.max_diagnostics = args.max_diagnostics;
      lopts.verify.max_messages = args.max_diagnostics;
      const LintReport rep = analyze::lint_mapping(spec, full, machine, lopts);

      const auto cs = fm::compile_spec(spec, machine, proto);
      const analyze::ExecWitness witness =
          opts.strategy == fm::StrategyKind::kExhaustive
              ? analyze::build_exec_witness(*cs, st.affine)
              : analyze::build_exec_witness(*cs, st.table);
      analyze::ExecOptions eopts;
      eopts.max_diagnostics = args.max_diagnostics;
      const analyze::ExecReport er = analyze::ExecChecker(eopts).check(witness);

      stage_errors = rep.errors + er.errors;
      errors += stage_errors;
      warnings += rep.warnings + er.warnings;
      dropped += rep.dropped + er.dropped;
      diags.insert(diags.end(), rep.diagnostics.begin(), rep.diagnostics.end());
      diags.insert(diags.end(), er.diagnostics.begin(), er.diagnostics.end());
    } catch (const std::exception& e) {
      std::cerr << "harmony-lint: --pipeline stage " << st.name << ": "
                << e.what() << "\n";
      return 2;
    }
    std::ostringstream line;
    line << "  stage " << s << " (" << st.name << "): merit " << st.merit
         << ", cycles [" << st.start_cycle << ", " << st.finish_cycle
         << ") — " << (stage_errors == 0 ? "certified" : "ILLEGAL");
    lines.push_back(line.str());
  }

  if (args.json) {
    std::cout << analyze::diagnostics_json(diags) << "\n";
  } else {
    std::cout << "harmony-lint: pipeline " << args.pipeline << " on "
              << args.machine << " via "
              << (args.paired ? "paired" : "greedy") << " tuner — "
              << (errors == 0 ? "legal" : "ILLEGAL") << ", " << errors
              << " error(s), " << warnings
              << " warning(s) [exec checked per stage]";
    if (dropped > 0) std::cout << " (" << dropped << " dropped)";
    std::cout << "\n";
    for (const std::string& l : lines) std::cout << l << "\n";
    std::cout << "  total: merit " << result.merit << ", makespan "
              << result.total.makespan_cycles << " cycles, "
              << result.probe_searches << " probe search(es)\n";
    if (!diags.empty()) {
      analyze::diagnostics_table(diags).print(std::cout);
    }
  }
  return errors > 0 ? 2 : (warnings > 0 ? 1 : 0);
}

}  // namespace

int main(int argc, char** argv) {
  namespace fm = harmony::fm;
  namespace analyze = harmony::analyze;

  const Args args = parse_args(argc, argv);

  // ---- machine -------------------------------------------------------
  const auto mdims = split_ints(args.machine, argv[0]);
  constexpr std::int64_t kMaxSide = std::numeric_limits<int>::max();
  if (mdims.size() != 2 || mdims[0] < 1 || mdims[1] < 1 ||
      mdims[0] > kMaxSide || mdims[1] > kMaxSide) {
    usage(argv[0]);
  }
  fm::MachineConfig machine = fm::make_machine(static_cast<int>(mdims[0]),
                                               static_cast<int>(mdims[1]));
  if (args.pe_capacity) machine.pe_capacity_values = *args.pe_capacity;
  if (args.link_bits) machine.link_bits_per_cycle = *args.link_bits;

  // ---- multi-kernel mode ---------------------------------------------
  if (!args.pipeline.empty()) return run_pipeline(args, machine, argv[0]);

  // ---- spec ----------------------------------------------------------
  // Named in the wire tier's grammar: the catalog builds every family
  // serve does, and each has exactly one computed tensor.
  std::shared_ptr<const fm::FunctionSpec> named;
  try {
    named = harmony::serve::SpecCatalog().spec(args.spec);
  } catch (const std::exception& e) {
    std::cerr << "harmony-lint: --spec: " << e.what() << "\n";
    usage(argv[0]);
  }
  const fm::FunctionSpec& spec = *named;
  const fm::TensorId computed = spec.computed_tensors().front();
  const std::vector<fm::TensorId> inputs = spec.input_tensors();

  // ---- mapping -------------------------------------------------------
  fm::Mapping mapping;
  // Kept alongside the lowered Mapping when available: --check-exec
  // builds the witness from the family-native form (exactly what serve
  // hands the checker), falling back to table_from_mapping for closure
  // maps (serial, wavefront).
  std::optional<fm::AffineMap> affine;
  std::optional<fm::TableMap> table;
  if (args.map == "serial") {
    mapping = fm::serial_mapping(spec);
  } else if (args.map == "table") {
    // The stochastic searchers' serial seed TableMap: the canonical
    // known-legal per-op table, lowered for the linter and kept for the
    // witness.  Inputs home in DRAM (the searchers' default proto).
    fm::Mapping proto;
    for (const fm::TensorId t : inputs) {
      proto.set_input(t, fm::InputHome::dram());
    }
    try {
      const auto cs = fm::compile_spec(spec, machine, proto);
      const auto ss = fm::build_strategy_spec(cs);
      table = fm::seed_table(*ss);
    } catch (const std::exception& e) {
      std::cerr << "harmony-lint: --map=table: " << e.what() << "\n";
      return 2;
    }
    mapping = fm::to_mapping(spec, *table);
  } else if (args.map == "wavefront") {
    if (args.spec.rfind("editdist:", 0) != 0) {
      std::cerr << "harmony-lint: --map=wavefront needs --spec=editdist\n";
      return 2;
    }
    const fm::WavefrontMap wf = fm::wavefront_map(
        spec.domain(computed).extent(1), machine.geom.cols());
    mapping.set_computed(computed, wf.place_fn(), wf.time_fn());
    for (const fm::TensorId t : inputs) {
      mapping.set_input(t, fm::InputHome::at({0, 0}));
    }
  } else if (args.map.rfind("affine:", 0) == 0) {
    const auto c = split_ints(args.map.substr(7), argv[0]);
    if (c.size() != 6) usage(argv[0]);
    fm::AffineMap am;
    am.ti = c[0];
    am.tj = c[1];
    am.t0 = c[2];
    am.xi = c[3];
    am.xj = c[4];
    am.x0 = c[5];
    am.cols = machine.geom.cols();
    am.rows = machine.geom.rows();
    mapping.set_computed(computed, am.place_fn(), am.time_fn());
    for (const fm::TensorId t : inputs) {
      mapping.set_input(t, fm::InputHome::dram());
    }
    affine = am;
  } else {
    usage(argv[0]);
  }

  // ---- lint ----------------------------------------------------------
  LintOptions opts;
  opts.max_diagnostics = args.max_diagnostics;
  opts.verify.max_messages = args.max_diagnostics;
  LintReport rep;
  try {
    rep = analyze::lint_mapping(spec, mapping, machine, opts);
  } catch (const std::exception& e) {
    std::cerr << "harmony-lint: " << e.what() << "\n";
    return 2;
  }

  // ---- execution check (--check-exec) --------------------------------
  std::uint64_t errors = rep.errors;
  std::uint64_t warnings = rep.warnings;
  std::uint64_t dropped = rep.dropped;
  std::vector<analyze::Diagnostic> diags = std::move(rep.diagnostics);
  if (args.check_exec) {
    try {
      // Replay the triple through the compiled timing model into a
      // witness — from the family-native form when we have one, via
      // table_from_mapping for closure maps.
      const auto cs = fm::compile_spec(spec, machine, mapping);
      const analyze::ExecWitness witness =
          affine ? analyze::build_exec_witness(*cs, *affine)
                 : analyze::build_exec_witness(
                       *cs, table ? *table
                                  : fm::table_from_mapping(*cs, mapping));
      analyze::ExecOptions eopts;
      eopts.max_diagnostics = args.max_diagnostics;
      const analyze::ExecReport er = analyze::ExecChecker(eopts).check(witness);
      errors += er.errors;
      warnings += er.warnings;
      dropped += er.dropped;
      diags.insert(diags.end(), er.diagnostics.begin(), er.diagnostics.end());
    } catch (const std::exception& e) {
      std::cerr << "harmony-lint: --check-exec: " << e.what() << "\n";
      return 2;
    }
  }

  if (args.json) {
    std::cout << analyze::diagnostics_json(diags) << "\n";
  } else {
    std::cout << "harmony-lint: " << args.spec << " on " << args.machine
              << " via " << args.map << " — "
              << (errors == 0 ? "legal" : "ILLEGAL") << ", " << errors
              << " error(s), " << warnings << " warning(s)";
    if (args.check_exec) std::cout << " [exec checked]";
    if (dropped > 0) std::cout << " (" << dropped << " dropped)";
    std::cout << "\n";
    if (!diags.empty()) {
      analyze::diagnostics_table(diags).print(std::cout);
    }
  }
  return errors > 0 ? 2 : (warnings > 0 ? 1 : 0);
}
