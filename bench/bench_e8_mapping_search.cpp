// E8 — systematic mapping search (Dally, §3): "One can systematically
// search the space of possible mappings to optimize a given figure of
// merit: execution time, energy per op, memory footprint, or some
// combination."
//
// The autotuner enumerates the affine space-time family for three
// kernels (DP edit distance, 1-D stencil, matmul) under each figure of
// merit, and reports the winner against the serial and default-mapper
// baselines.  Expected shape: the search rediscovers the classic
// schedules (the DP wavefront t = i + j; the stencil's time-major scan;
// a k-serial projection for matmul) and beats serial by ~N on time
// while never losing on the chosen merit.
//
// The binary checks its own winners and exits non-zero (CI's perf label
// runs it as bench_e8_smoke) unless every winner, materialized as a full
// Mapping, re-verifies legal and re-costs to the same cycles and energy
// through the FunctionSpec oracles (fm::verify, fm::evaluate_cost), and
// the edit distance's time winner is the wavefront t = i + j.
#include <iostream>
#include <sstream>
#include <string>

#include "algos/editdist.hpp"
#include "algos/matmul.hpp"
#include "algos/specs.hpp"
#include "fm/cost.hpp"
#include "fm/default_mapper.hpp"
#include "fm/idioms.hpp"
#include "fm/legality.hpp"
#include "fm/search.hpp"
#include "support/table.hpp"

using namespace harmony;

namespace {

std::string coeffs(const fm::AffineMap& m) {
  std::ostringstream os;
  os << "t=" << m.ti << "i+" << m.tj << "j+" << m.tk << "k"
     << " x=" << m.xi << "i+" << m.xj << "j+" << m.xk << "k";
  return os.str();
}

const char* fom_name(fm::FigureOfMerit f) {
  switch (f) {
    case fm::FigureOfMerit::kTime:
      return "time";
    case fm::FigureOfMerit::kEnergy:
      return "energy";
    case fm::FigureOfMerit::kEnergyDelay:
      return "energy-delay";
  }
  return "?";
}

}  // namespace

int main(int argc, char** argv) {
  // --json prints one machine-readable object (winners and Pareto
  // front) instead of the ASCII tables — BENCH_e8_mapping_search.json
  // is this output.  Both are simulator outputs, so the file carries no
  // host header.
  bool json = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json") json = true;
  }

  if (!json) {
    std::cout << "E8: autotuning space-time mappings per figure of merit\n\n";
  }
  std::ostringstream jwinners, jpareto;

  Table t({"kernel", "merit", "best_map", "enumerated", "legal", "cycles",
           "energy_nJ", "cycles_vs_serial", "cycles_vs_default"});
  t.title("E8 — search winners vs serial and default-mapper baselines");

  struct Kernel {
    std::string name;
    fm::FunctionSpec spec;
    int cols;
    int rows;
  };
  std::vector<Kernel> kernels;
  // Every failed winner check, printed to stderr at the end.
  std::vector<std::string> failures;
  {
    algos::SwScores s;
    kernels.push_back(
        {"editdist 16x16", algos::editdist_spec(16, 16, s), 16, 1});
  }
  kernels.push_back(
      {"stencil1d n=16 T=12", algos::stencil1d_spec(16, 12), 16, 1});
  kernels.push_back({"matmul 8^3", algos::matmul_spec(8), 8, 8});

  for (auto& k : kernels) {
    const fm::MachineConfig cfg = fm::make_machine(k.cols, k.rows);
    fm::Mapping proto;
    for (fm::TensorId in : k.spec.input_tensors()) {
      // Inputs pre-loaded block-wise across the PE SRAMs (a single-PE
      // home is a bandwidth hot-spot the verifier rightly rejects).
      proto.set_input(in,
                      fm::InputHome::distributed(
                          fm::block_distribution(k.spec.domain(in),
                                                 cfg.geom).place));
    }
    const fm::CostReport serial =
        evaluate_cost(k.spec, fm::serial_mapping(k.spec), cfg);
    const fm::CostReport def =
        evaluate_cost(k.spec, fm::default_mapping(k.spec, cfg), cfg);

    for (auto fom : {fm::FigureOfMerit::kTime, fm::FigureOfMerit::kEnergy,
                     fm::FigureOfMerit::kEnergyDelay}) {
      fm::SearchOptions opts;
      opts.fom = fom;
      opts.space.time_coeffs = {0, 1, 2};
      opts.space.space_coeffs = {-1, 0, 1};
      const fm::SearchResult res =
          search_affine(k.spec, cfg, proto, opts);
      const std::string what = k.name + " on " + fom_name(fom);
      if (!res.found) {
        failures.push_back(what + ": no legal mapping found");
        t.add_row({k.name, std::string(fom_name(fom)),
                   std::string("NONE FOUND"),
                   static_cast<std::int64_t>(res.enumerated),
                   static_cast<std::int64_t>(res.legal), std::int64_t{0},
                   0.0, 0.0, 0.0});
        continue;
      }
      // The winner, materialized, through the FunctionSpec oracles.
      const fm::AffineMap& best = res.best.map;
      fm::Mapping winner;
      winner.set_computed(k.spec.computed_tensors()[0], best.place_fn(),
                          best.time_fn());
      for (fm::TensorId in : k.spec.input_tensors()) {
        winner.set_input(in, proto.input_home(in));
      }
      if (!fm::verify(k.spec, winner, cfg).ok) {
        failures.push_back(what + ": the winner does not re-verify legal");
      }
      const fm::CostReport recost = fm::evaluate_cost(k.spec, winner, cfg);
      if (recost.makespan_cycles != res.best.cost.makespan_cycles ||
          recost.total_energy().femtojoules() !=
              res.best.cost.total_energy().femtojoules()) {
        failures.push_back(what +
                           ": the winner re-costs to different cycles or "
                           "energy");
      }
      if (k.name.rfind("editdist", 0) == 0 &&
          fom == fm::FigureOfMerit::kTime &&
          !(best.ti == 1 && best.tj == 1 && best.tk == 0)) {
        failures.push_back(what + ": the winner is " + coeffs(best) +
                           ", not the wavefront t = i + j");
      }
      t.add_row({k.name, std::string(fom_name(fom)), coeffs(res.best.map),
                 static_cast<std::int64_t>(res.enumerated),
                 static_cast<std::int64_t>(res.legal),
                 res.best.cost.makespan_cycles,
                 res.best.cost.total_energy().nanojoules(),
                 static_cast<double>(serial.makespan_cycles) /
                     static_cast<double>(res.best.cost.makespan_cycles),
                 static_cast<double>(def.makespan_cycles) /
                     static_cast<double>(res.best.cost.makespan_cycles)});
    }
  }
  if (json) {
    t.print_json(jwinners);
  } else {
    t.print(std::cout);
  }

  // The "or some combination" claim: the legal mappings' (time, energy)
  // Pareto front for the DP kernel.
  if (!json) std::cout << '\n';
  {
    algos::SwScores s;
    const auto spec = algos::editdist_spec(16, 16, s);
    const fm::MachineConfig cfg = fm::make_machine(16, 1);
    fm::Mapping proto;
    for (fm::TensorId in : spec.input_tensors()) {
      proto.set_input(in, fm::InputHome::distributed(
                              fm::block_distribution(spec.domain(in),
                                                     cfg.geom).place));
    }
    fm::SearchOptions opts;
    opts.keep_all_legal = true;
    const fm::SearchResult res = search_affine(spec, cfg, proto, opts);
    const auto front = fm::pareto_front(res.all_legal);
    Table p({"pareto_point", "map", "cycles", "energy_nJ"});
    p.title("E8.b — (time, energy) Pareto front, editdist 16x16 (" +
            std::to_string(res.all_legal.size()) + " legal mappings)");
    std::int64_t idx = 0;
    for (const fm::Candidate& c : front) {
      p.add_row({idx++, coeffs(c.map), c.cost.makespan_cycles,
                 c.cost.total_energy().nanojoules()});
    }
    if (json) {
      p.print_json(jpareto);
    } else {
      p.print(std::cout);
    }
  }

  if (json) {
    std::cout << "{\n\"bench\": \"e8_mapping_search\",\n\"winners\": "
              << jwinners.str() << ",\n\"pareto_front\": " << jpareto.str()
              << "\n}\n";
  } else {
    std::cout << "\nShape check: on the time merit the DP kernel's winner "
                 "is the wavefront (t = i + j); searched mappings dominate "
                 "serial by ~N and at least match the default mapper on "
                 "their own merit.\n";
  }
  for (const std::string& f : failures) std::cerr << "ERROR: " << f << '\n';
  return failures.empty() ? 0 : 1;
}
