// program_pipeline — modular composition on the grid machine: tune a
// three-stage chain (FFT pass -> bit-reverse shuffle -> FFT pass) with
// the greedy and the co-optimizing paired tuner, then execute each
// committed chain with fm::execute_pipeline.  Every stage is verified
// against the input homes its producers' winners fix, runs on the
// GridMachine, and feeds its outputs to the next stage; the executed
// ledger is printed beside the cost the tuner priced, and the chain's
// output is checked against a host evaluation of the composed function.
//
//   $ ./program_pipeline [n]      (n a power of two >= 4; default 16)
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "algos/pipelines.hpp"
#include "fm/pipeline.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"

using namespace harmony;

int main(int argc, char** argv) {
  std::int64_t n = 16;
  if (argc > 1) n = std::atoll(argv[1]);
  if (n < 4 || (n & (n - 1)) != 0) {
    std::cerr << "usage: " << argv[0] << " [n: power of two >= 4]\n";
    return 2;
  }

  // Two rows: on one row every spread layout mirrors every other and the
  // two tuners tie (bench E24.a).
  const fm::MachineConfig cfg = fm::make_machine(4, 2);
  const fm::Pipeline pipe = algos::fft_shuffle_fft_pipeline(n);

  Rng rng(1);
  std::vector<double> x(static_cast<std::size_t>(n));
  for (double& v : x) v = rng.next_double(-1, 1);

  // Host reference: each stage evaluated directly on its producer's
  // reference output, no mapping involved.
  std::vector<double> expect = x;
  for (std::size_t s = 0; s < pipe.size(); ++s) {
    expect = pipe.stage(s).spec->evaluate_reference({expect}).front();
  }

  bool ok = true;
  for (const bool paired : {false, true}) {
    const fm::PipelineOptions opts;
    const fm::PipelineResult tuned =
        paired ? fm::tune_pipeline_paired(pipe, cfg, opts)
               : fm::tune_pipeline_greedy(pipe, cfg, opts);
    const char* tuner = paired ? "paired" : "greedy";
    if (!tuned.found) {
      std::cerr << tuner << ": no legal mapping for every stage\n";
      return 1;
    }
    const std::vector<fm::ExecutionResult> run =
        fm::execute_pipeline(pipe, tuned, opts.strategy, cfg, {x});

    Table t({"stage", "tuned_cycles", "run_cycles", "tuned_nJ", "run_nJ",
             "messages"});
    t.title(std::string(tuner) + " chain on a 4x2 grid, n=" +
            std::to_string(n));
    for (std::size_t s = 0; s < pipe.size(); ++s) {
      const fm::CostReport& c = tuned.stages[s].cost;
      t.add_row({pipe.stage(s).name, c.makespan_cycles,
                 run[s].makespan_cycles, c.total_energy().nanojoules(),
                 run[s].total_energy().nanojoules(),
                 static_cast<std::int64_t>(run[s].messages)});
      ok = ok && run[s].makespan_cycles == c.makespan_cycles &&
           run[s].messages == c.messages;
    }
    t.print(std::cout);
    const bool matches = run.back().outputs.front() == expect;
    ok = ok && matches;
    std::cout << tuner << " chain: critical path "
              << tuned.total.makespan_cycles << " cycles, "
              << tuned.total.total_energy().nanojoules()
              << " nJ, merit " << tuned.merit
              << "; output vs host reference: "
              << (matches ? "MATCHES" : "MISMATCH") << "\n\n";
  }
  return ok ? 0 : 1;
}
