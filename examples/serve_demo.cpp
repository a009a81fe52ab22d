// serve_demo — harmony::serve in ~80 lines.
//
// Stands up the mapping-tuning service over the edit-distance spec and
// walks its three request kinds: a cost eval (miss, then memoized hit),
// a legality check, and a deadline-cut tune — the case where the budget
// runs out before the search space does and the service answers with the
// best legal mapping found so far instead of failing.
//
//   $ ./serve_demo
//   $ ./serve_demo --trace serve.json   # then open in ui.perfetto.dev
#include <chrono>
#include <iostream>
#include <memory>
#include <optional>
#include <string>

#include "algos/editdist.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

int main(int argc, char** argv) {
  using namespace harmony;
  using namespace std::chrono_literals;

  // --trace out.json records every request's lifecycle spans (admit →
  // queue wait → batch → cache probe → tune → reply) plus the scheduler
  // and search spans underneath them.
  const std::string trace_path = trace::trace_flag(argc, argv);
  std::optional<trace::TraceSession> session;
  if (!trace_path.empty()) session.emplace();

  serve::MetricsSnapshot snap;
  {
    // The function under management: a 32x32 edit-distance recurrence.
    algos::SwScores scores;
    const auto spec = std::make_shared<const fm::FunctionSpec>(
        algos::editdist_spec(32, 32, scores));

    serve::ServiceConfig cfg;
    cfg.num_workers = 4;
    serve::Service svc(cfg);

    // A request is (kind, spec, machine, merit, inputs, payload).
    serve::Request base;
    base.spec = spec;
    base.machine = fm::make_machine(/*cols=*/32, /*rows=*/1);
    base.inputs = {serve::InputPlacement::at({0, 0}),
                   serve::InputPlacement::at({0, 0})};

    // 1. Cost eval: price the wavefront mapping.  The first call runs the
    //    oracle; the second is answered from the result cache on the
    //    caller's thread.
    serve::Request eval = base;
    eval.kind = serve::RequestKind::kCostEval;
    eval.map = fm::AffineMap{.ti = 1, .tj = 1, .tk = 0, .t0 = 0,
                             .xi = 1, .xj = 0, .xk = 0, .x0 = 0,
                             .yi = 0, .yj = 0, .yk = 0, .y0 = 0,
                             .cols = 32, .rows = 1};
    serve::Response r = svc.call(eval);
    std::cout << "cost eval: " << r.cost.makespan_cycles << " cycles, "
              << r.cost.total_energy().nanojoules() << " nJ (cache_hit="
              << r.cache_hit << ")\n";
    r = svc.call(eval);
    std::cout << "cost eval again: cache_hit=" << r.cache_hit << ", latency "
              << r.latency.count() / 1000 << " us\n";

    // 2. Legality: the same map is checked, not priced — and rejected.
    //    Both strings are homed on PE (0,0), so the wavefront's 63-cycle
    //    schedule pushes ~550 bits/cycle through that PE's outgoing link
    //    (capacity 256): the cost oracle prices the map, the verifier
    //    catches the bandwidth hot-spot.
    serve::Request legal = base;
    legal.kind = serve::RequestKind::kLegality;
    legal.map = eval.map;
    r = svc.call(legal);
    std::cout << "legality: ok=" << r.legality.ok << " (bandwidth violations "
              << r.legality.bandwidth_violations << ", peak link "
              << r.legality.peak_link_bits_per_cycle << " bits/cycle)\n";

    // 3. Tune with a deadline.  The search space below is far larger than
    //    50 ms of enumeration — even through the compiled fast path
    //    (DESIGN.md §12) — so the deadline fires mid-search and the
    //    response carries the best-so-far frontier (deadline_cut) — more
    //    budget buys a better mapping, less buys a legal one sooner.  The
    //    winner stretches time enough to fit the PE-0 link budget the
    //    wavefront just blew.
    //    (Coefficient 1 leads both lists, so the legal wavefront is among
    //    the first candidates enumerated.)
    serve::Request tune = base;
    tune.kind = serve::RequestKind::kTune;
    tune.fom = fm::FigureOfMerit::kTime;
    tune.search.space.time_coeffs = {1, 2, 3, 4, 5, 6, 7, 8,
                                     9, 10, 11, 12, 0};
    tune.search.space.space_coeffs = {1, 0, -1, 2, -2, 3, -3, 4, -4};
    tune.deadline = 50ms;
    r = svc.call(tune);
    if (r.ok() && r.search.found) {
      const fm::AffineMap& m = r.search.best.map;
      std::cout << "tune: best map t=" << m.ti << "i+" << m.tj << "j x="
                << m.xi << "i+" << m.xj << "j, "
                << r.search.best.cost.makespan_cycles << " cycles after "
                << r.search.enumerated << " candidates (deadline_cut="
                << r.deadline_cut << ")\n";
    } else {
      std::cout << "tune: no legal mapping found (" << r.error << ")\n";
    }

    // The metrics endpoint, human- and machine-readable.
    snap = svc.metrics();
    // Scope end: ~Service joins the worker pool, so every traced
    // thread is quiescent before capture() below.
  }
  std::cout << "\n";
  serve::metrics_table(snap).print(std::cout);
  std::cout << "\n" << serve::metrics_json(snap) << "\n";

  if (session) {
    session->stop();
    const trace::Capture cap = session->capture();
    trace::write_chrome_json_file(trace_path, cap);
    std::cout << "\n";
    trace::summary_table(trace::summarize(cap)).print(std::cout);
    std::cout << "trace: " << cap.events.size() << " events -> " << trace_path
              << " (open in ui.perfetto.dev)\n";
  }
  return 0;
}
