// E21 — serving the mapping oracles (Dally, §3, operationalized): once
// (function, mapping) cost is a pure analytic query, the natural system
// around it is a memoizing service — the search that discovers a good
// mapping is paid once and amortized across every later request for the
// same (spec, map, machine, merit) key.
//
// Two arrival disciplines drive one harmony::serve::Service over a
// Zipf-distributed population of 64 distinct cost-eval requests:
//
//   closed loop — 8 client threads issue call() back-to-back; measures
//                 saturation throughput of the cache fast path.
//   open loop   — arrivals paced at a fixed rate independent of
//                 completions; measures latency when the service is not
//                 allowed to push back on the client.
//
// Expected shape: after a one-pass warmup, the Zipf mix hits the result
// cache ≥90% of the time and the closed loop sustains ≥10k req/s on 8
// workers — the point being that the *service* layer, not the oracle,
// sets the throughput once the working set is memoized.
#include <chrono>
#include <cmath>
#include <cstdint>
#include <future>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "algos/editdist.hpp"
#include "serve/metrics.hpp"
#include "serve/request.hpp"
#include "serve/service.hpp"
#include "support/rng.hpp"
#include "support/table.hpp"
#include "trace/export.hpp"
#include "trace/trace.hpp"

using namespace harmony;
using namespace std::chrono_literals;

namespace {

using Clock = std::chrono::steady_clock;

/// Zipf(s) sampler over {0..n-1} by inverse CDF (deterministic, no
/// std:: distribution — see support/rng.hpp rationale).
class Zipf {
 public:
  Zipf(std::size_t n, double s) : cdf_(n) {
    double sum = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      sum += 1.0 / std::pow(static_cast<double>(k + 1), s);
      cdf_[k] = sum;
    }
    for (double& c : cdf_) c /= sum;
  }

  std::size_t operator()(Rng& rng) const {
    const double u = rng.next_double();
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  }

 private:
  std::vector<double> cdf_;
};

/// 64 distinct cost-eval requests: one edit-distance spec, wavefront
/// maps differing in time offset t0 (distinct cache keys, identical
/// oracle cost — so throughput differences are the service's, not the
/// workload's).
class Population {
 public:
  static constexpr std::size_t kDistinct = 64;

  Population() {
    algos::SwScores s;
    spec_ = std::make_shared<const fm::FunctionSpec>(
        algos::editdist_spec(24, 24, s));
  }

  [[nodiscard]] serve::Request make(std::size_t idx) const {
    serve::Request req;
    req.kind = serve::RequestKind::kCostEval;
    req.spec = spec_;
    req.machine = fm::make_machine(24, 1);
    req.inputs = {serve::InputPlacement::at({0, 0}),
                  serve::InputPlacement::at({0, 0})};
    req.map = fm::AffineMap{.ti = 1, .tj = 1, .tk = 0,
                            .t0 = static_cast<std::int64_t>(idx),
                            .xi = 1, .xj = 0, .xk = 0, .x0 = 0,
                            .yi = 0, .yj = 0, .yk = 0, .y0 = 0,
                            .cols = 24, .rows = 1};
    return req;
  }

 private:
  std::shared_ptr<const fm::FunctionSpec> spec_;
};

struct RunStats {
  std::uint64_t requests = 0;
  double elapsed_s = 0.0;
  serve::MetricsSnapshot snap;
};

void add_result_row(Table& t, const std::string& mode,
                    const std::string& load, const RunStats& r) {
  const double rps =
      r.elapsed_s > 0 ? static_cast<double>(r.requests) / r.elapsed_s : 0.0;
  t.add_row({mode, load, static_cast<std::int64_t>(r.requests),
             r.elapsed_s * 1e3, rps, r.snap.cache.hit_rate(), r.snap.p50_us,
             r.snap.p95_us, r.snap.p99_us});
}

RunStats closed_loop(const Population& pop, const Zipf& zipf, int clients,
                     int per_client) {
  serve::ServiceConfig cfg;
  cfg.num_workers = 8;
  serve::Service svc(cfg);

  // Warmup: populate the cache with one pass over the population so the
  // measured window prices the steady state, not the cold misses.
  for (std::size_t i = 0; i < Population::kDistinct; ++i) {
    (void)svc.call(pop.make(i));
  }

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      Rng rng(0xe21ULL + static_cast<std::uint64_t>(c));
      for (int i = 0; i < per_client; ++i) {
        const serve::Response r = svc.call(pop.make(zipf(rng)));
        if (!r.ok()) {
          std::cerr << "closed loop: unexpected failure: " << r.error
                    << "\n";
          std::abort();
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  RunStats stats;
  stats.requests =
      static_cast<std::uint64_t>(clients) * static_cast<std::uint64_t>(per_client);
  stats.elapsed_s = elapsed;
  stats.snap = svc.metrics();
  svc.shutdown();
  return stats;
}

RunStats open_loop(const Population& pop, const Zipf& zipf,
                   double arrivals_per_s, int total) {
  serve::ServiceConfig cfg;
  cfg.num_workers = 8;
  serve::Service svc(cfg);
  for (std::size_t i = 0; i < Population::kDistinct; ++i) {
    (void)svc.call(pop.make(i));
  }

  Rng rng(0x0be21ULL);
  std::vector<std::future<serve::Response>> inflight;
  inflight.reserve(static_cast<std::size_t>(total));
  const auto interval = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(1.0 / arrivals_per_s));
  const Clock::time_point start = Clock::now();
  for (int i = 0; i < total; ++i) {
    // Fixed schedule: arrival i is due at start + i·interval regardless
    // of how the service is doing (the defining open-loop property).
    std::this_thread::sleep_until(start + i * interval);
    inflight.push_back(svc.submit(pop.make(zipf(rng))));
  }
  for (auto& f : inflight) {
    const serve::Response r = f.get();
    if (!r.ok()) {
      std::cerr << "open loop: unexpected failure: " << r.error << "\n";
      std::abort();
    }
  }
  const double elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  RunStats stats;
  stats.requests = static_cast<std::uint64_t>(total);
  stats.elapsed_s = elapsed;
  stats.snap = svc.metrics();
  svc.shutdown();
  return stats;
}

}  // namespace

int main(int argc, char** argv) {
  std::cout << "E21: serving the mapping oracles — cache + coalescing "
               "under Zipf traffic\n\n";

  // --trace out.json records request lifecycles (admit → queue_wait →
  // cache_probe → cost_eval/tune → reply, stitched by request
  // id) across every Service this run stands up.  Each Service is
  // destroyed inside its own scope, so all traced threads are joined
  // before the capture at the bottom of main.
  const std::string trace_path = trace::trace_flag(argc, argv);
  std::optional<trace::TraceSession> session;
  if (!trace_path.empty()) session.emplace();

  const Population pop;
  const Zipf zipf(Population::kDistinct, 1.1);

  Table t({"mode", "load", "requests", "elapsed_ms", "throughput_rps",
           "hit_rate", "p50_us", "p95_us", "p99_us"});
  t.title("E21 — closed- vs open-loop arrivals, 64-key Zipf(1.1) "
          "cost-eval mix, 8 workers");

  const RunStats closed = closed_loop(pop, zipf, /*clients=*/8,
                                      /*per_client=*/4000);
  add_result_row(t, "closed", "8 clients", closed);

  for (const double rate : {2000.0, 8000.0}) {
    const RunStats open = open_loop(pop, zipf, rate, /*total=*/8000);
    add_result_row(t, "open",
                   std::to_string(static_cast<int>(rate)) + " req/s", open);
  }
  t.print(std::cout);

  std::cout << "\nclosed-loop metrics (JSON endpoint a fronting process "
               "would scrape):\n"
            << serve::metrics_json(closed.snap) << "\n";

  // A tune request rides the same service: the search forks its
  // enumeration grains into the service's worker pool (bounded by
  // max_tune_workers), and the tune-metrics rows record how many lanes
  // each tune actually used and what stealing it induced.
  {
    serve::ServiceConfig cfg;
    cfg.num_workers = 8;
    cfg.max_tune_workers = 4;
    serve::Service svc(cfg);
    algos::SwScores s;
    serve::Request req;
    req.kind = serve::RequestKind::kTune;
    req.spec = std::make_shared<const fm::FunctionSpec>(
        algos::editdist_spec(12, 12, s));
    req.machine = fm::make_machine(12, 1);
    req.inputs = {serve::InputPlacement::at({0, 0}),
                  serve::InputPlacement::at({0, 0})};
    req.fom = fm::FigureOfMerit::kTime;
    req.tune_workers = 4;
    const serve::Response r = svc.call(req);
    const serve::MetricsSnapshot snap = svc.metrics();
    std::cout << "\nparallel tune through the service: ok=" << r.ok()
              << " workers_used=" << r.search.workers_used
              << " (cap " << cfg.max_tune_workers << ")"
              << " tunes=" << snap.tunes
              << " mean_tune_workers=" << snap.mean_tune_workers
              << " tune_steals=" << snap.tune_steals << "\n";
    svc.shutdown();
  }

  if (session) {
    session->stop();
    const trace::Capture cap = session->capture();
    trace::write_chrome_json_file(trace_path, cap);
    std::cout << '\n';
    trace::summary_table(trace::summarize(cap)).print(std::cout);
    std::cout << "trace: " << cap.events.size() << " events -> " << trace_path
              << " (open in ui.perfetto.dev)\n";
  }

  const double closed_rps =
      static_cast<double>(closed.requests) / closed.elapsed_s;
  std::cout << "\nShape check: closed loop sustains "
            << static_cast<std::int64_t>(closed_rps)
            << " req/s (target >= 10000) at hit rate "
            << closed.snap.cache.hit_rate()
            << " (target >= 0.90) — the memoized fast path, not the "
               "cost oracle, sets the ceiling.\n";
  return (closed_rps >= 10000.0 && closed.snap.cache.hit_rate() >= 0.90)
             ? 0
             : 1;
}
