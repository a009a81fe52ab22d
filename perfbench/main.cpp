// perfbench — one benchmark for harmony's serve and tune paths.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 [--rev REV]
//
// perfbench/run.py builds this program from source and runs it.  Each
// workload is one process driven by one generator thread that sleeps
// rather than spins.  Rates and in-flight windows are fixed absolute
// values (never multiples of a calibration run), so a parent commit and
// a change see the same offered load; the seed only picks the inputs.
//
//   hot_hits     Router in front of 1 loopback shard (default
//                WorkerConfig).  Zipf(1.1) over 256 pre-warmed keys that
//                mix cost-eval, legality and small exhaustive tunes, so
//                every timed request is a result-cache hit.  A closed loop
//                with 64 in flight gives throughput; an open loop at
//                20k req/s (about a quarter of that) gives latency.  All
//                the work is in serve.*; fm.* does none.
//   cold_tunes   In-process Service (default ServiceConfig), closed loop
//                with 2 in flight.  Every request is a fresh (spec,
//                machine), so it misses the result and compile caches:
//                exhaustive matmul, 81-candidate exhaustive specs,
//                anneal and beam, paired pipeline tunes.  All the work is
//                in fm.*, analyze and sched; serve.wire/router do none.
//   mixed_fleet  Router in front of 2 shards, open loop at 10k req/s:
//                hot-set hits beside 8% fresh cost-eval, legality and
//                small-tune misses (a quarter of the tunes sent twice back
//                to back).  Hits are checked like hot_hits; a sample of
//                fresh replies is recomputed on a separate Service.  Also
//                prints hit_p99_us, miss_p50_us and the router's stealing
//                metrics.  Not a BENCHMARK.json workload (see kMixedShards).
//
// Set-up (setup_s) is timed after every core was kept busy for a while,
// as the median of several builds.  Latency percentiles are medians of
// per-window percentiles (stats.hpp windowed_percentile).
//
// --trace 0 reports the end-to-end metrics.  --trace 1 runs every phase
// untraced and then traced, and reports per-layer metrics: summaries of
// the spans and counters the library already emits, plus timings of each
// layer's public functions on the workload's own inputs.  Every reply is
// checked (see the workloads); the last line of stdout is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and the exit
// status is non-zero when any reply was wrong.
#include <sys/prctl.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <semaphore>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "algos/pipelines.hpp"
#include "analyze/exec.hpp"
#include "analyze/lint.hpp"
#include "fm/compiled.hpp"
#include "fm/cost.hpp"
#include "fm/pipeline.hpp"
#include "fm/search.hpp"
#include "fm/strategy/strategy.hpp"
#include "sched/scheduler.hpp"
#include "serve/catalog.hpp"
#include "serve/queue.hpp"
#include "serve/router.hpp"
#include "serve/service.hpp"
#include "serve/wire.hpp"
#include "serve/worker.hpp"
#include "stats.hpp"
#include "support/rng.hpp"
#include "trace/trace.hpp"

using namespace harmony;
namespace pb = perfbench;

namespace {

// ---------------------------------------------------------------------
// Fixed offered load.  Changing any of these changes the benchmark.
// ---------------------------------------------------------------------
constexpr std::size_t kHotKeys = 256;
constexpr double kZipfS = 1.1;
constexpr std::size_t kHotWindow = 64;     // hot_hits closed loop
constexpr double kHotRate = 20000.0;       // hot_hits open loop, req/s
constexpr std::size_t kColdWindow = 2;     // cold_tunes closed loop
/// mixed_fleet runs from the same command but is not a BENCHMARK.json
/// workload: its p99 mixes hits with tunes, and over ten 30 s runs on a
/// 4-vCPU VM it spread by about 0.2 of its median (the bound is 0.25).
/// Its class latencies and router stealing metrics are printed only.
constexpr std::size_t kMixedShards = 2;
constexpr double kMixedRate = 10000.0;     // mixed_fleet open loop, req/s
/// mixed_fleet's mix: shares of fresh cost-eval/legality queries and of
/// fresh small exhaustive tunes (the rest are hot-set hits), the share of
/// fresh tunes sent twice back to back (for the router's coalescing), and
/// one in this many fresh requests is recomputed and compared.
constexpr double kMixedMissQuery = 0.06;
constexpr double kMixedMissTune = 0.02;
constexpr double kMixedDupTune = 0.25;
constexpr std::size_t kMixedCheckEvery = 16;

constexpr std::uint64_t kThroughputWindowNs = 500'000'000;
/// Latency percentiles are medians over windows of at least this many
/// requests (stats.hpp windowed_percentile).  1000 is the smallest window
/// that supports p99; at 20k req/s it lasts 50 ms, so the few host stalls
/// of a run (each one a window p99 of several ms) poison few windows and
/// the median stays on the undisturbed ones.
constexpr std::size_t kLatencyWindow = 1000;
/// Set-up is repeated and its median reported; one build takes 30-100 ms
/// and a single one varies threefold from run to run.
constexpr int kSetupsUntraced = 11;
/// Busy time on every hardware thread before set-up (warm_cpus).
constexpr double kWarmSeconds = 2.0;
/// Load before the first measured phase, outside set-up time and every
/// metric (its replies are still checked): right after set-up the first
/// second ran at about half the steady closed-loop rate.
constexpr double kBurnInSeconds = 1.0;
constexpr auto kDrainTimeout = std::chrono::seconds(20);
/// --trace 1 runs the untraced phases for half of --seconds, then the
/// traced phases for at most this long, which bounds the events per
/// thread (printed as "events on the busiest thread") well below the
/// ring capacity so that the rings never wrap.
constexpr double kTracedSeconds = 5.0;
constexpr std::size_t kTracedMaxRequests = 200'000;
constexpr std::size_t kTraceRing = std::size_t{1} << 18;

std::uint64_t now_ns() { return trace::now_ns(); }

/// Keeps a computed value alive through the optimizer.
template <typename T>
void keep(const T& v) {
  asm volatile("" : : "r"(&v) : "memory");
}

// ---------------------------------------------------------------------
// Report: metrics by name with unit, failure accounting per phase.
// ---------------------------------------------------------------------
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
  std::size_t n = 0;  ///< samples behind the value (0 = not a sample stat)
};

struct Tally {
  std::uint64_t attempted = 0, ok = 0, rejected = 0, errors = 0,
                mismatched = 0, unanswered = 0;
  [[nodiscard]] std::uint64_t failed() const {
    return rejected + errors + mismatched + unanswered;
  }
};

/// The metrics of each mode, in BENCHMARK.json's order.  Every run of
/// every workload prints all of its mode's names; a layer a workload
/// never reaches reads 0 (the predicted no-change pairs).
struct Declared {
  const char* name;
  const char* unit;
};

constexpr Declared kEndToEnd[] = {
    {"throughput_rps", "req/s"}, {"p50_us", "us"},      {"p99_us", "us"},
    {"setup_s", "s"},            {"peak_rss_mb", "MiB"},
};

constexpr Declared kPerLayer[] = {
    {"serve.router.submit_ns_p50", "ns"},
    {"serve.router.route_us_p50", "us"},
    {"serve.router.route_us_p99", "us"},
    {"serve.router.coalesced_ratio", "ratio"},
    {"serve.wire.encode_request_ns", "ns"},
    {"serve.wire.decode_request_ns", "ns"},
    {"serve.wire.encode_response_ns", "ns"},
    {"serve.wire.decode_response_ns", "ns"},
    {"serve.wire.routing_key_ns", "ns"},
    {"serve.wire.request_bytes", "bytes"},
    {"serve.wire.response_bytes", "bytes"},
    {"serve.catalog.to_request_ns", "ns"},
    {"serve.worker.shard_us_p50", "us"},
    {"serve.worker.shard_us_p99", "us"},
    {"serve.worker.transport_us_p50", "us"},
    {"serve.service.hit_submit_ns_p50", "ns"},
    {"serve.service.make_cache_key_ns", "ns"},
    {"serve.service.cache_hit_ratio", "ratio"},
    {"serve.service.queue_wait_us_p50", "us"},
    {"serve.service.queue_wait_us_p99", "us"},
    {"serve.service.batch_mean", "count"},
    {"serve.service.compile_hit_ratio", "ratio"},
    {"serve.service.exec_cost_eval_us_p50", "us"},
    {"serve.service.exec_legality_us_p50", "us"},
    {"serve.service.exec_tune_us_p50", "us"},
    {"serve.service.exec_pipeline_tune_us_p50", "us"},
    {"serve.service.reply_us_p50", "us"},
    {"serve.service.self_ms", "ms"},
    {"analyze.exec_check_us_p50", "us"},
    {"analyze.exec_check_share", "ratio"},
    {"analyze.lint_us_p50", "us"},
    {"analyze.self_ms", "ms"},
    {"fm.compiled.compile_us_p50", "us"},
    {"fm.compiled.eval_ns_per_candidate", "ns"},
    {"fm.compiled.self_ms", "ms"},
    {"fm.search.candidates_per_s", "1/s"},
    {"fm.search.lane_efficiency", "ratio"},
    {"fm.search.grain_us_p50", "us"},
    {"fm.search.merge_us", "us"},
    {"fm.search.legal_ratio", "ratio"},
    {"fm.search.quick_reject_ratio", "ratio"},
    {"fm.search.self_ms", "ms"},
    {"fm.strategy.moves_per_s", "1/s"},
    {"fm.strategy.accept_ratio", "ratio"},
    {"fm.strategy.illegal_ratio", "ratio"},
    {"fm.strategy.epoch_us_p50", "us"},
    {"fm.strategy.self_ms", "ms"},
    {"fm.pipeline.tune_ms_p50", "ms"},
    {"fm.pipeline.probe_searches", "count"},
    {"sched.steals", "count"},
    {"sched.busy_frac", "ratio"},
    {"sched.sleep_frac", "ratio"},
    {"sched.self_ms", "ms"},
    {"bench.gen_lag_p99_us", "us"},
    {"ledger.router_us_p50", "us"},
    {"ledger.matched_frac", "ratio"},
    {"ledger.gap_frac", "ratio"},
    {"trace.dropped", "count"},
    {"trace.overhead_frac", "ratio"},
};

class Report {
 public:
  template <std::size_t N>
  explicit Report(const Declared (&declared)[N]) {
    for (const Declared& d : declared) {
      index_[d.name] = metrics_.size();
      metrics_.push_back({d.name, 0.0, d.unit, 0});
    }
    declared_ = N;
  }
  void header(const std::string& line) { std::cout << "# " << line << "\n"; }
  /// Sets a declared metric; any other name is printed but kept out of
  /// the JSON line.
  void add(const std::string& name, double value, const std::string& unit,
           std::size_t n = 0) {
    const auto it = index_.find(name);
    if (it == index_.end()) {
      index_[name] = metrics_.size();
      metrics_.push_back({name, value, unit, n});
      return;
    }
    Metric& m = metrics_[it->second];
    if (m.unit != unit) {
      throw std::logic_error("metric " + name + " unit " + unit + " != " +
                             m.unit);
    }
    m.value = value;
    m.n = n;
  }
  void phase(const std::string& name, const Tally& t) {
    std::cout << "# phase " << name << ": attempted=" << t.attempted
              << " ok=" << t.ok << " rejected=" << t.rejected
              << " error=" << t.errors << " mismatch=" << t.mismatched
              << " unanswered=" << t.unanswered << "\n";
    total_.attempted += t.attempted;
    total_.ok += t.ok;
    total_.rejected += t.rejected;
    total_.errors += t.errors;
    total_.mismatched += t.mismatched;
    total_.unanswered += t.unanswered;
  }
  void fail(const std::string& why) {
    std::cout << "# FAIL " << why << "\n";
    ++hard_failures_;
  }
  [[nodiscard]] bool correct() const {
    return hard_failures_ == 0 && total_.mismatched == 0 &&
           total_.errors == 0;
  }
  /// Prints every metric, then the JSON result line; returns the exit
  /// status.
  int finish() {
    const double failed_frac =
        total_.attempted == 0
            ? 0.0
            : static_cast<double>(total_.failed()) /
                  static_cast<double>(total_.attempted);
    std::cout << "# failed_frac " << failed_frac << " (" << total_.failed()
              << " of " << total_.attempted << ")\n";
    for (const Metric& m : metrics_) {
      std::cout << "metric " << m.name << " " << fmt(m.value) << " " << m.unit;
      if (m.n != 0) std::cout << " n=" << m.n;
      std::cout << "\n";
    }
    std::cout << "{\"correct\": " << (correct() ? "true" : "false")
              << ", \"attempted\": " << std::max<std::uint64_t>(
                                             total_.attempted, 1)
              << ", \"failed\": " << total_.failed() << ", \"metrics\": {";
    for (std::size_t i = 0; i < declared_; ++i) {
      const Metric& m = metrics_[i];
      std::cout << (i ? ", " : "") << "\"" << m.name
                << "\": {\"value\": " << fmt(m.value) << ", \"unit\": \""
                << m.unit << "\"}";
    }
    std::cout << "}}" << std::endl;
    return correct() ? 0 : 1;
  }

 private:
  static std::string fmt(double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
  }
  std::vector<Metric> metrics_;
  std::map<std::string, std::size_t> index_;
  std::size_t declared_ = 0;
  Tally total_;
  int hard_failures_ = 0;
};

/// A phase that left requests unanswered at its drain deadline cannot
/// tear down (a stalled shard never joins), so the run ends here, with
/// the failures counted, instead of hanging.
[[noreturn]] void abandon(Report& report) {
  report.fail("requests unanswered at the drain deadline; not tearing down");
  report.finish();
  std::fflush(nullptr);
  std::_Exit(1);
}

// ---------------------------------------------------------------------
// Phase bookkeeping shared with reply callbacks.
// ---------------------------------------------------------------------
enum class Outcome : std::uint8_t { kPending, kOk, kRejected, kError, kWrong };

struct Sample {
  std::uint64_t due_ns = 0;        ///< scheduled send (open loop) or send
  std::uint64_t sent_ns = 0;       ///< submit entered
  std::uint64_t submitted_ns = 0;  ///< submit returned
  std::uint64_t done_ns = 0;       ///< reply observed (0 = none)
  std::uint64_t merit_bits = 0;    ///< cold_tunes: the winner's merit
  std::uint8_t kind = 0;           ///< cold_tunes: the ColdKind
  Outcome outcome = Outcome::kPending;
  bool coalesced = false;
};

/// Tune counters summed from replies (search, strategy, pipeline).
struct TuneAgg {
  std::uint64_t enumerated = 0, quick_rejected = 0, legal = 0;
  std::uint64_t moves = 0, accepted = 0, illegal = 0;
  std::uint64_t pipelines = 0, probes = 0;
};

/// One measured phase.  The generator thread and the reply callbacks
/// share no lock: a reader thread preempted while holding one would
/// stall the generator and corrupt the offered load.  Callbacks write
/// their own Sample's reply fields and bump atomics; the generator
/// writes the send fields and reads the rest only after drain().
struct Phase {
  Phase(std::size_t capacity, std::uint64_t start, double seconds,
        std::size_t window)
      : samples(capacity),
        start_ns(start),
        window_done(static_cast<std::size_t>(seconds * 1e9 /
                                             kThroughputWindowNs)),
        slots(static_cast<std::ptrdiff_t>(window)) {}

  std::vector<Sample> samples;  ///< per request (may be empty)
  std::uint64_t start_ns;
  std::uint64_t stop_ns = 0;  ///< when the generator stopped sending
  std::uint64_t sent = 0;     ///< generator thread only
  Tally tally;                ///< filled by drain()
  std::vector<std::atomic<std::uint64_t>> window_done;  ///< per window
  std::atomic<std::uint64_t> answered{0};
  std::atomic<std::uint64_t> outcomes[5] = {};  ///< by Outcome
  /// Closed loop: free in-flight slots (the generator acquires one per
  /// request, the reply releases it).
  std::counting_semaphore<> slots;

  std::mutex mu;  ///< guards the cold_tunes summaries below
  TuneAgg agg;
  /// cold_tunes: a few full replies for the per-layer probes.
  std::vector<std::pair<std::size_t, serve::Response>> kept;
  /// mixed_fleet: a sample of fresh requests, kept by the generator, and
  /// their replies, kept by the callbacks; by sample index.
  std::vector<std::pair<std::size_t, serve::WireRequest>> fresh_sent;
  std::vector<std::pair<std::size_t, serve::WireResponse>> fresh_replies;
};

struct Reply {
  Outcome outcome = Outcome::kOk;
  bool coalesced = false;
  std::uint64_t merit_bits = 0;
};

void complete(Phase& ph, std::size_t i, const Reply& r) {
  const std::uint64_t t = now_ns();
  if (i < ph.samples.size()) {
    Sample& s = ph.samples[i];
    s.done_ns = t;
    s.outcome = r.outcome;
    s.coalesced = r.coalesced;
    s.merit_bits = r.merit_bits;
  }
  if (t >= ph.start_ns) {
    const std::uint64_t w = (t - ph.start_ns) / kThroughputWindowNs;
    if (w < ph.window_done.size()) {
      ph.window_done[w].fetch_add(1, std::memory_order_relaxed);
    }
  }
  ph.outcomes[static_cast<int>(r.outcome)].fetch_add(
      1, std::memory_order_relaxed);
  // Release: drain()'s acquire load then sees this reply's writes.
  ph.answered.fetch_add(1, std::memory_order_release);
  ph.slots.release();
}

/// Called when the generator stops sending: waits for every sent request
/// until the deadline; the rest count as unanswered (and the caller then
/// abandons the run rather than tear down a stalled fleet).
void drain(Phase& ph) {
  ph.stop_ns = now_ns();
  const std::uint64_t deadline =
      ph.stop_ns + static_cast<std::uint64_t>(
                       std::chrono::nanoseconds(kDrainTimeout).count());
  while (ph.answered.load(std::memory_order_acquire) < ph.sent &&
         now_ns() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  const auto count = [&](Outcome o) {
    return ph.outcomes[static_cast<int>(o)].load(std::memory_order_relaxed);
  };
  ph.tally.attempted = ph.sent;
  ph.tally.ok = count(Outcome::kOk);
  ph.tally.rejected = count(Outcome::kRejected);
  ph.tally.errors = count(Outcome::kError);
  ph.tally.mismatched = count(Outcome::kWrong);
  ph.tally.unanswered =
      ph.sent - ph.answered.load(std::memory_order_acquire);
}

/// Closed loop: completions per second over the windows the generator
/// was sending through, as the interquartile mean of the window rates,
/// so one stalled window moves it little.
double throughput(const Phase& ph) {
  std::vector<double> rates;
  for (std::size_t w = 0; w < ph.window_done.size(); ++w) {
    if (ph.start_ns + (w + 1) * kThroughputWindowNs > ph.stop_ns) break;
    rates.push_back(static_cast<double>(ph.window_done[w].load()) * 1e9 /
                    kThroughputWindowNs);
  }
  std::sort(rates.begin(), rates.end());
  if (!rates.empty()) {
    std::cout << "# throughput windows: n=" << rates.size()
              << " min=" << rates.front() << " median="
              << pb::percentile_sorted(rates, 5000)
              << " max=" << rates.back() << "\n";
  }
  return pb::interquartile_mean(rates);
}

/// Open loop: answered requests per second from the first due time to
/// the last reply.  It stays at the offered rate until the fleet cannot
/// keep up, so on mixed_fleet it is a validity check more than a speed.
double open_throughput(const Phase& ph) {
  std::uint64_t last = 0;
  for (const Sample& s : ph.samples) last = std::max(last, s.done_ns);
  if (last <= ph.start_ns) return 0.0;
  return static_cast<double>(ph.answered.load()) * 1e9 /
         static_cast<double>(last - ph.start_ns);
}

/// The open-loop pacer sleeps until each scheduled send, and the default
/// 50 us timer slack would make every sleep that late.  Called on the
/// generator thread after the fleet started its threads, which keep the
/// default.
void prepare_generator() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

// ---------------------------------------------------------------------
// Workload inputs.
// ---------------------------------------------------------------------
/// Specs with a legal winner on every machine in kSmallCols when tuned
/// over the 81-candidate space (2-D affine, search_y off).
const char* const kSmallSpecs[] = {"editdist:6x6", "editdist:8x8",
                                   "conv:16,3", "conv:32,4", "stencil:8,4"};
constexpr std::uint64_t kNumSmallSpecs = std::size(kSmallSpecs);
constexpr int kSmallCols[] = {8, 12, 16};

std::string small_spec(Rng& rng) {
  const std::uint64_t pick = rng.next_below(kNumSmallSpecs + 1);
  if (pick < kNumSmallSpecs) return kSmallSpecs[pick];
  return "irregular:32,3," + std::to_string(1 + rng.next_below(64));
}

serve::WireRequest small_tune(Rng& rng, double cycle_ps) {
  serve::WireRequest w;
  w.kind = serve::RequestKind::kTune;
  w.spec = small_spec(rng);
  w.machine_cols = kSmallCols[rng.next_below(3)];
  w.search_y = false;
  w.cycle_ps = cycle_ps;
  return w;
}

/// Cost-eval or legality query of one affine map; `t0` keeps keys apart.
serve::WireRequest map_query(Rng& rng, serve::RequestKind kind,
                             std::int64_t t0) {
  serve::WireRequest w;
  w.kind = kind;
  w.spec = kSmallSpecs[rng.next_below(kNumSmallSpecs)];
  constexpr int kCols[] = {4, 6, 8, 12, 16};
  w.machine_cols = kCols[rng.next_below(5)];
  w.map = fm::AffineMap{};
  w.map.ti = 1 + static_cast<std::int64_t>(rng.next_below(2));
  w.map.tj = 1 + static_cast<std::int64_t>(rng.next_below(2));
  w.map.xi = static_cast<std::int64_t>(rng.next_below(2));
  w.map.xj = static_cast<std::int64_t>(rng.next_below(2));
  w.map.t0 = t0;
  w.map.cols = static_cast<int>(w.machine_cols);
  w.map.rows = 1;
  return w;
}

/// The 256 pre-warmed keys: half cost-eval, 30% legality, 20% small
/// exhaustive tunes.  The hot set and its popularity ranking are part of
/// the workload, the same for every seed; the seed draws the request
/// sequence.  (With a seed-drawn hot set, which keys land on the top
/// Zipf ranks moved hot_hits throughput by 10% from seed to seed.)
std::vector<serve::WireRequest> make_hot_set() {
  Rng rng(0x4075e7ULL);
  std::vector<serve::WireRequest> keys;
  for (std::size_t k = 0; k < kHotKeys; ++k) {
    const std::size_t c = k % 10;
    if (c < 5) {
      keys.push_back(map_query(rng, serve::RequestKind::kCostEval,
                               static_cast<std::int64_t>(k)));
    } else if (c < 8) {
      keys.push_back(map_query(rng, serve::RequestKind::kLegality,
                               static_cast<std::int64_t>(k)));
    } else {
      keys.push_back(small_tune(rng, 250.0 + 0.01 * static_cast<double>(k)));
    }
  }
  rng.shuffle(keys);
  return keys;
}

/// Zipf(kZipfS) over the hot set: rank r has weight 1/(r+1)^s, and the
/// rank -> key assignment is a fixed permutation.
class Zipf {
 public:
  Zipf() {
    Rng rng(0x21bfULL);
    perm_ = rng.permutation(static_cast<std::uint32_t>(kHotKeys));
    double sum = 0;
    for (std::size_t r = 0; r < kHotKeys; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), kZipfS);
      cdf_.push_back(sum);
    }
    for (double& c : cdf_) c /= sum;
  }
  [[nodiscard]] std::size_t draw(Rng& rng) const {
    const double u = rng.next_double();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    const auto r = static_cast<std::size_t>(
        std::min<std::ptrdiff_t>(it - cdf_.begin(), kHotKeys - 1));
    return perm_[r];
  }

 private:
  std::vector<std::uint32_t> perm_;
  std::vector<double> cdf_;
};

// ---------------------------------------------------------------------
// The fleet: a Router over in-process Worker shards, each on a loopback
// channel (the full wire path, no fork).
// ---------------------------------------------------------------------
struct Fleet {
  serve::Router router;
  std::vector<std::unique_ptr<serve::Worker>> workers;
  std::vector<std::thread> threads;

  explicit Fleet(std::size_t shards) {
    for (std::size_t s = 0; s < shards; ++s) {
      workers.push_back(
          std::make_unique<serve::Worker>(serve::WorkerConfig{}));
      serve::ChannelPair pair = serve::make_loopback_pair();
      threads.emplace_back(
          [w = workers.back().get(), ch = pair.right] { w->serve(ch); });
      router.add_shard("shard" + std::to_string(s), pair.left);
    }
  }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;
  ~Fleet() {
    router.shutdown();
    for (std::thread& t : threads) t.join();
  }
  [[nodiscard]] std::vector<serve::Service*> services() const {
    std::vector<serve::Service*> v;
    for (const auto& w : workers) v.push_back(&w->service());
    return v;
  }
};

/// Warm-up replies by hot key: the bytes every later hit must match.
using Expected = std::vector<std::vector<std::uint8_t>>;

Outcome status_outcome(std::uint8_t status) {
  if (status == static_cast<std::uint8_t>(serve::Status::kOk)) {
    return Outcome::kOk;
  }
  return status == static_cast<std::uint8_t>(serve::Status::kRejected)
             ? Outcome::kRejected
             : Outcome::kError;
}

/// Builds the fleet and warms every hot key twice: the first reply is
/// the expected answer, the second must be a byte-identical cache hit.
std::unique_ptr<Fleet> build_fleet(std::size_t shards,
                                   const std::vector<serve::WireRequest>& hot,
                                   Expected& expected,
                                   std::vector<serve::WireResponse>& replies,
                                   Report& report) {
  auto fleet = std::make_unique<Fleet>(shards);
  expected.assign(hot.size(), {});
  replies.assign(hot.size(), {});
  for (std::size_t k = 0; k < hot.size(); ++k) {
    const serve::WireResponse r = fleet->router.call(hot[k]);
    if (status_outcome(r.status) != Outcome::kOk) {
      report.fail("warm-up of hot key " + std::to_string(k) + " (" +
                  hot[k].spec + ") failed: " + r.error);
    }
    expected[k] = serve::semantic_bytes(r);
    replies[k] = r;
  }
  for (std::size_t k = 0; k < hot.size(); ++k) {
    const serve::WireResponse r = fleet->router.call(hot[k]);
    if (!r.cache_hit || serve::semantic_bytes(r) != expected[k]) {
      report.fail("hot key " + std::to_string(k) +
                  " did not replay as an identical cache hit");
    }
  }
  return fleet;
}

/// Request classes of the router workloads (Sample::kind).  A duplicate
/// of a fresh tune counts as a fresh tune.
enum HotClass : std::uint8_t { kHit, kMissQuery, kMissTune };

/// The hot_hits and mixed_fleet traffic: the seed draws which hot key
/// each request asks and, in the mixed traffic, which requests are fresh
/// keys instead.  Fresh keys differ from every earlier one by cycle_ps.
class HotStream {
 public:
  HotStream(std::uint64_t seed, const std::vector<serve::WireRequest>& hot,
            bool mixed)
      : rng_(seed ^ 0x5eedULL), hot_(hot), mixed_(mixed) {}

  /// The class of the next request; for a hit, `key` is its hot key.
  [[nodiscard]] HotClass next(std::size_t& key) {
    if (dup_pending_) {
      dup_pending_ = false;
      return kMissTune;  // fresh_ still holds the tune just sent
    }
    if (mixed_) {
      const double u = rng_.next_double();
      const double cycle = 300.0 + 0.001 * static_cast<double>(++fresh_count_);
      if (u < kMixedMissQuery) {
        fresh_ = map_query(rng_,
                           rng_.next_below(2) == 0
                               ? serve::RequestKind::kCostEval
                               : serve::RequestKind::kLegality,
                           0);
        fresh_.cycle_ps = cycle;
        return kMissQuery;
      }
      if (u < kMixedMissQuery + kMixedMissTune) {
        fresh_ = small_tune(rng_, cycle);
        dup_pending_ = rng_.next_double() < kMixedDupTune;
        return kMissTune;
      }
    }
    key = zipf_.draw(rng_);
    return kHit;
  }
  [[nodiscard]] const serve::WireRequest& request(HotClass c,
                                                  std::size_t key) const {
    return c == kHit ? hot_[key] : fresh_;
  }

 private:
  Rng rng_;
  Zipf zipf_;
  const std::vector<serve::WireRequest>& hot_;
  bool mixed_;
  serve::WireRequest fresh_;
  std::uint64_t fresh_count_ = 0;
  bool dup_pending_ = false;
};

/// Every reply must equal, byte for byte, the warm-up reply for its key.
serve::Router::Callback hit_callback(
    const std::shared_ptr<Phase>& ph,
    const std::shared_ptr<const Expected>& expected, std::size_t i,
    std::size_t key) {
  return [ph, expected, i, key](const serve::WireResponse& r) {
    Reply rep;
    rep.outcome = status_outcome(r.status);
    rep.coalesced = r.coalesced;
    if (rep.outcome == Outcome::kOk &&
        serve::semantic_bytes(r) != (*expected)[key]) {
      rep.outcome = Outcome::kWrong;
    }
    complete(*ph, i, rep);
  };
}

/// A fresh key has no warm-up reply: a tune must come back with a winner
/// certified clean, and a sampled reply (`keep`) is recomputed after the
/// phase (check_fresh).
serve::Router::Callback fresh_callback(const std::shared_ptr<Phase>& ph,
                                       std::size_t i, HotClass c, bool keep) {
  return [ph, i, c, keep](const serve::WireResponse& r) {
    Reply rep;
    rep.outcome = status_outcome(r.status);
    rep.coalesced = r.coalesced;
    if (rep.outcome == Outcome::kOk && c == kMissTune &&
        (!r.found || !r.exec_checked || !r.exec.empty())) {
      rep.outcome = Outcome::kWrong;
    }
    if (keep) {
      const std::lock_guard<std::mutex> lock(ph->mu);
      ph->fresh_replies.emplace_back(i, r);
    }
    complete(*ph, i, rep);
  };
}

/// Closed loop: keeps kHotWindow requests in flight for `seconds`, or
/// until `max_requests` were sent (0 = no cap).  hot_hits only, so every
/// request is a hit.
std::shared_ptr<Phase> closed_loop_hot(
    Fleet& fleet, HotStream& stream,
    const std::shared_ptr<const Expected>& expected, double seconds,
    std::size_t max_requests, bool keep_samples) {
  const std::uint64_t start = now_ns();
  const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
  auto ph = std::make_shared<Phase>(keep_samples ? max_requests : 0, start,
                                    seconds, kHotWindow);
  for (std::size_t i = 0; max_requests == 0 || i < max_requests; ++i) {
    ph->slots.acquire();
    if (now_ns() >= end) break;
    ++ph->sent;
    std::size_t key = 0;
    const HotClass c = stream.next(key);
    const std::uint64_t sent = now_ns();
    fleet.router.submit(stream.request(c, key),
                        hit_callback(ph, expected, i, key));
    if (i < ph->samples.size()) {
      Sample& s = ph->samples[i];
      s.due_ns = s.sent_ns = sent;
      s.submitted_ns = now_ns();
    }
  }
  drain(*ph);
  return ph;
}

/// Open loop at `rate`: request i is due at start + i / rate whether or
/// not earlier ones finished; latency counts from the due time.
std::shared_ptr<Phase> open_loop_hot(
    Fleet& fleet, HotStream& stream,
    const std::shared_ptr<const Expected>& expected, double seconds,
    double rate) {
  const auto n = static_cast<std::size_t>(rate * seconds);
  const std::uint64_t start = now_ns() + 2'000'000;
  auto ph = std::make_shared<Phase>(n, start, seconds, 0);
  const double period_ns = 1e9 / rate;
  std::size_t fresh = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t due =
        start + static_cast<std::uint64_t>(period_ns * static_cast<double>(i));
    if (now_ns() < due) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due - now_ns()));
    }
    std::size_t key = 0;
    const HotClass c = stream.next(key);
    const serve::WireRequest& req = stream.request(c, key);
    const bool keep = c != kHit && fresh++ % kMixedCheckEvery == 0;
    if (keep) ph->fresh_sent.emplace_back(i, req);
    ++ph->sent;
    Sample& s = ph->samples[i];
    s.kind = c;
    s.due_ns = due;
    s.sent_ns = now_ns();
    fleet.router.submit(req, c == kHit ? hit_callback(ph, expected, i, key)
                                       : fresh_callback(ph, i, c, keep));
    s.submitted_ns = now_ns();
  }
  drain(*ph);
  return ph;
}

/// Latencies (us) of answered requests, from the due time, in send
/// order; `want` filters by Sample::kind (nullptr = all).
std::vector<double> latencies_us(
    const Phase& ph, const std::function<bool(std::uint8_t)>& want) {
  std::vector<double> v;
  for (const Sample& s : ph.samples) {
    if (s.done_ns == 0 || s.outcome != Outcome::kOk) continue;
    if (want && !want(s.kind)) continue;
    v.push_back(static_cast<double>(s.done_ns - s.due_ns) * 1e-3);
  }
  return v;
}

void add_latency(Report& report, const std::string& name,
                 const std::vector<double>& v, pb::Bp q) {
  if (!pb::supports(q, v.size())) {
    report.header(name + ": only " + std::to_string(v.size()) +
                  " samples; the percentile has fewer than 10 beyond it");
  }
  std::vector<double> per = pb::window_percentiles(v, q, kLatencyWindow);
  std::sort(per.begin(), per.end());
  std::ostringstream os;
  os << name << " windows: n=" << per.size() << " min=" << per.front()
     << " q1=" << pb::percentile_sorted(per, 2500)
     << " median=" << pb::percentile_sorted(per, 5000)
     << " q3=" << pb::percentile_sorted(per, 7500) << " max=" << per.back();
  report.header(os.str());
  report.add(name, pb::percentile_sorted(per, 5000), "us", v.size());
}

std::string percentile_name(pb::Bp q) {
  std::ostringstream os;
  os << "p" << static_cast<double>(q) / 100.0;
  return os.str();
}

void print_tail(Report& report, const std::string& what,
                const std::vector<double>& v) {
  const pb::Bp tail = pb::tail_of(v.size());
  std::ostringstream os;
  os << what << ": n=" << v.size() << " p50="
     << pb::windowed_percentile(v, 5000, kLatencyWindow) << "us p90="
     << pb::windowed_percentile(v, 9000, kLatencyWindow) << "us";
  if (tail != 0) {
    os << " tail " << percentile_name(tail) << "="
       << pb::windowed_percentile(v, tail, kLatencyWindow) << "us";
  }
  report.header(os.str());
}

// ---------------------------------------------------------------------
// In-process client of a Service: futures become callbacks through a
// small pool of waiter threads that only block, so the generator thread
// stays the one driver.
// ---------------------------------------------------------------------
class ServiceClient {
 public:
  using Callback = std::function<void(const serve::Response&)>;

  ServiceClient(serve::Service& svc, unsigned waiters)
      : svc_(svc), jobs_(1024) {
    for (unsigned i = 0; i < waiters; ++i) {
      waiters_.emplace_back([this] {
        std::unique_ptr<Job> job;
        while (jobs_.pop(job)) {
          const serve::Response r = job->future.get();
          job->callback(r);
        }
      });
    }
  }
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ~ServiceClient() {
    jobs_.close();
    for (std::thread& t : waiters_) t.join();
  }

  void submit(serve::Request req, Callback cb) {
    auto job = std::make_unique<Job>();
    job->future = svc_.submit(std::move(req));
    job->callback = std::move(cb);
    if (!jobs_.try_push(std::move(job))) {
      throw std::runtime_error("ServiceClient: waiter queue full");
    }
  }

 private:
  struct Job {
    std::future<serve::Response> future;
    Callback callback;
  };
  serve::Service& svc_;
  serve::BoundedQueue<std::unique_ptr<Job>> jobs_;
  std::vector<std::thread> waiters_;
};

// ---------------------------------------------------------------------
// cold_tunes inputs: rounds of 16 with a fixed mix, seed-shuffled.
// ---------------------------------------------------------------------
enum ColdKind : std::uint8_t { kMatmul, kSmall, kAnneal, kBeam, kPipe };
constexpr ColdKind kColdRound[16] = {kMatmul, kMatmul, kSmall, kSmall,
                                     kSmall,  kSmall,  kSmall, kSmall,
                                     kSmall,  kSmall,  kAnneal, kAnneal,
                                     kBeam,   kBeam,   kPipe,  kPipe};
const char* const kColdKindName[] = {"matmul", "small", "anneal", "beam",
                                     "pipeline"};

class ColdInputs {
 public:
  ColdInputs(std::uint64_t seed, serve::SpecCatalog& catalog)
      : seed_(seed), catalog_(catalog) {
    chains_.push_back(std::make_shared<const fm::Pipeline>(
        algos::fft_shuffle_fft_pipeline(16)));
    chains_.push_back(std::make_shared<const fm::Pipeline>(
        algos::scan_filter_scan_pipeline(16)));
    chains_.push_back(
        std::make_shared<const fm::Pipeline>(algos::diamond_pipeline(16)));
    chains_.push_back(std::make_shared<const fm::Pipeline>(
        algos::irregular_chain_pipeline(16, 3, seed % 64)));
  }

  [[nodiscard]] ColdKind kind(std::size_t i) const {
    Rng round(seed_ * 0x9e3779b97f4a7c15ULL + i / 16);
    return kColdRound[round.permutation(16)[i % 16]];
  }

  /// Request i of the stream; `base_cycle_ps` plus a per-request offset
  /// makes every (spec, machine) fresh for both caches.
  [[nodiscard]] serve::Request request(std::size_t i,
                                       double base_cycle_ps) const {
    Rng rng(seed_ ^ (0xc01dULL + i * 0x2545f4914f6cdd1dULL));
    const double cycle = base_cycle_ps + 0.001 * static_cast<double>(i + 1);
    const ColdKind k = kind(i);
    serve::WireRequest w;
    w.kind = serve::RequestKind::kTune;
    w.cycle_ps = cycle;
    switch (k) {
      case kMatmul: {
        const auto n = 4 + static_cast<std::int64_t>(rng.next_below(3));
        const std::int64_t m = n + static_cast<std::int64_t>(rng.next_below(2));
        w.spec = "matmul:" + std::to_string(n);
        w.machine_cols = w.machine_rows = m;
        return serve::to_request(w, catalog_);
      }
      case kSmall:
        return serve::to_request(small_tune(rng, cycle), catalog_);
      case kAnneal:
      case kBeam: {
        constexpr int kN[] = {16, 24, 32};
        w.spec = "irregular:" + std::to_string(kN[rng.next_below(3)]) +
                 ",3," + std::to_string(1 + rng.next_below(64));
        w.machine_cols = 4;
        w.machine_rows = 2;
        serve::Request req = serve::to_request(w, catalog_);
        req.strategy =
            k == kAnneal ? fm::StrategyKind::kAnneal : fm::StrategyKind::kBeam;
        req.strategy_opts.seed = rng.next_u64();
        req.strategy_opts.chains = 4;
        req.strategy_opts.epochs = 16;
        req.strategy_opts.iters_per_epoch = 128;
        return req;
      }
      case kPipe: {
        serve::Request req;
        req.kind = serve::RequestKind::kPipelineTune;
        const std::size_t chain = rng.next_below(chains_.size());
        req.pipeline = chains_[chain];
        req.machine = fm::make_machine(4, 2);
        req.machine.cycle = Time::picoseconds(cycle);
        if (chain == chains_.size() - 1) {
          // The irregular chain is non-affine: anneal its stages.
          req.strategy = fm::StrategyKind::kAnneal;
          req.strategy_opts.chains = 2;
          req.strategy_opts.epochs = 8;
          req.strategy_opts.iters_per_epoch = 64;
        }
        return req;
      }
    }
    throw std::logic_error("unreachable");
  }

 private:
  std::uint64_t seed_;
  serve::SpecCatalog& catalog_;
  std::vector<std::shared_ptr<const fm::Pipeline>> chains_;
};

fm::Mapping input_proto(const serve::Request& req) {
  fm::Mapping m;
  const auto inputs = req.spec->input_tensors();
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    m.set_input(inputs[i], i < req.inputs.size()
                               ? req.inputs[i].to_home()
                               : fm::InputHome::dram());
  }
  return m;
}

fm::Mapping affine_mapping(const serve::Request& req,
                           const fm::AffineMap& map) {
  fm::Mapping m = input_proto(req);
  m.set_computed(req.spec->computed_tensors().front(), map.place_fn(),
                 map.time_fn());
  return m;
}

std::uint64_t bits(double v) {
  std::uint64_t b = 0;
  std::memcpy(&b, &v, sizeof b);
  return b;
}

double response_merit(const serve::Response& r) {
  if (r.kind == serve::RequestKind::kPipelineTune) return r.pipeline.merit;
  return r.strategy.found ? r.strategy.merit : r.search.best.merit;
}

bool response_found(const serve::Response& r) {
  if (r.kind == serve::RequestKind::kPipelineTune) return r.pipeline.found;
  return r.search.found || r.strategy.found;
}

/// The winner's merit recomputed serially, with no Service.
double recompute_merit(const serve::Request& req) {
  if (req.kind == serve::RequestKind::kPipelineTune) {
    fm::PipelineOptions o;
    o.fom = req.fom;
    o.strategy = req.strategy;
    o.search = req.search;
    o.strategy_opts = req.strategy_opts;
    o.pair_candidates = req.pipeline_pair_candidates;
    const fm::PipelineResult r =
        req.pipeline_paired
            ? fm::tune_pipeline_paired(*req.pipeline, req.machine, o)
            : fm::tune_pipeline_greedy(*req.pipeline, req.machine, o);
    return r.merit;
  }
  if (req.strategy != fm::StrategyKind::kExhaustive) {
    fm::StrategyOptions o = req.strategy_opts;
    o.fom = req.fom;
    return fm::search_table(*req.spec, req.machine, input_proto(req),
                            req.strategy, o)
        .merit;
  }
  fm::SearchOptions o = req.search;
  o.fom = req.fom;
  return fm::search_affine(*req.spec, req.machine, input_proto(req), o)
      .best.merit;
}

/// The per-reply check of cold_tunes: a winner, certified by the
/// execution checker with no violations.
Reply cold_reply(const serve::Response& r) {
  Reply rep;
  rep.outcome = r.status == serve::Status::kOk
                    ? Outcome::kOk
                    : r.status == serve::Status::kRejected ? Outcome::kRejected
                                                           : Outcome::kError;
  if (rep.outcome == Outcome::kOk &&
      (!response_found(r) || !r.exec_checked || !r.exec.empty())) {
    rep.outcome = Outcome::kWrong;
  }
  rep.merit_bits = bits(response_merit(r));
  return rep;
}

struct ColdRig {
  serve::SpecCatalog catalog;
  std::unique_ptr<ColdInputs> inputs;
  std::unique_ptr<serve::Service> service;
  std::unique_ptr<ServiceClient> client;
  std::size_t next = 0;  ///< next request index of the stream
};

/// Service and client construction, spec and chain builds, and one tune
/// of each kind on keys outside the measured stream.
std::unique_ptr<ColdRig> build_cold(std::uint64_t seed, Report& report) {
  auto rig = std::make_unique<ColdRig>();
  rig->inputs = std::make_unique<ColdInputs>(seed, rig->catalog);
  rig->service = std::make_unique<serve::Service>(serve::ServiceConfig{});
  rig->client = std::make_unique<ServiceClient>(*rig->service, kColdWindow);
  // The warm-up inputs are the same for every seed, so that set-up time
  // compares across seeds.
  const ColdInputs warmup(0, rig->catalog);
  bool seen[5] = {};
  for (std::size_t i = 0; i < 64; ++i) {
    const ColdKind k = warmup.kind(i);
    if (seen[k]) continue;
    seen[k] = true;
    const serve::Response r = rig->service->call(warmup.request(i, 400.0));
    if (cold_reply(r).outcome != Outcome::kOk) {
      report.fail(std::string("cold warm-up tune failed: ") +
                  kColdKindName[k] + " " + r.error);
    }
  }
  return rig;
}

std::shared_ptr<Phase> closed_loop_cold(ColdRig& rig, double seconds,
                                        std::size_t max_requests) {
  const std::uint64_t start = now_ns();
  const auto end = start + static_cast<std::uint64_t>(seconds * 1e9);
  // Tunes are slow: samples for every request fit in a small array.
  const std::size_t cap = max_requests != 0 ? max_requests : 200'000;
  auto ph = std::make_shared<Phase>(cap, start, seconds, kColdWindow);
  for (std::size_t i = 0; i < cap; ++i) {
    ph->slots.acquire();
    if (now_ns() >= end) break;
    ++ph->sent;
    const std::size_t index = rig.next++;
    serve::Request req = rig.inputs->request(index, 200.0);
    Sample& s = ph->samples[i];
    s.kind = rig.inputs->kind(index);
    s.due_ns = s.sent_ns = now_ns();
    rig.client->submit(std::move(req), [ph, i, index](const serve::Response& r) {
      const Reply rep = cold_reply(r);
      {
        std::lock_guard<std::mutex> lk(ph->mu);
        TuneAgg& a = ph->agg;
        a.enumerated += r.search.enumerated;
        a.quick_rejected += r.search.quick_rejected;
        a.legal += r.search.legal;
        a.moves += r.strategy.moves_tried;
        a.accepted += r.strategy.moves_accepted;
        a.illegal += r.strategy.moves_rejected_illegal;
        if (r.kind == serve::RequestKind::kPipelineTune) {
          ++a.pipelines;
          a.probes += r.pipeline.probe_searches;
        }
        if (ph->kept.size() < 48) ph->kept.emplace_back(index, r);
      }
      complete(*ph, i, rep);
    });
  }
  drain(*ph);
  return ph;
}

/// Recomputes one sampled reply of each kind serially; a merit that is
/// not bit-identical counts as a wrong reply.
void check_cold_sample(const ColdRig& rig, const Phase& ph,
                       std::size_t first_index, std::uint64_t seed,
                       Tally& tally) {
  Rng rng(seed ^ 0xc4ec4ULL);
  std::vector<std::size_t> pool[5];
  for (std::size_t i = 0; i < ph.samples.size(); ++i) {
    const Sample& s = ph.samples[i];
    if (s.outcome == Outcome::kOk) pool[s.kind].push_back(i);
  }
  for (auto& p : pool) {
    if (p.empty()) continue;
    const std::size_t i = p[rng.next_below(p.size())];
    const serve::Request req = rig.inputs->request(first_index + i, 200.0);
    ++tally.attempted;
    if (bits(recompute_merit(req)) == ph.samples[i].merit_bits) {
      ++tally.ok;
    } else {
      ++tally.mismatched;
    }
  }
}

/// Recomputes the sampled fresh replies of a mixed_fleet phase on a
/// separate Service that has never seen them; a reply whose semantic
/// bytes differ counts as wrong.  workers_used is the lane count a tune
/// was granted, not part of its answer, so it is left out.
void check_fresh(const Phase& ph, Tally& tally) {
  std::unordered_map<std::size_t, const serve::WireResponse*> got;
  for (const auto& [i, r] : ph.fresh_replies) {
    if (status_outcome(r.status) == Outcome::kOk) got[i] = &r;
  }
  serve::SpecCatalog catalog;
  serve::Service ref{serve::ServiceConfig{}};
  for (const auto& [i, req] : ph.fresh_sent) {
    const auto it = got.find(i);
    if (it == got.end()) continue;  // already counted as failed
    ++tally.attempted;
    serve::WireResponse want =
        serve::to_wire(ref.call(serve::to_request(req, catalog)));
    serve::WireResponse have = *it->second;
    want.workers_used = have.workers_used = 0;
    if (serve::semantic_bytes(want) == serve::semantic_bytes(have)) {
      ++tally.ok;
    } else {
      ++tally.mismatched;
    }
  }
}

// ---------------------------------------------------------------------
// Per-layer probes: timings of public functions on the workload's inputs.
// ---------------------------------------------------------------------
/// Median over inputs of the per-call time of `op(input)`, each timed
/// over `reps` back-to-back calls.
template <typename T, typename Op>
double ns_per_call(const std::vector<T>& inputs, int reps, Op&& op) {
  if (inputs.empty()) return 0.0;
  std::vector<double> per;
  for (const T& in : inputs) {
    const std::uint64_t t0 = now_ns();
    for (int r = 0; r < reps; ++r) op(in);
    per.push_back(static_cast<double>(now_ns() - t0) / reps);
  }
  return pb::median(per);
}

void probe_wire(Report& report, const std::vector<serve::WireRequest>& frames,
                const std::vector<serve::WireResponse>& replies,
                serve::SpecCatalog& catalog) {
  constexpr int kReps = 64;
  std::vector<std::vector<std::uint8_t>> req_bytes, resp_bytes;
  std::vector<double> req_sizes, resp_sizes;
  for (const auto& f : frames) {
    serve::Writer w;
    serve::encode(w, f);
    req_bytes.push_back(w.take());
    req_sizes.push_back(static_cast<double>(req_bytes.back().size()));
  }
  for (const auto& r : replies) {
    serve::Writer w;
    serve::encode(w, r);
    resp_bytes.push_back(w.take());
    resp_sizes.push_back(static_cast<double>(resp_bytes.back().size()));
  }
  report.add("serve.wire.encode_request_ns",
             ns_per_call(frames, kReps,
                         [](const serve::WireRequest& f) {
                           serve::Writer w;
                           serve::encode(w, f);
                           keep(w.data());
                         }),
             "ns", frames.size());
  report.add("serve.wire.decode_request_ns",
             ns_per_call(req_bytes, kReps,
                         [](const std::vector<std::uint8_t>& b) {
                           serve::Reader r(b);
                           const serve::WireRequest f =
                               serve::decode_request(r);
                           keep(f);
                         }),
             "ns", req_bytes.size());
  report.add("serve.wire.encode_response_ns",
             ns_per_call(replies, kReps,
                         [](const serve::WireResponse& x) {
                           serve::Writer w;
                           serve::encode(w, x);
                           keep(w.data());
                         }),
             "ns", replies.size());
  report.add("serve.wire.decode_response_ns",
             ns_per_call(resp_bytes, kReps,
                         [](const std::vector<std::uint8_t>& b) {
                           serve::Reader r(b);
                           const serve::WireResponse x =
                               serve::decode_response(r);
                           keep(x);
                         }),
             "ns", resp_bytes.size());
  report.add("serve.wire.routing_key_ns",
             ns_per_call(frames, kReps,
                         [](const serve::WireRequest& f) {
                           const serve::CacheKey k = serve::routing_key(f);
                           keep(k);
                         }),
             "ns", frames.size());
  report.add("serve.wire.request_bytes",
             pb::median(req_sizes), "bytes",
             req_sizes.size());
  report.add("serve.wire.response_bytes",
             pb::median(resp_sizes), "bytes",
             resp_sizes.size());
  report.add("serve.catalog.to_request_ns",
             ns_per_call(frames, kReps,
                         [&](const serve::WireRequest& f) {
                           const serve::Request q =
                               serve::to_request(f, catalog);
                           keep(q);
                         }),
             "ns", frames.size());
}

/// fm::evaluate_cost on the FunctionSpec, the legacy oracle a cost-eval
/// miss runs, on the workload's own fresh cost-eval queries.
void probe_legacy_eval(Report& report,
                       const std::vector<serve::WireRequest>& queries,
                       serve::SpecCatalog& catalog) {
  std::vector<std::pair<serve::Request, fm::Mapping>> inputs;
  for (const serve::WireRequest& q : queries) {
    if (q.kind != serve::RequestKind::kCostEval) continue;
    serve::Request req = serve::to_request(q, catalog);
    fm::Mapping m = affine_mapping(req, req.map);
    inputs.emplace_back(std::move(req), std::move(m));
  }
  report.add("fm.compiled.legacy_eval_us_p50",
             ns_per_call(inputs, 4,
                         [](const std::pair<serve::Request, fm::Mapping>& in) {
                           const fm::CostReport c = fm::evaluate_cost(
                               *in.first.spec, in.second, in.first.machine);
                           keep(c);
                         }) *
                 1e-3,
             "us", inputs.size());
}

void probe_cache_key(Report& report,
                     const std::vector<serve::Request>& requests) {
  report.add("serve.service.make_cache_key_ns",
             ns_per_call(requests, 16,
                         [](const serve::Request& q) {
                           const serve::CacheKey k = serve::make_cache_key(q);
                           keep(k);
                         }),
             "ns", requests.size());
}

/// Worker::service().submit on warm keys, one call at a time.
void probe_hit_submit(Report& report, serve::Service& svc,
                      const std::vector<serve::Request>& warm) {
  constexpr int kReps = 16;
  std::vector<double> ns;
  for (int r = 0; r < kReps; ++r) {
    for (const serve::Request& q : warm) {
      serve::Request copy = q;
      const std::uint64_t t0 = now_ns();
      const serve::Response resp = svc.submit(std::move(copy)).get();
      ns.push_back(static_cast<double>(now_ns() - t0));
      keep(resp);
    }
  }
  report.add("serve.service.hit_submit_ns_p50",
             pb::median(ns), "ns", ns.size());
}

/// Exhaustive tunes re-run outside the Service: serial on precompiled
/// tables (L0 cost per candidate) and on 4 lanes (L1 driver).
void probe_search(Report& report, const std::vector<serve::Request>& tunes) {
  double serial_ns = 0, parallel_ns = 0, enumerated = 0;
  constexpr unsigned kLanes = 4;
  sched::Scheduler lanes(kLanes);
  for (const serve::Request& req : tunes) {
    fm::SearchOptions o = req.search;
    o.fom = req.fom;
    o.compiled = fm::compile_spec(*req.spec, req.machine, input_proto(req));
    std::uint64_t t0 = now_ns();
    const fm::SearchResult serial =
        fm::search_affine(*req.spec, req.machine, input_proto(req), o);
    serial_ns += static_cast<double>(now_ns() - t0);
    o.scheduler = &lanes;
    o.num_workers = kLanes;
    t0 = now_ns();
    const fm::SearchResult par =
        fm::search_affine(*req.spec, req.machine, input_proto(req), o);
    parallel_ns += static_cast<double>(now_ns() - t0);
    enumerated += static_cast<double>(serial.enumerated);
    keep(par);
  }
  const bool any = enumerated > 0 && parallel_ns > 0;
  report.add("fm.compiled.eval_ns_per_candidate",
             any ? serial_ns / enumerated : 0.0, "ns", tunes.size());
  report.add("fm.search.candidates_per_s",
             any ? enumerated / (parallel_ns * 1e-9) : 0.0, "1/s",
             tunes.size());
  report.add("fm.search.lane_efficiency",
             any ? serial_ns / (kLanes * parallel_ns) : 0.0, "ratio",
             tunes.size());
}

/// A tune winner to certify and lint outside the Service.
struct Winner {
  serve::Request req;
  bool table = false;
  fm::AffineMap affine;
  fm::TableMap tm;
};

void probe_certify(Report& report, const std::vector<Winner>& winners) {
  std::vector<double> exec_us, lint_us;
  for (const Winner& w : winners) {
    const auto compiled =
        fm::compile_spec(*w.req.spec, w.req.machine, input_proto(w.req));
    std::uint64_t t0 = now_ns();
    const analyze::ExecReport rep =
        w.table ? analyze::ExecChecker().check(
                      analyze::build_exec_witness(*compiled, w.tm))
                : analyze::ExecChecker().check(
                      analyze::build_exec_witness(*compiled, w.affine));
    exec_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    keep(rep);
    t0 = now_ns();
    const analyze::LintReport lint =
        w.table ? analyze::lint_mapping(*w.req.spec, w.tm, w.req.machine)
                : analyze::lint_mapping(*w.req.spec,
                                        affine_mapping(w.req, w.affine),
                                        w.req.machine);
    lint_us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
    keep(lint);
  }
  report.add("analyze.exec_check_us_p50",
             pb::median(exec_us), "us",
             exec_us.size());
  report.add("analyze.lint_us_p50",
             pb::median(lint_us), "us",
             lint_us.size());
}

// ---------------------------------------------------------------------
// Trace ledger: span summaries, self time, route/shard matching.
// ---------------------------------------------------------------------
struct Ledger {
  std::map<std::string, std::vector<double>> us;  ///< "cat/name" -> us
  std::map<std::string, double> self_ms;          ///< layer -> self ms
  std::uint64_t dropped = 0;
  std::uint64_t max_thread_events = 0;  ///< ring sizing headroom
  std::uint64_t steals = 0;
  double busy_frac = 0, sleep_frac = 0;
  std::vector<trace::Event> route, shard;  ///< serve_dist spans

  [[nodiscard]] double p(const std::string& key, pb::Bp q) const {
    const auto it = us.find(key);
    return it == us.end() ? 0.0 : pb::percentile(it->second, q);
  }
  [[nodiscard]] double sum(const std::string& key) const {
    const auto it = us.find(key);
    double s = 0;
    if (it != us.end()) {
      for (const double v : it->second) s += v;
    }
    return s;
  }
};

/// Layer of a same-thread span, for self time; "" for spans that begin
/// on one thread and end on another (no nesting to subtract).
std::string layer_of(const std::string& cat, const std::string& name) {
  if (cat == "serve") {
    if (name == "queue_wait") return "";
    return name == "exec_check" ? "analyze" : "serve.service";
  }
  if (cat == "fm") {
    if (name == "compile") return "fm.compiled";
    if (name == "search_affine" || name == "grain" || name == "merge") {
      return "fm.search";
    }
    return "fm.strategy";
  }
  if (cat == "sched" && (name == "run" || name == "steal")) return "sched";
  return "";
}

Ledger summarize(const trace::Capture& cap, std::uint64_t wall_ns) {
  Ledger led;
  led.dropped = cap.dropped;
  for (const trace::CapturedThread& t : cap.threads) {
    led.max_thread_events = std::max(led.max_thread_events, t.events);
  }
  std::map<std::uint32_t, std::vector<const trace::Event*>> by_thread;
  std::map<std::uint32_t, std::vector<pb::Interval>> sched_busy;
  double sleep_ns = 0;
  for (const trace::Event& e : cap.events) {
    if (e.kind != trace::EventKind::kSpan) continue;
    const std::string cat = e.cat, name = e.name;
    led.us[cat + "/" + name].push_back(
        static_cast<double>(e.end_ns - e.begin_ns) * 1e-3);
    if (cat == "serve_dist") {
      (name == "route" ? led.route : led.shard).push_back(e);
    }
    if (!layer_of(cat, name).empty()) by_thread[e.tid].push_back(&e);
    if (cat == "sched") {
      if (name == "sleep") {
        sleep_ns += static_cast<double>(e.end_ns - e.begin_ns);
        sched_busy[e.tid];  // an idle worker still counts
      } else {
        sched_busy[e.tid].push_back({e.begin_ns, e.end_ns});
        if (name == "steal") ++led.steals;
      }
    }
  }
  for (const auto& [tid, spans] : by_thread) {
    std::vector<pb::Interval> iv;
    for (const trace::Event* e : spans) iv.push_back({e->begin_ns, e->end_ns});
    const std::vector<std::uint64_t> self = pb::self_times(iv);
    for (std::size_t i = 0; i < spans.size(); ++i) {
      led.self_ms[layer_of(spans[i]->cat, spans[i]->name)] +=
          static_cast<double>(self[i]) * 1e-6;
    }
  }
  double busy_ns = 0;
  for (const auto& [tid, iv] : sched_busy) {
    busy_ns += static_cast<double>(pb::union_length(iv));
  }
  const double capacity =
      static_cast<double>(wall_ns) * static_cast<double>(sched_busy.size());
  if (capacity > 0) {
    led.busy_frac = busy_ns / capacity;
    led.sleep_frac = sleep_ns / capacity;
  }
  return led;
}

/// Per correlation id: route span minus the shard span inside it, for
/// route spans that begin in [from, to).
struct Hop {
  trace::Event route;
  double shard_us = 0, transport_us = 0;
};

std::vector<Hop> match_hops(const Ledger& led, std::uint64_t from,
                            std::uint64_t to) {
  std::unordered_map<std::uint64_t, const trace::Event*> shard;
  for (const trace::Event& e : led.shard) shard[e.id] = &e;
  std::vector<Hop> hops;
  for (const trace::Event& r : led.route) {
    if (r.begin_ns < from || r.begin_ns >= to) continue;
    const auto it = shard.find(r.id);
    if (it == shard.end()) continue;
    Hop h;
    h.route = r;
    h.shard_us = static_cast<double>(it->second->end_ns -
                                     it->second->begin_ns) * 1e-3;
    h.transport_us =
        static_cast<double>(r.end_ns - r.begin_ns) * 1e-3 - h.shard_us;
    hops.push_back(h);
  }
  return hops;
}

/// The hot_hits hop ledger.  A leader request's client latency (submit
/// entered -> reply callback) splits into the router part outside the
/// route span, the transport part (route minus shard) and the shard
/// part.  The route span is matched to the request whose Router::submit
/// call contains its begin (one generator thread, so those calls never
/// overlap).  The parts of matched requests must add up to the mean
/// latency of every answered leader within kLedgerTolerance.
constexpr double kLedgerTolerance = 0.05;

void ledger_check(Report& report, const Phase& ph,
                  const std::vector<Hop>& hops) {
  std::vector<std::size_t> order;  // answered leaders by send time
  double client_sum = 0;
  for (std::size_t i = 0; i < ph.samples.size(); ++i) {
    const Sample& s = ph.samples[i];
    if (s.done_ns == 0 || s.coalesced || s.outcome != Outcome::kOk) continue;
    order.push_back(i);
    client_sum += static_cast<double>(s.done_ns - s.sent_ns) * 1e-3;
  }
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return ph.samples[a].sent_ns < ph.samples[b].sent_ns;
  });
  std::vector<double> router_us;
  double parts_sum = 0;
  for (const Hop& h : hops) {
    const auto it = std::upper_bound(
        order.begin(), order.end(), h.route.begin_ns,
        [&](std::uint64_t t, std::size_t i) { return t < ph.samples[i].sent_ns; });
    if (it == order.begin()) continue;
    const Sample& s = ph.samples[*(it - 1)];
    if (h.route.begin_ns > s.submitted_ns || s.done_ns < h.route.end_ns) {
      continue;
    }
    const double router =
        static_cast<double>((h.route.begin_ns - s.sent_ns) +
                            (s.done_ns - h.route.end_ns)) * 1e-3;
    router_us.push_back(router);
    parts_sum += router + h.transport_us + h.shard_us;
  }
  const double matched =
      order.empty() ? 0.0
                    : static_cast<double>(router_us.size()) /
                          static_cast<double>(order.size());
  const double client_mean =
      order.empty() ? 0.0 : client_sum / static_cast<double>(order.size());
  const double parts_mean =
      router_us.empty() ? 0.0
                        : parts_sum / static_cast<double>(router_us.size());
  const double gap =
      client_mean > 0 ? std::abs(client_mean - parts_mean) / client_mean : 0;
  report.add("ledger.router_us_p50",
             pb::median(router_us), "us",
             router_us.size());
  report.add("ledger.matched_frac", matched, "ratio", order.size());
  report.add("ledger.gap_frac", gap, "ratio", router_us.size());
  std::ostringstream os;
  os << "ledger: router + transport + shard = " << parts_mean
     << " us against client mean " << client_mean << " us (gap " << gap
     << ", tolerance " << kLedgerTolerance << ", matched " << matched
     << ") " << (gap <= kLedgerTolerance && matched > 0.9 ? "ok" : "OFF");
  report.header(os.str());
}

/// Service counters summed over a set of Services.
struct ServiceCounters {
  std::uint64_t hits = 0, misses = 0, compile_hits = 0, compile_misses = 0,
                batches = 0;
  double batched = 0;
  void add(const serve::MetricsSnapshot& m) {
    hits += m.cache.hits;
    misses += m.cache.misses;
    compile_hits += m.compile_hits;
    compile_misses += m.compile_misses;
    batches += m.batches;
    batched += m.mean_batch * static_cast<double>(m.batches);
  }
};

ServiceCounters counters(const std::vector<serve::Service*>& services) {
  ServiceCounters c;
  for (serve::Service* s : services) c.add(s->metrics());
  return c;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Per-layer metrics from the trace and the service counters.  The wire,
/// router, search and certification probes add their own.
void report_layers(Report& report, const Ledger& led,
                   const ServiceCounters& before,
                   const ServiceCounters& after) {
  const double hits = static_cast<double>(after.hits - before.hits);
  const double misses = static_cast<double>(after.misses - before.misses);
  report.add("serve.service.cache_hit_ratio", ratio(hits, hits + misses),
             "ratio");
  const double chits =
      static_cast<double>(after.compile_hits - before.compile_hits);
  const double cmiss =
      static_cast<double>(after.compile_misses - before.compile_misses);
  report.add("serve.service.compile_hit_ratio", ratio(chits, chits + cmiss),
             "ratio");
  report.add("serve.service.batch_mean",
             ratio(after.batched - before.batched,
                   static_cast<double>(after.batches - before.batches)),
             "count");
  report.add("serve.service.queue_wait_us_p50",
             led.p("serve/queue_wait", 5000), "us");
  report.add("serve.service.queue_wait_us_p99",
             led.p("serve/queue_wait", 9900), "us");
  for (const char* kind : {"cost_eval", "legality", "tune", "pipeline_tune"}) {
    report.add(std::string("serve.service.exec_") + kind + "_us_p50",
               led.p(std::string("serve/") + kind, 5000), "us");
  }
  report.add("serve.service.reply_us_p50", led.p("serve/reply", 5000), "us");
  report.add("analyze.exec_check_share",
             ratio(led.sum("serve/exec_check"),
                   led.sum("serve/tune") + led.sum("serve/pipeline_tune")),
             "ratio");
  report.add("fm.compiled.compile_us_p50", led.p("fm/compile", 5000), "us");
  report.add("fm.search.grain_us_p50", led.p("fm/grain", 5000), "us");
  report.add("fm.search.merge_us", led.p("fm/merge", 5000), "us");
  std::vector<double> epochs;
  for (const char* e : {"fm/anneal_epoch", "fm/beam_epoch"}) {
    const auto it = led.us.find(e);
    if (it != led.us.end()) {
      epochs.insert(epochs.end(), it->second.begin(), it->second.end());
    }
  }
  report.add("fm.strategy.epoch_us_p50",
             pb::median(epochs), "us", epochs.size());
  report.add("fm.pipeline.tune_ms_p50",
             led.p("serve/pipeline_tune", 5000) * 1e-3, "ms");
  report.add("sched.steals", static_cast<double>(led.steals), "count");
  report.add("sched.busy_frac", led.busy_frac, "ratio");
  report.add("sched.sleep_frac", led.sleep_frac, "ratio");
  for (const char* layer : {"serve.service", "analyze", "fm.compiled",
                            "fm.search", "fm.strategy", "sched"}) {
    const auto it = led.self_ms.find(layer);
    report.add(std::string(layer) + ".self_ms",
               it == led.self_ms.end() ? 0.0 : it->second, "ms");
  }
  report.add("trace.dropped", static_cast<double>(led.dropped), "count");
  report.header("trace: " + std::to_string(led.max_thread_events) +
                " events on the busiest thread");
}

void report_tune_agg(Report& report, const TuneAgg& a,
                     double strategy_search_us) {
  report.add("fm.search.legal_ratio",
             ratio(static_cast<double>(a.legal),
                   static_cast<double>(a.enumerated)),
             "ratio");
  report.add("fm.search.quick_reject_ratio",
             ratio(static_cast<double>(a.quick_rejected),
                   static_cast<double>(a.enumerated)),
             "ratio");
  report.add("fm.strategy.moves_per_s",
             ratio(static_cast<double>(a.moves), strategy_search_us * 1e-6),
             "1/s");
  report.add("fm.strategy.accept_ratio",
             ratio(static_cast<double>(a.accepted),
                   static_cast<double>(a.moves)),
             "ratio");
  report.add("fm.strategy.illegal_ratio",
             ratio(static_cast<double>(a.illegal),
                   static_cast<double>(a.moves)),
             "ratio");
  report.add("fm.pipeline.probe_searches",
             ratio(static_cast<double>(a.probes),
                   static_cast<double>(a.pipelines)),
             "count");
}

std::uint64_t peak_rss_kib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::uint64_t>(ru.ru_maxrss);
}

/// Keeps every hardware thread busy for `seconds`.  On a 4-vCPU VM whose
/// vCPUs had been idle for a few seconds, the first second of work ran up
/// to three times slower (cold_tunes set-up 0.09 s instead of 0.03 s), so
/// set-up is timed only after this.
void warm_cpus(double seconds) {
  const std::uint64_t end = now_ns() + static_cast<std::uint64_t>(seconds * 1e9);
  std::vector<std::thread> threads;
  for (unsigned i = 0; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    threads.emplace_back([end] {
      std::uint64_t x = 1;
      while (now_ns() < end) {
        for (int k = 0; k < 4096; ++k) x = x * 6364136223846793005ULL + 1;
        keep(x);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Runs `build` `setups` times and reports the median as setup_s; the
/// last build is the one measured.
template <typename Build>
auto timed_setups(Report& report, int setups, Build&& build) {
  warm_cpus(kWarmSeconds);
  std::vector<double> secs;
  decltype(build()) kept;
  for (int i = 0; i < setups; ++i) {
    kept.reset();
    const std::uint64_t t0 = now_ns();
    kept = build();
    secs.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  std::ostringstream os;
  os << "setups (s):";
  for (const double s : secs) os << " " << s;
  report.header(os.str());
  report.add("setup_s", pb::median(secs), "s", secs.size());
  return kept;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string rev = "unknown";
};

void report_latency_e2e(Report& report, const Phase& ph) {
  const std::vector<double> lat = latencies_us(ph, nullptr);
  print_tail(report, "latency", lat);
  add_latency(report, "p50_us", lat, 5000);
  add_latency(report, "p99_us", lat, 9900);
}

std::vector<double> submit_ns(const Phase& ph) {
  std::vector<double> v;
  for (const Sample& s : ph.samples) {
    if (s.submitted_ns != 0) {
      v.push_back(static_cast<double>(s.submitted_ns - s.sent_ns));
    }
  }
  return v;
}

/// How late the open-loop pacer sent: a validity check on the offered
/// load (latency is measured from the due time, so lag counts in it).
void report_gen_lag(Report& report, const Phase& ph) {
  std::vector<double> lag;
  for (const Sample& s : ph.samples) {
    if (s.sent_ns != 0) {
      lag.push_back(static_cast<double>(s.sent_ns - s.due_ns) * 1e-3);
    }
  }
  report.add("bench.gen_lag_p99_us", pb::percentile(lag, 9900), "us",
             lag.size());
}

/// mixed_fleet's class latencies, printed beside the end-to-end metrics:
/// the tail of the hits and the median of the fresh requests.
void report_classes(Report& report, const Phase& ph) {
  const std::vector<double> hit =
      latencies_us(ph, [](std::uint8_t c) { return c == kHit; });
  const std::vector<double> miss =
      latencies_us(ph, [](std::uint8_t c) { return c != kHit; });
  print_tail(report, "hit latency", hit);
  print_tail(report, "miss latency", miss);
  add_latency(report, "hit_p99_us", hit, 9900);
  add_latency(report, "miss_p50_us", miss, 5000);
}

/// hot_hits (one shard: closed loop, then open loop at kHotRate) and
/// mixed_fleet (kMixedShards shards: open loop at kMixedRate only).
int run_hot(const Options& opt, Report& report, bool mixed) {
  const std::vector<serve::WireRequest> hot = make_hot_set();
  auto expected = std::make_shared<Expected>();
  std::vector<serve::WireResponse> replies;
  const std::size_t shards = mixed ? kMixedShards : 1;
  auto fleet = timed_setups(report, opt.trace ? 1 : kSetupsUntraced, [&] {
    return build_fleet(shards, hot, *expected, replies, report);
  });
  if (!report.correct()) return report.finish();
  prepare_generator();
  const std::shared_ptr<const Expected> exp = expected;
  HotStream stream(opt.seed, hot, mixed);
  report.phase("burn_in",
               (mixed ? open_loop_hot(*fleet, stream, exp, kBurnInSeconds,
                                      kMixedRate)
                      : closed_loop_hot(*fleet, stream, exp, kBurnInSeconds,
                                        0, false))
                   ->tally);

  // hot_hits splits the time between the closed and the open loop;
  // mixed_fleet runs the open loop only.  --trace 1 runs the phases
  // untraced, then traced.
  const double span = opt.trace ? opt.seconds / 2 : opt.seconds;
  std::shared_ptr<Phase> closed, open;
  const auto run_phases = [&](bool traced) {
    const std::string tag = traced ? ".traced" : "";
    const double t = traced ? std::min(span, kTracedSeconds) : span;
    if (!mixed) {
      closed = closed_loop_hot(*fleet, stream, exp, t / 2,
                               traced ? kTracedMaxRequests : 0, traced);
      report.phase("closed" + tag, closed->tally);
      if (closed->tally.unanswered != 0) abandon(report);
    }
    open = open_loop_hot(*fleet, stream, exp, mixed ? t : t / 2,
                         mixed ? kMixedRate : kHotRate);
    report.phase("open" + tag, open->tally);
    if (open->tally.unanswered != 0) abandon(report);
    if (mixed) {
      Tally recompute;
      check_fresh(*open, recompute);
      report.phase("recompute" + tag, recompute);
    }
  };
  const auto open_p50 = [&] {
    return pb::windowed_percentile(latencies_us(*open, nullptr), 5000,
                                   kLatencyWindow);
  };

  run_phases(false);
  if (!opt.trace) {
    report.add("throughput_rps",
               mixed ? open_throughput(*open) : throughput(*closed), "req/s");
    report_latency_e2e(report, *open);
    if (mixed) report_classes(report, *open);
    report.add("peak_rss_mb", static_cast<double>(peak_rss_kib()) / 1024.0,
               "MiB");
    return report.finish();
  }

  // trace.overhead_frac: hot_hits compares closed-loop throughput,
  // mixed_fleet (a fixed offered rate) the open-loop median latency.
  const double untraced = mixed ? open_p50() : throughput(*closed);
  const std::vector<serve::Service*> services = fleet->services();
  const serve::RouterStats rs0 = fleet->router.stats();
  const ServiceCounters c0 = counters(services);
  const serve::WireMetrics wm0 = fleet->router.fleet_metrics();
  std::uint64_t t0 = 0, t1 = 0;
  ServiceCounters c1;
  trace::Capture cap;
  {
    trace::TraceSession session(kTraceRing);
    t0 = now_ns();
    run_phases(true);
    t1 = now_ns();
    session.stop();
    const serve::RouterStats rs1 = fleet->router.stats();
    c1 = counters(services);
    const serve::WireMetrics wm1 = fleet->router.fleet_metrics();
    report.header("shard WireMetrics over the traced phases: cache_hits=" +
                  std::to_string(wm1.cache_hits - wm0.cache_hits) +
                  " cache_misses=" +
                  std::to_string(wm1.cache_misses - wm0.cache_misses));
    const double routed = static_cast<double>(rs1.routed - rs0.routed);
    const double coalesced =
        static_cast<double>(rs1.coalesced - rs0.coalesced);
    report.add("serve.router.coalesced_ratio",
               ratio(coalesced, routed + coalesced), "ratio");
    report.add("serve.router.stolen_ratio",
               ratio(static_cast<double>(rs1.stolen - rs0.stolen), routed),
               "ratio");
    double most = 0;
    for (std::size_t s = 0; s < rs1.per_shard.size(); ++s) {
      most = std::max(most,
                      static_cast<double>(rs1.per_shard[s] - rs0.per_shard[s]));
    }
    report.add("serve.router.shard_imbalance",
               ratio(most * static_cast<double>(rs1.per_shard.size()), routed),
               "ratio");

    // Shard 0's own Service, warm on the keys it holds, timed one call at
    // a time.
    std::vector<serve::Request> all, warm;
    for (std::size_t k = 0; k < hot.size(); ++k) {
      all.push_back(serve::to_request(hot[k], fleet->workers[0]->catalog()));
      if (replies[k].shard == 0) warm.push_back(all.back());
    }
    probe_hit_submit(report, *services[0], warm);
    probe_cache_key(report, all);
    fleet.reset();  // joins every traced thread before the capture
    cap = session.capture();
  }

  const Ledger led = summarize(cap, t1 - t0);
  report_layers(report, led, c0, c1);
  // The hop metrics come from the open loop, the latency phase.
  const std::vector<Hop> hops = match_hops(led, open->start_ns, t1);
  std::vector<double> route, shard, transport;
  for (const Hop& h : hops) {
    route.push_back(static_cast<double>(h.route.end_ns - h.route.begin_ns) *
                    1e-3);
    shard.push_back(h.shard_us);
    transport.push_back(h.transport_us);
  }
  report.add("serve.router.route_us_p50", pb::percentile(route, 5000), "us",
             route.size());
  report.add("serve.router.route_us_p99", pb::percentile(route, 9900), "us",
             route.size());
  report.add("serve.worker.shard_us_p50", pb::percentile(shard, 5000), "us",
             shard.size());
  report.add("serve.worker.shard_us_p99", pb::percentile(shard, 9900), "us",
             shard.size());
  report.add("serve.worker.transport_us_p50", pb::percentile(transport, 5000),
             "us", transport.size());
  const std::vector<double> submit = submit_ns(mixed ? *open : *closed);
  report.add("serve.router.submit_ns_p50", pb::percentile(submit, 5000), "ns",
             submit.size());
  ledger_check(report, *open, hops);
  report.add("trace.overhead_frac",
             (mixed ? ratio(open_p50(), untraced)
                    : ratio(untraced, throughput(*closed))) -
                 1.0,
             "ratio");
  report_gen_lag(report, *open);
  serve::SpecCatalog catalog;
  probe_wire(report, hot, replies, catalog);
  if (mixed) {
    std::vector<serve::WireRequest> fresh;
    for (const auto& [i, req] : open->fresh_sent) fresh.push_back(req);
    probe_legacy_eval(report, fresh, catalog);
  }
  return report.finish();
}

int run_cold(const Options& opt, Report& report) {
  auto rig = timed_setups(report, opt.trace ? 1 : kSetupsUntraced,
                          [&] { return build_cold(opt.seed, report); });
  if (!report.correct()) return report.finish();
  const double span = opt.trace ? opt.seconds / 2 : opt.seconds;
  report.phase("burn_in", closed_loop_cold(*rig, kBurnInSeconds, 0)->tally);

  const auto run_phase = [&](bool traced) {
    const std::string tag = traced ? ".traced" : "";
    const std::size_t first = rig->next;
    auto ph =
        closed_loop_cold(*rig, traced ? std::min(span, kTracedSeconds) : span,
                         traced ? kTracedMaxRequests : 0);
    report.phase("closed" + tag, ph->tally);
    if (ph->tally.unanswered != 0) abandon(report);
    Tally recompute;
    check_cold_sample(*rig, *ph, first, opt.seed, recompute);
    report.phase("recompute" + tag, recompute);
    return ph;
  };

  const std::shared_ptr<Phase> ph = run_phase(false);
  if (!opt.trace) {
    report.add("throughput_rps", throughput(*ph), "req/s");
    report_latency_e2e(report, *ph);
    add_latency(report, "p90_us", latencies_us(*ph, nullptr), 9000);
    for (int k = 0; k < 5; ++k) {
      print_tail(report, kColdKindName[k], latencies_us(*ph, [k](std::uint8_t c) {
                   return static_cast<int>(c) == k;
                 }));
    }
    report.add("peak_rss_mb", static_cast<double>(peak_rss_kib()) / 1024.0,
               "MiB");
    return report.finish();
  }

  const double untraced_rps = throughput(*ph);
  const ServiceCounters c0 = counters({rig->service.get()});
  std::uint64_t t0 = 0, t1 = 0;
  ServiceCounters c1;
  std::shared_ptr<Phase> traced;
  trace::Capture cap;
  {
    trace::TraceSession session(kTraceRing);
    t0 = now_ns();
    traced = run_phase(true);
    t1 = now_ns();
    session.stop();
    c1 = counters({rig->service.get()});
    rig->client.reset();  // joins every traced thread before the capture
    rig->service.reset();
    cap = session.capture();
  }
  const Ledger led = summarize(cap, t1 - t0);
  report_layers(report, led, c0, c1);
  report.add("trace.overhead_frac",
             ratio(untraced_rps, throughput(*traced)) - 1.0, "ratio");
  report_tune_agg(report, traced->agg, led.sum("fm/strategy_search"));

  // Layer probes on the workload's own tunes: one matmul and three
  // small exhaustive searches, and up to 12 winners to certify.
  std::vector<serve::Request> requests, tunes;
  std::vector<Winner> winners;
  bool have_matmul = false;
  for (const auto& [index, resp] : traced->kept) {
    const serve::Request req = rig->inputs->request(index, 200.0);
    requests.push_back(req);
    if (req.kind != serve::RequestKind::kTune) continue;
    const bool exhaustive = req.strategy == fm::StrategyKind::kExhaustive;
    const bool matmul = rig->inputs->kind(index) == kMatmul;
    if (exhaustive && (matmul ? !have_matmul : tunes.size() < 3)) {
      tunes.push_back(req);
      have_matmul = have_matmul || matmul;
    }
    if (winners.size() < 12) {
      winners.push_back(exhaustive
                            ? Winner{req, false, resp.search.best.map, {}}
                            : Winner{req, true, {}, resp.strategy.best});
    }
  }
  probe_cache_key(report, requests);
  probe_search(report, tunes);
  probe_certify(report, winners);
  return report.finish();
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; i += 2) {
    const std::string k = argv[i];
    if (i + 1 >= argc) {
      std::cerr << "perfbench: " << k << " needs a value\n";
      return 2;
    }
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      opt.workload = v;
    } else if (k == "--seed") {
      opt.seed = std::stoull(v);
    } else if (k == "--seconds") {
      opt.seconds = std::stod(v);
    } else if (k == "--trace") {
      opt.trace = v == "1";
    } else if (k == "--rev") {
      opt.rev = v;
    } else {
      std::cerr << "perfbench: unknown argument " << k << "\n";
      return 2;
    }
  }
  if (opt.workload != "hot_hits" && opt.workload != "cold_tunes" &&
      opt.workload != "mixed_fleet") {
    std::cerr << "perfbench: unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  Report report = opt.trace ? Report(kPerLayer) : Report(kEndToEnd);
  std::ostringstream h;
  h << "perfbench rev=" << opt.rev
    << " hw_threads=" << std::thread::hardware_concurrency()
    << " build=" << PERFBENCH_BUILD_TYPE << " workload=" << opt.workload
    << " seed=" << opt.seed << " seconds=" << opt.seconds
    << " trace=" << (opt.trace ? 1 : 0);
  report.header(h.str());
  if (opt.workload == "cold_tunes") return run_cold(opt, report);
  return run_hot(opt, report, opt.workload == "mixed_fleet");
}
