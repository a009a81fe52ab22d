// Serving metrics: latency histograms, queue depth, cache hit rate.
//
// Counters are lock-free atomics updated on the request path; snapshots
// are assembled on demand and exported through support::Table, which
// renders the same data as an aligned ASCII table (human), CSV
// (HARMONY_CSV pipeline), or JSON (print_json — the machine-readable
// endpoint a fronting process would scrape).
//
// The histogram uses power-of-two nanosecond buckets: record() is one
// bit_width + one relaxed fetch_add, and a percentile read costs at most
// one bucket-width of relative error — the right trade for a hot path
// that must never serialize workers behind a stats lock.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "analyze/diagnostic.hpp"
#include "serve/cache.hpp"
#include "support/table.hpp"

namespace harmony::serve {

class LatencyHistogram {
 public:
  // Bucket b holds latencies with bit_width(ns) == b: [2^(b-1), 2^b).
  // 64 buckets cover every representable nanoseconds value.  Public:
  // the wire tier ships raw bucket counts so a router can rebuild
  // fleet-wide percentiles (merge below), and the bucket convention is
  // part of that contract.
  static constexpr std::size_t kNumBuckets = 64;

  void record(std::chrono::nanoseconds latency);

  [[nodiscard]] std::uint64_t count() const;

  /// q-th percentile (q in [0,1]) in microseconds, resolved to the
  /// *midpoint* of the containing power-of-two bucket; 0 when empty.
  /// Midpoint resolution bounds the error for any single observation to
  /// [0.75x, 1.5x] of the true latency — the upper bucket edge used
  /// previously overreported a lone sample by up to 2x (a 1000 ns
  /// observation read back as p50 = 1.024 us instead of 0.768 us).
  [[nodiscard]] double percentile_us(double q) const;

  /// Point-in-time copy of the raw bucket counts (index = bit_width).
  [[nodiscard]] std::vector<std::uint64_t> counts() const;

  /// Adds `other`'s observations into this histogram.  Because buckets
  /// are exact counters (the quantization happened at record() time),
  /// merged percentiles equal those of one histogram fed the union of
  /// the samples — pinned against that oracle by tests/serve_test.cpp.
  /// This is what makes per-shard histograms aggregable: merging counts
  /// is lossless, whereas averaging per-shard *percentiles* is wrong
  /// for any non-uniform load split.
  void merge(const LatencyHistogram& other);

  /// merge() for counts that crossed the wire (WireMetrics).  Accepts
  /// up to kNumBuckets entries; throws std::invalid_argument beyond
  /// (a longer vector means a peer with a different bucket convention,
  /// which must not be silently folded).
  void add_counts(const std::vector<std::uint64_t>& counts);

 private:
  std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets_{};
};

/// Point-in-time view of the service counters, ready for export.
struct MetricsSnapshot {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;  ///< includes cache hits, excludes rejects
  std::uint64_t rejected = 0;
  std::uint64_t errors = 0;
  std::uint64_t deadline_cut = 0;
  /// Leader runs: admitted misses a worker ran (duplicates parked on a
  /// running leader are answered by it and are not runs of their own).
  std::uint64_t batches = 0;
  /// Requests answered per leader run (1 + its parked duplicates).
  double mean_batch = 0.0;
  /// Admitted misses still waiting for a worker to start them.
  std::uint64_t queue_depth = 0;
  CacheStats cache;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  /// Tail percentile beyond p99: under a rising open-loop load a
  /// saturation knee shows here before it reaches p99.
  double p999_us = 0.0;
  /// Raw latency-bucket counts (LatencyHistogram convention), exported
  /// so a fronting router can merge shard histograms losslessly.
  std::vector<std::uint64_t> latency_buckets;
  /// Oracle-run tunes (cache hits replay stored results and don't count).
  std::uint64_t tunes = 0;
  /// Mean fork-join lanes per tune (1.0 == every tune ran serial).
  double mean_tune_workers = 0.0;
  /// Scheduler steals observed across tunes — approximate when tunes
  /// overlap on the pool, but a faithful saturation signal.
  std::uint64_t tune_steals = 0;
  /// CompiledSpec cache traffic: a hit means a tune reused another
  /// request's flat evaluation tables and skipped fm::compile_spec.
  std::uint64_t compile_hits = 0;
  std::uint64_t compile_misses = 0;
  /// Tune winners replayed through the execution checker (every winner
  /// is), and how many of those replays found an axiom violation.  A
  /// nonzero failure count means an oracle and the relational model
  /// disagree — a bug in one of them.
  std::uint64_t exec_checks = 0;
  std::uint64_t exec_failures = 0;
  /// Trace events lost to ring-buffer wrap in the current (or last)
  /// trace session (harmony::trace); 0 when tracing never ran.
  std::uint64_t trace_dropped = 0;
  /// Diagnostics emitted by oracle runs, indexed like analyze::kRules
  /// (cache hits replay stored diagnostics and are not re-counted).
  std::array<std::uint64_t, analyze::kRuleCount> diagnostics_by_rule{};

  [[nodiscard]] std::uint64_t diagnostics_total() const {
    std::uint64_t n = 0;
    for (const std::uint64_t c : diagnostics_by_rule) n += c;
    return n;
  }
};

class Metrics {
 public:
  void on_submit() { submitted_.fetch_add(1, std::memory_order_relaxed); }
  void on_reject() { rejected_.fetch_add(1, std::memory_order_relaxed); }
  void on_complete(std::chrono::nanoseconds latency, bool deadline_cut,
                   bool error);
  void on_batch(std::size_t size);
  /// Records one oracle tune: the fork-join lanes it actually spread
  /// over (SearchResult::workers_used) and the scheduler steals
  /// attributed to it.
  void on_tune(unsigned workers_used, std::uint64_t steals);
  /// Records one CompiledSpec cache probe.
  void on_compile(bool hit) {
    (hit ? compile_hits_ : compile_misses_)
        .fetch_add(1, std::memory_order_relaxed);
  }
  /// Records one execution-checker replay of a tune winner.
  void on_exec_check(bool failed) {
    exec_checks_.fetch_add(1, std::memory_order_relaxed);
    if (failed) exec_failures_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Tallies a response's diagnostics by rule ID (unknown IDs ignored).
  void on_diagnostics(const std::vector<analyze::Diagnostic>& diags);

  [[nodiscard]] MetricsSnapshot snapshot(std::uint64_t queue_depth,
                                         const CacheStats& cache) const;

 private:
  std::atomic<std::uint64_t> submitted_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> rejected_{0};
  std::atomic<std::uint64_t> errors_{0};
  std::atomic<std::uint64_t> deadline_cut_{0};
  std::atomic<std::uint64_t> batches_{0};
  std::atomic<std::uint64_t> batched_requests_{0};
  std::atomic<std::uint64_t> tunes_{0};
  std::atomic<std::uint64_t> tune_workers_{0};
  std::atomic<std::uint64_t> tune_steals_{0};
  std::atomic<std::uint64_t> compile_hits_{0};
  std::atomic<std::uint64_t> compile_misses_{0};
  std::atomic<std::uint64_t> exec_checks_{0};
  std::atomic<std::uint64_t> exec_failures_{0};
  std::array<std::atomic<std::uint64_t>, analyze::kRuleCount> diag_by_rule_{};
  LatencyHistogram latency_;
};

/// One row per metric ("metric", "value") — print() for humans,
/// print_json() for machines.
[[nodiscard]] Table metrics_table(const MetricsSnapshot& snap);

/// The table above rendered as a JSON string.
[[nodiscard]] std::string metrics_json(const MetricsSnapshot& snap);

}  // namespace harmony::serve
