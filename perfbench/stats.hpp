// Arithmetic of the perfbench report: the percentile rule, windowed
// medians, and span self time.  Header-only and free of harmony types so
// perfbench_selftest can pin it on small exact inputs.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Percentiles are written in basis points (9900 = p99) so that rank
/// arithmetic is exact integer arithmetic, never a rounded double.
using Bp = std::uint32_t;

/// Nearest-rank position (1-based) of percentile `q` among `n` samples:
/// ceil(q * n / 10000), at least 1.
[[nodiscard]] inline std::size_t rank_of(Bp q, std::size_t n) {
  const std::size_t r = (static_cast<std::size_t>(q) * n + 9999) / 10000;
  return std::max<std::size_t>(r, 1);
}

/// Samples strictly beyond the nearest-rank position of `q`.
[[nodiscard]] inline std::size_t beyond(Bp q, std::size_t n) {
  return n == 0 ? 0 : n - std::min(n, rank_of(q, n));
}

/// A percentile is reported only when at least this many samples lie
/// beyond it, so a tail never rests on one or two observations.
inline constexpr std::size_t kMinBeyond = 10;

[[nodiscard]] inline bool supports(Bp q, std::size_t n) {
  return beyond(q, n) >= kMinBeyond;
}

/// Nearest-rank percentile of an ascending vector; 0 when empty.
[[nodiscard]] inline double percentile_sorted(const std::vector<double>& s,
                                              Bp q) {
  if (s.empty()) return 0.0;
  return s[std::min(s.size(), rank_of(q, s.size())) - 1];
}

[[nodiscard]] inline double percentile(std::vector<double> v, Bp q) {
  std::sort(v.begin(), v.end());
  return percentile_sorted(v, q);
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return percentile(std::move(v), 5000);
}

/// Mean of the middle half of `v` (sorted ranks [n/4, n - n/4)); the
/// plain mean below 4 values; 0 when empty.
[[nodiscard]] inline double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t cut = v.size() / 4;
  double sum = 0;
  for (std::size_t i = cut; i < v.size() - cut; ++i) sum += v[i];
  return sum / static_cast<double>(v.size() - 2 * cut);
}

/// The ladder the tail is chosen from, highest first.
inline constexpr Bp kTailLadder[] = {9990, 9900, 9500, 9000, 7500, 5000};

/// The highest ladder percentile with kMinBeyond samples beyond it, or 0
/// when even the median is unsupported (fewer than 20 samples).
[[nodiscard]] inline Bp tail_of(std::size_t n) {
  for (const Bp q : kTailLadder) {
    if (supports(q, n)) return q;
  }
  return 0;
}

/// Percentile `q` of samples kept in arrival order, as the median of the
/// per-window percentiles over consecutive windows of at least
/// `min_window` samples (one window when there are fewer).  A stall that
/// poisons one window then moves the result by one rank, not by its
/// whole length.  Each window must support `q` for the windows to be
/// used; otherwise the whole run is one window.
[[nodiscard]] inline std::vector<double> window_percentiles(
    const std::vector<double>& v, Bp q, std::size_t min_window) {
  const std::size_t windows =
      min_window == 0 ? 1 : std::max<std::size_t>(1, v.size() / min_window);
  if (windows == 1 || !supports(q, v.size() / windows)) {
    return {percentile(v, q)};
  }
  std::vector<double> per;
  per.reserve(windows);
  for (std::size_t w = 0; w < windows; ++w) {
    const std::size_t lo = v.size() * w / windows;
    const std::size_t hi = v.size() * (w + 1) / windows;
    per.push_back(percentile(
        std::vector<double>(v.begin() + static_cast<std::ptrdiff_t>(lo),
                            v.begin() + static_cast<std::ptrdiff_t>(hi)),
        q));
  }
  return per;
}

[[nodiscard]] inline double windowed_percentile(const std::vector<double>& v,
                                                Bp q, std::size_t min_window) {
  return median(window_percentiles(v, q, min_window));
}

/// One span on one thread.
struct Interval {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
};

/// Self time of each span on one thread: its duration minus the part of
/// it that its child spans cover.  A child is a later span that lies
/// wholly inside it with no closer enclosing span; overlapping children
/// are counted once (their union).  Result is in input order.
[[nodiscard]] inline std::vector<std::uint64_t> self_times(
    const std::vector<Interval>& spans) {
  std::vector<std::size_t> order(spans.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  // Parents before children: by begin, then the longer span first.
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    if (spans[a].begin != spans[b].begin) {
      return spans[a].begin < spans[b].begin;
    }
    return spans[a].end > spans[b].end;
  });
  std::vector<std::uint64_t> covered(spans.size(), 0);
  // Per open span: where its children's union currently ends.
  std::vector<std::uint64_t> covered_until(spans.size(), 0);
  std::vector<std::size_t> open;
  for (const std::size_t i : order) {
    const Interval& s = spans[i];
    while (!open.empty() && !(spans[open.back()].begin <= s.begin &&
                              s.end <= spans[open.back()].end)) {
      open.pop_back();
    }
    if (!open.empty()) {
      const std::size_t p = open.back();
      const std::uint64_t from = std::max(s.begin, covered_until[p]);
      if (s.end > from) covered[p] += s.end - from;
      covered_until[p] = std::max(covered_until[p], s.end);
    }
    covered_until[i] = s.begin;
    open.push_back(i);
  }
  std::vector<std::uint64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::uint64_t dur = spans[i].end - spans[i].begin;
    self[i] = dur - std::min(dur, covered[i]);
  }
  return self;
}

/// Length of the union of `spans` (overlaps counted once).
[[nodiscard]] inline std::uint64_t union_length(std::vector<Interval> spans) {
  std::sort(spans.begin(), spans.end(), [](const Interval& a,
                                           const Interval& b) {
    return a.begin < b.begin;
  });
  std::uint64_t total = 0, until = 0;
  for (const Interval& s : spans) {
    const std::uint64_t from = std::max(s.begin, until);
    if (s.end > from) total += s.end - from;
    until = std::max(until, s.end);
  }
  return total;
}

}  // namespace perfbench
