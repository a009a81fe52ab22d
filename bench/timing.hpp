// Host timings for the benches that print wall-clock numbers (E22-E24).
//
// One timed pass on a shared host is noise: load that lands on one side
// of a comparison moves the ratio.  So every host timing a bench prints
// is the median of kReps rounds, and passes that are compared with each
// other alternate within each round (one sample of every side per
// round), so load that lands on one round lands on every side of it.  A
// ratio between two sides is the median of the per-round ratios.
//
// host_header() is the JSON that says where the numbers came from: the
// host's hardware threads, the build type (HARMONY_BUILD_TYPE, set by
// bench/CMakeLists.txt) and kReps.  Simulator outputs (cycles, energy,
// merits, counts) are deterministic and need none of this.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cstddef>
#include <functional>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace harmony::bench {

/// Rounds behind every host timing (odd, so a median is a sample).
inline constexpr int kReps = 5;

using Clock = std::chrono::steady_clock;

/// Runs `pass` until `min_seconds` of wall clock accumulate (at least
/// once) and returns passes per second.  `last` receives the final
/// pass's result.
template <typename Pass, typename Result>
double run_timed(Pass&& pass, double min_seconds, Result& last) {
  std::size_t passes = 0;
  double seconds = 0.0;
  const Clock::time_point t0 = Clock::now();
  do {
    last = pass();
    ++passes;
    seconds = std::chrono::duration<double>(Clock::now() - t0).count();
  } while (seconds < min_seconds);
  return static_cast<double>(passes) / seconds;
}

/// Milliseconds one call of `fn` takes.
template <typename Fn>
double time_ms(Fn&& fn) {
  const Clock::time_point t0 = Clock::now();
  fn();
  return std::chrono::duration<double, std::milli>(Clock::now() - t0)
      .count();
}

/// kReps alternating rounds: each round takes one sample from every
/// side, in order.  Returns samples[side][round].
template <std::size_t N>
std::array<std::vector<double>, N> alternate(
    const std::array<std::function<double()>, N>& sides) {
  std::array<std::vector<double>, N> samples;
  for (int r = 0; r < kReps; ++r) {
    for (std::size_t s = 0; s < N; ++s) samples[s].push_back(sides[s]());
  }
  return samples;
}

/// The median of `xs` (the upper middle one for an even count).
inline double median(std::vector<double> xs) {
  if (xs.empty()) return 0.0;
  const auto mid = xs.begin() + static_cast<std::ptrdiff_t>(xs.size() / 2);
  std::nth_element(xs.begin(), mid, xs.end());
  return *mid;
}

/// The median over rounds of num[r] / den[r] (samples of two sides of
/// one alternate() call, so both hold one entry per round).
inline double median_ratio(const std::vector<double>& num,
                           const std::vector<double>& den) {
  std::vector<double> ratios;
  for (std::size_t r = 0; r < num.size(); ++r) {
    ratios.push_back(den[r] > 0.0 ? num[r] / den[r] : 0.0);
  }
  return median(std::move(ratios));
}

/// The JSON fields that state the host behind a bench's timings, each
/// followed by ",\n" so the caller's next field follows.
inline std::string host_header() {
  std::ostringstream os;
  os << "\"hardware_threads\": " << std::thread::hardware_concurrency()
     << ",\n\"build_type\": \"" << HARMONY_BUILD_TYPE
     << "\",\n\"reps\": " << kReps << ",\n";
  return os.str();
}

}  // namespace harmony::bench
