// Self-test of the benchmark's own arithmetic (stats.hpp): the
// percentile rule on small exact inputs and self-time subtraction on a
// synthetic span tree.  perfbench/run.py runs it before every workload;
// exits non-zero on the first wrong answer.
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "stats.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench_selftest: FAIL %s\n", what);
    ++g_failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>(i + 1);
  return v;
}

void test_percentile_rule() {
  using perfbench::beyond;
  using perfbench::percentile;
  using perfbench::supports;
  using perfbench::tail_of;

  // Nearest rank: p50 of 1..10 is the 5th value, p90 the 9th.
  expect(percentile(iota(10), 5000) == 5.0, "p50 of 1..10 is 5");
  expect(percentile(iota(10), 9000) == 9.0, "p90 of 1..10 is 9");
  expect(percentile(iota(1), 9900) == 1.0, "p99 of one sample is it");
  expect(percentile({}, 5000) == 0.0, "percentile of nothing is 0");
  // Unsorted input is sorted first.
  expect(percentile({3.0, 1.0, 2.0}, 5000) == 2.0, "p50 of {3,1,2} is 2");

  // Samples beyond a percentile, in exact integer arithmetic.
  expect(beyond(9900, 1000) == 10, "p99 of 1000 has 10 beyond");
  expect(beyond(9900, 999) == 9, "p99 of 999 has 9 beyond");
  expect(beyond(5000, 20) == 10, "p50 of 20 has 10 beyond");
  expect(supports(9900, 1000) && !supports(9900, 999),
         "p99 needs 1000 samples");
  expect(supports(9000, 100) && !supports(9000, 99), "p90 needs 100");

  // The tail is the highest ladder percentile with >= 10 beyond it.
  expect(tail_of(19) == 0, "19 samples support no percentile");
  expect(tail_of(20) == 5000, "20 samples: tail is p50");
  expect(tail_of(100) == 9000, "100 samples: tail is p90");
  expect(tail_of(999) == 9500, "999 samples: tail is p95");
  expect(tail_of(1000) == 9900, "1000 samples: tail is p99");
  expect(tail_of(10000) == 9990, "10000 samples: tail is p99.9");
  expect(percentile(iota(1000), 9900) == 990.0, "p99 of 1..1000 is 990");

  // Interquartile mean: the middle half of 8 values is ranks 2..5.
  expect(perfbench::interquartile_mean({100, 1, 2, 3, 4, 5, 6, -50}) == 3.5,
         "IQM of 8 values averages ranks 2..5");
  expect(perfbench::interquartile_mean({2, 4}) == 3.0,
         "IQM below 4 values is the mean");

  // Windowed: four windows of 1..1000 shifted by 1000 each; the median
  // of the window p99s (990, 1990, 2990, 3990) is the 2nd of 4.
  std::vector<double> v;
  for (int w = 0; w < 4; ++w) {
    for (const double x : iota(1000)) v.push_back(x + 1000.0 * w);
  }
  expect(perfbench::windowed_percentile(v, 9900, 1000) == 1990.0,
         "windowed p99 is the median of window p99s");
  // Windows too small for p99 fall back to one window over everything.
  expect(perfbench::windowed_percentile(v, 9900, 500) ==
             percentile(v, 9900),
         "unsupported windows fall back to the whole run");
}

void test_self_time() {
  using perfbench::Interval;
  // A[0,100) holds B[10,40) and C[30,60), which overlap each other, and
  // D[70,80), which holds E[72,75).  A's children cover [10,60) and
  // [70,80): 60 units, so A's self time is 40.
  const std::vector<Interval> spans = {
      {0, 100}, {10, 40}, {30, 60}, {70, 80}, {72, 75}};
  const std::vector<std::uint64_t> self = perfbench::self_times(spans);
  expect(self.size() == 5, "one self time per span");
  expect(self[0] == 40, "A self = 100 - |[10,60) u [70,80)| = 40");
  expect(self[1] == 30, "B has no children");
  expect(self[2] == 30, "C is A's child, not B's");
  expect(self[3] == 7, "D self = 10 - 3");
  expect(self[4] == 3, "E is a leaf");

  // Input order does not matter, and a sibling equal to its parent's
  // extent leaves the parent no self time.
  const std::vector<Interval> shuffled = {{72, 75}, {0, 100}, {0, 100}};
  const std::vector<std::uint64_t> s2 = perfbench::self_times(shuffled);
  expect(s2[0] == 3, "leaf keeps its duration");
  expect(s2[1] + s2[2] == 97, "an identical pair splits as parent/child");

  expect(perfbench::union_length({{0, 10}, {5, 15}, {20, 30}}) == 25,
         "union counts overlap once");
}

}  // namespace

int main() {
  test_percentile_rule();
  test_self_time();
  if (g_failures != 0) return EXIT_FAILURE;
  std::puts("perfbench_selftest: ok");
  return EXIT_SUCCESS;
}
