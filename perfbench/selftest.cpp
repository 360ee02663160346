// Self-test of the benchmark's statistics helpers (stats.hpp):
//  * a percentile is reported only with >= 10 samples beyond it;
//  * every ratio carries its base;
//  * per-layer shares sum with the unattributed rest to 1.
// Exits 0 when every check holds; prints each failure otherwise.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>

#include "stats.hpp"

using namespace perfbench;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

std::vector<double> iota(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

}  // namespace

int main() {
  // Percentile eligibility.
  check(beyond(99.0, 1000) == 10, "p99 of 1000 samples has 10 beyond");
  check(beyond(99.0, 999) < 10, "p99 of 999 samples has fewer than 10 beyond");
  check(tail_percentile(1000) == 99.0, "1000 samples report p99, not p99.9");
  check(tail_percentile(10000) == 99.9, "10000 samples report p99.9");
  check(tail_percentile(64) == 75.0, "64 samples report p75");
  check(tail_percentile(15) == 0.0, "15 samples report no tail");
  for (std::size_t n = 1; n <= 5000; n = n * 3 + 1) {
    const std::vector<double> v = iota(n);
    const Summary s = summarize(v);
    check(s.n == n, "summary keeps its sample count");
    if (s.has_tail()) {
      const auto above = static_cast<std::size_t>(std::count_if(
          v.begin(), v.end(), [&](double x) { return x > s.tail; }));
      check(above >= kTailMinBeyond, "reported tail has >= 10 samples beyond");
    } else {
      check(s.tail == s.median, "no tail: tail equals the median");
    }
  }
  const Summary odd = summarize({5, 1, 3});
  check(odd.median == 3.0, "median of an odd sample");
  check(summarize({4, 1, 3, 2}).median == 2.5, "median of an even sample");
  check(summarize({}).n == 0 && !summarize({}).has_tail(), "empty summary");

  // Ratios keep their base.
  const Ratio r{3, 4};
  check(r.num == 3 && r.base == 4 && r.value() == 0.75, "ratio value and base");
  check(Ratio{0, 0}.value() == 0.0 && Ratio{0, 0}.base == 0,
        "zero base is reported as such, not divided");

  // Shares plus the unattributed rest sum to 1.
  const Attribution a = attribute({{"a", 10.0}, {"b", 25.0}, {"c", 5.0}}, 100.0);
  double sum = a.unattributed;
  for (const auto& [layer, share] : a.shares) sum += share;
  check(std::fabs(sum - 1.0) < 1e-12, "shares + unattributed == 1");
  check(std::fabs(a.unattributed - 0.6) < 1e-12, "unattributed is the rest");
  const Attribution over = attribute({{"a", 80.0}, {"b", 40.0}}, 100.0);
  double sum2 = over.unattributed;
  for (const auto& [layer, share] : over.shares) sum2 += share;
  check(std::fabs(sum2 - 1.0) < 1e-12, "over-attribution still sums to 1");
  check(over.unattributed < 0.0, "over-attribution shows as a negative rest");

  if (failures == 0) std::printf("perfbench self-test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
