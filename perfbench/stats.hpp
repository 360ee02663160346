// Statistics helpers of the layered benchmark. Header-only so the
// self-test (selftest.cpp) checks exactly the code the benchmark runs.
//
//  * summarize(): a timing is reported as its median plus the highest
//    percentile that still has at least kTailMinBeyond samples beyond it,
//    always with the sample count.
//  * Ratio: every ratio keeps its numerator and base.
//  * attribute(): per-layer shares of a whole plus the unattributed rest;
//    the shares and the rest sum to exactly 1.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::size_t kTailMinBeyond = 10;

// Candidate tail percentiles, highest first.
inline constexpr double kTailCandidates[] = {99.9, 99.0, 95.0, 90.0, 75.0};

// Nearest-rank index of percentile `p` (0 < p <= 100) in `n` sorted samples.
inline std::size_t rank_index(double p, std::size_t n) {
  if (n == 0) return 0;
  // The epsilon keeps binary rounding of p * n from pushing an exact rank
  // (e.g. 99.9% of 10000) up by one.
  const double rank = std::ceil(p * static_cast<double>(n) / 100.0 - 1e-9);
  const auto r = static_cast<std::size_t>(std::max(rank, 1.0));
  return std::min(r, n) - 1;
}

// Samples strictly beyond percentile `p` of `n` samples.
inline std::size_t beyond(double p, std::size_t n) {
  return n == 0 ? 0 : n - 1 - rank_index(p, n);
}

struct Summary {
  std::size_t n = 0;
  double median = 0.0;
  double tail = 0.0;      // value at tail_pct (== median when no tail)
  double tail_pct = 0.0;  // 0 when no percentile above the median qualifies
  [[nodiscard]] bool has_tail() const { return tail_pct > 0.0; }
};

inline double median_of(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : (v[mid - 1] + v[mid]) / 2.0;
}

// Highest candidate percentile with >= kTailMinBeyond samples beyond it,
// or 0 when none qualifies.
inline double tail_percentile(std::size_t n) {
  for (const double p : kTailCandidates) {
    if (beyond(p, n) >= kTailMinBeyond) return p;
  }
  return 0.0;
}

inline Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.median = median_of(v);
  s.tail_pct = tail_percentile(v.size());
  s.tail = s.has_tail() ? v[rank_index(s.tail_pct, v.size())] : s.median;
  return s;
}

struct Ratio {
  std::uint64_t num = 0;
  std::uint64_t base = 0;
  [[nodiscard]] double value() const {
    return base == 0 ? 0.0
                     : static_cast<double>(num) / static_cast<double>(base);
  }
};

struct Attribution {
  std::map<std::string, double> shares;  // layer -> self time / whole
  double unattributed = 1.0;
};

// `self_ns` maps each layer to its self time; `whole_ns` is the wall time
// they are shares of.
inline Attribution attribute(const std::map<std::string, double>& self_ns,
                             double whole_ns) {
  Attribution a;
  double sum = 0.0;
  for (const auto& [layer, ns] : self_ns) {
    const double share = whole_ns > 0.0 ? ns / whole_ns : 0.0;
    a.shares[layer] = share;
    sum += share;
  }
  a.unattributed = 1.0 - sum;
  return a;
}

}  // namespace perfbench
