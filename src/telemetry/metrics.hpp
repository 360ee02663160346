// Always-on, low-overhead observability for the modeled switch (the
// paper's evaluation quantities -- occupancy, admission/rejection rates,
// recirculations, cache hit ratios, reallocation pauses -- as first-class
// metrics instead of ad-hoc printf probes).
//
// A MetricsRegistry owns named Counters, Gauges, and log-bucketed
// Histograms keyed by (component, name, fid). Registration takes a mutex
// and allocates; the handles it returns are stable for the registry's
// lifetime. Hot-path updates (inc/set/record) are relaxed load+store
// pairs on atomics: single-writer, like the event loop that drives every
// instrumented component, so a concurrent snapshot reader never sees a
// torn value but the per-packet path pays no lock-prefixed RMW (the
// bench's telemetry-overhead gate holds the whole layer to <=5% and zero
// steady-state allocations). Each tool, bench or test owns its registry
// and wires components to it (or lets them keep a private one, so
// per-node counts stay exact).
//
// Component totals are not registry handles: they are plain members of
// each component's typed stats, folded in by its export_metrics (via
// merge_add) when a snapshot is written. The registry's live handles
// carry only what has no typed home -- per-FID breakdowns, histograms,
// gauges, and counters nothing reads through an accessor.
//
// Recording is globally gated by set_enabled(): when disabled, handles
// drop updates after one relaxed load, which is what the overhead bench
// measures the instrumented datapath against. The gate covers the
// per-FID breakdowns, histograms, heatmap and spans; the typed totals
// always count.
#pragma once

#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/types.hpp"

namespace artmt::telemetry {

// Label value for metrics not attached to a flow.
inline constexpr i32 kNoFid = -1;

namespace detail {
extern std::atomic<bool> g_enabled;
}  // namespace detail

// Process-wide recording gate (default on). Handles keep their values
// while disabled; they just stop accumulating.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void set_enabled(bool on);

// Monotonic event count. Single-writer: inc() is a relaxed load+store,
// not an RMW, so concurrent inc() from two threads can lose updates --
// concurrent readers are always safe.
class Counter {
 public:
  void inc(u64 n = 1) {
    if (enabled()) {
      value_.store(value_.load(std::memory_order_relaxed) + n,
                   std::memory_order_relaxed);
    }
  }
  [[nodiscard]] u64 value() const {
    return value_.load(std::memory_order_relaxed);
  }

  // Snapshot-time accumulation of already-recorded totals (exporters fold
  // their own books in here). Not gated by enabled(): the books decide
  // what was recorded (typed totals count whether or not recording is
  // on; the heatmap applies the gate when it records).
  void merge_add(u64 n) {
    value_.store(value_.load(std::memory_order_relaxed) + n,
                 std::memory_order_relaxed);
  }

 private:
  std::atomic<u64> value_{0};
};

// Instantaneous level (queue depth, resident services). Single-writer,
// like Counter.
class Gauge {
 public:
  void set(i64 v) {
    if (enabled()) value_.store(v, std::memory_order_relaxed);
  }
  void add(i64 d) {
    if (enabled()) {
      value_.store(value_.load(std::memory_order_relaxed) + d,
                   std::memory_order_relaxed);
    }
  }
  [[nodiscard]] i64 value() const {
    return value_.load(std::memory_order_relaxed);
  }

  // Snapshot-time accumulation (see Counter::merge_add).
  void merge_add(i64 d) {
    value_.store(value_.load(std::memory_order_relaxed) + d,
                 std::memory_order_relaxed);
  }

 private:
  std::atomic<i64> value_{0};
};

// Log-bucketed value distribution: bucket 0 holds the value 0, bucket b
// (1..64) holds values with bit_width b, i.e. [2^(b-1), 2^b). Percentiles
// report the upper bound of the bucket containing the rank, clamped to the
// exact observed maximum -- deterministic for a given input multiset.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;

  static std::size_t bucket_index(u64 v) {
    return v == 0 ? 0 : static_cast<std::size_t>(std::bit_width(v));
  }
  static u64 bucket_upper_bound(std::size_t bucket) {
    if (bucket == 0) return 0;
    if (bucket >= 64) return ~0ull;
    return (1ull << bucket) - 1;
  }

  void record(u64 v) {
    if (!enabled()) return;
    // Single-writer load+store updates, like Counter.
    std::atomic<u64>& bucket = buckets_[bucket_index(v)];
    bucket.store(bucket.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    count_.store(count_.load(std::memory_order_relaxed) + 1,
                 std::memory_order_relaxed);
    sum_.store(sum_.load(std::memory_order_relaxed) + v,
               std::memory_order_relaxed);
    if (v > max_.load(std::memory_order_relaxed)) {
      max_.store(v, std::memory_order_relaxed);
    }
  }

  [[nodiscard]] u64 count() const {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] u64 sum() const { return sum_.load(std::memory_order_relaxed); }
  [[nodiscard]] u64 max() const { return max_.load(std::memory_order_relaxed); }
  [[nodiscard]] u64 bucket_count(std::size_t bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  // p in [0, 1]; 0 observations -> 0.
  [[nodiscard]] u64 percentile(double p) const;

 private:
  std::atomic<u64> buckets_[kBuckets]{};
  std::atomic<u64> count_{0};
  std::atomic<u64> sum_{0};
  std::atomic<u64> max_{0};
};

class MetricsRegistry;

// Per-FID counter lookup for per-packet paths: a one-entry memo (steady
// traffic repeats a fid) backed by a local pointer cache, so the registry
// mutex is only taken the first time a fid is seen. Single-writer, like
// the simulation loop that drives it.
class CounterFamily {
 public:
  CounterFamily(MetricsRegistry& registry, std::string component,
                std::string name);

  Counter& at(i32 fid) {
    if (fid == last_fid_) return *last_;
    return lookup(fid);
  }

 private:
  Counter& lookup(i32 fid);

  MetricsRegistry* registry_;
  std::string component_;
  std::string name_;
  std::unordered_map<i32, Counter*> cache_;
  i32 last_fid_ = INT32_MIN;
  Counter* last_ = nullptr;
};

// Owns every metric; snapshot-safe while recording continues (handles are
// atomic). Keys sort by (component, name, fid) so snapshots are
// deterministic.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Get-or-create. Re-registration with the same key returns the same
  // handle (a "collision" is a shared metric, never a silent second one).
  Counter& counter(std::string_view component, std::string_view name,
                   i32 fid = kNoFid);
  Gauge& gauge(std::string_view component, std::string_view name,
               i32 fid = kNoFid);
  Histogram& histogram(std::string_view component, std::string_view name,
                       i32 fid = kNoFid);

  // Lookups for views and tests; value-returning forms yield 0 for
  // metrics that were never registered.
  [[nodiscard]] u64 counter_value(std::string_view component,
                                  std::string_view name,
                                  i32 fid = kNoFid) const;
  [[nodiscard]] i64 gauge_value(std::string_view component,
                                std::string_view name,
                                i32 fid = kNoFid) const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view component,
                                                std::string_view name,
                                                i32 fid = kNoFid) const;
  // Sum of a counter over every fid label (including kNoFid).
  [[nodiscard]] u64 sum_counters(std::string_view component,
                                 std::string_view name) const;

  [[nodiscard]] std::size_t size() const;

  // Deterministic JSON export: sorted keys rendered as
  // "component.name" / "component.name{fid=N}".
  void snapshot_json(std::ostream& out) const;

 private:
  struct Key {
    std::string component;
    std::string name;
    i32 fid;
    friend bool operator<(const Key& a, const Key& b) {
      if (a.component != b.component) return a.component < b.component;
      if (a.name != b.name) return a.name < b.name;
      return a.fid < b.fid;
    }
  };

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace artmt::telemetry
