#include "telemetry/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <utility>

#include "common/error.hpp"

namespace artmt::telemetry {

namespace detail {
std::atomic<bool> g_enabled{true};
}  // namespace detail

void set_enabled(bool on) {
  detail::g_enabled.store(on, std::memory_order_relaxed);
}

u64 Histogram::percentile(double p) const {
  const u64 total = count();
  if (total == 0) return 0;
  p = std::clamp(p, 0.0, 1.0);
  const u64 rank = std::max<u64>(
      1, static_cast<u64>(std::ceil(p * static_cast<double>(total))));
  u64 cumulative = 0;
  for (std::size_t b = 0; b < kBuckets; ++b) {
    cumulative += bucket_count(b);
    if (cumulative >= rank) {
      return std::min(bucket_upper_bound(b), max());
    }
  }
  return max();
}

CounterFamily::CounterFamily(MetricsRegistry& registry, std::string component,
                             std::string name)
    : registry_(&registry),
      component_(std::move(component)),
      name_(std::move(name)) {}

Counter& CounterFamily::lookup(i32 fid) {
  auto it = cache_.find(fid);
  if (it == cache_.end()) {
    it = cache_.emplace(fid, &registry_->counter(component_, name_, fid))
             .first;
  }
  last_fid_ = fid;
  last_ = it->second;
  return *last_;
}

namespace {

template <typename Map, typename Make>
auto& get_or_create(Map& map, std::string_view component,
                    std::string_view name, i32 fid, Make make) {
  const auto it = map.find({std::string(component), std::string(name), fid});
  if (it != map.end()) return *it->second;
  auto [inserted, ok] = map.emplace(
      typename Map::key_type{std::string(component), std::string(name), fid},
      make());
  (void)ok;
  return *inserted->second;
}

}  // namespace

Counter& MetricsRegistry::counter(std::string_view component,
                                  std::string_view name, i32 fid) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(counters_, component, name, fid,
                       [] { return std::make_unique<Counter>(); });
}

Gauge& MetricsRegistry::gauge(std::string_view component,
                              std::string_view name, i32 fid) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(gauges_, component, name, fid,
                       [] { return std::make_unique<Gauge>(); });
}

Histogram& MetricsRegistry::histogram(std::string_view component,
                                      std::string_view name, i32 fid) {
  std::lock_guard<std::mutex> lock(mu_);
  return get_or_create(histograms_, component, name, fid,
                       [] { return std::make_unique<Histogram>(); });
}

u64 MetricsRegistry::counter_value(std::string_view component,
                                   std::string_view name, i32 fid) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      counters_.find({std::string(component), std::string(name), fid});
  return it == counters_.end() ? 0 : it->second->value();
}

i64 MetricsRegistry::gauge_value(std::string_view component,
                                 std::string_view name, i32 fid) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      gauges_.find({std::string(component), std::string(name), fid});
  return it == gauges_.end() ? 0 : it->second->value();
}

const Histogram* MetricsRegistry::find_histogram(std::string_view component,
                                                 std::string_view name,
                                                 i32 fid) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it =
      histograms_.find({std::string(component), std::string(name), fid});
  return it == histograms_.end() ? nullptr : it->second.get();
}

u64 MetricsRegistry::sum_counters(std::string_view component,
                                  std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  u64 total = 0;
  for (const auto& [key, counter] : counters_) {
    if (key.component == component && key.name == name) {
      total += counter->value();
    }
  }
  return total;
}

std::size_t MetricsRegistry::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return counters_.size() + gauges_.size() + histograms_.size();
}

namespace {

void write_key(std::ostream& out, const std::string& component,
               const std::string& name, i32 fid) {
  out << '"' << component << '.' << name;
  if (fid != kNoFid) out << "{fid=" << fid << '}';
  out << '"';
}

}  // namespace

void MetricsRegistry::snapshot_json(std::ostream& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out << "{\n  \"counters\": {";
  bool first = true;
  for (const auto& [key, counter] : counters_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(out, key.component, key.name, key.fid);
    out << ": " << counter->value();
  }
  out << (first ? "}" : "\n  }") << ",\n  \"gauges\": {";
  first = true;
  for (const auto& [key, gauge] : gauges_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(out, key.component, key.name, key.fid);
    out << ": " << gauge->value();
  }
  out << (first ? "}" : "\n  }") << ",\n  \"histograms\": {";
  first = true;
  for (const auto& [key, hist] : histograms_) {
    out << (first ? "\n    " : ",\n    ");
    first = false;
    write_key(out, key.component, key.name, key.fid);
    out << ": {\"count\": " << hist->count() << ", \"sum\": " << hist->sum()
        << ", \"max\": " << hist->max()
        << ", \"p50\": " << hist->percentile(0.50)
        << ", \"p90\": " << hist->percentile(0.90)
        << ", \"p99\": " << hist->percentile(0.99) << ", \"buckets\": [";
    bool first_bucket = true;
    for (std::size_t b = 0; b < Histogram::kBuckets; ++b) {
      const u64 n = hist->bucket_count(b);
      if (n == 0) continue;
      if (!first_bucket) out << ", ";
      first_bucket = false;
      out << '[' << Histogram::bucket_upper_bound(b) << ", " << n << ']';
    }
    out << "]}";
  }
  out << (first ? "}" : "\n  }") << "\n}\n";
}

}  // namespace artmt::telemetry
