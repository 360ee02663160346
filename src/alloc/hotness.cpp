#include "alloc/hotness.hpp"

#include <algorithm>

#include "telemetry/heatmap.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::alloc {

HotnessTable::Row& HotnessTable::row(i32 fid, u32 stages) {
  Row& r = rows_[fid];
  if (r.score.size() < stages) {
    r.score.resize(stages, 0);
    r.last_reads.resize(stages, 0);
    r.last_writes.resize(stages, 0);
  }
  return r;
}

void HotnessTable::observe(const telemetry::StageHeatmap& heatmap) {
  const u32 stages = heatmap.stages();
  for (const i32 fid : heatmap.fids()) {
    Row& r = row(fid, stages);
    for (u32 s = 0; s < stages; ++s) {
      const auto* cell = heatmap.find(s, fid);
      if (cell == nullptr) continue;
      // Cumulative counters never regress while the heatmap lives; a
      // clear() resets them, so the delta base clamps rather than wraps.
      const u64 reads = std::max(cell->reads, r.last_reads[s]);
      const u64 writes = std::max(cell->writes, r.last_writes[s]);
      const u64 delta = (reads - r.last_reads[s]) + (writes - r.last_writes[s]);
      r.last_reads[s] = cell->reads;
      r.last_writes[s] = cell->writes;
      r.score[s] += delta;
      r.total += delta;
    }
  }
}

void HotnessTable::decay() {
  for (auto& [fid, r] : rows_) {
    u64 total = 0;
    for (u64& s : r.score) {
      s >>= kDecayShift;
      total += s;
    }
    r.total = total;
    if (total <= kColdThreshold) {
      ++r.cold_streak;
    } else {
      r.cold_streak = 0;
    }
  }
}

void HotnessTable::forget(i32 fid) { rows_.erase(fid); }

u64 HotnessTable::score(i32 fid) const {
  const auto it = rows_.find(fid);
  return it == rows_.end() ? 0 : it->second.total;
}

u32 HotnessTable::cold_streak(i32 fid) const {
  const auto it = rows_.find(fid);
  return it == rows_.end() ? 0 : it->second.cold_streak;
}

bool HotnessTable::is_cold(i32 fid) const {
  const auto it = rows_.find(fid);
  return it != rows_.end() && it->second.cold_streak >= kColdTicks;
}

std::vector<u64> HotnessTable::stage_totals(u32 stages) const {
  std::vector<u64> totals(stages, 0);
  for (const auto& [fid, r] : rows_) {
    const std::size_t n = std::min<std::size_t>(stages, r.score.size());
    for (std::size_t s = 0; s < n; ++s) totals[s] += r.score[s];
  }
  return totals;
}

u64 HotnessTable::total_score() const {
  u64 total = 0;
  for (const auto& [fid, r] : rows_) total += r.total;
  return total;
}

void HotnessTable::export_metrics(telemetry::MetricsRegistry& metrics) const {
  for (const auto& [fid, r] : rows_) {
    metrics.gauge("hotness", "score", fid).merge_add(static_cast<i64>(r.total));
    metrics.gauge("hotness", "cold_streak", fid).merge_add(r.cold_streak);
  }
}

}  // namespace artmt::alloc
