// Decayed per-(FID, stage) access scores driving the background migration
// engine (exported as hotness.* gauges in snapshots). The table keeps
// the per-stage resolution the planner needs (a re-slide candidate is
// judged by the activity in the stage being compacted) plus hysteretic
// coldness detection: a FID is cold only after kColdTicks consecutive
// epochs at or below kColdThreshold, so one quiet interval does not demote
// a bursty service.
//
// Feeding follows the heatmap idiom: observe() absorbs the per-cell
// read/write delta since the previous observation (collisions are faults,
// not demand, and stay out of the score), decay() halves every cell (a
// one-tick half-life under silence). tick() is one migration epoch:
// observe, then age, then advance cold streaks.
// Deterministic: plain maps, no clocks, no randomness.
#pragma once

#include <map>
#include <vector>

#include "common/types.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
class StageHeatmap;
}  // namespace artmt::telemetry

namespace artmt::alloc {

class HotnessTable {
 public:
  static constexpr u32 kDecayShift = 1;     // per-tick aging: score >>= 1
  static constexpr u64 kColdThreshold = 8;  // total at/below: a cold epoch
  static constexpr u32 kColdTicks = 3;      // cold epochs before is_cold()

  // Absorbs each cell's read+write delta since the previous observation.
  void observe(const telemetry::StageHeatmap& heatmap);
  // Ages every score, then advances or resets each FID's cold streak.
  void decay();
  // One migration epoch: new traffic in, then age.
  void tick(const telemetry::StageHeatmap& heatmap) {
    observe(heatmap);
    decay();
  }
  // The FID departed; drop its row and delta base. The heatmap must
  // forget the FID too, or the next observe() absorbs its cumulative
  // counts as new traffic.
  void forget(i32 fid);

  [[nodiscard]] u64 score(i32 fid) const;  // sum across stages
  [[nodiscard]] u32 cold_streak(i32 fid) const;
  // Only FIDs with observed traffic are ever cold: a row is created by
  // activity, so a service that never sent a packet is not demoted on the
  // strength of an empty table.
  [[nodiscard]] bool is_cold(i32 fid) const;
  [[nodiscard]] bool tracked(i32 fid) const { return rows_.contains(fid); }
  // Aggregate per-stage pressure across every tracked FID: the
  // hotness-directed placement bias (a re-slide target prefers calmer
  // stages) and the fabric scoreboard's load signal.
  [[nodiscard]] std::vector<u64> stage_totals(u32 stages) const;
  // Sum of every tracked FID's score (whole-switch pressure).
  [[nodiscard]] u64 total_score() const;

  // Adds every tracked FID's score and cold streak to `metrics` as
  // hotness.score{fid=N} / hotness.cold_streak{fid=N} gauges.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

 private:
  struct Row {
    std::vector<u64> score;        // per-stage decayed read+write score
    std::vector<u64> last_reads;   // cumulative heatmap counts at the
    std::vector<u64> last_writes;  // previous observation (delta base)
    u64 total = 0;                 // sum of score[]
    u32 cold_streak = 0;
  };

  Row& row(i32 fid, u32 stages);

  std::map<i32, Row> rows_;
};

}  // namespace artmt::alloc
