// Per-(stage, FID) memory-access heatmaps for the runtime's dispatch hot
// path; the background migration engine folds them into decayed scores
// (alloc::HotnessTable).
//
// Recording is plain-u64: the owning runtime increments cells, gated
// behind telemetry::enabled() like every other hot-path recording site,
// and a one-slot FID memo makes the steady state (one flow per sweep) a
// pointer compare plus an increment.
#pragma once

#include <limits>
#include <map>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::telemetry {

class StageHeatmap {
 public:
  struct Cell {
    u64 reads = 0;
    u64 writes = 0;
    u64 collisions = 0;  // protection faults on memory ops (kNoAllocation /
                         // kProtectionViolation)
  };

  explicit StageHeatmap(u32 stages) : stages_(stages == 0 ? 1 : stages) {}

  void record_read(u32 stage, i32 fid) { ++cell(stage, fid).reads; }
  void record_write(u32 stage, i32 fid) { ++cell(stage, fid).writes; }
  // Fused read-modify-write accounting (one cell lookup for both counts).
  void record_read_write(u32 stage, i32 fid) {
    Cell& c = cell(stage, fid);
    ++c.reads;
    ++c.writes;
  }
  void record_collision(u32 stage, i32 fid) { ++cell(stage, fid).collisions; }

  [[nodiscard]] u32 stages() const { return stages_; }
  // The FIDs with recorded activity, ascending.
  [[nodiscard]] std::vector<i32> fids() const;
  // nullptr when the (stage, fid) cell has no recorded activity.
  [[nodiscard]] const Cell* find(u32 stage, i32 fid) const;

  // The FID departed: drop its row, so a recycled FID starts with no
  // history (and no stale memo points at the freed row).
  void forget(i32 fid);
  void clear();

  // Exports every cell as heatmap.* counters:
  //   heatmap.s<stage>_reads{fid=N} / _writes / _collisions
  void export_metrics(MetricsRegistry& out) const;

 private:
  Cell& cell(u32 stage, i32 fid) {
    std::vector<Cell>* row = fid == memo_fid_ ? memo_row_ : row_slow(fid);
    return (*row)[stage < stages_ ? stage : stages_ - 1];
  }
  std::vector<Cell>* row_slow(i32 fid);

  u32 stages_;
  std::map<i32, std::vector<Cell>> rows_;  // fid -> per-stage cells
  i32 memo_fid_ = std::numeric_limits<i32>::min();
  std::vector<Cell>* memo_row_ = nullptr;
};

}  // namespace artmt::telemetry
