#include "telemetry/heatmap.hpp"

#include <string>

namespace artmt::telemetry {

std::vector<StageHeatmap::Cell>* StageHeatmap::row_slow(i32 fid) {
  auto it = rows_.find(fid);
  if (it == rows_.end()) {
    it = rows_.emplace(fid, std::vector<Cell>(stages_)).first;
  }
  memo_fid_ = fid;
  memo_row_ = &it->second;
  return memo_row_;
}

std::vector<i32> StageHeatmap::fids() const {
  std::vector<i32> out;
  out.reserve(rows_.size());
  for (const auto& [fid, row] : rows_) out.push_back(fid);
  return out;
}

const StageHeatmap::Cell* StageHeatmap::find(u32 stage, i32 fid) const {
  const auto it = rows_.find(fid);
  if (it == rows_.end() || stage >= stages_) return nullptr;
  return &it->second[stage];
}

void StageHeatmap::forget(i32 fid) {
  rows_.erase(fid);
  memo_fid_ = std::numeric_limits<i32>::min();
  memo_row_ = nullptr;
}

void StageHeatmap::clear() {
  rows_.clear();
  memo_fid_ = std::numeric_limits<i32>::min();
  memo_row_ = nullptr;
}

void StageHeatmap::export_metrics(MetricsRegistry& out) const {
  for (const auto& [fid, row] : rows_) {
    for (u32 s = 0; s < row.size(); ++s) {
      const Cell& cell = row[s];
      const std::string stage = "s" + std::to_string(s);
      if (cell.reads != 0) {
        out.counter("heatmap", stage + "_reads", fid).merge_add(cell.reads);
      }
      if (cell.writes != 0) {
        out.counter("heatmap", stage + "_writes", fid).merge_add(cell.writes);
      }
      if (cell.collisions != 0) {
        out.counter("heatmap", stage + "_collisions", fid)
            .merge_add(cell.collisions);
      }
    }
  }
}

}  // namespace artmt::telemetry
