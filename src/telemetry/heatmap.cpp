#include "telemetry/heatmap.hpp"

#include <ostream>
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

u64 StageHeatmap::total_accesses(i32 fid) const {
  const auto it = rows_.find(fid);
  if (it == rows_.end()) return 0;
  u64 total = 0;
  for (const Cell& cell : it->second) {
    total += cell.reads + cell.writes + cell.collisions;
  }
  return total;
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

void StageHeatmap::snapshot_json(std::ostream& out) const {
  // {"<fid>":{"<stage>":{"r":..,"w":..,"c":..},...},...} with ascending
  // keys and zero-activity cells elided -- deterministic bytes for a given
  // cell multiset, which is all the engine-equivalence tests compare.
  out << '{';
  bool first_fid = true;
  for (const auto& [fid, row] : rows_) {
    bool any = false;
    for (const Cell& cell : row) {
      if (cell != Cell{}) {
        any = true;
        break;
      }
    }
    if (!any) continue;
    if (!first_fid) out << ',';
    first_fid = false;
    out << '"' << fid << "\":{";
    bool first_stage = true;
    for (u32 s = 0; s < row.size(); ++s) {
      const Cell& cell = row[s];
      if (cell == Cell{}) continue;
      if (!first_stage) out << ',';
      first_stage = false;
      out << '"' << s << "\":{\"r\":" << cell.reads
          << ",\"w\":" << cell.writes << ",\"c\":" << cell.collisions << '}';
    }
    out << '}';
  }
  out << "}\n";
}

}  // namespace artmt::telemetry
