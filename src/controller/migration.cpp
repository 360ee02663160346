#include "controller/migration.hpp"

#include <algorithm>
#include <cmath>

#include "alloc/hotness.hpp"
#include "common/error.hpp"
#include "controller/controller.hpp"

namespace artmt::controller {

RemapQueue::RemapQueue(u32 max_depth) : max_depth_(max_depth) {
  if (max_depth == 0) throw UsageError("RemapQueue: zero depth");
}

bool RemapQueue::push(const RemapRequest& request) {
  if (queued_.contains(request.fid)) {
    ++stats_.duplicates;
    return false;
  }
  if (queue_.size() >= max_depth_) {
    ++stats_.congestion_drops;
    return false;
  }
  queue_.push_back(request);
  queued_.insert(request.fid);
  ++stats_.enqueued;
  stats_.high_water =
      std::max(stats_.high_water, static_cast<u32>(queue_.size()));
  return true;
}

std::optional<RemapRequest> RemapQueue::pop() {
  if (queue_.empty()) return std::nullopt;
  RemapRequest request = queue_.front();
  queue_.pop_front();
  queued_.erase(request.fid);
  ++stats_.popped;
  return request;
}

void RemapQueue::drop_fid(Fid fid) {
  if (!queued_.erase(fid)) return;
  for (auto it = queue_.begin(); it != queue_.end(); ++it) {
    if (it->fid == fid) {
      queue_.erase(it);
      ++stats_.purged;
      return;
    }
  }
}

MigrationPlanner::MigrationPlanner(MigrationPolicy policy) : policy_(policy) {
  if (policy_.max_plans_per_cycle == 0) {
    throw UsageError("MigrationPlanner: zero plans per cycle");
  }
}

bool MigrationPlanner::cooled_down(Fid fid) const {
  const auto it = last_planned_.find(fid);
  return it == last_planned_.end() ||
         cycle_ - it->second >= policy_.cooldown_cycles;
}

u32 MigrationPlanner::plan(const Controller& controller,
                           const alloc::HotnessTable& hotness,
                           RemapQueue& queue) {
  ++cycle_;
  ++stats_.cycles;
  u32 planned = 0;
  const alloc::Allocator& alloc = controller.allocator();
  const auto& records = alloc.apps();

  auto submit = [&](const RemapRequest& request, u64& stat) {
    if (!queue.push(request)) return;
    last_planned_[request.fid] = cycle_;
    ++stat;
    ++planned;
  };

  // 1) Share flips, hotness-directed: promotions first (returning
  // capacity to a recovered service beats squeezing another cold one)
  // ordered hottest-recovery-first, then demotions coldest-first -- the
  // budget goes to the flips with the most headroom to win. Ties keep the
  // legacy ascending-FID scan order (stable sort over the FID-ordered
  // candidate list), so tied scores plan byte-identically to the
  // first-fit era.
  struct Flip {
    Fid fid = 0;
    u64 score = 0;
    bool promote = false;
  };
  std::vector<Flip> flips;
  for (const Fid fid : controller.resident_fids()) {
    const auto it = records.find(controller.app_of(fid));
    if (it == records.end() || !it->second.elastic) continue;
    const i32 hfid = static_cast<i32>(fid);
    if (it->second.demoted) {
      if (hotness.score(hfid) < MigrationPolicy::kPromoteScore) continue;
      flips.push_back({fid, hotness.score(hfid), true});
    } else if (hotness.is_cold(hfid)) {
      flips.push_back({fid, hotness.score(hfid), false});
    }
  }
  std::stable_sort(flips.begin(), flips.end(),
                   [](const Flip& a, const Flip& b) {
                     if (a.promote != b.promote) return a.promote;
                     return a.promote ? a.score > b.score : a.score < b.score;
                   });
  for (const Flip& flip : flips) {
    if (planned >= policy_.max_plans_per_cycle) break;
    if (!cooled_down(flip.fid)) {
      ++stats_.cooldown_skips;
      continue;
    }
    submit({flip.fid, flip.promote ? RemapKind::kPromote : RemapKind::kDemote,
            0, flip.score},
           flip.promote ? stats_.promotions_planned
                        : stats_.demotions_planned);
  }

  // 2) Compaction by fragmentation: in every fragmented stage, re-slide
  // the topmost inelastic region (highest begin). First-fit hole reuse
  // slides it into the lowest hole that fits -- or a better-scored stage
  // entirely -- merging free runs so the frontier can recede and the
  // elastic pool grow.
  const u32 stages = alloc.geometry().logical_stages;
  for (u32 s = 0; s < stages; ++s) {
    if (planned >= policy_.max_plans_per_cycle) break;
    const alloc::StageState& st = alloc.stage(s);
    const u32 free = st.free_blocks();
    if (free < policy_.min_frag_blocks) continue;
    if (static_cast<double>(st.largest_free_run()) >=
        policy_.frag_threshold * static_cast<double>(free)) {
      continue;
    }
    alloc::AppId candidate = 0;
    u32 top_begin = 0;
    for (const auto& [app, region] : st.regions()) {
      const auto rit = records.find(app);
      if (rit == records.end() || rit->second.elastic) continue;
      if (candidate == 0 || region.begin > top_begin) {
        candidate = app;
        top_begin = region.begin;
      }
    }
    if (candidate == 0) continue;
    const Fid fid = controller.fid_of(candidate);
    if (!cooled_down(fid)) {
      ++stats_.cooldown_skips;
      continue;
    }
    submit({fid, RemapKind::kReslide, s, hotness.score(static_cast<i32>(fid))},
           stats_.reslides_planned);
  }
  return planned;
}

DisruptionReport analyze_disruption(const std::vector<double>& series,
                                    const std::vector<std::size_t>& events,
                                    double tolerance) {
  DisruptionReport report;
  std::vector<double> dips;
  std::vector<u64> recoveries;
  for (const std::size_t w : events) {
    if (w >= series.size() || w == 0) continue;  // no pre-event baseline
    double baseline = 0.0;
    u32 count = 0;
    for (std::size_t j = w; j > 0 && count < 3; --j) {
      baseline += series[j - 1];
      ++count;
    }
    baseline /= count;
    ++report.events;

    double dip = 0.0;
    u64 recovery = series.size() - w;  // censored at the series end
    for (std::size_t j = w; j < series.size(); ++j) {
      if (series[j] >= baseline - tolerance) {
        recovery = j - w;
        break;
      }
      dip = std::max(dip, baseline - series[j]);
    }
    dips.push_back(dip);
    recoveries.push_back(recovery);
  }
  if (report.events == 0) return report;

  std::sort(dips.begin(), dips.end());
  std::sort(recoveries.begin(), recoveries.end());
  const auto rank = [](std::size_t n) {
    // Nearest-rank p99 (1-based rank ceil(0.99 n), clamped).
    const auto r = static_cast<std::size_t>(
        std::ceil(0.99 * static_cast<double>(n)));
    return std::min(n - 1, r == 0 ? 0 : r - 1);
  };
  report.max_dip = dips.back();
  report.p99_dip = dips[rank(dips.size())];
  report.max_recovery_windows = recoveries.back();
  report.p99_recovery_windows = recoveries[rank(recoveries.size())];
  return report;
}

}  // namespace artmt::controller
