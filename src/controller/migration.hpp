// Background migration & defragmentation. The planner
// turns the runtime's heatmap-fed hotness scores plus the allocator's
// fragmentation accounting into asynchronous remap requests; the queue
// decouples planning from execution with bounded depth (congestion
// tracking) and per-FID dedup; the engine (SwitchNode) drains at most one
// live migration at a time through the existing extraction handshake.
//
// Three remap kinds, mirroring the MIND-style split of policy from
// mechanism:
//   kDemote  -- a cold elastic app's share cap drops to its minimum, so
//               progressive filling hands the freed blocks to hot members.
//   kPromote -- a demoted app whose traffic recovered gets its cap back.
//   kReslide -- a fragmented stage's topmost inelastic region is re-run
//               through the admission search (mutant re-slide); first-fit
//               hole reuse slides it down and merges free runs, letting
//               the frontier recede and the elastic pool grow.
#pragma once

#include <cstddef>
#include <deque>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "common/types.hpp"

namespace artmt::alloc {
class HotnessTable;
}  // namespace artmt::alloc

namespace artmt::controller {

class Controller;

enum class RemapKind : u8 { kDemote, kPromote, kReslide };

struct RemapRequest {
  Fid fid = 0;
  RemapKind kind = RemapKind::kReslide;
  u32 stage = 0;  // the fragmented stage that motivated a re-slide
  u64 score = 0;  // hotness at planning time (diagnostics)
};

struct RemapQueueStats {
  u64 enqueued = 0;
  u64 popped = 0;
  u64 congestion_drops = 0;  // queue at max depth
  u64 duplicates = 0;        // FID already queued
  u64 purged = 0;            // FID departed while queued
  u32 high_water = 0;
};

// Bounded FIFO of remap requests with per-FID dedup. Congestion (a full
// queue) drops the request and counts it -- planning re-proposes next
// cycle, so drops cost freshness, never correctness.
class RemapQueue {
 public:
  explicit RemapQueue(u32 max_depth = 64);

  bool push(const RemapRequest& request);  // false = dropped (full or dup)
  std::optional<RemapRequest> pop();
  // The FID departed; purge any queued request for it.
  void drop_fid(Fid fid);

  [[nodiscard]] bool contains(Fid fid) const { return queued_.contains(fid); }
  // Queued requests in FIFO order (admission control peeks for re-slides
  // that are about to free contiguous blocks).
  [[nodiscard]] const std::deque<RemapRequest>& pending() const {
    return queue_;
  }
  [[nodiscard]] std::size_t size() const { return queue_.size(); }
  [[nodiscard]] bool empty() const { return queue_.empty(); }
  [[nodiscard]] u32 max_depth() const { return max_depth_; }
  [[nodiscard]] const RemapQueueStats& stats() const { return stats_; }

 private:
  u32 max_depth_;
  std::deque<RemapRequest> queue_;
  std::set<Fid> queued_;
  RemapQueueStats stats_;
};

// Planner knobs; defaults favor stability over aggressiveness.
struct MigrationPolicy {
  // A demoted FID is promoted once its decayed score recovers to this.
  static constexpr u64 kPromoteScore = 64;

  // A stage is fragmented when its largest free run covers less than this
  // fraction of its free blocks (and at least min_frag_blocks are free).
  double frag_threshold = 0.5;
  u32 min_frag_blocks = 4;
  // At most this many remap requests enqueued per planning cycle.
  u32 max_plans_per_cycle = 4;
  // A FID is not re-planned for this many cycles after being planned
  // (anti-thrash hysteresis on top of the hotness cold streak).
  u32 cooldown_cycles = 4;
};

struct PlannerStats {
  u64 cycles = 0;
  u64 demotions_planned = 0;
  u64 promotions_planned = 0;
  u64 reslides_planned = 0;
  u64 cooldown_skips = 0;
};

class MigrationPlanner {
 public:
  explicit MigrationPlanner(MigrationPolicy policy = {});

  // One planning cycle: coldness-driven promotions/demotions first (cheap
  // share flips, ordered by hotness: hottest recoveries promote first,
  // coldest services demote first), then fragmentation-driven re-slides,
  // at most policy.max_plans_per_cycle requests pushed into `queue`.
  // Returns the number enqueued. Deterministic: candidates collect by
  // ascending FID and tied scores keep that order, stages ascend.
  u32 plan(const Controller& controller, const alloc::HotnessTable& hotness,
           RemapQueue& queue);

  [[nodiscard]] const MigrationPolicy& policy() const { return policy_; }
  [[nodiscard]] const PlannerStats& stats() const { return stats_; }

 private:
  [[nodiscard]] bool cooled_down(Fid fid) const;

  MigrationPolicy policy_;
  u64 cycle_ = 0;
  std::map<Fid, u64> last_planned_;
  PlannerStats stats_;
};

// --- per-service disruption analysis (first-class migration metric) ----
//
// `series` is a service's hit rate per fixed-size query window; `events`
// are window indices where a migration applied to it. For each event the
// baseline is the mean of up to the three preceding windows; the dip is
// the deepest drop below baseline before recovery, and recovery is the
// first window at or above baseline - tolerance (censored at the series
// end). p99 uses the nearest-rank method over events.
struct DisruptionReport {
  u64 events = 0;
  double max_dip = 0.0;  // fractional hit-rate drop (0 = no dip)
  double p99_dip = 0.0;
  u64 max_recovery_windows = 0;
  u64 p99_recovery_windows = 0;
};

DisruptionReport analyze_disruption(const std::vector<double>& series,
                                    const std::vector<std::size_t>& events,
                                    double tolerance = 0.05);

}  // namespace artmt::controller
