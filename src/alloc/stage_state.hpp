// Per-stage block accounting (Section 4.1/4.2). Inelastic applications are
// pinned to the beginning of the stage's pool (low block indices) and hold
// fixed contiguous regions; elastic applications share the remaining pool
// [frontier, capacity) with max-min fair contiguous shares computed by
// literal progressive filling. Departing inelastic apps leave holes that
// only new inelastic apps reuse (the fragmentation the paper accepts);
// holes touching the frontier are returned to the elastic pool.
//
// All aggregate queries the allocator's admission search issues per
// candidate stage -- fungible blocks, fit checks, allocated totals -- are
// O(1) reads of incrementally maintained accounting (the hole set keeps a
// size index, and the elastic minima/share totals update on membership
// change), so scoring a mutant never rescans stage membership. Rebalances
// additionally record which members' regions moved (`last_changed`), which
// lets the allocator report disturbed apps without diffing a full
// snapshot of every resident application.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "common/interval.hpp"
#include "common/types.hpp"

namespace artmt::alloc {

using AppId = u32;

class StageState {
 public:
  explicit StageState(u32 capacity_blocks);

  // --- inelastic applications ---
  // Whether a `demand`-block inelastic region fits (a low hole, or room at
  // the frontier once elastic apps are squeezed to their minimum shares).
  [[nodiscard]] bool inelastic_fits(u32 demand) const;
  void add_inelastic(AppId id, u32 demand);
  void remove_inelastic(AppId id);

  // --- elastic applications ---
  // Whether one more elastic member with the given minimum share fits.
  [[nodiscard]] bool elastic_fits(u32 min_blocks) const;
  void add_elastic(AppId id, u32 min_blocks, u32 cap_blocks = 0);
  void remove_elastic(AppId id);
  // Overrides the member's share cap (0 = uncapped) and rebalances. The
  // migration engine's demotion path squeezes cold members to cap ==
  // min_blocks; promotion restores the request's cap. Throws on an
  // unknown member or a nonzero cap below the member's minimum.
  void set_elastic_cap(AppId id, u32 cap_blocks);

  // Recomputes elastic shares (progressive filling) and the elastic layout.
  // Must be called after any membership or frontier change; add/remove do
  // it automatically.
  void rebalance();

  // --- queries ---
  [[nodiscard]] const std::map<AppId, Interval>& regions() const {
    return regions_;
  }
  [[nodiscard]] u32 capacity() const { return capacity_; }
  // O(1): inelastic totals and elastic share totals update incrementally.
  [[nodiscard]] u32 allocated_blocks() const {
    return inelastic_total_ + elastic_share_total_;
  }
  [[nodiscard]] u32 free_blocks() const { return capacity_ - allocated_blocks(); }
  // Free blocks plus elastic memory beyond minimum shares -- the paper's
  // "fungible" metric driving worst/best-fit costs. O(1): algebraically
  // capacity - inelastic_total - elastic_min_total, independent of the
  // current share split.
  [[nodiscard]] u32 fungible_blocks() const {
    return capacity_ - inelastic_total_ - elastic_min_total_;
  }
  // Elastic pool room beyond the resident minima: one more elastic member
  // with min m fits iff m <= elastic_headroom(). O(1).
  [[nodiscard]] u32 elastic_headroom() const {
    return capacity_ - frontier_ - elastic_min_total_;
  }
  // Largest inelastic demand this stage could admit right now (biggest
  // hole, or frontier room once elastic members squeeze to minima). O(1).
  [[nodiscard]] u32 max_inelastic_fit() const;
  // Largest contiguous run of unallocated blocks (fragmentation metric:
  // largest free run / free_blocks). O(1).
  [[nodiscard]] u32 largest_free_run() const;
  [[nodiscard]] u32 elastic_member_count() const {
    return static_cast<u32>(elastic_.size());
  }
  [[nodiscard]] u32 inelastic_member_count() const {
    return static_cast<u32>(inelastic_.size());
  }
  // True when admitting an inelastic `demand` would move the frontier
  // (i.e. disturb elastic members) rather than fill an existing hole.
  [[nodiscard]] bool inelastic_needs_frontier(u32 demand) const;

  // Members whose regions changed in the most recent rebalance (sorted by
  // AppId, no duplicates). Newly added members count as changed; removed
  // members never appear. The allocator unions these across the stages an
  // operation touched to report disturbed apps incrementally.
  [[nodiscard]] const std::vector<AppId>& last_changed() const {
    return changed_;
  }

 private:
  struct ElasticMember {
    AppId id;
    u32 min_blocks;
    u32 cap_blocks;  // 0 = uncapped
  };

  u32 capacity_;
  u32 frontier_ = 0;  // elastic pool is [frontier_, capacity_)
  IntervalSet holes_;  // free blocks below the frontier
  std::map<AppId, Interval> inelastic_;
  std::vector<ElasticMember> elastic_;     // arrival order = layout order
  std::map<AppId, Interval> regions_;      // all apps (derived)

  // Incremental accounting (kept in lockstep by add/remove/rebalance).
  u32 inelastic_total_ = 0;      // sum of inelastic region sizes
  u32 elastic_min_total_ = 0;    // sum of elastic minima
  u32 elastic_share_total_ = 0;  // sum of current elastic shares
  u32 layout_end_ = 0;           // end of the last elastic region
  std::vector<AppId> changed_;   // members moved by the last rebalance
};

}  // namespace artmt::alloc
