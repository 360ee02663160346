// The online memory allocator (Section 4.2): admits one application at a
// time, searching the application's mutant space for the placement that a
// configured scheme scores best (worst-fit over fungible memory by
// default), then computes final assignments for every (re)allocated
// instance. Existing applications are never moved across stages.
//
// The search is incremental: per-stage feasibility and scores are O(1)
// reads of the StageState accounting, per-mutant demands collapse into
// epoch-stamped scratch arrays (no allocation per candidate), hopeless
// requests -- a bottleneck demand no single stage can admit -- are
// rejected before enumerating a single mutant, and disturbed apps are
// collected from per-stage rebalance change lists. tests/test_alloc_golden
// checks every decision against a brute-force oracle built on the public
// StageState queries.
#pragma once

#include <map>
#include <unordered_map>
#include <vector>

#include "alloc/mutant.hpp"
#include "alloc/request.hpp"
#include "alloc/stage_state.hpp"
#include "common/types.hpp"

namespace artmt::telemetry {
class Counter;
class Gauge;
class Histogram;
class MetricsRegistry;
}  // namespace artmt::telemetry

namespace artmt::alloc {

// Allocation schemes compared in Section 6.4 / Figure 11.
enum class Scheme {
  kWorstFit,  // stages with the most fungible memory (default)
  kBestFit,   // stages with the least fungible memory that still fit
  kFirstFit,  // first feasible mutant in enumeration order
  kRealloc,   // minimize the number of disturbed resident applications
};

const char* scheme_name(Scheme scheme);

// How AllocationOutcome::search_ms / assign_ms are produced. The
// Allocator's default measures real host time (the paper's Figs. 5/12
// methodology). Downstream, a switch schedules provisioning after
// compute_ms of virtual time, which would make its timeline host-load
// dependent -- so SwitchNode::Config defaults to the modeled form, where
// both durations derive from deterministic work counts instead, and only
// reproductions that compose measured compute (Fig. 8a) opt into
// wall_clock().
struct ComputeModel {
  static constexpr double kSearchUsPerMutant = 0.2;  // feasibility check
  static constexpr double kAssignUsPerBlock = 0.5;   // per block moved

  bool modeled = false;

  static ComputeModel wall_clock() { return {}; }
  static ComputeModel deterministic() {
    ComputeModel m;
    m.modeled = true;
    return m;
  }
};

struct AppRecord {
  AppId id = 0;
  bool elastic = false;
  bool demoted = false;               // squeezed to minimum shares (cap=min)
  Mutant chosen;                      // global logical stage per access
  std::map<u32, u32> stage_demand;    // physical-logical stage -> blocks
  AllocationRequest request;
};

struct AllocationOutcome {
  bool success = false;
  AppId app = 0;
  Mutant chosen;
  std::map<u32, Interval> regions;  // the new app's block regions per stage
  std::vector<AppId> reallocated;   // resident apps whose regions changed
  u64 mutants_considered = 0;
  double search_ms = 0.0;  // feasibility search (fast; dominates failures)
  double assign_ms = 0.0;  // final assignment for all (re)allocated apps
};

// Result of the migration engine's re-slide primitive (reallocate_app).
struct MoveOutcome {
  bool success = false;  // false only for a non-resident id
  bool moved = false;    // any of the app's regions actually changed
  AppId app = 0;
  Mutant chosen;  // placement after the re-slide (== before when !moved)
  std::map<u32, Interval> old_regions;
  std::map<u32, Interval> new_regions;
  // Other residents whose regions NET-changed (apps shuffled during the
  // remove/re-add but restored to their original regions do not appear).
  std::vector<AppId> reallocated;
  u64 mutants_considered = 0;
  double search_ms = 0.0;
  double assign_ms = 0.0;
};

class Allocator {
 public:
  Allocator(const StageGeometry& geometry, u32 blocks_per_stage,
            Scheme scheme = Scheme::kWorstFit,
            MutantPolicy policy = MutantPolicy::most_constrained());

  // Admits an application (or fails, leaving state untouched).
  AllocationOutcome allocate(const AllocationRequest& request);

  // Releases an application; returns the apps rebalanced as a result.
  // A non-resident id is a graceful no-op (empty result, counted under
  // `alloc.dealloc_unknown`): release retries and departure races are
  // expected under churn and must not wedge the control plane.
  std::vector<AppId> deallocate(AppId id);

  // --- background migration primitives ---
  // Demotion: squeezes a resident elastic app to its minimum share in
  // every stage it occupies (cap := min) so the freed share flows to hot
  // members; promotion restores the request's cap. Both return every
  // resident whose regions changed, INCLUDING the target itself when its
  // share moved. Unknown, inelastic, or already-(un)demoted ids are
  // graceful no-ops (empty result).
  std::vector<AppId> demote_elastic(AppId id);
  std::vector<AppId> promote_elastic(AppId id);
  [[nodiscard]] bool demoted(AppId id) const;

  // Re-slide: re-runs the admission search for a resident app as if it
  // arrived now (same id, same request), freeing its regions first -- the
  // defragmentation engine's compaction primitive. The vacated placement
  // keeps the search feasible, so a resident id always succeeds; when the
  // best placement is unchanged the op reports !moved with no disturbance.
  MoveOutcome reallocate_app(AppId id);

  // --- queries (drive the evaluation figures) ---
  [[nodiscard]] double utilization() const;  // allocated / total blocks
  [[nodiscard]] u32 resident_count() const {
    return static_cast<u32>(apps_.size());
  }
  [[nodiscard]] const std::unordered_map<AppId, AppRecord>& apps() const {
    return apps_;
  }
  [[nodiscard]] bool resident(AppId id) const { return apps_.contains(id); }
  // The app's current block regions, stage -> interval.
  [[nodiscard]] std::map<u32, Interval> regions_of(AppId id) const;
  // Total blocks currently held by each elastic app (fairness input).
  [[nodiscard]] std::vector<double> elastic_totals() const;
  [[nodiscard]] const StageState& stage(u32 index) const;
  [[nodiscard]] const StageGeometry& geometry() const { return geometry_; }
  [[nodiscard]] u32 blocks_per_stage() const { return blocks_per_stage_; }
  [[nodiscard]] Scheme scheme() const { return scheme_; }
  [[nodiscard]] const MutantPolicy& policy() const { return policy_; }

  // Mirrors admissions/failures, block movement, the resident-app gauge,
  // and search/assign durations into `metrics` under component "alloc"
  // (nullptr detaches).
  void set_metrics(telemetry::MetricsRegistry* metrics);
  // Adds each stage's layout to `metrics` as gauges: alloc.s<N>_free,
  // _fungible, _largest_free_run, _elastic and _inelastic (member
  // counts); call once per snapshot.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

  // Selects wall-clock vs modeled compute timing for future allocate()
  // calls (see ComputeModel).
  void set_compute_model(const ComputeModel& model) { compute_model_ = model; }
  [[nodiscard]] const ComputeModel& compute_model() const {
    return compute_model_;
  }

  // Hotness-directed placement: a per-stage tie-break bias for the
  // placement search. When two candidate mutants score identically under
  // the scheme, the one whose touched stages carry the smaller bias total
  // wins; scheme scores always dominate. Empty (the default) keeps the
  // first-in-enumeration-order tie-break, and kFirstFit never compares
  // scores at all. Must be empty or logical_stages long.
  void set_stage_bias(std::vector<u64> bias);

 private:
  // Per-stage demand of a request under a mutant (accesses in the same
  // physical stage collapse to their maximum demand: one object per stage).
  [[nodiscard]] std::map<u32, u32> stage_demands(
      const AllocationRequest& request, const Mutant& mutant) const;

  // One scheme term for `stage` under `demand`; lower totals are better
  // (worst/best/realloc schemes). Integer-valued double addends, so a
  // mutant's total does not depend on the order its stages are summed.
  [[nodiscard]] double score_term(const AllocationRequest& request, u32 stage,
                                  u32 demand) const;

  // Search body: collapses the candidate's demands into the epoch-stamped
  // scratch arrays and evaluates feasibility + score with O(1) per-stage
  // reads. Returns false when infeasible.
  [[nodiscard]] bool evaluate_indexed(const AllocationRequest& request,
                                      const Mutant& candidate, double& score);

  // Phase-1 search shared by allocate() and reallocate_app(): global
  // hopeless-prune (counted in alloc.search_pruned; considered == 0),
  // then the mutant walk. With a least-constrained policy (extra_passes >
  // 0) the walk runs through the per-(access, stage) StageFilter so the
  // blown-up enumeration space is pruned by subtree instead of
  // leaf-by-leaf. The default most-constrained policy walks unfiltered:
  // its visit counts feed the modeled search time
  // (ComputeModel::deterministic()), so filtering there would shift
  // virtual admission latency.
  bool search_placement(const AllocationRequest& request, Mutant& best,
                        u64& considered);

  // Disturbance report: union of the touched stages' rebalance change
  // lists, sorted and deduplicated, excluding `exclude`.
  [[nodiscard]] std::vector<AppId> collect_changed(
      const std::map<u32, u32>& touched, AppId exclude) const;

  StageGeometry geometry_;
  u32 blocks_per_stage_;
  Scheme scheme_;
  MutantPolicy policy_;
  std::vector<StageState> stages_;
  ComputeModel compute_model_;
  std::vector<u64> stage_bias_;
  std::unordered_map<AppId, AppRecord> apps_;
  AppId next_id_ = 1;

  // Scratch for the per-mutant demand collapse (no allocation per
  // candidate: stamped entries expire by epoch, not by clearing).
  std::vector<u32> scratch_demand_;
  std::vector<u64> scratch_stamp_;
  std::vector<u32> scratch_stages_;
  u64 scratch_epoch_ = 0;
  // Scratch for the least-constrained pruned walk: feasibility of access i
  // on stage s, precomputed once per search (accesses * stages bytes).
  std::vector<u8> scratch_feasible_;

  telemetry::Counter* m_allocations_ = nullptr;
  telemetry::Counter* m_failures_ = nullptr;
  telemetry::Counter* m_deallocations_ = nullptr;
  telemetry::Counter* m_dealloc_unknown_ = nullptr;
  telemetry::Counter* m_search_pruned_ = nullptr;
  telemetry::Counter* m_app_moves_ = nullptr;
  telemetry::Counter* m_demotions_ = nullptr;
  telemetry::Counter* m_promotions_ = nullptr;
  telemetry::Counter* m_blocks_allocated_ = nullptr;
  telemetry::Counter* m_blocks_freed_ = nullptr;
  telemetry::Gauge* m_resident_ = nullptr;
  telemetry::Histogram* m_search_us_ = nullptr;
  telemetry::Histogram* m_assign_us_ = nullptr;
};

}  // namespace artmt::alloc
