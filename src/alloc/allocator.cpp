#include "alloc/allocator.hpp"

#include <algorithm>
#include <limits>
#include <set>
#include <string>
#include <utility>

#include "common/error.hpp"
#include "common/stopwatch.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::alloc {

namespace {

u64 region_blocks(const std::map<u32, Interval>& regions) {
  u64 blocks = 0;
  for (const auto& [stage, region] : regions) blocks += region.size();
  return blocks;
}

}  // namespace

const char* scheme_name(Scheme scheme) {
  switch (scheme) {
    case Scheme::kWorstFit:
      return "worst-fit";
    case Scheme::kBestFit:
      return "best-fit";
    case Scheme::kFirstFit:
      return "first-fit";
    case Scheme::kRealloc:
      return "realloc";
  }
  return "unknown";
}

Allocator::Allocator(const StageGeometry& geometry, u32 blocks_per_stage,
                     Scheme scheme, MutantPolicy policy)
    : geometry_(geometry),
      blocks_per_stage_(blocks_per_stage),
      scheme_(scheme),
      policy_(policy) {
  if (blocks_per_stage == 0) throw UsageError("Allocator: zero blocks");
  stages_.reserve(geometry_.logical_stages);
  for (u32 i = 0; i < geometry_.logical_stages; ++i) {
    stages_.emplace_back(blocks_per_stage);
  }
  scratch_demand_.assign(geometry_.logical_stages, 0);
  scratch_stamp_.assign(geometry_.logical_stages, 0);
  scratch_stages_.reserve(geometry_.logical_stages);
}

void Allocator::set_metrics(telemetry::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_allocations_ = nullptr;
    m_failures_ = nullptr;
    m_deallocations_ = nullptr;
    m_dealloc_unknown_ = nullptr;
    m_search_pruned_ = nullptr;
    m_app_moves_ = nullptr;
    m_demotions_ = nullptr;
    m_promotions_ = nullptr;
    m_blocks_allocated_ = nullptr;
    m_blocks_freed_ = nullptr;
    m_resident_ = nullptr;
    m_search_us_ = nullptr;
    m_assign_us_ = nullptr;
    return;
  }
  m_allocations_ = &metrics->counter("alloc", "allocations");
  m_failures_ = &metrics->counter("alloc", "failures");
  m_deallocations_ = &metrics->counter("alloc", "deallocations");
  m_dealloc_unknown_ = &metrics->counter("alloc", "dealloc_unknown");
  m_search_pruned_ = &metrics->counter("alloc", "search_pruned");
  m_app_moves_ = &metrics->counter("alloc", "app_moves");
  m_demotions_ = &metrics->counter("alloc", "demotions");
  m_promotions_ = &metrics->counter("alloc", "promotions");
  m_blocks_allocated_ = &metrics->counter("alloc", "blocks_allocated");
  m_blocks_freed_ = &metrics->counter("alloc", "blocks_freed");
  m_resident_ = &metrics->gauge("alloc", "resident_apps");
  m_search_us_ = &metrics->histogram("alloc", "search_us");
  m_assign_us_ = &metrics->histogram("alloc", "assign_us");
}

std::map<u32, u32> Allocator::stage_demands(const AllocationRequest& request,
                                            const Mutant& mutant) const {
  std::map<u32, u32> demands;
  for (std::size_t i = 0; i < mutant.size(); ++i) {
    const u32 stage = mutant[i] % geometry_.logical_stages;
    const u32 demand = request.accesses[i].demand_blocks;
    auto [it, inserted] = demands.emplace(stage, demand);
    if (!inserted) it->second = std::max(it->second, demand);
  }
  return demands;
}

double Allocator::score_term(const AllocationRequest& request, u32 stage,
                             u32 demand) const {
  const StageState& state = stages_[stage];
  switch (scheme_) {
    case Scheme::kWorstFit:
      // Prefer the most fungible memory: lower score = more fungible.
      return -static_cast<double>(state.fungible_blocks());
    case Scheme::kBestFit:
      return static_cast<double>(state.fungible_blocks());
    case Scheme::kRealloc:
      // Count resident apps this placement would disturb: every elastic
      // member of a stage the new app shares (their shares rebalance),
      // plus elastic members pushed by a frontier extension.
      if (request.elastic || state.inelastic_needs_frontier(demand)) {
        return static_cast<double>(state.elastic_member_count());
      }
      return 0.0;
    case Scheme::kFirstFit:
      return 0.0;  // never scored
  }
  return 0.0;
}

bool Allocator::evaluate_indexed(const AllocationRequest& request,
                                 const Mutant& candidate, double& score_out) {
  // Collapse per-stage demands without allocating: stamped scratch entries
  // expire by epoch, and scratch_stages_ lists the stages this candidate
  // touches (first-encounter order).
  ++scratch_epoch_;
  scratch_stages_.clear();
  for (std::size_t i = 0; i < candidate.size(); ++i) {
    const u32 stage = candidate[i] % geometry_.logical_stages;
    const u32 demand = request.accesses[i].demand_blocks;
    if (scratch_stamp_[stage] != scratch_epoch_) {
      scratch_stamp_[stage] = scratch_epoch_;
      scratch_demand_[stage] = demand;
      scratch_stages_.push_back(stage);
    } else if (demand > scratch_demand_[stage]) {
      scratch_demand_[stage] = demand;
    }
  }
  for (const u32 stage : scratch_stages_) {
    const StageState& state = stages_[stage];
    const u32 demand = scratch_demand_[stage];
    if (request.elastic ? !state.elastic_fits(demand)
                        : !state.inelastic_fits(demand)) {
      return false;
    }
  }
  // Exact small-integer addends: the total is the same in any
  // accumulation order, so first-encounter order is as good as sorted.
  double total = 0.0;
  for (const u32 stage : scratch_stages_) {
    total += score_term(request, stage, scratch_demand_[stage]);
  }
  score_out = total;
  return true;
}

std::vector<AppId> Allocator::collect_changed(const std::map<u32, u32>& touched,
                                              AppId exclude) const {
  std::vector<AppId> changed;
  for (const auto& [stage, demand] : touched) {
    for (const AppId id : stages_[stage].last_changed()) {
      if (id != exclude) changed.push_back(id);
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  return changed;
}

void Allocator::set_stage_bias(std::vector<u64> bias) {
  if (!bias.empty() && bias.size() != geometry_.logical_stages) {
    throw UsageError("Allocator::set_stage_bias: bias size mismatch");
  }
  stage_bias_ = std::move(bias);
}

bool Allocator::search_placement(const AllocationRequest& request, Mutant& best,
                                 u64& considered) {
  bool found = false;
  double best_score = std::numeric_limits<double>::infinity();
  // Integer bias totals (not doubles): the sum does not depend on the
  // order stages are visited, so equal-score ties break the same way
  // however a candidate's stages are enumerated.
  u64 best_bias = std::numeric_limits<u64>::max();
  considered = 0;

  // Global feasibility prune: if the bottleneck access cannot be placed on
  // *any* stage, no mutant is feasible -- reject without enumerating, and
  // report mutants_considered == 0.
  u32 max_demand = 0;
  for (const auto& access : request.accesses) {
    max_demand = std::max(max_demand, access.demand_blocks);
  }
  const auto admits = [&](const StageState& stage) {
    return (request.elastic ? stage.elastic_headroom()
                            : stage.max_inelastic_fit()) >= max_demand;
  };
  if (max_demand > 0 && std::none_of(stages_.begin(), stages_.end(), admits)) {
    if (m_search_pruned_ != nullptr) m_search_pruned_->inc();
    return false;
  }

  // Least-constrained policies (extra_passes > 0) multiply the
  // enumeration space per access; precompute the per-(access, stage)
  // feasibility oracle once and prune subtrees instead of rejecting
  // leaf-by-leaf. The default most-constrained policy skips the filter:
  // its visit counts drive the modeled search time of
  // ComputeModel::deterministic() and the golden mutants_considered, and
  // filtering would lower both.
  StageFilter filter;
  if (policy_.extra_passes > 0) {
    const u32 n = geometry_.logical_stages;
    const std::size_t m = request.accesses.size();
    scratch_feasible_.assign(m * n, 0);
    for (std::size_t i = 0; i < m; ++i) {
      const u32 demand = request.accesses[i].demand_blocks;
      for (u32 s = 0; s < n; ++s) {
        const StageState& state = stages_[s];
        const bool fits = demand == 0 ||
                          (request.elastic ? state.elastic_fits(demand)
                                           : state.inelastic_fits(demand));
        scratch_feasible_[i * n + s] = fits ? 1 : 0;
      }
    }
    filter = [this, n](u32 index, u32 stage) {
      return scratch_feasible_[index * n + stage] != 0;
    };
  }

  considered = for_each_mutant(
      request, geometry_, policy_, filter, [&](const Mutant& candidate) {
        double s = 0.0;
        if (!evaluate_indexed(request, candidate, s)) return true;
        u64 bias = 0;
        if (!stage_bias_.empty()) {
          for (const u32 stage : scratch_stages_) bias += stage_bias_[stage];
        }
        if (scheme_ == Scheme::kFirstFit) {
          best = candidate;
          found = true;
          return false;  // stop at the first feasible mutant
        }
        if (!found || s < best_score ||
            (s == best_score && bias < best_bias)) {
          best = candidate;
          best_score = s;
          best_bias = bias;
          found = true;
        }
        return true;
      });
  return found;
}

AllocationOutcome Allocator::allocate(const AllocationRequest& request) {
  AllocationOutcome outcome;
  Stopwatch watch;

  // --- Phase 1: systematic search over the mutant space. ---
  Mutant best;
  const bool found =
      search_placement(request, best, outcome.mutants_considered);
  outcome.search_ms =
      compute_model_.modeled
          ? static_cast<double>(outcome.mutants_considered) *
                ComputeModel::kSearchUsPerMutant / 1000.0
          : watch.elapsed_ms();
  if (m_search_us_ != nullptr) {
    m_search_us_->record(static_cast<u64>(outcome.search_ms * 1000.0));
  }
  if (!found) {
    if (m_failures_ != nullptr) m_failures_->inc();
    return outcome;
  }

  // --- Phase 2: final assignment for the new app and every resident app
  // whose share shifts (this dominates allocation time; Section 6.1). ---
  watch.reset();
  const AppId id = next_id_++;
  const auto demands = stage_demands(request, best);
  for (const auto& [stage, demand] : demands) {
    if (request.elastic) {
      stages_[stage].add_elastic(id, demand, request.elastic_cap_blocks);
    } else {
      stages_[stage].add_inelastic(id, demand);
    }
  }

  AppRecord record;
  record.id = id;
  record.elastic = request.elastic;
  record.chosen = best;
  record.stage_demand = demands;
  record.request = request;
  apps_[id] = record;

  outcome.success = true;
  outcome.app = id;
  outcome.chosen = best;
  outcome.regions = regions_of(id);
  outcome.reallocated = collect_changed(demands, id);
  const u64 blocks = region_blocks(outcome.regions);
  if (compute_model_.modeled) {
    u64 moved = blocks;
    for (const AppId other : outcome.reallocated) {
      moved += region_blocks(regions_of(other));
    }
    outcome.assign_ms =
        static_cast<double>(moved) * ComputeModel::kAssignUsPerBlock / 1000.0;
  } else {
    outcome.assign_ms = watch.elapsed_ms();
  }
  if (m_allocations_ != nullptr) {
    m_allocations_->inc();
    m_blocks_allocated_->inc(blocks);
    m_resident_->set(static_cast<i64>(apps_.size()));
    m_assign_us_->record(static_cast<u64>(outcome.assign_ms * 1000.0));
  }
  return outcome;
}

std::vector<AppId> Allocator::deallocate(AppId id) {
  const auto it = apps_.find(id);
  if (it == apps_.end()) {
    // Graceful no-op: release retries and departure races are routine
    // under churn; the caller learns nothing was disturbed.
    if (m_dealloc_unknown_ != nullptr) m_dealloc_unknown_->inc();
    return {};
  }
  const u64 blocks = region_blocks(regions_of(id));
  for (const auto& [stage, demand] : it->second.stage_demand) {
    if (it->second.elastic) {
      stages_[stage].remove_elastic(id);
    } else {
      stages_[stage].remove_inelastic(id);
    }
  }
  const auto changed = collect_changed(it->second.stage_demand, id);
  apps_.erase(it);
  if (m_deallocations_ != nullptr) {
    m_deallocations_->inc();
    m_blocks_freed_->inc(blocks);
    m_resident_->set(static_cast<i64>(apps_.size()));
  }
  return changed;
}

std::vector<AppId> Allocator::demote_elastic(AppId id) {
  const auto it = apps_.find(id);
  if (it == apps_.end() || !it->second.elastic || it->second.demoted) return {};
  for (const auto& [stage, demand] : it->second.stage_demand) {
    stages_[stage].set_elastic_cap(id, demand);  // cap = minimum share
  }
  it->second.demoted = true;
  // Exclude nothing (AppId 0 is never issued): a demotion that shrinks the
  // target's own share disturbs the target too, and the control plane must
  // resync its entries like any other moved app.
  auto changed = collect_changed(it->second.stage_demand, 0);
  if (m_demotions_ != nullptr) m_demotions_->inc();
  return changed;
}

std::vector<AppId> Allocator::promote_elastic(AppId id) {
  const auto it = apps_.find(id);
  if (it == apps_.end() || !it->second.elastic || !it->second.demoted) {
    return {};
  }
  for (const auto& [stage, demand] : it->second.stage_demand) {
    stages_[stage].set_elastic_cap(id, it->second.request.elastic_cap_blocks);
  }
  it->second.demoted = false;
  auto changed = collect_changed(it->second.stage_demand, 0);
  if (m_promotions_ != nullptr) m_promotions_->inc();
  return changed;
}

bool Allocator::demoted(AppId id) const {
  const auto it = apps_.find(id);
  return it != apps_.end() && it->second.demoted;
}

MoveOutcome Allocator::reallocate_app(AppId id) {
  MoveOutcome out;
  const auto it = apps_.find(id);
  if (it == apps_.end()) return out;
  AppRecord& record = it->second;
  Stopwatch watch;

  out.success = true;
  out.app = id;
  out.old_regions = regions_of(id);

  // Baseline regions of every resident in a stage this op may touch,
  // captured before that stage first mutates. Comparing final regions
  // against the baseline yields the NET disturbance: apps shuffled by the
  // vacate but restored by the re-add (the no-move case) are not
  // reported, so the control plane never quiesces a service whose layout
  // did not actually change.
  std::map<std::pair<u32, AppId>, Interval> baseline;
  std::set<u32> touched;
  auto capture = [&](u32 stage) {
    if (!touched.insert(stage).second) return;
    for (const auto& [app, region] : stages_[stage].regions()) {
      baseline.try_emplace({stage, app}, region);
    }
  };
  for (const auto& [stage, demand] : record.stage_demand) capture(stage);

  // 1) Vacate the app (its record survives; only stage residency clears).
  for (const auto& [stage, demand] : record.stage_demand) {
    if (record.elastic) {
      stages_[stage].remove_elastic(id);
    } else {
      stages_[stage].remove_inelastic(id);
    }
  }

  // 2) Re-run the admission search; the vacated placement keeps it
  // feasible, so the fallback to the old mutant is pure paranoia.
  Mutant best;
  if (!search_placement(record.request, best, out.mutants_considered)) {
    best = record.chosen;
  }
  out.search_ms = compute_model_.modeled
                      ? static_cast<double>(out.mutants_considered) *
                            ComputeModel::kSearchUsPerMutant / 1000.0
                      : watch.elapsed_ms();
  if (m_search_us_ != nullptr) {
    m_search_us_->record(static_cast<u64>(out.search_ms * 1000.0));
  }
  watch.reset();

  // 3) Re-admit under the same id (controller FID mappings survive).
  const auto demands = stage_demands(record.request, best);
  for (const auto& [stage, demand] : demands) capture(stage);
  for (const auto& [stage, demand] : demands) {
    if (record.elastic) {
      const u32 cap =
          record.demoted ? demand : record.request.elastic_cap_blocks;
      stages_[stage].add_elastic(id, demand, cap);
    } else {
      stages_[stage].add_inelastic(id, demand);
    }
  }
  record.chosen = best;
  record.stage_demand = demands;

  out.chosen = best;
  out.new_regions = regions_of(id);
  out.moved = out.new_regions != out.old_regions;

  std::vector<AppId> changed;
  for (const u32 stage : touched) {
    for (const auto& [app, region] : stages_[stage].regions()) {
      if (app == id) continue;
      const auto b = baseline.find({stage, app});
      if (b == baseline.end() || b->second != region) changed.push_back(app);
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());
  out.reallocated = std::move(changed);

  if (compute_model_.modeled) {
    u64 moved = region_blocks(out.new_regions);
    for (const AppId other : out.reallocated) {
      moved += region_blocks(regions_of(other));
    }
    out.assign_ms = static_cast<double>(moved) *
                    ComputeModel::kAssignUsPerBlock / 1000.0;
  } else {
    out.assign_ms = watch.elapsed_ms();
  }
  if (out.moved && m_app_moves_ != nullptr) m_app_moves_->inc();
  if (m_assign_us_ != nullptr) {
    m_assign_us_->record(static_cast<u64>(out.assign_ms * 1000.0));
  }
  return out;
}

double Allocator::utilization() const {
  u64 allocated = 0;
  for (const auto& stage : stages_) allocated += stage.allocated_blocks();
  return static_cast<double>(allocated) /
         (static_cast<double>(blocks_per_stage_) * stages_.size());
}

void Allocator::export_metrics(telemetry::MetricsRegistry& metrics) const {
  for (u32 s = 0; s < stages_.size(); ++s) {
    const StageState& stage = stages_[s];
    const std::string prefix = "s" + std::to_string(s);
    const auto add = [&](const char* name, u32 value) {
      metrics.gauge("alloc", prefix + name).merge_add(value);
    };
    add("_free", stage.free_blocks());
    add("_fungible", stage.fungible_blocks());
    add("_largest_free_run", stage.largest_free_run());
    add("_elastic", stage.elastic_member_count());
    add("_inelastic", stage.inelastic_member_count());
  }
}

std::map<u32, Interval> Allocator::regions_of(AppId id) const {
  std::map<u32, Interval> out;
  for (u32 s = 0; s < stages_.size(); ++s) {
    const auto& regions = stages_[s].regions();
    if (const auto it = regions.find(id); it != regions.end()) {
      out[s] = it->second;
    }
  }
  return out;
}

std::vector<double> Allocator::elastic_totals() const {
  std::vector<double> totals;
  for (const auto& [id, record] : apps_) {
    if (!record.elastic) continue;
    u64 blocks = 0;
    for (const auto& [stage, region] : regions_of(id)) blocks += region.size();
    totals.push_back(static_cast<double>(blocks));
  }
  return totals;
}

const StageState& Allocator::stage(u32 index) const {
  if (index >= stages_.size()) throw UsageError("Allocator: bad stage index");
  return stages_[index];
}

}  // namespace artmt::alloc
