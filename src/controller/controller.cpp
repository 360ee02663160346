#include "controller/controller.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::controller {

// Pre-registered handles for what has no typed home: blocks_allocated is
// labeled per FID so occupancy per service is visible in snapshots (the
// paper's Fig. 9 quantity), plus the admission histograms. The totals
// live in ControllerStats and reach a registry through export_metrics.
struct ControllerMetrics {
  explicit ControllerMetrics(telemetry::MetricsRegistry& r)
      : blocks_allocated(r, "controller", "blocks_allocated"),
        compute_us(&r.histogram("controller", "admit_compute_us")),
        provisioning_ns(&r.histogram("controller", "provisioning_ns")) {}

  telemetry::CounterFamily blocks_allocated;
  telemetry::Histogram* compute_us;
  telemetry::Histogram* provisioning_ns;
};

Controller::Controller(rmt::Pipeline& pipeline,
                       runtime::ActiveRuntime& runtime, alloc::Scheme scheme,
                       alloc::MutantPolicy policy, CostModel costs)
    : pipeline_(&pipeline),
      runtime_(&runtime),
      alloc_(alloc::StageGeometry{pipeline.config().logical_stages,
                                  pipeline.config().ingress_stages},
             pipeline.config().blocks_per_stage(), scheme, policy),
      costs_(costs) {}

Controller::~Controller() = default;

void Controller::set_metrics(telemetry::MetricsRegistry* metrics) {
  alloc_.set_metrics(metrics);
  metrics_ = metrics == nullptr ? nullptr
                                : std::make_unique<ControllerMetrics>(*metrics);
}

void Controller::export_metrics(telemetry::MetricsRegistry& metrics) const {
  const auto add = [&metrics](const char* name, u64 value) {
    metrics.counter("controller", name).merge_add(value);
  };
  add("admissions", stats_.admissions);
  add("rejections", stats_.rejections);
  add("tcam_rejections", stats_.tcam_rejections);
  add("releases", stats_.releases);
  add("reallocations", stats_.reallocations);
  add("table_entry_updates", stats_.table_entry_updates);
  add("table_update_batches", stats_.table_update_batches);
  add("blocks_snapshotted", stats_.blocks_snapshotted);
  add("extraction_timeouts", stats_.extraction_timeouts);
  add("migrations", stats_.migrations);
  add("migration_noops", stats_.migration_noops);
  add("migration_demotions", stats_.migration_demotions);
  add("migration_promotions", stats_.migration_promotions);
  add("migration_reslides", stats_.migration_reslides);
  add("migration_tcam_skips", stats_.migration_tcam_skips);
  add("blocks_migrated", stats_.blocks_migrated);
  alloc_.export_metrics(metrics);
}

std::map<u32, Interval> Controller::regions_of(Fid fid) const {
  const auto it = fid_to_app_.find(fid);
  if (it == fid_to_app_.end()) throw UsageError("Controller: unknown FID");
  return alloc_.regions_of(it->second);
}

packet::AllocResponseHeader Controller::response_for(Fid fid) const {
  packet::AllocResponseHeader header;
  const u32 block_words = pipeline_->config().block_words;
  for (const auto& [stage, region] : regions_of(fid)) {
    if (stage >= packet::kResponseStages) continue;
    header.regions[stage].start_word = region.begin * block_words;
    header.regions[stage].limit_word = region.end * block_words;
  }
  return header;
}

std::vector<Fid> Controller::resident_fids() const {
  std::vector<Fid> fids;
  fids.reserve(fid_to_app_.size());
  for (const auto& [fid, app] : fid_to_app_) fids.push_back(fid);
  std::sort(fids.begin(), fids.end());
  return fids;
}

alloc::AppId Controller::app_of(Fid fid) const {
  const auto it = fid_to_app_.find(fid);
  if (it == fid_to_app_.end()) throw UsageError("Controller: unknown FID");
  return it->second;
}

Fid Controller::fid_of(alloc::AppId app) const {
  const auto it = app_to_fid_.find(app);
  if (it == app_to_fid_.end()) throw UsageError("Controller: unknown app");
  return it->second;
}

const alloc::Mutant* Controller::mutant_of(Fid fid) const {
  const auto it = mutants_.find(fid);
  return it == mutants_.end() ? nullptr : &it->second;
}

u64 Controller::take_snapshot(Fid fid) {
  // Old regions are what the pipeline tables still hold (the allocator's
  // bookkeeping already reflects the new layout). Their words stay in
  // pipeline memory for the client to extract; only the count is kept.
  u64 blocks = 0;
  for (u32 s = 0; s < pipeline_->stage_count(); ++s) {
    const rmt::FidEntry* entry = pipeline_->stage(s).lookup(fid);
    if (entry != nullptr) {
      blocks += entry->words() / pipeline_->config().block_words;
    }
  }
  stats_.blocks_snapshotted += blocks;
  return blocks;
}

void Controller::install_with_advance(Fid fid) {
  const auto it = fid_to_app_.find(fid);
  if (it == fid_to_app_.end()) throw UsageError("Controller: unknown FID");
  const auto regions = alloc_.regions_of(it->second);
  const u32 block_words = pipeline_->config().block_words;
  const u32 n = pipeline_->config().logical_stages;

  // Word-level start per stage.
  std::map<u32, u32> start_of;
  for (const auto& [stage, region] : regions) {
    start_of[stage] = region.begin * block_words;
  }

  // Advance chain: for access i at stage s_i, MAR advances to the region
  // start delta of access i+1's stage (Section 3.4's bucket walk).
  std::map<u32, i32> advance_of;
  const auto* mutant = mutant_of(fid);
  if (mutant != nullptr) {
    for (std::size_t i = 0; i + 1 < mutant->size(); ++i) {
      const u32 s = (*mutant)[i] % n;
      const u32 next = (*mutant)[i + 1] % n;
      if (!advance_of.contains(s) && s != next) {
        advance_of[s] = static_cast<i32>(start_of.at(next)) -
                        static_cast<i32>(start_of.at(s));
      }
    }
  }

  for (const auto& [stage, region] : regions) {
    const u32 start = region.begin * block_words;
    const u32 limit = region.end * block_words;
    const i32 advance =
        advance_of.contains(stage) ? advance_of.at(stage) : 0;
    if (!pipeline_->stage(stage).install(fid, start, limit, advance)) {
      throw UsageError("Controller: TCAM capacity exceeded at install");
    }
    ++stats_.table_entry_updates;
  }
}

Fid Controller::mint_fid() {
  for (u32 left = fid_last_ - fid_first_ + 1; left > 0; --left) {
    const Fid fid = next_fid_;
    next_fid_ = fid == fid_last_ ? fid_first_ : static_cast<Fid>(fid + 1);
    if (!fid_to_app_.contains(fid)) return fid;
  }
  return 0;
}

u32 Controller::remove_entries(Fid fid) {
  u32 ops = 0;
  for (u32 s = 0; s < pipeline_->stage_count(); ++s) {
    if (pipeline_->stage(s).lookup(fid) != nullptr) {
      pipeline_->stage(s).remove(fid);
      ++ops;
      ++stats_.table_entry_updates;
    }
  }
  return ops;
}

void Controller::clear_regions(Fid fid) {
  const u32 block_words = pipeline_->config().block_words;
  for (const auto& [stage, region] : alloc_.regions_of(fid_to_app_.at(fid))) {
    pipeline_->stage(stage).memory().fill(region.begin * block_words,
                                          region.size() * block_words, 0);
  }
}

u64 Controller::charge(Reallocation& r, u64 entries, u64 batches,
                       u64 cleared) {
  stats_.reallocations += r.disturbed.size();
  u64 snapshotted = 0;
  for (const Fid fid : r.disturbed) {
    for (u32 s = 0; s < pipeline_->stage_count(); ++s) {
      // One removal per entry the old layout still holds.
      if (pipeline_->stage(s).lookup(fid) != nullptr) ++entries;
    }
    snapshotted += take_snapshot(fid);
    for (const auto& [stage, region] :
         alloc_.regions_of(fid_to_app_.at(fid))) {
      ++entries;  // install
      cleared += region.size();
    }
  }
  // One coalesced driver batch per application whose entries change.
  r.table_update_batches = batches + r.disturbed.size();
  r.table_update_cost =
      costs_.table_update_time(entries, r.table_update_batches);
  stats_.table_update_batches += r.table_update_batches;
  r.snapshot_cost =
      static_cast<SimTime>(snapshotted) * costs_.snapshot_per_block;
  r.clear_cost = static_cast<SimTime>(cleared) * costs_.clear_per_block;
  return cleared;
}

void Controller::begin(Reallocation& r, Fid new_fid) {
  pending_ = PendingTxn{new_fid, r.disturbed,
                        {r.disturbed.begin(), r.disturbed.end()}};
  if (r.disturbed.empty()) {
    finalize();
    return;
  }
  // Handshake: quiesce the disturbed apps, then wait for their clients to
  // extract from the old regions.
  for (const Fid fid : r.disturbed) runtime_->deactivate(fid);
  r.pending = true;
}

void Controller::apply(Fid new_fid, const std::vector<Fid>& moved) {
  for (const Fid fid : moved) {
    remove_entries(fid);
    install_with_advance(fid);
  }
  // Content migration is the clients' job: they have extracted from the
  // old regions by now and re-populate the zeroed new ones.
  if (new_fid != 0) {
    install_with_advance(new_fid);
    clear_regions(new_fid);
  }
  for (const Fid fid : moved) {
    clear_regions(fid);
    runtime_->reactivate(fid);
  }
}

AdmissionResult Controller::admit(const alloc::AllocationRequest& request) {
  if (pending_) {
    throw UsageError("Controller: admission already pending (serialized)");
  }
  AdmissionResult result;
  result.outcome = alloc_.allocate(request);
  result.compute_ms = result.outcome.search_ms + result.outcome.assign_ms;
  if (!result.outcome.success) {
    ++stats_.rejections;
    result.denial = telemetry::DenyCause::kNoPlacement;
    return result;
  }

  // Denials past this point roll the placement back.
  const auto deny = [&](telemetry::DenyCause cause) {
    alloc_.deallocate(result.outcome.app);
    result.outcome.success = false;
    result.denial = cause;
    ++stats_.rejections;
  };
  // TCAM admission control: protection costs one range entry per occupied
  // stage, and the paper identifies these entries as the bottleneck for
  // the number of distinct address ranges. Reject when a chosen stage has
  // no headroom -- reallocated apps replace entries, so only the new app
  // consumes slots.
  for (const auto& [stage, region] : result.outcome.regions) {
    const rmt::Stage& s = pipeline_->stage(stage);
    if (s.tcam_used() >= s.tcam_capacity()) {
      deny(telemetry::DenyCause::kTcamHeadroom);
      ++stats_.tcam_rejections;
      return result;
    }
  }
  // A FID names one tenant: never reissue a resident one.
  const Fid fid = mint_fid();
  if (fid == 0) {
    deny(telemetry::DenyCause::kFidRangeFull);
    return result;
  }
  ++stats_.admissions;

  result.admitted = true;
  result.fid = fid;
  fid_to_app_[fid] = result.outcome.app;
  app_to_fid_[result.outcome.app] = fid;
  mutants_[fid] = result.outcome.chosen;

  for (const alloc::AppId app : result.outcome.reallocated) {
    result.disturbed.push_back(app_to_fid_.at(app));
  }

  // Cost accounting (the work happens at finalize, but the totals are
  // deterministic now): the new app's installs and clears in one batch.
  const auto regions = alloc_.regions_of(result.outcome.app);
  u64 fid_blocks = 0;
  for (const auto& [stage, region] : regions) fid_blocks += region.size();
  charge(result, regions.size(), 1, fid_blocks);

  if (metrics_) {
    metrics_->blocks_allocated.at(fid).inc(fid_blocks);
    metrics_->compute_us->record(
        static_cast<u64>(result.compute_ms * 1000.0));
    metrics_->provisioning_ns->record(
        static_cast<u64>(result.provisioning_time()));
  }
  begin(result, fid);
  return result;
}

bool Controller::extraction_complete(Fid fid) {
  if (!pending_) return true;
  pending_->awaiting.erase(fid);
  return pending_->awaiting.empty();
}

void Controller::timeout_pending() {
  if (!pending_) return;
  stats_.extraction_timeouts += pending_->awaiting.size();
  pending_->awaiting.clear();
}

void Controller::force_finalize() {
  if (!pending_) throw UsageError("Controller: no pending admission");
  timeout_pending();
  apply_pending();
}

void Controller::apply_pending() {
  if (!pending_) throw UsageError("Controller: no pending admission");
  if (!pending_->awaiting.empty()) {
    throw UsageError("Controller: pending admission not ready to apply");
  }
  finalize();
}

void Controller::finalize() {
  apply(pending_->new_fid, pending_->disturbed);
  pending_.reset();
}

MigrationResult Controller::migrate(const RemapRequest& request) {
  if (pending_) {
    throw UsageError("Controller: migration while a transaction is pending");
  }
  MigrationResult result;
  result.fid = request.fid;
  result.kind = request.kind;
  const auto fit = fid_to_app_.find(request.fid);
  if (fit == fid_to_app_.end()) return result;  // departed: graceful no-op
  const alloc::AppId app = fit->second;

  std::vector<alloc::AppId> changed;
  switch (request.kind) {
    case RemapKind::kDemote: {
      const bool was = alloc_.demoted(app);
      changed = alloc_.demote_elastic(app);
      result.applied = !was && alloc_.demoted(app);
      break;
    }
    case RemapKind::kPromote: {
      const bool was = alloc_.demoted(app);
      changed = alloc_.promote_elastic(app);
      result.applied = was && !alloc_.demoted(app);
      break;
    }
    case RemapKind::kReslide: {
      // TCAM guard: the re-slid app may enter stages it did not occupy
      // before, each costing one range entry while the old one is still
      // installed elsewhere. Requiring one slot of headroom everywhere is
      // conservative but placement-independent -- the search has not run
      // yet -- and a skipped re-slide is merely re-proposed later.
      for (u32 s = 0; s < pipeline_->stage_count(); ++s) {
        const rmt::Stage& stage = pipeline_->stage(s);
        if (stage.tcam_used() >= stage.tcam_capacity()) {
          ++stats_.migration_tcam_skips;
          return result;
        }
      }
      const alloc::MoveOutcome move = alloc_.reallocate_app(app);
      result.applied = move.success;
      result.moved = move.moved;
      result.compute_ms = move.search_ms + move.assign_ms;
      changed = move.reallocated;
      if (move.moved) {
        changed.push_back(app);  // the target's own layout changed
        mutants_[request.fid] = move.chosen;
      }
      break;
    }
  }
  std::sort(changed.begin(), changed.end());
  changed.erase(std::unique(changed.begin(), changed.end()), changed.end());

  if (changed.empty()) {
    ++stats_.migration_noops;
    return result;
  }

  ++stats_.migrations;
  switch (request.kind) {
    case RemapKind::kDemote:
      ++stats_.migration_demotions;
      break;
    case RemapKind::kPromote:
      ++stats_.migration_promotions;
      break;
    case RemapKind::kReslide:
      ++stats_.migration_reslides;
      break;
  }
  for (const alloc::AppId a : changed) {
    result.disturbed.push_back(app_to_fid_.at(a));
  }
  result.blocks_moved = charge(result, 0, 0, 0);
  stats_.blocks_migrated += result.blocks_moved;
  begin(result, 0);
  return result;
}

Reallocation Controller::release(Fid fid) {
  if (pending_) {
    throw UsageError("Controller: cannot release while admission pending");
  }
  const auto it = fid_to_app_.find(fid);
  if (it == fid_to_app_.end()) throw UsageError("Controller: unknown FID");
  ++stats_.releases;

  Reallocation result;
  const alloc::AppId app = it->second;
  // The departing app's removals are one batch of their own.
  const u32 removed = remove_entries(fid);
  for (const alloc::AppId moved : alloc_.deallocate(app)) {
    result.disturbed.push_back(app_to_fid_.at(moved));
  }
  charge(result, removed, 1, 0);
  apply(0, result.disturbed);

  fid_to_app_.erase(fid);
  app_to_fid_.erase(app);
  mutants_.erase(fid);
  runtime_->reactivate(fid);  // forget any stale deactivation
  return result;
}

}  // namespace artmt::controller
