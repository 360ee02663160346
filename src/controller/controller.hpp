// The switch control plane (Section 4.3): serializes admissions, runs the
// memory allocator, installs/removes per-FID match-table entries, and
// models the provisioning costs a Tofino controller would incur (table
// updates, snapshotting, register clears).
//
// Admission, background migration and departure run as one reallocation
// transaction: one charge step prices every moved FID, and one apply step
// re-syncs their entries, zeroes their new regions and reactivates them.
// Admissions and migrations that disturb resident applications follow the
// paper's handshake: the disturbed FIDs are deactivated (program packets
// forwarded unprocessed) and the new layout is applied only after every
// disturbed client reports extraction complete (or times out). Clients
// extract their state with management capsules from the old regions,
// which stay untouched in pipeline memory until the layout is applied;
// the controller's snapshot of a disturbed app is only the count of its
// old blocks, which the cost model charges. `admit` finalizes immediately
// when nothing is disturbed; otherwise the caller drives
// `extraction_complete` / `force_finalize`. A departure applies at once.
#pragma once

#include <map>
#include <memory>
#include <optional>
#include <set>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hpp"
#include "common/error.hpp"
#include "controller/cost_model.hpp"
#include "controller/migration.hpp"
#include "packet/active_packet.hpp"
#include "rmt/pipeline.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/span.hpp"

namespace artmt::controller {

struct ControllerMetrics;  // telemetry handle bundle (controller.cpp)

// One reallocation transaction (Section 4.3), the shape admission,
// background migration and departure share: the resident FIDs whose
// layout changes, whether their clients must extract first, and what the
// control plane pays (Fig. 8a; allocator compute is modeled or measured,
// the rest comes from the cost model).
struct Reallocation {
  std::vector<Fid> disturbed;  // resident FIDs whose layout changes
  bool pending = false;        // extraction handshake outstanding
  double compute_ms = 0.0;     // allocator search + assign
  SimTime table_update_cost = 0;
  SimTime snapshot_cost = 0;
  SimTime clear_cost = 0;
  // Coalesced driver batches behind table_update_cost: one per
  // application whose entries change (see CostModel::batched_updates).
  u64 table_update_batches = 0;

  [[nodiscard]] SimTime compute_time() const {
    return static_cast<SimTime>(compute_ms * kMillisecond);
  }
  // Driver time to install the new layout once extraction is over.
  [[nodiscard]] SimTime apply_time() const {
    return table_update_cost + clear_cost;
  }
};

struct AdmissionResult : Reallocation {
  bool admitted = false;
  Fid fid = 0;
  // Why the admission was refused (read only when !admitted).
  telemetry::DenyCause denial = telemetry::DenyCause::kNoPlacement;
  alloc::AllocationOutcome outcome;

  [[nodiscard]] SimTime provisioning_time() const {
    return compute_time() + table_update_cost + snapshot_cost + clear_cost;
  }
};

// Aggregate control-plane counters.
struct ControllerStats {
  u64 admissions = 0;
  u64 rejections = 0;
  u64 releases = 0;
  u64 reallocations = 0;     // app-events: one app disturbed once
  u64 table_entry_updates = 0;
  u64 table_update_batches = 0;  // coalesced driver batches (admit+release)
  u64 blocks_snapshotted = 0;
  u64 extraction_timeouts = 0;
  u64 tcam_rejections = 0;  // admissions denied for range-entry headroom
  // --- background migration ---
  u64 migrations = 0;            // migrate() calls that changed a layout
  u64 migration_noops = 0;       // plans that resolved to no layout change
  u64 migration_demotions = 0;   // by kind, among `migrations`
  u64 migration_promotions = 0;
  u64 migration_reslides = 0;
  u64 migration_tcam_skips = 0;  // re-slides skipped by the TCAM guard
  u64 blocks_migrated = 0;       // blocks handed to new regions by migration
};

// Outcome of one background-migration step (Controller::migrate); its
// `disturbed` includes the target whenever the target's layout changed.
struct MigrationResult : Reallocation {
  bool applied = false;  // the allocator operation took effect
  Fid fid = 0;
  RemapKind kind = RemapKind::kReslide;
  bool moved = false;    // re-slide changed the target's regions
  u64 blocks_moved = 0;
};

class Controller {
 public:
  // FIDs one switch of a multi-switch fabric mints (see set_fid_base).
  static constexpr Fid kFidRange = 256;

  Controller(rmt::Pipeline& pipeline, runtime::ActiveRuntime& runtime,
             alloc::Scheme scheme = alloc::Scheme::kWorstFit,
             alloc::MutantPolicy policy = alloc::MutantPolicy::most_constrained(),
             CostModel costs = {});
  ~Controller();

  // --- admission / release ---
  AdmissionResult admit(const alloc::AllocationRequest& request);
  // Marks one disturbed FID as done extracting. Returns true when every
  // disturbed app has reported in (the transaction is ready to apply).
  bool extraction_complete(Fid fid);
  // Timeout path: stop waiting for the remaining extractions (counted in
  // stats); the transaction becomes ready to apply.
  void timeout_pending();
  // Installs the pending transaction's new layout (table updates +
  // clears) and reactivates the disturbed apps. Call once ready;
  // synchronous callers use it right after the handshake, event-driven
  // callers after the modeled table-update delay has elapsed.
  void apply_pending();
  // Deadline path in one step: gives up on the remaining extractions and
  // applies the layout immediately (timeout_pending + apply_pending).
  // SwitchNode spreads the same sequence over the modeled apply delay
  // when the extraction timeout fires on simulated time.
  void force_finalize();
  [[nodiscard]] bool has_pending() const { return pending_.has_value(); }

  // Removes `fid` and applies the grown neighbours' layout at once: no
  // deactivation and no extraction handshake (`disturbed` lists the apps
  // whose regions changed; the result is never pending).
  Reallocation release(Fid fid);

  // --- background migration ---
  // Executes one remap request as a live state migration: the allocator
  // op runs immediately, every FID whose layout changed is deactivated
  // (its old blocks counted as snapshotted), and the new layout is applied
  // through the same extraction handshake admissions use
  // (extraction_complete / force_finalize), a transaction that admits no
  // new FID. A request whose FID departed, or
  // whose plan resolves to no layout change, is a graceful no-op
  // (!pending). Throws while an admission or another migration is pending
  // (the engine serializes). Re-slides are skipped (counted, !applied)
  // unless every stage has TCAM headroom for one entry -- the target may
  // enter stages it did not previously occupy.
  MigrationResult migrate(const RemapRequest& request);

  // Selects wall-clock vs modeled allocator compute timing (see
  // alloc::ComputeModel); modeled timing makes admission timelines
  // host-load independent.
  void set_compute_model(const alloc::ComputeModel& model) {
    alloc_.set_compute_model(model);
  }

  // FIDs are minted in ascending order from [1, 0xFFFF], wrapping at the
  // end to the first FID that is not resident; an admission that finds
  // every FID resident is denied. Fabric support: mint from [base, base +
  // kFidRange) instead, so every switch in a multi-switch topology mints
  // from a disjoint range (a capsule's FID then names its owning switch
  // unambiguously). Call before the first admission.
  void set_fid_base(Fid base) {
    if (base == 0 || base > 0x10000 - kFidRange) {
      throw UsageError("Controller::set_fid_base: base outside [1, 0xFF00]");
    }
    fid_first_ = next_fid_ = base;
    fid_last_ = static_cast<Fid>(base + kFidRange - 1);
  }

  // Hotness-directed placement: forwards a per-stage tie-break bias to
  // the allocator (lower = preferred; empty disables). Scheme scores
  // always dominate; the bias only orders ties.
  void set_stage_bias(std::vector<u64> bias) {
    alloc_.set_stage_bias(std::move(bias));
  }

  // --- queries ---
  [[nodiscard]] const alloc::Allocator& allocator() const { return alloc_; }
  [[nodiscard]] const ControllerStats& stats() const { return stats_; }
  [[nodiscard]] bool resident(Fid fid) const { return fid_to_app_.contains(fid); }
  // Resident FIDs, ascending (deterministic planner scans).
  [[nodiscard]] std::vector<Fid> resident_fids() const;
  // FID <-> allocator AppId translation; throws on unknown ids.
  [[nodiscard]] alloc::AppId app_of(Fid fid) const;
  [[nodiscard]] Fid fid_of(alloc::AppId app) const;
  [[nodiscard]] std::map<u32, Interval> regions_of(Fid fid) const;
  // Word-level response header for the app's current regions.
  [[nodiscard]] packet::AllocResponseHeader response_for(Fid fid) const;
  // Chosen mutant (global logical stage per access) from admission.
  [[nodiscard]] const alloc::Mutant* mutant_of(Fid fid) const;
  [[nodiscard]] const CostModel& costs() const { return costs_; }

  // Records the per-FID blocks_allocated breakdown and the admission
  // histograms into `metrics` under component "controller" and cascades
  // to the owned allocator; nullptr detaches. The transaction's steps are
  // SwitchNode's span phases (kTxn, kApply, kDeny).
  void set_metrics(telemetry::MetricsRegistry* metrics);
  // Adds the ControllerStats totals to `metrics` as "controller"
  // counters, and the allocator's per-stage layout as "alloc" gauges;
  // call once per snapshot.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

 private:
  // The transaction awaiting extraction: the admitted FID (0 for a
  // migration) and the deactivated FIDs it moves.
  struct PendingTxn {
    Fid new_fid = 0;
    std::vector<Fid> disturbed;
    std::set<Fid> awaiting;  // disturbed FIDs not yet done extracting
  };

  // The next FID in range that is not resident (0: every one is).
  Fid mint_fid();
  // Removes every entry `fid` holds and returns how many there were.
  u32 remove_entries(Fid fid);
  // Snapshot of a disturbed app: the blocks its installed (old) entries
  // cover. Counts them in stats and returns them for the cost model.
  u64 take_snapshot(Fid fid);
  // Prices `r.disturbed` on top of the requester's own `entries` entry
  // operations, `batches` driver batches and `cleared` blocks: each moved
  // FID's old entries are removed, its old blocks snapshotted, its new
  // regions installed and cleared, in one batch per FID. Returns the
  // blocks cleared.
  u64 charge(Reallocation& r, u64 entries, u64 batches, u64 cleared);
  // Admits `new_fid` (0: none) and moves `r.disturbed`: applies at once
  // when nothing is disturbed, otherwise deactivates them and waits for
  // their extraction.
  void begin(Reallocation& r, Fid new_fid);
  void finalize();
  // Installs the new layout: re-syncs every moved FID's entries, installs
  // `new_fid`'s (0: none), zeroes the regions that changed hands and
  // reactivates the moved FIDs.
  void apply(Fid new_fid, const std::vector<Fid>& moved);
  void clear_regions(Fid fid);

  // MAR auto-advance per access chain (Section 3.4): the entry installed at
  // each of the app's memory stages re-targets MAR at the next one.
  void install_with_advance(Fid fid);

  rmt::Pipeline* pipeline_;
  runtime::ActiveRuntime* runtime_;
  alloc::Allocator alloc_;
  CostModel costs_;
  ControllerStats stats_;
  std::unique_ptr<ControllerMetrics> metrics_;

  std::unordered_map<Fid, alloc::AppId> fid_to_app_;
  std::unordered_map<alloc::AppId, Fid> app_to_fid_;
  std::unordered_map<Fid, alloc::Mutant> mutants_;
  std::optional<PendingTxn> pending_;
  Fid fid_first_ = 1;  // this switch mints from [fid_first_, fid_last_]
  Fid fid_last_ = 0xFFFF;
  Fid next_fid_ = 1;
};

}  // namespace artmt::controller
