// The switch as a network node: data-plane capsules execute in the
// ActiveRuntime at pipeline latency; control capsules (allocation
// requests, deallocations, extraction notices) are digested to the
// controller, serialized one operation at a time, and answered after the
// modeled control-plane costs elapse (Section 4.3 / Fig. 8a).
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "alloc/hotness.hpp"
#include "controller/controller.hpp"
#include "netsim/network.hpp"
#include "proto/wire.hpp"
#include "rmt/pipeline.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/span.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
}  // namespace artmt::telemetry

namespace artmt::controller {

struct SwitchMetrics;  // telemetry handle bundle (switch_node.cpp)

class SwitchNode : public netsim::Node {
 public:
  struct Config {
    rmt::PipelineConfig pipeline;
    alloc::Scheme scheme = alloc::Scheme::kWorstFit;
    alloc::MutantPolicy policy = alloc::MutantPolicy::most_constrained();
    CostModel costs;
    // Modeled allocator compute by default, so a run's virtual timeline
    // never depends on host load. Reproductions that compose measured
    // compute time into virtual time (Fig. 8a) opt into
    // ComputeModel::wall_clock().
    alloc::ComputeModel compute_model = alloc::ComputeModel::deterministic();
    // Section 7.2 deployment hardening (off by default, as in the paper's
    // prototype).
    bool enforce_privilege = false;
    // Applied to every admitted FID; zero rate = unlimited.
    runtime::RecircBudget default_recirc_budget;
    // Registry receiving this node's live metrics (per-FID breakdowns,
    // histograms, allocator and node counters); the typed totals join at
    // export_metrics. nullptr = the node owns a private registry, so
    // per-node counts stay exact no matter how many switches share the
    // process; tools and benches pass their own registry to aggregate
    // every component into one snapshot.
    telemetry::MetricsRegistry* metrics = nullptr;
    // Background migration & defragmentation engine.
    // Every `interval` of virtual time the node folds the heatmap into
    // the hotness table, runs one planning cycle, and drives at most one
    // migration through the extraction handshake -- only while the
    // control plane is idle, so admissions always win the race. Off by
    // default: migration is a deployment policy, not a datapath cost.
    struct MigrationConfig {
      bool enabled = false;
      SimTime interval = 10 * kMillisecond;
      MigrationPolicy policy;
    };
    MigrationConfig migration;
    // --- fabric mode (src/fabric) ---
    // The switch's own MAC. Zero (the default) keeps the legacy
    // single-switch behavior: every frame reaching the node is consumed
    // and synthesized control replies leave with src 0. Nonzero enables
    // transit forwarding (control frames addressed elsewhere, and program
    // capsules whose FID is not resident here, follow the L2 table),
    // health-probe acks, and src-stamping of control replies -- which is
    // how clients and the global controller learn steering. A fabric
    // switch also learns src MAC -> ingress port from every arriving
    // frame (overriding plain binds, never pinned ones), so a dual-homed
    // client's uplink failover re-teaches the fabric with its first
    // frame, no controller involvement. Deterministic.
    packet::MacAddr mac = 0;
    // Nonzero: this switch mints FIDs from [fid_base, fid_base +
    // Controller::kFidRange) (0 keeps the default range, [1, 0xFFFF]).
    // Fabric topologies hand each switch a disjoint range so a FID names
    // its owning switch unambiguously.
    Fid fid_base = 0;
  };

  // Snapshot of the background engine (tick loop + planner + queue).
  struct MigrationEngineStats {
    u64 ticks = 0;
    u64 deferred = 0;  // ticks that found the control plane busy
    u64 executed = 0;  // handshakes driven to completion start
    u64 noops = 0;     // popped requests that changed no layout
    u64 departed = 0;  // popped requests whose FID had released
    PlannerStats planner;
    RemapQueueStats queue;
  };

  // Snapshot view over the node's registry counters, built per call;
  // `returned` is the runtime's RTS total.
  struct NodeStats {
    u64 malformed = 0;            // unparseable passive frames
    u64 control_rejects = 0;      // malformed/invalid control requests
    u64 unknown_destination = 0;  // no L2 entry for the destination MAC
    u64 forwarded = 0;
    u64 returned = 0;  // RTS'd capsules
    u64 dropped = 0;
  };

  SwitchNode(std::string name, const Config& config);
  ~SwitchNode() override;

  // Static L2 table: which port reaches `mac`. Plain binds are cold-start
  // seeds that L2 learning may override (host mobility, uplink failover);
  // pinned binds are authoritative infrastructure routes that learning
  // must never move -- the global controller forwards frames whose src is
  // a *different* switch (steering-bearing grants, grant resends), and a
  // learned entry from such a frame would poison the fabric's route to
  // that switch.
  void bind(packet::MacAddr mac, u32 port);
  void bind_pinned(packet::MacAddr mac, u32 port);

  // Models the up-edge of a power cycle ("brownout", src/faults): every
  // stage's register array is zeroed -- SRAM does not survive the restart
  // -- while table entries and allocator state, which live on the
  // controller, persist. Clients re-populate through the normal data
  // plane (the paper's content migration is always client-driven).
  // Returns the number of words wiped.
  u64 wipe_registers();

  void on_frame(netsim::Frame frame, u32 port) override;

  [[nodiscard]] Controller& controller() { return controller_; }
  [[nodiscard]] runtime::ActiveRuntime& runtime() { return runtime_; }
  [[nodiscard]] rmt::Pipeline& pipeline() { return pipeline_; }
  [[nodiscard]] NodeStats node_stats() const;
  [[nodiscard]] const active::ProgramCache& program_cache() const {
    return program_cache_;
  }
  // The registry this node records into (its own or the configured one).
  [[nodiscard]] telemetry::MetricsRegistry& metrics() const {
    return *metrics_registry_;
  }
  // Adds everything the node owns to `metrics`: the typed totals of the
  // runtime, controller (with the allocator's per-stage layout) and
  // program cache, the heatmap, the hotness table, and the migration
  // engine's counters (switch.migration_*; zero while the engine is off).
  // Call once per snapshot.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;
  // Per-(stage, FID) memory-access heatmap fed by the runtime's dispatch
  // path (recording gated by telemetry::enabled()).
  [[nodiscard]] telemetry::StageHeatmap& heatmap() { return heatmap_; }
  [[nodiscard]] const telemetry::StageHeatmap& heatmap() const {
    return heatmap_;
  }
  // Background-migration observability (zeroed when the engine is off).
  [[nodiscard]] MigrationEngineStats migration_stats() const;
  [[nodiscard]] const alloc::HotnessTable& hotness() const { return hotness_; }

  // Fabric health epochs: every kHealthProbe addressed to this switch is
  // answered with a kHealthAck whose payload comes from this hook
  // (typically a serialized fabric::Scoreboard). Unset = empty payload.
  void set_scoreboard_provider(std::function<std::vector<u8>()> provider) {
    scoreboard_provider_ = std::move(provider);
  }
  [[nodiscard]] packet::MacAddr mac() const { return mac_; }

 private:
  struct ControlOp {
    packet::ActivePacket pkt;
    packet::MacAddr requester = 0;
    // Admission already failed once and was parked for a pending re-slide
    // (migration-pressure feedback); the retry denies outright.
    bool deferred = false;
  };

  // on_frame's three branches, one per packet::FrameClass.
  void on_program_frame(netsim::Frame frame);
  void on_control_frame(netsim::Frame frame);
  void forward_passive(netsim::Frame frame);
  // The program-capsule datapath: `view` was parsed in place from
  // `frame`; execute it, count the verdict, and rewrite the reply into the
  // inbound buffer (reusing its bytes when uniquely owned) on its way to
  // the next hop.
  void handle_program(packet::ProgramView view, netsim::Frame frame);
  void enqueue_control(packet::ActivePacket pkt);
  void process_next_control();
  void run_admission(const ControlOp& op);
  void run_release(const ControlOp& op);
  // The transaction the control plane is running: the FID it admits,
  // migrates or releases, the requester's reply (an AllocResponse, a
  // kDeallocAck, or none for a migration), the apps it moves, and the
  // modeled delay of applying their layout.
  struct PendingTxn {
    u64 id = 0;
    Fid fid = 0;
    telemetry::TxnCause cause = telemetry::TxnCause::kAdmit;
    packet::MacAddr requester = 0;
    std::optional<packet::ActivePacket> reply;
    std::vector<Fid> disturbed;
    SimTime apply_cost = 0;
    bool applying = false;
    telemetry::ApplyCause applied_by = telemetry::ApplyCause::kImmediate;
  };
  // Schedules one admission, migration or departure the controller has
  // begun, and records a kTxn span event for its FID and each disturbed
  // one. Unless `pending`, the layout is already applied and finish_txn
  // runs after compute_delay + apply_cost; otherwise the disturbed apps
  // get kReallocNotice after compute_delay and the extraction timeout is
  // armed.
  void start_txn(PendingTxn txn, SimTime compute_delay, bool pending);
  // The handshake completed (kExtracted) or timed out (kTimeout).
  void ready_to_apply(telemetry::ApplyCause cause);
  // Records kApply, sends the reply and every moved app its new layout,
  // then frees the control plane.
  void finish_txn();
  // Background engine: the periodic tick (armed lazily from the first
  // frame, once the node is attached), and the step that
  // turns one remap request into a live handshake. Returns true when a
  // handshake started (the tick stops draining until it completes).
  void migration_tick();
  bool start_migration(const RemapRequest& request);
  // True when a queued re-slide targets a stage whose free blocks could
  // cover this (inelastic) request's bottleneck demand once compacted --
  // the admission is deferred one migration interval instead of denied.
  [[nodiscard]] bool reslide_may_unblock(
      const alloc::AllocationRequest& request) const;
  void send_to_mac(packet::MacAddr dst, packet::ActivePacket pkt,
                   SimTime delay = 0);
  // Transmits an already-synthesized frame toward `dst`'s port.
  void send_frame_to_mac(packet::MacAddr dst, netsim::Frame frame,
                         SimTime delay);
  void finish_control();  // op done; start the next queued one

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  Controller controller_;
  active::ProgramCache program_cache_;
  std::unique_ptr<telemetry::MetricsRegistry> own_registry_;
  telemetry::MetricsRegistry* metrics_registry_ = nullptr;
  std::unique_ptr<SwitchMetrics> metrics_;

  struct L2Entry {
    u32 port = 0;
    bool pinned = false;  // learning may not move it
  };
  std::unordered_map<packet::MacAddr, L2Entry> l2_table_;
  std::map<Fid, packet::MacAddr> client_of_;

  // Fabric mode (Config::mac != 0).
  packet::MacAddr mac_ = 0;
  std::function<std::vector<u8>()> scoreboard_provider_;

  std::deque<ControlOp> control_queue_;
  bool control_busy_ = false;

  std::optional<PendingTxn> txn_;
  u64 txn_counter_ = 0;
  runtime::RecircBudget default_recirc_budget_;
  telemetry::StageHeatmap heatmap_;

  // Background migration engine state.
  bool migration_enabled_ = false;
  SimTime migration_interval_ = 0;
  bool migration_armed_ = false;
  alloc::HotnessTable hotness_;
  RemapQueue remap_queue_;
  MigrationPlanner planner_;
  u64 mig_ticks_ = 0;
  u64 mig_deferred_ = 0;
  u64 mig_executed_ = 0;
  u64 mig_noops_ = 0;
  u64 mig_departed_ = 0;
  // Quiescence: after this many consecutive fully-idle ticks (no frames,
  // no plans, no handshake, empty queue) nothing can ever be planned
  // again -- every tracked FID has had time to go cold and every cooldown
  // has expired -- so the tick train de-arms and the simulation can
  // drain. The next frame re-arms it (the lazy-arming path in on_frame).
  u64 mig_quiesce_ticks_ = 0;
  u64 mig_idle_streak_ = 0;
  u64 mig_frames_since_tick_ = 0;
};

}  // namespace artmt::controller
