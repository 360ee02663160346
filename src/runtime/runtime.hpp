// The ActiveRMT switch runtime: interprets active programs one instruction
// per logical stage as packets flow through the pipeline (Section 3.1),
// enforcing memory protection via the per-FID table entries the control
// plane installed, and modeling recirculation, RTS placement, packet
// shrinking, and execution faults.
//
// Execution is zero-mutation: the hot path runs an immutable
// active::CompiledProgram shared by every packet of a recurring program,
// and all per-packet mutable state (done-bits, branch-resume point, the
// shrink decision) lives in a caller-provided active::ExecCursor. On the
// cache-hit steady state the interpreter performs no heap allocation and
// no writes to program storage; the wire-level "shrink" reply is
// synthesized from the cursor afterwards (proto::encode_executed). The
// switch executes packet::ProgramViews; the decoded-ActivePacket wrapper
// is the reference that tests compare the switch's frames against.
#pragma once

#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>

#include "active/compiled_program.hpp"
#include "packet/active_packet.hpp"
#include "packet/program_view.hpp"
#include "rmt/pipeline.hpp"
#include "runtime/phv.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
class StageHeatmap;
}  // namespace artmt::telemetry

namespace artmt::runtime {

struct RuntimeMetrics;  // telemetry handle bundle (runtime.cpp)

// What the switch should do with the packet after execution.
enum class Verdict {
  kForward,         // to the resolved destination
  kReturnToSender,  // RTS: swap src/dst, send back out the ingress port
  kDrop,            // DROP instruction or execution fault
};

// Why a packet was dropped (kDrop verdicts only).
enum class Fault {
  kNone,
  kExplicitDrop,        // program executed DROP
  kProtectionViolation, // memory access outside the FID's region
  kNoAllocation,        // memory access by a FID with no entry in the stage
  kRecircLimit,         // exceeded the per-packet recirculation cap
  kRecircBudget,        // FID exhausted its recirculation-bandwidth budget
  kPrivilege,           // unprivileged program used a privileged opcode
  kMalformed,           // unparseable capsule
  kDeactivated,         // FID quiesced during reallocation (packet forwarded
                        // unprocessed; verdict stays kForward)
};

struct ExecutionResult {
  Verdict verdict = Verdict::kForward;
  Fault fault = Fault::kNone;
  Phv phv;                 // final PHV state (MBR etc. for tests)
  u32 passes = 1;          // pipeline passes consumed (1 = no recirculation)
  u32 stages_consumed = 0; // logical stages traversed while executing
  u32 instructions_executed = 0;
  bool executed = false;   // false when the FID was deactivated
  SimTime latency = 0;     // modeled in-switch latency (passes * pass cost)
  // Clone produced by FORK (continues as a forwarded packet).
  bool forked = false;
};

// Aggregate data-plane counters: the only home of these totals
// (ActiveRuntime::export_metrics publishes them).
struct RuntimeStats {
  u64 packets = 0;
  u64 instructions = 0;
  u64 recirculations = 0;
  u64 drops_protection = 0;
  u64 drops_no_allocation = 0;
  u64 drops_recirc_limit = 0;
  u64 drops_recirc_budget = 0;
  u64 drops_privilege = 0;
  u64 drops_explicit = 0;
  u64 rts_packets = 0;
  u64 forwarded_unprocessed = 0;  // deactivated FIDs
};

// Per-FID recirculation-bandwidth governor (Section 7.2 contemplates a
// fairness controller that accounts for bandwidth inflation due to
// recirculations and rate-limits services): a token bucket of extra
// passes, refilled at `tokens_per_second`, holding at most `burst`.
struct RecircBudget {
  double tokens_per_second = 0.0;  // 0 = unlimited
  double burst = 0.0;
};

// Metadata the parser extracts from the surrounding (passive) headers and
// makes available to instructions (COPY_HASHDATA_5TUPLE).
struct PacketMeta {
  std::array<Word, active::kHashdataWords> five_tuple{};
};

// One executed (or skipped) instruction, as seen by a trace observer.
struct TraceEvent {
  u32 index = 0;          // instruction index in the capsule
  u32 logical_stage = 0;  // stage it occupied
  u32 pass = 0;           // 0-based pipeline pass
  active::Opcode op = active::Opcode::kNop;
  bool skipped = false;   // consumed its stage while branch-disabled
  Phv phv;                // PHV state AFTER the instruction
};

// Observer invoked per consumed stage; installed for debugging/tooling.
using TraceFn = std::function<void(const TraceEvent&)>;

// The per-packet state the interpreter reads and writes, decoupled from
// how the capsule is held: a decoded ActivePacket and a zero-copy
// ProgramView both project onto this. `args` is required; the Ethernet
// address pointers are optional (RTS swaps them when present).
struct ExecContext {
  std::array<Word, active::kArgFields>* args = nullptr;
  Fid fid = 0;
  u8 flags = 0;
  packet::MacAddr* eth_src = nullptr;
  packet::MacAddr* eth_dst = nullptr;
};

class ActiveRuntime {
 public:
  explicit ActiveRuntime(rmt::Pipeline& pipeline);
  ~ActiveRuntime();

  // Core hot path: executes the immutable `program` against `ctx`,
  // threading all mutable execution state through `cursor` (reset
  // internally). Argument fields are updated through ctx.args by
  // MBR_STORE; executed instructions are recorded as done-bits in the
  // cursor; the program itself is never written. Performs no heap
  // allocation. `now` is the virtual time (feeds the recirculation
  // governor).
  ExecutionResult execute(const active::CompiledProgram& program,
                          ExecContext& ctx, active::ExecCursor& cursor,
                          const PacketMeta& meta = {}, SimTime now = 0);

  // Zero-copy adapter: executes a parsed ProgramView in place. The view's
  // argument header and Ethernet addresses are updated; the frame buffer
  // it was parsed from is untouched (proto::encode_executed re-emits the
  // mutated headers).
  ExecutionResult execute(packet::ProgramView& view,
                          active::ExecCursor& cursor,
                          const PacketMeta& meta = {}, SimTime now = 0);

  // Decoded-program reference: compiles `pkt.program` on the fly,
  // executes, then mirrors the cursor back into `pkt.program` -- done
  // flags are set and, unless kFlagNoShrink, executed instructions are
  // dropped -- so pkt.serialize() is the reply. Shares no parser, shrink
  // or encoder with the ProgramView path. Packets without a decoded
  // program (control capsules, the client's compiled send form) are
  // forwarded unexecuted.
  ExecutionResult execute(packet::ActivePacket& pkt,
                          const PacketMeta& meta = {}, SimTime now = 0);

  // --- Section 7.2 extensions ---
  // When enabled, forwarding-affecting opcodes (FORK, SET_DST, DROP)
  // require the kFlagPrivileged capsule flag (set by a trusted shim).
  void set_enforce_privilege(bool enforce) { enforce_privilege_ = enforce; }
  [[nodiscard]] bool enforce_privilege() const { return enforce_privilege_; }

  // Rate-limits a FID's recirculation bandwidth; packets whose extra
  // passes exceed the remaining budget are dropped (kRecircBudget).
  void set_recirc_budget(Fid fid, const RecircBudget& budget);
  void clear_recirc_budget(Fid fid);

  // Installs a per-stage trace observer (empty function disables).
  void set_trace(TraceFn trace) { trace_ = std::move(trace); }

  // Reallocation quiescing (Section 4.3): packets of a deactivated FID are
  // forwarded without execution until reactivated.
  void deactivate(Fid fid) { deactivated_.insert(fid); }
  void reactivate(Fid fid) { deactivated_.erase(fid); }
  [[nodiscard]] bool is_deactivated(Fid fid) const {
    return deactivated_.contains(fid);
  }

  [[nodiscard]] const RuntimeStats& stats() const { return stats_; }
  [[nodiscard]] rmt::Pipeline& pipeline() { return *pipeline_; }

  // Records the per-FID packet and recirculation breakdowns into
  // `metrics` under component "runtime" (gated by telemetry::enabled());
  // nullptr detaches.
  void set_metrics(telemetry::MetricsRegistry* metrics);
  // Adds the RuntimeStats totals (instructions, drops by cause, RTS,
  // forwarded-unprocessed) to `metrics` as "runtime" counters; call once
  // per snapshot.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

  // Attaches a per-(stage, FID) memory-access heatmap; every memory op
  // records a read/write/collision cell (gated by telemetry::enabled(),
  // like the metric handles). nullptr detaches. The heatmap must be
  // single-writer from this runtime's thread.
  void set_heatmap(telemetry::StageHeatmap* heatmap) { heatmap_ = heatmap; }
  [[nodiscard]] telemetry::StageHeatmap* heatmap() const { return heatmap_; }

 private:
  // Charges `extra_passes` against the FID's token bucket at time `now`;
  // false when the budget is exhausted.
  bool charge_recirculation(Fid fid, u32 extra_passes, SimTime now);

  struct BucketState {
    RecircBudget budget;
    double tokens = 0.0;
    SimTime last_refill = 0;
  };

  rmt::Pipeline* pipeline_;
  RuntimeStats stats_;
  std::unique_ptr<RuntimeMetrics> metrics_;
  std::unordered_set<Fid> deactivated_;
  std::unordered_map<Fid, BucketState> recirc_buckets_;
  bool enforce_privilege_ = false;
  TraceFn trace_;
  telemetry::StageHeatmap* heatmap_ = nullptr;
};

}  // namespace artmt::runtime
