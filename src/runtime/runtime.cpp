#include "runtime/runtime.hpp"

#include <algorithm>

#include "runtime/exec_core.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::runtime {

// The per-FID breakdowns, pre-registered so the per-packet path never
// touches the registry mutex (each family memoizes its last fid). The
// totals live in RuntimeStats and reach a registry through
// export_metrics.
struct RuntimeMetrics {
  explicit RuntimeMetrics(telemetry::MetricsRegistry& r)
      : packets(r, "runtime", "packets"),
        recirculations(r, "runtime", "recirculations") {}

  telemetry::CounterFamily packets;
  telemetry::CounterFamily recirculations;
};

ActiveRuntime::ActiveRuntime(rmt::Pipeline& pipeline) : pipeline_(&pipeline) {}

ActiveRuntime::~ActiveRuntime() = default;

void ActiveRuntime::set_metrics(telemetry::MetricsRegistry* metrics) {
  metrics_ =
      metrics == nullptr ? nullptr : std::make_unique<RuntimeMetrics>(*metrics);
}

void ActiveRuntime::export_metrics(telemetry::MetricsRegistry& metrics) const {
  const auto add = [&metrics](const char* name, u64 value) {
    metrics.counter("runtime", name).merge_add(value);
  };
  add("instructions", stats_.instructions);
  add("drops_protection", stats_.drops_protection);
  add("drops_no_allocation", stats_.drops_no_allocation);
  add("drops_recirc_limit", stats_.drops_recirc_limit);
  add("drops_recirc_budget", stats_.drops_recirc_budget);
  add("drops_privilege", stats_.drops_privilege);
  add("drops_explicit", stats_.drops_explicit);
  add("rts_packets", stats_.rts_packets);
  add("forwarded_unprocessed", stats_.forwarded_unprocessed);
}

using active::CompiledInsn;
using active::CompiledProgram;
using active::ExecCursor;
using active::Instruction;
using active::kNoIndex;
using active::Opcode;
using packet::ActivePacket;

namespace {

// Removes instructions whose `done` flag is set (the parser-side shrink
// optimization of Section 3.1). Decoded-program reference only: the
// switch never materializes a mutable Program and synthesizes the shrunk
// reply from the cursor instead (proto::encode_executed).
void shrink(active::Program& program) {
  auto& code = program.code();
  code.erase(std::remove_if(code.begin(), code.end(),
                            [](const Instruction& i) { return i.done; }),
             code.end());
}

}  // namespace

bool ActiveRuntime::lane_begin(const CompiledProgram& program, ExecContext& ctx,
                               ExecCursor& cursor, const PacketMeta& meta,
                               SimTime now, LaneState& lane) {
  const auto& cfg = pipeline_->config();
  lane = LaneState{};
  lane.program = &program;
  lane.ctx = &ctx;
  lane.cursor = &cursor;
  lane.meta = &meta;
  lane.now = now;

  ++stats_.packets;
  if (metrics_) metrics_->packets.at(ctx.fid).inc();
  lane.res.latency = cfg.pass_latency;

  cursor.reset(program.size());
  cursor.shrink = (ctx.flags & packet::kFlagNoShrink) == 0;

  if (is_deactivated(ctx.fid) &&
      (ctx.flags & packet::kFlagManagement) == 0) {
    lane.res.fault = Fault::kDeactivated;
    ++stats_.forwarded_unprocessed;
    lane.halted = true;
    lane.bypassed = true;
    return false;
  }

  if (program.preload_mar()) lane.phv.mar = (*ctx.args)[0];
  if (program.preload_mbr()) lane.phv.mbr = (*ctx.args)[1];
  lane.res.executed = true;
  lane.halted = program.empty();
  return true;
}

// Consumes exactly one logical stage of the lane's program (or halts it):
// the body of the interpreter loop, flat-dispatched.
void ActiveRuntime::lane_step(LaneState& lane) {
  const auto& cfg = pipeline_->config();
  Phv& phv = lane.phv;
  ExecCursor& cursor = *lane.cursor;
  ExecContext& ctx = *lane.ctx;
  const auto& flat = lane.program->flat();

  if (phv.complete) {
    lane.halted = true;
    return;
  }
  if (lane.pass_index >= cfg.max_recirculations + 1) {
    lane.fault = Fault::kRecircLimit;
    phv.drop = true;
    lane.halted = true;
    return;
  }
  const active::FlatOp& op = flat[lane.pc];

  const auto emit_trace = [&](bool skipped) {
    if (!trace_) return;
    TraceEvent event;
    event.index = lane.pc;
    event.logical_stage = lane.logical_stage;
    event.pass = lane.pass_index;
    event.op = lane.program->code()[lane.pc].op;
    event.skipped = skipped;
    event.phv = phv;
    trace_(event);
  };
  const auto advance = [&] {
    ++lane.pc;
    if (++lane.logical_stage == cfg.logical_stages) {
      lane.logical_stage = 0;
      ++lane.pass_index;
    }
    if (lane.pc >= flat.size()) lane.halted = true;
  };

  if (phv.disabled) {
    // Skipped instructions still consume their stage; execution resumes
    // at the branch's precompiled target index.
    if (lane.pc == cursor.resume_index) {
      phv.disabled = false;
      phv.pending_label = 0;
      cursor.resume_index = kNoIndex;
    } else {
      cursor.mark_done(lane.pc);
      ++lane.res.stages_consumed;
      emit_trace(/*skipped=*/true);
      advance();
      return;
    }
  }

  // Resolve ADDR_MASK / ADDR_OFFSET via the compiled next-access table:
  // they translate MAR for the stage of the NEXT memory access.
  if (op.kind == active::FlatKind::kAddrMask ||
      op.kind == active::FlatKind::kAddrOffset) {
    const rmt::FidEntry* target =
        op.next_access == kNoIndex
            ? nullptr
            : pipeline_->stage(op.next_access % cfg.logical_stages)
                  .lookup(ctx.fid);
    if (target == nullptr) {
      lane.fault = Fault::kNoAllocation;
      phv.drop = true;
      if (heatmap_ != nullptr && telemetry::enabled()) {
        heatmap_->record_collision(op.next_access == kNoIndex
                                       ? lane.logical_stage
                                       : op.next_access % cfg.logical_stages,
                                   ctx.fid);
      }
      cursor.mark_done(lane.pc);
      lane.halted = true;
      return;
    }
    if (op.kind == active::FlatKind::kAddrMask) {
      phv.mar &= target->mask;
    } else {
      phv.mar += target->offset;
    }
    cursor.mark_done(lane.pc);
    ++lane.res.stages_consumed;
    ++lane.res.instructions_executed;
    emit_trace(/*skipped=*/false);
    advance();
    return;
  }

  // Memory instructions: protection check first (range match on MAR).
  rmt::Stage& stage = pipeline_->stage(lane.logical_stage);
  const rmt::FidEntry* entry = nullptr;
  bool ok = true;
  if (op.memory_access) {
    entry = stage.lookup(ctx.fid);
    if (entry == nullptr) {
      lane.fault = Fault::kNoAllocation;
      phv.drop = true;
      ok = false;
    } else if (!entry->covers(phv.mar)) {
      lane.fault = Fault::kProtectionViolation;
      phv.drop = true;
      ok = false;
    }
    if (heatmap_ != nullptr && telemetry::enabled()) {
      if (!ok) {
        heatmap_->record_collision(lane.logical_stage, ctx.fid);
      } else {
        switch (op.kind) {
          case active::FlatKind::kMemWrite:
            heatmap_->record_write(lane.logical_stage, ctx.fid);
            break;
          case active::FlatKind::kMemIncrement:
          case active::FlatKind::kMemMinreadinc:
            heatmap_->record_read_write(lane.logical_stage, ctx.fid);
            break;
          default:  // kMemRead / kMemMinread and any future read-only op
            heatmap_->record_read(lane.logical_stage, ctx.fid);
        }
      }
    }
  }
  if (ok) {
    ok = core::dispatch_op(op, phv, *ctx.args, *lane.meta, stage, entry,
                           ctx.flags, enforce_privilege_, lane.logical_stage,
                           lane.fault);
  }
  if (phv.disabled) {
    // This instruction took a branch: arm its precompiled resume point
    // (kNoIndex for a missing target disables to the end, as before).
    cursor.resume_index = op.branch_target;
  }
  cursor.mark_done(lane.pc);
  ++lane.res.stages_consumed;
  ++lane.res.instructions_executed;
  emit_trace(/*skipped=*/false);
  if (!ok) {
    lane.halted = true;
    return;
  }
  advance();
}

ExecutionResult ActiveRuntime::lane_finish(LaneState& lane) {
  if (lane.bypassed) return lane.res;
  const auto& cfg = pipeline_->config();
  Phv& phv = lane.phv;
  ExecutionResult& res = lane.res;
  ExecContext& ctx = *lane.ctx;

  const u32 consumed = std::max<u32>(1, lane.pc);
  res.passes = (consumed - 1) / cfg.logical_stages + 1;

  // RTS from an egress stage cannot change ports on this pass; it costs one
  // extra recirculation (Section 3.1). FORK likewise recirculates.
  if (phv.rts && !pipeline_->is_ingress(phv.rts_stage)) ++res.passes;
  if (phv.fork) ++res.passes;

  // Latency: ~pass_latency per 10-stage pipeline engaged (Fig. 8b measures
  // +0.5 us from 10 to 20 to 30 instructions); a port-change or FORK
  // recirculation loops through both pipelines once more.
  const u32 pipelines_engaged =
      std::max<u32>(1, (consumed + cfg.ingress_stages - 1) /
                           cfg.ingress_stages);
  u32 penalty_pipelines = 0;
  if (phv.rts && !pipeline_->is_ingress(phv.rts_stage)) penalty_pipelines += 2;
  if (phv.fork) penalty_pipelines += 2;
  res.latency = static_cast<SimTime>(pipelines_engaged + penalty_pipelines) *
                cfg.pass_latency;

  // Recirculation-bandwidth governor: packets whose extra passes exceed
  // the FID's remaining budget are dropped (side effects of completed
  // stages persist, as on hardware).
  if (res.passes > 1 && lane.fault == Fault::kNone &&
      !charge_recirculation(ctx.fid, res.passes - 1, lane.now)) {
    lane.fault = Fault::kRecircBudget;
    phv.drop = true;
  }
  stats_.instructions += res.instructions_executed;
  stats_.recirculations += res.passes - 1;
  if (metrics_ && res.passes > 1) {
    metrics_->recirculations.at(ctx.fid).inc(res.passes - 1);
  }

  res.phv = phv;
  res.fault = lane.fault;
  res.forked = phv.fork;

  if (phv.drop) {
    res.verdict = Verdict::kDrop;
    switch (lane.fault) {
      case Fault::kExplicitDrop:
        ++stats_.drops_explicit;
        break;
      case Fault::kProtectionViolation:
        ++stats_.drops_protection;
        break;
      case Fault::kNoAllocation:
        ++stats_.drops_no_allocation;
        break;
      case Fault::kRecircLimit:
        ++stats_.drops_recirc_limit;
        break;
      case Fault::kRecircBudget:
        ++stats_.drops_recirc_budget;
        break;
      case Fault::kPrivilege:
        ++stats_.drops_privilege;
        break;
      default:
        break;
    }
    return res;
  }

  if (phv.rts) {
    res.verdict = Verdict::kReturnToSender;
    if (ctx.eth_src != nullptr && ctx.eth_dst != nullptr) {
      std::swap(*ctx.eth_src, *ctx.eth_dst);
    }
    ++stats_.rts_packets;
  }
  return res;
}

void ActiveRuntime::set_recirc_budget(Fid fid, const RecircBudget& budget) {
  BucketState state;
  state.budget = budget;
  state.tokens = budget.burst;
  recirc_buckets_[fid] = state;
}

void ActiveRuntime::clear_recirc_budget(Fid fid) {
  recirc_buckets_.erase(fid);
}

bool ActiveRuntime::charge_recirculation(Fid fid, u32 extra_passes,
                                         SimTime now) {
  const auto it = recirc_buckets_.find(fid);
  if (it == recirc_buckets_.end() ||
      it->second.budget.tokens_per_second <= 0.0) {
    return true;  // unlimited
  }
  BucketState& state = it->second;
  // `>=` so a zero-elapsed call still runs the refill bookkeeping (it adds
  // zero tokens but keeps last_refill current); a clock that somehow reads
  // earlier than last_refill charges without refilling rather than
  // stalling the bucket.
  if (now >= state.last_refill) {
    const double elapsed_s =
        static_cast<double>(now - state.last_refill) / kSecond;
    state.tokens = std::min(state.budget.burst,
                            state.tokens +
                                elapsed_s * state.budget.tokens_per_second);
    state.last_refill = now;
  }
  if (state.tokens < static_cast<double>(extra_passes)) return false;
  state.tokens -= static_cast<double>(extra_passes);
  return true;
}

ExecutionResult ActiveRuntime::execute(const CompiledProgram& program,
                                       ExecContext& ctx, ExecCursor& cursor,
                                       const PacketMeta& meta, SimTime now) {
  LaneState lane;
  if (lane_begin(program, ctx, cursor, meta, now, lane)) {
    while (!lane.halted) lane_step(lane);
  }
  return lane_finish(lane);
}

ExecutionResult ActiveRuntime::execute(packet::ProgramView& view,
                                       ExecCursor& cursor,
                                       const PacketMeta& meta, SimTime now) {
  ExecContext ctx;
  ctx.args = &view.arguments.args;
  ctx.fid = view.initial.fid;
  ctx.flags = view.initial.flags;
  ctx.eth_src = &view.ethernet.src;
  ctx.eth_dst = &view.ethernet.dst;
  return execute(*view.compiled, ctx, cursor, meta, now);
}

ExecutionResult ActiveRuntime::execute(ActivePacket& pkt,
                                       const PacketMeta& meta, SimTime now) {
  if (pkt.initial.type != packet::ActiveType::kProgram || !pkt.program ||
      !pkt.arguments) {
    // Control packets and passive traffic just forward.
    ExecutionResult res;
    ++stats_.packets;
    if (metrics_) metrics_->packets.at(telemetry::kNoFid).inc();
    res.latency = pipeline_->config().pass_latency;
    return res;
  }

  ExecContext ctx;
  ctx.args = &pkt.arguments->args;
  ctx.fid = pkt.initial.fid;
  ctx.flags = pkt.initial.flags;
  ctx.eth_src = &pkt.ethernet.src;
  ctx.eth_dst = &pkt.ethernet.dst;
  active::ExecCursor cursor;
  const CompiledProgram compiled = CompiledProgram::compile(*pkt.program);
  const ExecutionResult res = execute(compiled, ctx, cursor, meta, now);

  // Mirror the cursor back into the mutable wire form.
  if (res.executed) {
    auto& code = pkt.program->code();
    for (u32 i = 0; i < code.size(); ++i) {
      if (cursor.done(i)) code[i].done = true;
    }
    if (res.verdict != Verdict::kDrop && cursor.shrink) {
      shrink(*pkt.program);
    }
  }
  return res;
}

}  // namespace artmt::runtime
