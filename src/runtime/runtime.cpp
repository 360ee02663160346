#include "runtime/runtime.hpp"

#include <algorithm>
#include <array>
#include <utility>

#include "rmt/hash.hpp"
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

// Applies one instruction to the PHV (ADDR_MASK / ADDR_OFFSET are no-ops
// here: execute() translates MAR for them before dispatch). For a memory
// op, `entry` is the FID's protection entry for `stage`, already
// checked to cover phv.mar. Returns false when the packet faulted
// (`fault` recorded, phv.drop set).
bool dispatch_op(const CompiledInsn& insn, Phv& phv,
                 std::array<Word, active::kArgFields>& args,
                 const PacketMeta& meta, rmt::Stage& stage,
                 const rmt::FidEntry* entry, bool unprivileged,
                 u32 logical_stage, Fault& fault) {
  const auto advance_mar = [&] {
    phv.mar = static_cast<Word>(static_cast<i64>(phv.mar) + entry->advance);
  };
  const auto privilege_fault = [&] {
    fault = Fault::kPrivilege;
    phv.drop = true;
    return false;
  };
  switch (insn.op) {
    case Opcode::kEof:
    case Opcode::kNop:
    case Opcode::kAddrMask:
    case Opcode::kAddrOffset:
      break;
    case Opcode::kHash:
      phv.mar = rmt::hash_words(phv.hashdata, insn.operand);
      break;
    // --- data copying ---
    case Opcode::kMbrLoad:
      phv.mbr = args[insn.operand];
      break;
    case Opcode::kMbrStore:
      args[insn.operand] = phv.mbr;
      break;
    case Opcode::kMbr2Load:
      phv.mbr2 = args[insn.operand];
      break;
    case Opcode::kMarLoad:
      phv.mar = args[insn.operand];
      break;
    case Opcode::kCopyMbr2Mbr:
      phv.mbr2 = phv.mbr;
      break;
    case Opcode::kCopyMbrMbr2:
      phv.mbr = phv.mbr2;
      break;
    case Opcode::kCopyMbrMar:
      phv.mbr = phv.mar;
      break;
    case Opcode::kCopyMarMbr:
      phv.mar = phv.mbr;
      break;
    case Opcode::kCopyHashdataMbr:
      phv.hashdata[insn.operand % active::kHashdataWords] = phv.mbr;
      break;
    case Opcode::kCopyHashdataMbr2:
      phv.hashdata[insn.operand % active::kHashdataWords] = phv.mbr2;
      break;
    case Opcode::kCopyHashdata5Tuple:
      phv.hashdata = meta.five_tuple;
      break;
    // --- data manipulation ---
    case Opcode::kMbrAddMbr2:
      phv.mbr += phv.mbr2;
      break;
    case Opcode::kMarAddMbr:
      phv.mar += phv.mbr;
      break;
    case Opcode::kMarAddMbr2:
      phv.mar += phv.mbr2;
      break;
    case Opcode::kMarMbrAddMbr2:
      phv.mar = phv.mbr + phv.mbr2;
      break;
    case Opcode::kMbrSubtractMbr2:
      phv.mbr -= phv.mbr2;
      break;
    case Opcode::kBitAndMarMbr:
      phv.mar &= phv.mbr;
      break;
    case Opcode::kBitOrMbrMbr2:
      phv.mbr |= phv.mbr2;
      break;
    case Opcode::kMbrEqualsMbr2:
      phv.mbr ^= phv.mbr2;
      break;
    case Opcode::kMbrEqualsData:
      phv.mbr ^= args[insn.operand];
      break;
    case Opcode::kMax:
      phv.mbr = std::max(phv.mbr, phv.mbr2);
      break;
    case Opcode::kMin:
      phv.mbr = std::min(phv.mbr, phv.mbr2);
      break;
    case Opcode::kRevMin:
      phv.mbr2 = std::min(phv.mbr, phv.mbr2);
      break;
    case Opcode::kSwapMbrMbr2:
      std::swap(phv.mbr, phv.mbr2);
      break;
    case Opcode::kMbrNot:
      phv.mbr = ~phv.mbr;
      break;
    // --- control flow ---
    case Opcode::kReturn:
      phv.complete = true;
      break;
    case Opcode::kCret:
      if (phv.mbr != 0) phv.complete = true;
      break;
    case Opcode::kCreti:
      if (phv.mbr == 0) phv.complete = true;
      break;
    case Opcode::kCjump:
      if (phv.mbr != 0) phv.disabled = true;
      break;
    case Opcode::kCjumpi:
      if (phv.mbr == 0) phv.disabled = true;
      break;
    case Opcode::kUjump:
      phv.disabled = true;
      break;
    // --- memory access (entry checked by the caller) ---
    case Opcode::kMemWrite:
      stage.memory().write(phv.mar, phv.mbr);
      advance_mar();
      break;
    case Opcode::kMemRead:
      phv.mbr = stage.memory().read(phv.mar);
      advance_mar();
      break;
    case Opcode::kMemIncrement:
      phv.mbr = stage.memory().increment(phv.mar, phv.inc);
      advance_mar();
      break;
    case Opcode::kMemMinread:
      phv.mbr = stage.memory().min_read(phv.mar, phv.mbr);
      advance_mar();
      break;
    case Opcode::kMemMinreadinc:
      phv.mbr = stage.memory().increment(phv.mar, phv.inc);
      phv.mbr2 = std::min(phv.mbr, phv.mbr2);
      advance_mar();
      break;
    // --- packet forwarding ---
    // FORK, SET_DST, and DROP can affect other tenants' traffic; under
    // privilege enforcement (Section 7.2) they require a trusted shim's
    // flag.
    case Opcode::kDrop:
      if (unprivileged) return privilege_fault();
      fault = Fault::kExplicitDrop;
      phv.drop = true;
      return false;
    case Opcode::kFork:
      if (unprivileged) return privilege_fault();
      phv.fork = true;
      break;
    case Opcode::kSetDst:
      if (unprivileged) return privilege_fault();
      phv.dst_overridden = true;
      phv.dst_value = phv.mbr;
      break;
    case Opcode::kRts:
      phv.rts = true;
      phv.rts_stage = logical_stage;
      break;
    case Opcode::kCrts:
      if (phv.mbr != 0) {
        phv.rts = true;
        phv.rts_stage = logical_stage;
      }
      break;
  }
  return true;
}

}  // namespace

ExecutionResult ActiveRuntime::execute(const CompiledProgram& program,
                                       ExecContext& ctx, ExecCursor& cursor,
                                       const PacketMeta& meta, SimTime now) {
  const auto& cfg = pipeline_->config();
  ExecutionResult res;
  res.latency = rmt::PipelineConfig::kPassLatency;
  ++stats_.packets;
  if (metrics_) metrics_->packets.at(ctx.fid).inc();

  cursor.reset(program.size());
  cursor.shrink = (ctx.flags & packet::kFlagNoShrink) == 0;

  if (is_deactivated(ctx.fid) &&
      (ctx.flags & packet::kFlagManagement) == 0) {
    res.fault = Fault::kDeactivated;
    ++stats_.forwarded_unprocessed;
    return res;
  }
  res.executed = true;

  Phv phv;
  if (program.preload_mar()) phv.mar = (*ctx.args)[0];
  if (program.preload_mbr()) phv.mbr = (*ctx.args)[1];
  const bool unprivileged =
      enforce_privilege_ && (ctx.flags & packet::kFlagPrivileged) == 0;
  const auto& code = program.code();
  const u32 size = static_cast<u32>(code.size());
  Fault fault = Fault::kNone;
  u32 pc = 0;             // instruction index == stages consumed so far
  u32 pass = 0;           // pc / logical_stages, carried incrementally
  u32 logical_stage = 0;  // pc % logical_stages, carried incrementally

  const auto trace = [&](bool skipped) {
    if (!trace_) return;
    TraceEvent event;
    event.index = pc;
    event.logical_stage = logical_stage;
    event.pass = pass;
    event.op = code[pc].op;
    event.skipped = skipped;
    event.phv = phv;
    trace_(event);
  };

  // One logical stage per iteration. A fault leaves the loop before pc
  // advances: the epilogue bills passes and latency up to the faulting
  // index.
  while (pc < size && !phv.complete) {
    if (pass >= rmt::PipelineConfig::kMaxRecirculations + 1) {
      fault = Fault::kRecircLimit;
      phv.drop = true;
      break;
    }
    const CompiledInsn& insn = code[pc];
    if (phv.disabled && pc != cursor.resume_index) {
      // A skipped instruction still consumes its stage; execution resumes
      // at the taken branch's precompiled target index.
      cursor.mark_done(pc);
      ++res.stages_consumed;
      trace(/*skipped=*/true);
    } else {
      if (phv.disabled) {
        phv.disabled = false;
        cursor.resume_index = kNoIndex;
      }
      bool ok = true;
      if (insn.op == Opcode::kAddrMask || insn.op == Opcode::kAddrOffset) {
        // Translate MAR for the stage of the NEXT memory access, through
        // the compiled next-access table. With no later access, or no
        // entry for the FID in that stage, the op faults before consuming
        // its stage.
        const bool has_next = insn.next_access != kNoIndex;
        const u32 target_stage =
            has_next ? insn.next_access % cfg.logical_stages : logical_stage;
        const rmt::FidEntry* target =
            has_next ? pipeline_->stage(target_stage).lookup(ctx.fid)
                     : nullptr;
        if (target == nullptr) {
          fault = Fault::kNoAllocation;
          phv.drop = true;
          if (heatmap_ != nullptr && telemetry::enabled()) {
            heatmap_->record_collision(target_stage, ctx.fid);
          }
          cursor.mark_done(pc);
          break;
        }
        if (insn.op == Opcode::kAddrMask) {
          phv.mar &= target->mask;
        } else {
          phv.mar += target->offset;
        }
      } else {
        rmt::Stage& stage = pipeline_->stage(logical_stage);
        const rmt::FidEntry* entry = nullptr;
        if (insn.memory_access) {
          // Protection check first: a range match on MAR.
          entry = stage.lookup(ctx.fid);
          if (entry == nullptr) {
            fault = Fault::kNoAllocation;
          } else if (!entry->covers(phv.mar)) {
            fault = Fault::kProtectionViolation;
          }
          ok = fault == Fault::kNone;
          if (!ok) phv.drop = true;
          if (heatmap_ != nullptr && telemetry::enabled()) {
            if (!ok) {
              heatmap_->record_collision(logical_stage, ctx.fid);
            } else if (insn.op == Opcode::kMemWrite) {
              heatmap_->record_write(logical_stage, ctx.fid);
            } else if (insn.op == Opcode::kMemIncrement ||
                       insn.op == Opcode::kMemMinreadinc) {
              heatmap_->record_read_write(logical_stage, ctx.fid);
            } else {
              heatmap_->record_read(logical_stage, ctx.fid);
            }
          }
        }
        ok = ok && dispatch_op(insn, phv, *ctx.args, meta, stage, entry,
                               unprivileged, logical_stage, fault);
        // A taken branch arms its precompiled resume point (kNoIndex for a
        // missing target disables to the end of the program).
        if (phv.disabled) cursor.resume_index = insn.branch_target;
      }
      cursor.mark_done(pc);
      ++res.stages_consumed;
      ++res.instructions_executed;
      trace(/*skipped=*/false);
      if (!ok) break;
    }
    ++pc;
    if (++logical_stage == cfg.logical_stages) {
      logical_stage = 0;
      ++pass;
    }
  }

  const u32 consumed = std::max<u32>(1, pc);
  // RTS from an egress stage cannot change ports on this pass; it costs one
  // extra recirculation (Section 3.1). FORK likewise recirculates.
  const u32 extra_loops =
      (phv.rts && !pipeline_->is_ingress(phv.rts_stage) ? 1 : 0) +
      (phv.fork ? 1 : 0);
  res.passes = (consumed - 1) / cfg.logical_stages + 1 + extra_loops;

  // Latency: ~kPassLatency per 10-stage pipeline engaged (Fig. 8b measures
  // +0.5 us from 10 to 20 to 30 instructions); a port-change or FORK
  // recirculation loops through both pipelines once more.
  const u32 pipelines_engaged =
      std::max<u32>(1, (consumed + cfg.ingress_stages - 1) /
                           cfg.ingress_stages);
  res.latency = static_cast<SimTime>(pipelines_engaged + 2 * extra_loops) *
                rmt::PipelineConfig::kPassLatency;

  // Recirculation-bandwidth governor: packets whose extra passes exceed
  // the FID's remaining budget are dropped (side effects of completed
  // stages persist, as on hardware).
  if (res.passes > 1 && fault == Fault::kNone &&
      !charge_recirculation(ctx.fid, res.passes - 1, now)) {
    fault = Fault::kRecircBudget;
    phv.drop = true;
  }
  stats_.instructions += res.instructions_executed;
  stats_.recirculations += res.passes - 1;
  if (metrics_ && res.passes > 1) {
    metrics_->recirculations.at(ctx.fid).inc(res.passes - 1);
  }

  res.phv = phv;
  res.fault = fault;
  res.forked = phv.fork;

  if (phv.drop) {
    res.verdict = Verdict::kDrop;
    switch (fault) {
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
    res.latency = rmt::PipelineConfig::kPassLatency;
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
