// Execution core of ActiveRuntime::execute: the per-packet lane state
// threaded through lane_begin / lane_step / lane_finish, and the
// flat-dispatch opcode semantics lane_step runs once per logical stage.
#pragma once

#include <algorithm>
#include <array>
#include <utility>

#include "active/compiled_program.hpp"
#include "rmt/hash.hpp"
#include "rmt/stage.hpp"
#include "runtime/runtime.hpp"

namespace artmt::runtime {

// All mutable state of one in-flight packet execution ("lane"), kept on
// execute()'s stack and stepped to completion. Pointers reference
// caller-owned storage that must outlive the lane (cursor, context,
// metadata).
struct LaneState {
  const active::CompiledProgram* program = nullptr;
  ExecContext* ctx = nullptr;
  active::ExecCursor* cursor = nullptr;
  const PacketMeta* meta = nullptr;
  SimTime now = 0;

  ExecutionResult res;
  Phv phv;
  Fault fault = Fault::kNone;
  u32 pc = 0;             // instruction index == stages consumed so far
  u32 pass_index = 0;     // pc / logical_stages, carried incrementally
  u32 logical_stage = 0;  // pc % logical_stages, carried incrementally
  bool halted = false;    // no further lane_step will change state
  bool bypassed = false;  // deactivated FID: res finalized in lane_begin
};

namespace core {

// Executes one non-address-translation op against the lane's PHV.
// `entry` is the FID's protection entry for `stage`, already checked to
// cover phv.mar when `op.memory_access` is set. Returns false when the
// packet faulted (`fault` recorded, phv.drop set).
inline bool dispatch_op(const active::FlatOp& op, Phv& phv,
                        std::array<Word, active::kArgFields>& args,
                        const PacketMeta& meta, rmt::Stage& stage,
                        const rmt::FidEntry* entry, u8 flags,
                        bool enforce_privilege, u32 logical_stage,
                        Fault& fault) {
  using active::FlatKind;
  switch (op.kind) {
    case FlatKind::kNop:
      break;
    // --- data copying ---
    case FlatKind::kMbrLoad:
      phv.mbr = args[op.operand];
      break;
    case FlatKind::kMbrStore:
      args[op.operand] = phv.mbr;
      break;
    case FlatKind::kMbr2Load:
      phv.mbr2 = args[op.operand];
      break;
    case FlatKind::kMarLoad:
      phv.mar = args[op.operand];
      break;
    case FlatKind::kCopyMbr2Mbr:
      phv.mbr2 = phv.mbr;
      break;
    case FlatKind::kCopyMbrMbr2:
      phv.mbr = phv.mbr2;
      break;
    case FlatKind::kCopyMbrMar:
      phv.mbr = phv.mar;
      break;
    case FlatKind::kCopyMarMbr:
      phv.mar = phv.mbr;
      break;
    case FlatKind::kCopyHashdataMbr:
      phv.hashdata[op.operand % active::kHashdataWords] = phv.mbr;
      break;
    case FlatKind::kCopyHashdataMbr2:
      phv.hashdata[op.operand % active::kHashdataWords] = phv.mbr2;
      break;
    case FlatKind::kCopyHashdata5Tuple:
      phv.hashdata = meta.five_tuple;
      break;
    // --- data manipulation ---
    case FlatKind::kMbrAddMbr2:
      phv.mbr += phv.mbr2;
      break;
    case FlatKind::kMarAddMbr:
      phv.mar += phv.mbr;
      break;
    case FlatKind::kMarAddMbr2:
      phv.mar += phv.mbr2;
      break;
    case FlatKind::kMarMbrAddMbr2:
      phv.mar = phv.mbr + phv.mbr2;
      break;
    case FlatKind::kMbrSubtractMbr2:
      phv.mbr -= phv.mbr2;
      break;
    case FlatKind::kBitAndMarMbr:
      phv.mar &= phv.mbr;
      break;
    case FlatKind::kBitOrMbrMbr2:
      phv.mbr |= phv.mbr2;
      break;
    case FlatKind::kMbrEqualsMbr2:
      phv.mbr ^= phv.mbr2;
      break;
    case FlatKind::kMbrEqualsData:
      phv.mbr ^= args[op.operand];
      break;
    case FlatKind::kMax:
      phv.mbr = std::max(phv.mbr, phv.mbr2);
      break;
    case FlatKind::kMin:
      phv.mbr = std::min(phv.mbr, phv.mbr2);
      break;
    case FlatKind::kRevMin:
      phv.mbr2 = std::min(phv.mbr, phv.mbr2);
      break;
    case FlatKind::kSwapMbrMbr2:
      std::swap(phv.mbr, phv.mbr2);
      break;
    case FlatKind::kMbrNot:
      phv.mbr = ~phv.mbr;
      break;
    // --- control flow ---
    case FlatKind::kReturn:
      phv.complete = true;
      break;
    case FlatKind::kCret:
      if (phv.mbr != 0) phv.complete = true;
      break;
    case FlatKind::kCreti:
      if (phv.mbr == 0) phv.complete = true;
      break;
    case FlatKind::kCjump:
      if (phv.mbr != 0) {
        phv.disabled = true;
        phv.pending_label = op.label;
      }
      break;
    case FlatKind::kCjumpi:
      if (phv.mbr == 0) {
        phv.disabled = true;
        phv.pending_label = op.label;
      }
      break;
    case FlatKind::kUjump:
      phv.disabled = true;
      phv.pending_label = op.label;
      break;
    // --- memory access (entry checked by the caller) ---
    case FlatKind::kMemWrite:
      stage.memory().write(phv.mar, phv.mbr);
      phv.mar = static_cast<Word>(static_cast<i64>(phv.mar) + entry->advance);
      break;
    case FlatKind::kMemRead:
      phv.mbr = stage.memory().read(phv.mar);
      phv.mar = static_cast<Word>(static_cast<i64>(phv.mar) + entry->advance);
      break;
    case FlatKind::kMemIncrement:
      phv.mbr = stage.memory().increment(phv.mar, phv.inc);
      phv.mar = static_cast<Word>(static_cast<i64>(phv.mar) + entry->advance);
      break;
    case FlatKind::kMemMinread:
      phv.mbr = stage.memory().min_read(phv.mar, phv.mbr);
      phv.mar = static_cast<Word>(static_cast<i64>(phv.mar) + entry->advance);
      break;
    case FlatKind::kMemMinreadinc: {
      const Word count = stage.memory().increment(phv.mar, phv.inc);
      phv.mbr = count;
      phv.mbr2 = std::min(count, phv.mbr2);
      phv.mar = static_cast<Word>(static_cast<i64>(phv.mar) + entry->advance);
      break;
    }
    // ADDR_MASK / ADDR_OFFSET are resolved in lane_step, which applies
    // the compiled next-access table.
    case FlatKind::kAddrMask:
    case FlatKind::kAddrOffset:
      break;
    case FlatKind::kHash:
      phv.mar = rmt::hash_words(phv.hashdata, op.operand);
      break;
    // --- packet forwarding ---
    // FORK, SET_DST, and DROP can affect other tenants' traffic; under
    // privilege enforcement (Section 7.2) they require a trusted shim's
    // flag.
    case FlatKind::kDrop:
      if (enforce_privilege && (flags & packet::kFlagPrivileged) == 0) {
        fault = Fault::kPrivilege;
        phv.drop = true;
        return false;
      }
      fault = Fault::kExplicitDrop;
      phv.drop = true;
      return false;
    case FlatKind::kFork:
      if (enforce_privilege && (flags & packet::kFlagPrivileged) == 0) {
        fault = Fault::kPrivilege;
        phv.drop = true;
        return false;
      }
      phv.fork = true;
      break;
    case FlatKind::kSetDst:
      if (enforce_privilege && (flags & packet::kFlagPrivileged) == 0) {
        fault = Fault::kPrivilege;
        phv.drop = true;
        return false;
      }
      phv.dst_overridden = true;
      phv.dst_value = phv.mbr;
      break;
    case FlatKind::kRts:
      phv.rts = true;
      phv.rts_stage = logical_stage;
      break;
    case FlatKind::kCrts:
      if (phv.mbr != 0) {
        phv.rts = true;
        phv.rts_stage = logical_stage;
      }
      break;
    case FlatKind::kEof:
      break;
  }
  return true;
}

}  // namespace core

}  // namespace artmt::runtime
