#include "active/compiled_program.hpp"

#include "common/error.hpp"

namespace artmt::active {

namespace {

// FNV-1a, 64-bit.
constexpr u64 kFnvOffset = 0xcbf29ce484222325ull;
constexpr u64 kFnvPrime = 0x100000001b3ull;

u64 fnv1a(u64 hash, u8 byte) { return (hash ^ byte) * kFnvPrime; }

}  // namespace

u64 CompiledProgram::compute_digest(std::span<const u8> wire_code,
                                    bool preload_mar, bool preload_mbr) {
  u64 hash = kFnvOffset;
  hash = fnv1a(hash, static_cast<u8>((preload_mar ? 1 : 0) |
                                     (preload_mbr ? 2 : 0)));
  for (const u8 byte : wire_code) hash = fnv1a(hash, byte);
  return hash;
}

CompiledProgram CompiledProgram::compile(const Program& source) {
  CompiledProgram out;
  out.preload_mar_ = source.preload_mar;
  out.preload_mbr_ = source.preload_mbr;
  out.code_.reserve(source.size());
  out.wire_.reserve(source.size() * 2);
  for (const Instruction& insn : source.code()) {
    const OpcodeInfo* info = opcode_info(insn.op);
    if (info == nullptr) {
      throw ParseError("CompiledProgram: unknown opcode in program");
    }
    if (!operand_in_range(*info, insn.operand)) {
      throw ParseError("CompiledProgram: argument operand " +
                       std::to_string(insn.operand) + " out of range");
    }
    CompiledInsn compiled;
    compiled.op = insn.op;
    compiled.operand = insn.operand;
    compiled.label = insn.label;
    compiled.wire_done = insn.done;
    compiled.memory_access = info->memory_access;
    out.code_.push_back(compiled);
    out.wire_.push_back(static_cast<u8>(insn.op));
    out.wire_.push_back(insn.flag_byte());
  }
  out.link();
  return out;
}

CompiledProgram CompiledProgram::compile(std::span<const u8> wire_code,
                                         bool preload_mar, bool preload_mbr) {
  if (wire_code.size() % 2 != 0) {
    throw ParseError("CompiledProgram: odd-length instruction stream");
  }
  CompiledProgram out;
  out.preload_mar_ = preload_mar;
  out.preload_mbr_ = preload_mbr;
  out.code_.reserve(wire_code.size() / 2);
  out.wire_.assign(wire_code.begin(), wire_code.end());
  for (std::size_t i = 0; i < wire_code.size(); i += 2) {
    const u8 op = wire_code[i];
    const OpcodeInfo* info = opcode_info(op);
    if (info == nullptr || static_cast<Opcode>(op) == Opcode::kEof) {
      throw ParseError("CompiledProgram: bad opcode byte " +
                       std::to_string(op));
    }
    const Instruction insn = Instruction::from_bytes(op, wire_code[i + 1]);
    if (!operand_in_range(*info, insn.operand)) {
      throw ParseError("CompiledProgram: argument operand " +
                       std::to_string(insn.operand) + " out of range");
    }
    CompiledInsn compiled;
    compiled.op = insn.op;
    compiled.operand = insn.operand;
    compiled.label = insn.label;
    compiled.wire_done = insn.done;
    compiled.memory_access = info->memory_access;
    out.code_.push_back(compiled);
  }
  out.link();
  return out;
}

void CompiledProgram::link() {
  // next_access: one backward sweep.
  u32 upcoming = kNoIndex;
  for (u32 i = static_cast<u32>(code_.size()); i-- > 0;) {
    code_[i].next_access = upcoming;
    if (code_[i].memory_access) upcoming = i;
  }
  // branch_target: first instruction after the branch carrying its label
  // (label 0 means "no target": the branch disables to the end).
  for (u32 i = 0; i < code_.size(); ++i) {
    code_[i].branch_target = kNoIndex;
    const OpcodeInfo* info = opcode_info(code_[i].op);
    if (!info->branch || code_[i].label == 0) continue;
    for (u32 j = i + 1; j < code_.size(); ++j) {
      if (code_[j].label == code_[i].label) {
        code_[i].branch_target = j;
        break;
      }
    }
  }
  digest_ = compute_digest(wire_, preload_mar_, preload_mbr_);
}

}  // namespace artmt::active
