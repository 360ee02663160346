#include "active/program.hpp"

#include <algorithm>
#include <sstream>

#include "common/error.hpp"

namespace artmt::active {

u8 Instruction::flag_byte() const {
  u8 flags = static_cast<u8>(operand & 0x07);
  flags |= static_cast<u8>((label & 0x0f) << 3);
  if (done) flags |= 0x80;
  return flags;
}

Instruction Instruction::from_bytes(u8 opcode_byte, u8 flag_byte) {
  Instruction insn;
  insn.op = static_cast<Opcode>(opcode_byte);
  insn.operand = flag_byte & 0x07;
  insn.label = (flag_byte >> 3) & 0x0f;
  insn.done = (flag_byte & 0x80) != 0;
  return insn;
}

namespace {

template <typename Writer>
void put_code(Writer& out, const std::vector<Instruction>& code) {
  for (const auto& insn : code) {
    out.put_u8(static_cast<u8>(insn.op));
    out.put_u8(insn.flag_byte());
  }
  out.put_u8(static_cast<u8>(Opcode::kEof));
  out.put_u8(0);
}

}  // namespace

void Program::serialize(ByteWriter& out) const { put_code(out, code_); }

void Program::serialize(SpanWriter& out) const { put_code(out, code_); }

Program Program::parse(ByteReader& in) {
  Program program;
  for (;;) {
    const u8 op = in.get_u8();
    const u8 flags = in.get_u8();
    const OpcodeInfo* info = opcode_info(op);
    if (info == nullptr) {
      throw ParseError("Program::parse: unknown opcode byte " +
                       std::to_string(op));
    }
    if (static_cast<Opcode>(op) == Opcode::kEof) return program;
    const Instruction insn = Instruction::from_bytes(op, flags);
    if (!operand_in_range(*info, insn.operand)) {
      throw ParseError("Program::parse: argument operand " +
                       std::to_string(insn.operand) + " out of range");
    }
    program.push(insn);
  }
}

std::string Program::to_text() const {
  std::ostringstream os;
  for (const auto& insn : code_) {
    if (insn.label != 0 && opcode_info(insn.op)->operand != OperandKind::kLabel) {
      os << "L" << static_cast<int>(insn.label) << ": ";
    }
    os << mnemonic(insn.op);
    const OpcodeInfo* info = opcode_info(insn.op);
    if (info->operand == OperandKind::kArgIndex) {
      os << " $" << static_cast<int>(insn.operand);
    } else if (info->operand == OperandKind::kLabel) {
      os << " L" << static_cast<int>(insn.label);
    }
    os << "\n";
  }
  return os.str();
}

ProgramAnalysis analyze(const Program& program) {
  ProgramAnalysis out;
  out.length = static_cast<u32>(program.size());
  for (u32 i = 0; i < program.size(); ++i) {
    const Instruction& insn = program.code()[i];
    const OpcodeInfo* info = opcode_info(insn.op);
    if (info == nullptr) throw UsageError("analyze: unknown opcode in program");
    if (info->memory_access) out.access_positions.push_back(i);
    if (insn.op == Opcode::kRts || insn.op == Opcode::kCrts) {
      out.rts_positions.push_back(i);
    }
    if (insn.op == Opcode::kFork) out.fork_positions.push_back(i);
    if (info->branch) {
      // The target must exist strictly after this instruction.
      const u8 target = insn.label;
      const bool found = std::any_of(
          program.code().begin() + i + 1, program.code().end(),
          [target](const Instruction& t) { return t.label == target; });
      if (target == 0 || !found) out.branches_forward = false;
    }
  }
  return out;
}

Program mutate(const Program& program, std::span<const u32> stage_of_access) {
  const ProgramAnalysis analysis = analyze(program);
  if (stage_of_access.size() != analysis.access_positions.size()) {
    throw UsageError("mutate: stage vector size != number of memory accesses");
  }
  Program out;
  out.preload_mar = program.preload_mar;
  out.preload_mbr = program.preload_mbr;
  std::size_t next_access = 0;
  u32 emitted = 0;
  for (u32 i = 0; i < program.size(); ++i) {
    const Instruction& insn = program.code()[i];
    if (next_access < stage_of_access.size() &&
        i == analysis.access_positions[next_access]) {
      const u32 target = stage_of_access[next_access];
      if (target < emitted) {
        throw UsageError(
            "mutate: target stage precedes instructions already emitted");
      }
      while (emitted < target) {
        out.push(Instruction{Opcode::kNop});
        ++emitted;
      }
      ++next_access;
    }
    out.push(insn);
    ++emitted;
  }
  return out;
}

}  // namespace artmt::active
