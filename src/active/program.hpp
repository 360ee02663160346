// Active-program representation and its on-wire instruction encoding.
// Each instruction is two bytes (Section 3.3): a one-byte opcode and a
// one-byte flag. Flag layout in this implementation:
//   bit 7       `done` -- set once executed so the parser can discard the
//               field (the packet-shrink optimization of Section 3.1)
//   bits 3..6   label id (1..15; 0 = unlabeled / no target)
//   bits 0..2   operand (argument-field index for loads/stores; the
//               decoders reject 4..7 where it indexes the argument header)
#pragma once

#include <string>
#include <vector>

#include "active/isa.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"

namespace artmt::active {

struct Instruction {
  Opcode op = Opcode::kNop;
  u8 operand = 0;  // arg-field index (0..3) where OperandKind::kArgIndex
  u8 label = 0;    // for branches: target label; for any insn: its own label
  bool done = false;

  [[nodiscard]] u8 flag_byte() const;
  static Instruction from_bytes(u8 opcode_byte, u8 flag_byte);

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

// A sequence of instructions (EOF terminator is implicit in memory and
// explicit on the wire). Also carries the pre-load metadata of Appendix C:
// initial MAR/MBR values taken from argument fields before stage 0 executes,
// which lets memory in the first stage be addressed without a MAR_LOAD.
class Program {
 public:
  Program() = default;
  explicit Program(std::vector<Instruction> code) : code_(std::move(code)) {}

  [[nodiscard]] const std::vector<Instruction>& code() const { return code_; }
  [[nodiscard]] std::vector<Instruction>& code() { return code_; }
  [[nodiscard]] std::size_t size() const { return code_.size(); }
  [[nodiscard]] bool empty() const { return code_.empty(); }

  void push(Instruction insn) { code_.push_back(insn); }

  // Appendix C "preloading": when set, the runtime seeds MAR (resp. MBR)
  // from args[0] (resp. args[1]) before the first stage.
  bool preload_mar = false;
  bool preload_mbr = false;

  // Serializes instructions followed by an EOF marker.
  void serialize(ByteWriter& out) const;
  void serialize(SpanWriter& out) const;  // into a caller-sized window

  // Parses up to and including the EOF marker; throws ParseError if EOF is
  // missing, an opcode byte is unknown or an argument operand is out of
  // range (operand_in_range).
  static Program parse(ByteReader& in);

  // Disassembly for diagnostics ("MAR_LOAD $0\nMEM_READ\n...").
  [[nodiscard]] std::string to_text() const;

  // Wire size in bytes including the EOF instruction.
  [[nodiscard]] std::size_t wire_size() const { return (code_.size() + 1) * 2; }

  friend bool operator==(const Program&, const Program&) = default;

 private:
  std::vector<Instruction> code_;
};

// Static analysis used by the client compiler and the allocator front end.
struct ProgramAnalysis {
  // 0-based instruction indices of memory-access instructions, in order.
  std::vector<u32> access_positions;
  // 0-based indices of RTS/CRTS instructions (want ingress placement).
  std::vector<u32> rts_positions;
  // 0-based indices of FORK instructions (force recirculation).
  std::vector<u32> fork_positions;
  // Total instruction count (excluding EOF).
  u32 length = 0;
  // True when every branch target label exists at a position after the
  // branch (the sequential-execution requirement of Section 3.1).
  bool branches_forward = true;
};

ProgramAnalysis analyze(const Program& program);

// Rewrites the program so that its i-th memory access executes at logical
// stage `stage_of_access[i]` (0-based), by inserting NOPs ("mutation",
// Section 4.1). Positions must be non-decreasing in gaps relative to the
// original program; throws UsageError otherwise.
Program mutate(const Program& program, std::span<const u32> stage_of_access);

}  // namespace artmt::active
