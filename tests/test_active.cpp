// Tests for the instruction set, program encoding, assembler, analysis,
// and NOP mutation.
#include <gtest/gtest.h>

#include "active/assembler.hpp"
#include "active/compiled_program.hpp"
#include "active/isa.hpp"
#include "active/program.hpp"
#include "common/error.hpp"

namespace artmt::active {
namespace {

TEST(Isa, MnemonicRoundTrip) {
  for (const u8 raw : {0x00, 0x01, 0x10, 0x27, 0x30, 0x41, 0x53}) {
    const OpcodeInfo* info = opcode_info(raw);
    ASSERT_NE(info, nullptr);
    EXPECT_EQ(opcode_from_mnemonic(info->mnemonic), info->op);
  }
}

TEST(Isa, UnknownOpcodeIsNull) {
  EXPECT_EQ(opcode_info(static_cast<u8>(0xff)), nullptr);
  EXPECT_FALSE(opcode_from_mnemonic("BOGUS").has_value());
}

TEST(Isa, MemoryOpcodesFlagged) {
  for (const Opcode op : {Opcode::kMemWrite, Opcode::kMemRead,
                          Opcode::kMemIncrement, Opcode::kMemMinread,
                          Opcode::kMemMinreadinc}) {
    EXPECT_TRUE(opcode_info(op)->memory_access);
  }
  EXPECT_FALSE(opcode_info(Opcode::kNop)->memory_access);
}

TEST(Isa, BranchOpcodesFlagged) {
  EXPECT_TRUE(opcode_info(Opcode::kCjump)->branch);
  EXPECT_TRUE(opcode_info(Opcode::kUjump)->branch);
  EXPECT_FALSE(opcode_info(Opcode::kCret)->branch);
}

TEST(Instruction, FlagByteRoundTrip) {
  Instruction insn;
  insn.op = Opcode::kMbrLoad;
  insn.operand = 3;
  insn.label = 9;
  insn.done = true;
  const Instruction back =
      Instruction::from_bytes(static_cast<u8>(insn.op), insn.flag_byte());
  EXPECT_EQ(back, insn);
}

TEST(Program, SerializeParseRoundTrip) {
  Program p;
  p.push({Opcode::kMarLoad, 0});
  p.push({Opcode::kMemRead});
  p.push({Opcode::kReturn});
  ByteWriter w;
  p.serialize(w);
  EXPECT_EQ(w.size(), p.wire_size());
  ByteReader r(w.bytes());
  EXPECT_EQ(Program::parse(r), p);
}

TEST(Program, ParseWithoutEofThrows) {
  ByteWriter w;
  w.put_u8(static_cast<u8>(Opcode::kNop));
  w.put_u8(0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)Program::parse(r), ParseError);
}

TEST(Program, ParseUnknownOpcodeThrows) {
  ByteWriter w;
  w.put_u8(0xee);
  w.put_u8(0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)Program::parse(r), ParseError);
}

// The flag byte's three operand bits can name argument words 4..7, which
// the four-word argument header does not have. Every decoder rejects them
// on an argument-index opcode, as the assembler does; other opcodes keep
// ignoring their operand bits.
TEST(Program, DecodersRejectOutOfRangeArgumentOperands) {
  u32 arg_opcodes = 0;
  for (u32 raw = 1; raw < 256; ++raw) {  // 0 is EOF
    const OpcodeInfo* info = opcode_info(static_cast<u8>(raw));
    if (info == nullptr) continue;
    const bool arg = info->operand == OperandKind::kArgIndex;
    if (arg) ++arg_opcodes;
    for (u8 operand = 0; operand < 8; ++operand) {
      SCOPED_TRACE(std::string(info->mnemonic) + " $" +
                   std::to_string(operand));
      const Instruction insn{info->op, operand};
      const std::vector<u8> bytes{static_cast<u8>(raw), insn.flag_byte(),
                                  static_cast<u8>(Opcode::kEof), 0};
      const auto wire = std::span(bytes).first(2);  // EOF excluded
      ByteReader r(bytes);
      const Program program({insn});
      if (arg && operand >= kArgFields) {
        EXPECT_THROW((void)Program::parse(r), ParseError);
        EXPECT_THROW((void)CompiledProgram::compile(wire, false, false),
                     ParseError);
        EXPECT_THROW((void)CompiledProgram::compile(program), ParseError);
      } else {
        EXPECT_EQ(Program::parse(r), program);
        EXPECT_EQ(CompiledProgram::compile(wire, false, false).size(), 1u);
        EXPECT_EQ(CompiledProgram::compile(program).size(), 1u);
      }
    }
  }
  EXPECT_EQ(arg_opcodes, 8u);
}

// ---------- assembler ----------

TEST(Assembler, Listing1Shape) {
  const Program p = assemble(R"(
      MAR_LOAD $0        // locate bucket
      MEM_READ
      MBR_EQUALS_DATA $1
      CRET
      MEM_READ
      MBR_EQUALS_DATA $2
      CRET
      RTS
      MEM_READ
      MBR_STORE $0
      RETURN
  )");
  ASSERT_EQ(p.size(), 11u);
  EXPECT_EQ(p.code()[0].op, Opcode::kMarLoad);
  EXPECT_EQ(p.code()[7].op, Opcode::kRts);
  EXPECT_EQ(p.code()[10].op, Opcode::kReturn);
}

TEST(Assembler, LabelsAndBranches) {
  const Program p = assemble(R"(
      MBR_LOAD $0
      CJUMP L2
      NOP
      L2: RETURN
  )");
  EXPECT_EQ(p.code()[1].label, 2);
  EXPECT_EQ(p.code()[3].label, 2);
}

TEST(Assembler, DefaultArgIndexIsZero) {
  const Program p = assemble("MBR_LOAD");
  EXPECT_EQ(p.code()[0].operand, 0);
}

TEST(Assembler, RejectsUnknownMnemonic) {
  EXPECT_THROW((void)assemble("FROBNICATE"), CompileError);
}

TEST(Assembler, RejectsBadArgIndex) {
  EXPECT_THROW((void)assemble("MBR_LOAD $4"), CompileError);
  EXPECT_THROW((void)assemble("MBR_LOAD x"), CompileError);
}

TEST(Assembler, RejectsMissingLabelOperand) {
  EXPECT_THROW((void)assemble("CJUMP"), CompileError);
}

TEST(Assembler, RejectsBackwardBranch) {
  EXPECT_THROW((void)assemble(R"(
      L1: NOP
      UJUMP L1
  )"),
               CompileError);
}

TEST(Assembler, RejectsUndefinedLabel) {
  EXPECT_THROW((void)assemble("UJUMP L3"), CompileError);
}

TEST(Assembler, RejectsExplicitEof) {
  EXPECT_THROW((void)assemble("EOF"), CompileError);
}

TEST(Assembler, RejectsOperandOnPlainInstruction) {
  EXPECT_THROW((void)assemble("NOP $1"), CompileError);
}

TEST(Assembler, IgnoresCommentsAndBlankLines) {
  const Program p = assemble("\n  // nothing\nNOP // trailing\n\n");
  EXPECT_EQ(p.size(), 1u);
}

// ---------- analysis ----------

TEST(Analyze, Listing1Positions) {
  const Program p = assemble(R"(
      MAR_LOAD $0
      MEM_READ
      MBR_EQUALS_DATA $1
      CRET
      MEM_READ
      MBR_EQUALS_DATA $2
      CRET
      RTS
      MEM_READ
      MBR_STORE $0
      RETURN
  )");
  const ProgramAnalysis a = analyze(p);
  EXPECT_EQ(a.length, 11u);
  EXPECT_EQ(a.access_positions, (std::vector<u32>{1, 4, 8}));
  EXPECT_EQ(a.rts_positions, (std::vector<u32>{7}));
  EXPECT_TRUE(a.fork_positions.empty());
  EXPECT_TRUE(a.branches_forward);
}

TEST(Analyze, DetectsFork) {
  Program p;
  p.push({Opcode::kFork});
  p.push({Opcode::kReturn});
  EXPECT_EQ(analyze(p).fork_positions, (std::vector<u32>{0}));
}

// ---------- mutation ----------

TEST(Mutate, InsertsNopsBeforeAccesses) {
  const Program p = assemble(R"(
      MAR_LOAD $0
      MEM_READ
      MEM_READ
      RETURN
  )");
  // accesses at 1, 2 -> move to stages 3, 6
  const Program m = mutate(p, std::vector<u32>{3, 6});
  const ProgramAnalysis a = analyze(m);
  EXPECT_EQ(a.access_positions, (std::vector<u32>{3, 6}));
  EXPECT_EQ(m.size(), 4u + 2u + 2u);
  EXPECT_EQ(m.code()[1].op, Opcode::kNop);
  EXPECT_EQ(m.code()[7].op, Opcode::kReturn);
}

TEST(Mutate, IdentityWhenTargetsMatch) {
  const Program p = assemble("MAR_LOAD $0\nMEM_READ\nRETURN");
  EXPECT_EQ(mutate(p, std::vector<u32>{1}), p);
}

TEST(Mutate, RejectsWrongArity) {
  const Program p = assemble("MAR_LOAD $0\nMEM_READ\nRETURN");
  EXPECT_THROW((void)mutate(p, std::vector<u32>{1, 2}), UsageError);
}

TEST(Mutate, RejectsTooEarlyTarget) {
  const Program p = assemble("MAR_LOAD $0\nMEM_READ\nRETURN");
  EXPECT_THROW((void)mutate(p, std::vector<u32>{0}), UsageError);
}

TEST(Mutate, PreservesPreloadFlags) {
  Program p = assemble("MEM_READ\nRETURN");
  p.preload_mar = true;
  const Program m = mutate(p, std::vector<u32>{2});
  EXPECT_TRUE(m.preload_mar);
}

TEST(Program, ToTextDisassembles) {
  const Program p = assemble("MBR_LOAD $2\nCJUMP L1\nL1: RETURN");
  const std::string text = p.to_text();
  EXPECT_NE(text.find("MBR_LOAD $2"), std::string::npos);
  EXPECT_NE(text.find("CJUMP L1"), std::string::npos);
}

}  // namespace
}  // namespace artmt::active
