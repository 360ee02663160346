// Randomized property tests: arbitrary byte-valid programs must never
// crash the runtime, violate memory protection, or corrupt another
// tenant's state; random request shapes must never corrupt the
// allocator; random frames must never crash the parser. Operands span the
// wire's whole 3-bit range, so some programs name argument words the
// header does not have: the decoder rejects those (ParseError), and each
// runtime test keeps drawing until its quota of programs has executed.
#include <gtest/gtest.h>

#include "active/isa.hpp"
#include "alloc/allocator.hpp"
#include "common/rng.hpp"
#include "packet/active_packet.hpp"
#include "runtime/runtime.hpp"

namespace artmt {
namespace {

using active::Instruction;
using active::Opcode;
using packet::ActivePacket;
using packet::ArgumentHeader;

// All defined opcodes (excluding EOF, which is a wire terminator).
std::vector<Opcode> defined_opcodes() {
  std::vector<Opcode> out;
  for (u32 raw = 0; raw < 256; ++raw) {
    const auto* info = active::opcode_info(static_cast<u8>(raw));
    if (info != nullptr && info->op != Opcode::kEof) out.push_back(info->op);
  }
  return out;
}

active::Program random_program(Rng& rng, u32 max_length) {
  static const std::vector<Opcode> opcodes = defined_opcodes();
  active::Program program;
  const u32 length = static_cast<u32>(rng.uniform(max_length)) + 1;
  for (u32 i = 0; i < length; ++i) {
    Instruction insn;
    insn.op = opcodes[rng.uniform(opcodes.size())];
    insn.operand = static_cast<u8>(rng.uniform(8));  // the wire's 3 bits
    insn.label = static_cast<u8>(rng.uniform(4));  // labels 0..3
    program.push(insn);
  }
  return program;
}

class FuzzRuntime : public ::testing::Test {
 protected:
  FuzzRuntime() : pipeline_(config()), runtime_(pipeline_) {
    // FID 1 owns [64, 128) everywhere; FID 2 owns [128, 192).
    for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
      pipeline_.stage(s).install(1, 64, 128, 0);
      pipeline_.stage(s).install(2, 128, 192, 0);
    }
  }

  static rmt::PipelineConfig config() {
    rmt::PipelineConfig cfg;
    cfg.words_per_stage = 256;  // small enough to checksum
    cfg.block_words = 16;
    return cfg;
  }

  // Snapshot of every word OUTSIDE fid 1's regions.
  std::vector<Word> outside_fid1() const {
    std::vector<Word> out;
    for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
      for (u32 w = 0; w < 64; ++w) {
        out.push_back(pipeline_.stage(s).memory().read(w));
      }
      for (u32 w = 128; w < 256; ++w) {
        out.push_back(pipeline_.stage(s).memory().read(w));
      }
    }
    return out;
  }

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
};

TEST_F(FuzzRuntime, RandomProgramsNeverEscapeProtection) {
  Rng rng(2024);
  // Scatter sentinels outside fid 1's region.
  for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
    pipeline_.stage(s).memory().write(10, 0x5a5a5a5a);
    pipeline_.stage(s).memory().write(200, 0xa5a5a5a5);
  }
  const auto before = outside_fid1();
  u32 executed = 0;
  u32 rejected = 0;
  while (executed < 2000) {
    ArgumentHeader args;
    for (auto& a : args.args) a = static_cast<Word>(rng.next_u64());
    auto pkt =
        ActivePacket::make_program(1, args, random_program(rng, 48));
    try {
      (void)runtime_.execute(pkt);
      ++executed;
    } catch (const ParseError&) {
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0u);
  // Whatever those 2000 programs did, fid 1 never wrote outside [64,128).
  EXPECT_EQ(outside_fid1(), before);
}

TEST_F(FuzzRuntime, ResultsAreInternallyConsistent) {
  Rng rng(777);
  u32 executed = 0;
  u32 rejected = 0;
  while (executed < 2000) {
    ArgumentHeader args;
    args.args[0] = 64 + static_cast<Word>(rng.uniform(64));
    auto program = random_program(rng, 48);
    const u32 length = static_cast<u32>(program.size());
    auto pkt = ActivePacket::make_program(1, args, std::move(program));
    runtime::ExecutionResult res;
    try {
      res = runtime_.execute(pkt);
      ++executed;
    } catch (const ParseError&) {
      ++rejected;
      continue;
    }
    EXPECT_LE(res.instructions_executed, length);
    EXPECT_LE(res.stages_consumed, length);
    EXPECT_GE(res.passes, 1u);
    if (res.verdict == runtime::Verdict::kDrop) {
      EXPECT_NE(res.fault, runtime::Fault::kNone);
    }
    if (res.verdict == runtime::Verdict::kReturnToSender) {
      EXPECT_TRUE(res.phv.rts);
    }
  }
  EXPECT_GT(rejected, 0u);
}

TEST_F(FuzzRuntime, WireRoundTripAfterExecution) {
  Rng rng(31337);
  u32 executed = 0;
  u32 rejected = 0;
  while (executed < 500) {
    ArgumentHeader args;
    auto pkt =
        ActivePacket::make_program(1, args, random_program(rng, 30));
    runtime::ExecutionResult res;
    try {
      res = runtime_.execute(pkt);
      ++executed;
    } catch (const ParseError&) {
      ++rejected;
      continue;
    }
    if (res.verdict == runtime::Verdict::kDrop) continue;
    // Post-execution packets must still serialize and re-parse cleanly.
    std::vector<u8> frame;
    ASSERT_NO_THROW(frame = pkt.serialize());
    ASSERT_NO_THROW((void)ActivePacket::parse(frame));
  }
  EXPECT_GT(rejected, 0u);
}

TEST(FuzzParser, RandomFramesNeverCrash) {
  Rng rng(99);
  u32 parsed = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const std::size_t size = rng.uniform(128);
    std::vector<u8> frame(size);
    for (auto& byte : frame) byte = static_cast<u8>(rng.next_u64());
    // Half the trials get a valid Ethernet prefix to reach deeper paths.
    if (trial % 2 == 0 && frame.size() >= 14) {
      frame[12] = 0x83;
      frame[13] = 0xb2;
    }
    try {
      (void)ActivePacket::parse(frame);
      ++parsed;
    } catch (const ParseError&) {
      // expected for garbage
    }
  }
  // A few all-random frames can be structurally valid; most are not.
  EXPECT_LT(parsed, 2500u);
}

TEST(FuzzParser, TruncationSweepNeverCrashes) {
  active::Program program;
  for (int i = 0; i < 10; ++i) {
    program.push({Opcode::kMbrLoad, static_cast<u8>(i % 4)});
  }
  ArgumentHeader args;
  const auto pkt = ActivePacket::make_program(7, args, program);
  const auto frame = pkt.serialize();
  for (std::size_t cut = 0; cut < frame.size(); ++cut) {
    std::vector<u8> truncated(frame.begin(),
                              frame.begin() + static_cast<long>(cut));
    try {
      (void)ActivePacket::parse(truncated);
    } catch (const ParseError&) {
      // fine
    }
  }
  SUCCEED();
}

TEST(FuzzAllocator, RandomRequestsPreserveInvariants) {
  Rng rng(4242);
  alloc::Allocator allocator({20, 10}, 64);
  std::vector<alloc::AppId> resident;
  for (int step = 0; step < 400; ++step) {
    if (!resident.empty() && rng.uniform(3) == 0) {
      const std::size_t pick = rng.uniform(resident.size());
      allocator.deallocate(resident[pick]);
      resident.erase(resident.begin() + static_cast<std::ptrdiff_t>(pick));
      continue;
    }
    // Random but well-formed request: 1..4 increasing accesses.
    alloc::AllocationRequest request;
    const u32 accesses = static_cast<u32>(rng.uniform(4)) + 1;
    u32 position = static_cast<u32>(rng.uniform(3));
    for (u32 i = 0; i < accesses; ++i) {
      alloc::AccessDemand demand;
      demand.position = position;
      demand.demand_blocks = static_cast<u32>(rng.uniform(4)) + 1;
      request.accesses.push_back(demand);
      position += static_cast<u32>(rng.uniform(5)) + 1;
    }
    request.program_length = position + static_cast<u32>(rng.uniform(4)) + 1;
    request.elastic = rng.uniform(2) == 0;
    if (rng.uniform(4) == 0) {
      request.rts_position = request.program_length - 1;
    }
    const auto outcome = allocator.allocate(request);
    if (outcome.success) resident.push_back(outcome.app);

    // Invariants after every step.
    ASSERT_EQ(allocator.resident_count(), resident.size());
    for (u32 s = 0; s < 20; ++s) {
      std::vector<Interval> regions;
      for (const auto& [id, region] : allocator.stage(s).regions()) {
        ASSERT_LE(region.end, 64u);
        for (const auto& other : regions) {
          ASSERT_FALSE(region.overlaps(other));
        }
        regions.push_back(region);
      }
    }
    ASSERT_GE(allocator.utilization(), 0.0);
    ASSERT_LE(allocator.utilization(), 1.0);
  }
}

}  // namespace
}  // namespace artmt
