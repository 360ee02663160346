// Tests for the ActiveRMT switch runtime: per-instruction semantics,
// control flow, memory protection, recirculation, RTS placement, packet
// shrinking, preloading, and deactivation.
#include <gtest/gtest.h>

#include "active/assembler.hpp"
#include "packet/active_packet.hpp"
#include "rmt/hash.hpp"
#include "runtime/runtime.hpp"

namespace artmt::runtime {
namespace {

using active::Opcode;
using packet::ActivePacket;
using packet::ActiveType;
using packet::ArgumentHeader;

class RuntimeTest : public ::testing::Test {
 protected:
  RuntimeTest() : pipeline_(config()), runtime_(pipeline_) {
    // FID 1 owns words [100, 200) in every stage with zero advance.
    for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
      pipeline_.stage(s).install(1, 100, 200, 0);
    }
  }

  static rmt::PipelineConfig config() {
    rmt::PipelineConfig cfg;
    cfg.words_per_stage = 1024;
    cfg.block_words = 64;
    return cfg;
  }

  ActivePacket make_packet(const std::string& text,
                           const ArgumentHeader& args = {}, Fid fid = 1) {
    return ActivePacket::make_program(fid, args, active::assemble(text));
  }

  ExecutionResult run(ActivePacket& pkt, const PacketMeta& meta = {}) {
    return runtime_.execute(pkt, meta);
  }

  rmt::Pipeline pipeline_;
  ActiveRuntime runtime_;
};

// ---------- data copying & manipulation ----------

TEST_F(RuntimeTest, MbrLoadStore) {
  auto pkt = make_packet("MBR_LOAD $2\nMBR_STORE $3\nRETURN",
                         ArgumentHeader{{0, 0, 77, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_EQ(pkt.arguments->args[3], 77u);
  EXPECT_EQ(res.phv.mbr, 77u);
}

TEST_F(RuntimeTest, CopyChainAndSwap) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      COPY_MBR2_MBR
      MBR_LOAD $1
      SWAP_MBR_MBR2
      COPY_MAR_MBR
      RETURN
  )",
                         ArgumentHeader{{5, 9, 0, 0}});
  const auto res = run(pkt);
  // MBR2 = 5, then MBR = 9; swap -> MBR = 5, MBR2 = 9; MAR <- 5.
  EXPECT_EQ(res.phv.mar, 5u);
  EXPECT_EQ(res.phv.mbr2, 9u);
}

TEST_F(RuntimeTest, ArithmeticOps) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      MBR2_LOAD $1
      MBR_ADD_MBR2
      MAR_MBR_ADD_MBR2
      MBR_SUBTRACT_MBR2
      RETURN
  )",
                         ArgumentHeader{{10, 3, 0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.phv.mbr, 10u);  // (10+3)-3
  EXPECT_EQ(res.phv.mar, 16u);  // 13+3
}

TEST_F(RuntimeTest, MarAddVariants) {
  auto pkt = make_packet(R"(
      MAR_LOAD $0
      MBR_LOAD $1
      MAR_ADD_MBR
      MBR2_LOAD $2
      MAR_ADD_MBR2
      RETURN
  )",
                         ArgumentHeader{{100, 5, 7, 0}});
  EXPECT_EQ(run(pkt).phv.mar, 112u);
}

TEST_F(RuntimeTest, MinMaxRevminNot) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      MBR2_LOAD $1
      MAX
      REVMIN
      MBR_NOT
      RETURN
  )",
                         ArgumentHeader{{4, 9, 0, 0}});
  const auto res = run(pkt);
  // MAX -> MBR = 9; REVMIN -> MBR2 = min(9, 9) = 9; NOT -> ~9.
  EXPECT_EQ(res.phv.mbr, ~9u);
  EXPECT_EQ(res.phv.mbr2, 9u);
}

TEST_F(RuntimeTest, MinKeepsSmaller) {
  auto pkt = make_packet("MBR_LOAD $0\nMBR2_LOAD $1\nMIN\nRETURN",
                         ArgumentHeader{{9, 4, 0, 0}});
  EXPECT_EQ(run(pkt).phv.mbr, 4u);
}

TEST_F(RuntimeTest, XorEqualityIdioms) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      MBR2_LOAD $1
      MBR_EQUALS_MBR2
      RETURN
  )",
                         ArgumentHeader{{42, 42, 0, 0}});
  EXPECT_EQ(run(pkt).phv.mbr, 0u);

  auto pkt2 = make_packet("MBR_LOAD $0\nMBR_EQUALS_DATA $1\nRETURN",
                          ArgumentHeader{{42, 40, 0, 0}});
  EXPECT_NE(run(pkt2).phv.mbr, 0u);
}

TEST_F(RuntimeTest, BitOps) {
  auto pkt = make_packet(R"(
      MAR_LOAD $0
      MBR_LOAD $1
      BIT_AND_MAR_MBR
      MBR2_LOAD $2
      BIT_OR_MBR_MBR2
      RETURN
  )",
                         ArgumentHeader{{0xff, 0x0f, 0xf0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.phv.mar, 0x0fu);
  EXPECT_EQ(res.phv.mbr, 0xffu);
}

// ---------- control flow ----------

TEST_F(RuntimeTest, ReturnStopsExecution) {
  auto pkt = make_packet("MBR_LOAD $0\nRETURN\nMBR_LOAD $1",
                         ArgumentHeader{{1, 2, 0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.phv.mbr, 1u);
  EXPECT_TRUE(res.phv.complete);
  EXPECT_EQ(res.instructions_executed, 2u);
}

TEST_F(RuntimeTest, CretReturnsWhenTrue) {
  auto pkt = make_packet("MBR_LOAD $0\nCRET\nMBR_LOAD $1\nRETURN",
                         ArgumentHeader{{1, 99, 0, 0}});
  EXPECT_EQ(run(pkt).phv.mbr, 1u);  // returned at CRET

  auto pkt2 = make_packet("MBR_LOAD $0\nCRET\nMBR_LOAD $1\nRETURN",
                          ArgumentHeader{{0, 99, 0, 0}});
  EXPECT_EQ(run(pkt2).phv.mbr, 99u);  // fell through
}

TEST_F(RuntimeTest, CretiReturnsWhenFalse) {
  auto pkt = make_packet("MBR_LOAD $0\nCRETI\nMBR_LOAD $1\nRETURN",
                         ArgumentHeader{{0, 99, 0, 0}});
  EXPECT_EQ(run(pkt).phv.mbr, 0u);
}

TEST_F(RuntimeTest, CjumpSkipsToLabel) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      CJUMP L1
      MBR_LOAD $1
      L1: MBR_STORE $3
      RETURN
  )",
                         ArgumentHeader{{7, 99, 0, 0}});
  const auto res = run(pkt);
  // Branch taken: the $1 load is skipped; the labeled store executes.
  EXPECT_EQ(pkt.arguments->args[3], 7u);
  // Skipped instructions still consume stages.
  EXPECT_EQ(res.stages_consumed, 5u);
}

TEST_F(RuntimeTest, CjumpFallsThroughWhenFalse) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      CJUMP L1
      MBR_LOAD $1
      L1: MBR_STORE $3
      RETURN
  )",
                         ArgumentHeader{{0, 99, 0, 0}});
  run(pkt);
  EXPECT_EQ(pkt.arguments->args[3], 99u);
}

TEST_F(RuntimeTest, CjumpiBranchesOnZero) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      CJUMPI L1
      MBR_LOAD $1
      L1: RETURN
  )",
                         ArgumentHeader{{0, 99, 0, 0}});
  EXPECT_EQ(run(pkt).phv.mbr, 0u);
}

TEST_F(RuntimeTest, UjumpAlwaysBranches) {
  auto pkt = make_packet(R"(
      UJUMP L1
      MBR_LOAD $1
      L1: RETURN
  )",
                         ArgumentHeader{{0, 99, 0, 0}});
  EXPECT_EQ(run(pkt).phv.mbr, 0u);
}

TEST_F(RuntimeTest, NestedSkipsConsumeStages) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      CJUMP L3
      NOP
      NOP
      NOP
      L3: RETURN
  )",
                         ArgumentHeader{{1, 0, 0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.stages_consumed, 6u);
  EXPECT_EQ(res.instructions_executed, 3u);  // load, jump, return
}

// ---------- memory semantics ----------

TEST_F(RuntimeTest, MemWriteRead) {
  auto wr = make_packet("MAR_LOAD $0\nMBR_LOAD $1\nMEM_WRITE\nRETURN",
                        ArgumentHeader{{150, 1234, 0, 0}});
  EXPECT_EQ(run(wr).verdict, Verdict::kForward);
  EXPECT_EQ(pipeline_.stage(2).memory().read(150), 1234u);

  // Pad the read to stage 2 where the write landed.
  auto rd = make_packet("MAR_LOAD $0\nNOP\nMEM_READ\nMBR_STORE $3\nRETURN",
                        ArgumentHeader{{150, 0, 0, 0}});
  run(rd);
  EXPECT_EQ(rd.arguments->args[3], 1234u);
}

TEST_F(RuntimeTest, StagesHaveIndependentMemory) {
  auto wr = make_packet("MAR_LOAD $0\nMBR_LOAD $1\nMEM_WRITE\nRETURN",
                        ArgumentHeader{{150, 1, 0, 0}});
  run(wr);
  EXPECT_EQ(pipeline_.stage(2).memory().read(150), 1u);
  EXPECT_EQ(pipeline_.stage(3).memory().read(150), 0u);
}

TEST_F(RuntimeTest, MemIncrement) {
  auto pkt = make_packet("MAR_LOAD $0\nMEM_INCREMENT\nRETURN",
                         ArgumentHeader{{100, 0, 0, 0}});
  EXPECT_EQ(run(pkt).phv.mbr, 1u);
  auto pkt2 = make_packet("MAR_LOAD $0\nMEM_INCREMENT\nRETURN",
                          ArgumentHeader{{100, 0, 0, 0}});
  EXPECT_EQ(run(pkt2).phv.mbr, 2u);
}

TEST_F(RuntimeTest, MemMinread) {
  pipeline_.stage(1).memory().write(110, 5);
  auto pkt = make_packet("MAR_LOAD $0\nMEM_MINREAD\nRETURN",
                         ArgumentHeader{{110, 0, 0, 0}});
  // MBR starts 0: min(5, 0) = 0.
  EXPECT_EQ(run(pkt).phv.mbr, 0u);
}

TEST_F(RuntimeTest, MemMinreadincSketchSemantics) {
  // MBR2 carries the running min across counter bumps.
  auto pkt = make_packet(R"(
      MBR2_LOAD $1
      MAR_LOAD $0
      MEM_MINREADINC
      RETURN
  )",
                         ArgumentHeader{{120, 50, 0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.phv.mbr, 1u);   // post-increment count
  EXPECT_EQ(res.phv.mbr2, 1u);  // min(1, 50)
}

TEST_F(RuntimeTest, ProtectionViolationDrops) {
  auto pkt = make_packet("MAR_LOAD $0\nMEM_READ\nRETURN",
                         ArgumentHeader{{99, 0, 0, 0}});  // below the region
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kDrop);
  EXPECT_EQ(res.fault, Fault::kProtectionViolation);
  EXPECT_EQ(runtime_.stats().drops_protection, 1u);
}

TEST_F(RuntimeTest, ProtectionUpperBoundExclusive) {
  auto pkt = make_packet("MAR_LOAD $0\nMEM_READ\nRETURN",
                         ArgumentHeader{{200, 0, 0, 0}});
  EXPECT_EQ(run(pkt).fault, Fault::kProtectionViolation);
  auto ok = make_packet("MAR_LOAD $0\nMEM_READ\nRETURN",
                        ArgumentHeader{{199, 0, 0, 0}});
  EXPECT_EQ(run(ok).fault, Fault::kNone);
}

TEST_F(RuntimeTest, UnallocatedFidDrops) {
  auto pkt = make_packet("MAR_LOAD $0\nMEM_READ\nRETURN",
                         ArgumentHeader{{150, 0, 0, 0}}, /*fid=*/42);
  const auto res = run(pkt);
  EXPECT_EQ(res.fault, Fault::kNoAllocation);
  EXPECT_EQ(runtime_.stats().drops_no_allocation, 1u);
}

TEST_F(RuntimeTest, AdvanceWalksRegions) {
  // Stage 1 advances MAR by +64 after its access (next region's delta).
  pipeline_.stage(1).install(1, 100, 200, 64);
  pipeline_.stage(2).memory().write(174, 555);  // 110 + 64
  auto pkt = make_packet(R"(
      MAR_LOAD $0
      MEM_READ
      MEM_READ
      MBR_STORE $3
      RETURN
  )",
                         ArgumentHeader{{110, 0, 0, 0}});
  run(pkt);
  EXPECT_EQ(pkt.arguments->args[3], 555u);
}

// ---------- hashing & runtime translation ----------

TEST_F(RuntimeTest, HashIntoMar) {
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      COPY_HASHDATA_MBR $0
      HASH $1
      COPY_MBR_MAR
      MBR_STORE $3
      RETURN
  )",
                         ArgumentHeader{{1234, 0, 0, 0}});
  run(pkt);
  const std::array<Word, active::kHashdataWords> data{1234, 0, 0, 0};
  EXPECT_EQ(pkt.arguments->args[3], rmt::hash_words(data, 1));
}

TEST_F(RuntimeTest, AddrMaskOffsetTranslateForNextAccess) {
  // Region is [100, 200): mask 63, offset 100. A hash-translated access
  // must land inside the region regardless of the hash value.
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      COPY_HASHDATA_MBR $0
      HASH $0
      ADDR_MASK
      ADDR_OFFSET
      MEM_READ
      RETURN
  )",
                         ArgumentHeader{{0xabcdef01, 0, 0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_GE(res.phv.mar, 100u);
  EXPECT_LT(res.phv.mar, 200u);
}

TEST_F(RuntimeTest, AddrMaskWithoutUpcomingAccessDrops) {
  auto pkt = make_packet("ADDR_MASK\nRETURN", ArgumentHeader{});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kDrop);
  EXPECT_EQ(res.fault, Fault::kNoAllocation);
}

TEST_F(RuntimeTest, FiveTupleMetadataReachable) {
  PacketMeta meta;
  meta.five_tuple = {9, 8, 7, 6};
  auto pkt = make_packet(R"(
      COPY_HASHDATA_5TUPLE
      HASH $0
      COPY_MBR_MAR
      MBR_STORE $3
      RETURN
  )",
                         ArgumentHeader{});
  run(pkt, meta);
  EXPECT_EQ(pkt.arguments->args[3],
            rmt::hash_words(std::vector<Word>{9, 8, 7, 6}, 0));
}

// ---------- forwarding ----------

TEST_F(RuntimeTest, RtsSwapsAddressesAtIngress) {
  auto pkt = make_packet("RTS\nRETURN", ArgumentHeader{});
  pkt.ethernet.src = 0xaaa;
  pkt.ethernet.dst = 0xbbb;
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kReturnToSender);
  EXPECT_EQ(pkt.ethernet.src, 0xbbbu);
  EXPECT_EQ(pkt.ethernet.dst, 0xaaau);
  EXPECT_EQ(res.passes, 1u);  // RTS at stage 0 = ingress, no penalty
}

TEST_F(RuntimeTest, RtsAtEgressCostsARecirculation) {
  std::string text;
  for (int i = 0; i < 12; ++i) text += "NOP\n";
  text += "RTS\nRETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kReturnToSender);
  EXPECT_EQ(res.passes, 2u);  // stage 12 is egress -> port change recircs
}

TEST_F(RuntimeTest, CrtsConditional) {
  auto pkt = make_packet("MBR_LOAD $0\nCRTS\nRETURN",
                         ArgumentHeader{{0, 0, 0, 0}});
  EXPECT_EQ(run(pkt).verdict, Verdict::kForward);
  auto pkt2 = make_packet("MBR_LOAD $0\nCRTS\nRETURN",
                          ArgumentHeader{{1, 0, 0, 0}});
  EXPECT_EQ(run(pkt2).verdict, Verdict::kReturnToSender);
}

TEST_F(RuntimeTest, DropVerdict) {
  auto pkt = make_packet("DROP\nRETURN", ArgumentHeader{});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kDrop);
  EXPECT_EQ(res.fault, Fault::kExplicitDrop);
  EXPECT_EQ(runtime_.stats().drops_explicit, 1u);
}

TEST_F(RuntimeTest, SetDstOverrides) {
  auto pkt = make_packet("MBR_LOAD $0\nSET_DST\nRETURN",
                         ArgumentHeader{{3, 0, 0, 0}});
  const auto res = run(pkt);
  EXPECT_TRUE(res.phv.dst_overridden);
  EXPECT_EQ(res.phv.dst_value, 3u);
}

TEST_F(RuntimeTest, ForkSignalsCloneAndRecirculation) {
  auto pkt = make_packet("FORK\nRETURN", ArgumentHeader{});
  const auto res = run(pkt);
  EXPECT_TRUE(res.forked);
  EXPECT_EQ(res.passes, 2u);
}

// ---------- recirculation & latency ----------

TEST_F(RuntimeTest, LongProgramRecirculates) {
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  const auto res = run(pkt);
  EXPECT_EQ(res.passes, 2u);
  // 26 instructions engage three 10-stage pipelines.
  EXPECT_EQ(res.latency, 3 * rmt::PipelineConfig::kPassLatency);
  EXPECT_EQ(runtime_.stats().recirculations, 1u);
}

TEST_F(RuntimeTest, TwentyInstructionsFitOnePass) {
  std::string text;
  for (int i = 0; i < 19; ++i) text += "NOP\n";
  text += "RETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  EXPECT_EQ(run(pkt).passes, 1u);
}

TEST_F(RuntimeTest, RecirculationLimitDrops) {
  std::string text;
  for (int i = 0; i < 200; ++i) text += "NOP\n";
  text += "RETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kDrop);
  EXPECT_EQ(res.fault, Fault::kRecircLimit);
}

// ---------- parser-side behaviors ----------

TEST_F(RuntimeTest, ExecutedInstructionsShrinkFromPacket) {
  auto pkt = make_packet("MBR_LOAD $0\nCRET\nMBR_LOAD $1\nRETURN",
                         ArgumentHeader{{1, 0, 0, 0}});
  run(pkt);
  // MBR_LOAD + CRET executed and discarded; the untouched tail remains.
  EXPECT_EQ(pkt.program->size(), 2u);
  EXPECT_EQ(pkt.program->code()[0].op, Opcode::kMbrLoad);
}

TEST_F(RuntimeTest, NoShrinkFlagKeepsInstructions) {
  auto pkt = make_packet("MBR_LOAD $0\nRETURN", ArgumentHeader{{1, 0, 0, 0}});
  pkt.initial.flags |= packet::kFlagNoShrink;
  run(pkt);
  EXPECT_EQ(pkt.program->size(), 2u);
}

TEST_F(RuntimeTest, PreloadMarReachesStageZero) {
  pipeline_.stage(0).memory().write(130, 777);
  auto pkt = make_packet("MEM_READ\nMBR_STORE $3\nRETURN",
                         ArgumentHeader{{130, 0, 0, 0}});
  pkt.program->preload_mar = true;
  pkt.initial.flags |= packet::kFlagPreloadMar;
  // Re-serialize to prove the flag survives the wire.
  auto parsed = ActivePacket::parse(pkt.serialize());
  run(parsed);
  EXPECT_EQ(parsed.arguments->args[3], 777u);
}

TEST_F(RuntimeTest, PreloadMbrSeedsValue) {
  auto pkt =
      make_packet("MEM_WRITE\nRETURN", ArgumentHeader{{140, 888, 0, 0}});
  pkt.program->preload_mar = true;
  pkt.program->preload_mbr = true;
  pkt.initial.flags |= packet::kFlagPreloadMar | packet::kFlagPreloadMbr;
  auto parsed = ActivePacket::parse(pkt.serialize());
  run(parsed);
  EXPECT_EQ(pipeline_.stage(0).memory().read(140), 888u);
}

// ---------- deactivation (Section 4.3) ----------

TEST_F(RuntimeTest, DeactivatedFidForwardsUnprocessed) {
  runtime_.deactivate(1);
  auto pkt = make_packet("MAR_LOAD $0\nMEM_READ\nRETURN",
                         ArgumentHeader{{150, 0, 0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_FALSE(res.executed);
  EXPECT_EQ(res.fault, Fault::kDeactivated);
  EXPECT_EQ(runtime_.stats().forwarded_unprocessed, 1u);
}

TEST_F(RuntimeTest, ManagementCapsulesRunWhileDeactivated) {
  runtime_.deactivate(1);
  auto pkt = make_packet("MAR_LOAD $0\nMBR_LOAD $1\nMEM_WRITE\nRETURN",
                         ArgumentHeader{{150, 42, 0, 0}});
  pkt.initial.flags |= packet::kFlagManagement;
  const auto res = run(pkt);
  EXPECT_TRUE(res.executed);
  EXPECT_EQ(pipeline_.stage(2).memory().read(150), 42u);
}

TEST_F(RuntimeTest, ReactivationRestoresExecution) {
  runtime_.deactivate(1);
  runtime_.reactivate(1);
  auto pkt = make_packet("MBR_LOAD $0\nRETURN", ArgumentHeader{{5, 0, 0, 0}});
  EXPECT_TRUE(run(pkt).executed);
}

TEST_F(RuntimeTest, ControlPacketsForwardWithoutExecution) {
  auto pkt = ActivePacket::make_control(1, ActiveType::kExtractComplete);
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_FALSE(res.executed);
}

TEST_F(RuntimeTest, EmptyProgramForwards) {
  auto pkt =
      ActivePacket::make_program(1, ArgumentHeader{}, active::Program{});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_EQ(res.passes, 1u);
}

// ---------- Section 7.2 extensions ----------

TEST_F(RuntimeTest, PrivilegeEnforcementBlocksForwardingOps) {
  runtime_.set_enforce_privilege(true);
  for (const char* op : {"FORK", "SET_DST", "DROP"}) {
    auto pkt = make_packet(std::string(op) + "\nRETURN", ArgumentHeader{});
    const auto res = run(pkt);
    EXPECT_EQ(res.verdict, Verdict::kDrop) << op;
    EXPECT_EQ(res.fault, Fault::kPrivilege) << op;
  }
  EXPECT_EQ(runtime_.stats().drops_privilege, 3u);
}

TEST_F(RuntimeTest, PrivilegedCapsulePasses) {
  runtime_.set_enforce_privilege(true);
  auto pkt = make_packet("FORK\nRETURN", ArgumentHeader{});
  pkt.initial.flags |= packet::kFlagPrivileged;
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_TRUE(res.forked);
}

TEST_F(RuntimeTest, PrivilegeOffByDefault) {
  auto pkt = make_packet("SET_DST\nRETURN", ArgumentHeader{});
  EXPECT_EQ(run(pkt).fault, Fault::kNone);
}

TEST_F(RuntimeTest, RtsNeverNeedsPrivilege) {
  runtime_.set_enforce_privilege(true);
  auto pkt = make_packet("RTS\nRETURN", ArgumentHeader{});
  EXPECT_EQ(run(pkt).verdict, Verdict::kReturnToSender);
}

TEST_F(RuntimeTest, RecircBudgetDropsWhenExhausted) {
  // Two extra passes of burst, no refill: the first two recirculating
  // packets pass, the third is dropped.
  runtime_.set_recirc_budget(1, RecircBudget{1e-9, 2.0});
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";  // 26 instructions -> 1 extra pass each
  for (int i = 0; i < 2; ++i) {
    auto pkt = make_packet(text, ArgumentHeader{});
    EXPECT_EQ(runtime_.execute(pkt, {}, 0).verdict, Verdict::kForward) << i;
  }
  auto pkt = make_packet(text, ArgumentHeader{});
  const auto res = runtime_.execute(pkt, {}, 0);
  EXPECT_EQ(res.verdict, Verdict::kDrop);
  EXPECT_EQ(res.fault, Fault::kRecircBudget);
  EXPECT_EQ(runtime_.stats().drops_recirc_budget, 1u);
}

TEST_F(RuntimeTest, RecircBudgetRefillsOverTime) {
  runtime_.set_recirc_budget(1, RecircBudget{1.0, 1.0});  // 1 pass/s
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  EXPECT_EQ(runtime_.execute(pkt, {}, 0).verdict, Verdict::kForward);
  auto starved = make_packet(text, ArgumentHeader{});
  EXPECT_EQ(runtime_.execute(starved, {}, kMillisecond).verdict,
            Verdict::kDrop);
  auto refilled = make_packet(text, ArgumentHeader{});
  EXPECT_EQ(runtime_.execute(refilled, {}, 2 * kSecond).verdict,
            Verdict::kForward);
}

TEST_F(RuntimeTest, RecircBudgetDoesNotAffectSinglePass) {
  runtime_.set_recirc_budget(1, RecircBudget{1e-9, 0.0});
  auto pkt = make_packet("MBR_LOAD $0\nRETURN", ArgumentHeader{{1, 0, 0, 0}});
  EXPECT_EQ(run(pkt).verdict, Verdict::kForward);
}

TEST_F(RuntimeTest, RecircBudgetClearable) {
  runtime_.set_recirc_budget(1, RecircBudget{1e-9, 0.0});
  runtime_.clear_recirc_budget(1);
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  EXPECT_EQ(run(pkt).verdict, Verdict::kForward);
}

TEST_F(RuntimeTest, RecircBudgetIsPerFid) {
  runtime_.set_recirc_budget(1, RecircBudget{1e-9, 0.0});
  pipeline_.stage(5).install(42, 0, 64, 0);
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";
  auto other = make_packet(text, ArgumentHeader{}, /*fid=*/42);
  EXPECT_EQ(run(other).verdict, Verdict::kForward);  // 42 is unlimited
}

TEST_F(RuntimeTest, RecircBudgetBurstClampsAccumulation) {
  // High refill rate, burst of one extra pass: no matter how long the
  // bucket idles, only one recirculating packet is admitted per instant.
  runtime_.set_recirc_budget(1, RecircBudget{1000.0, 1.0});
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";  // 26 instructions -> 1 extra pass
  const SimTime later = 100 * kSecond;
  auto first = make_packet(text, ArgumentHeader{});
  EXPECT_EQ(runtime_.execute(first, {}, later).verdict, Verdict::kForward);
  auto second = make_packet(text, ArgumentHeader{});
  const auto res = runtime_.execute(second, {}, later);
  EXPECT_EQ(res.verdict, Verdict::kDrop);
  EXPECT_EQ(res.fault, Fault::kRecircBudget);
}

TEST_F(RuntimeTest, RecircBudgetZeroRateIsUnlimited) {
  // tokens_per_second <= 0 disables the governor even with zero burst.
  runtime_.set_recirc_budget(1, RecircBudget{0.0, 0.0});
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";
  for (int i = 0; i < 5; ++i) {
    auto pkt = make_packet(text, ArgumentHeader{});
    EXPECT_EQ(runtime_.execute(pkt, {}, 0).verdict, Verdict::kForward) << i;
  }
  EXPECT_EQ(runtime_.stats().drops_recirc_budget, 0u);
}

TEST_F(RuntimeTest, RecircBudgetZeroElapsedCallsStillCharge) {
  // Several packets arriving at the same virtual instant each pay for
  // their extra passes; the zero-elapsed refill adds nothing back.
  runtime_.set_recirc_budget(1, RecircBudget{1.0, 2.0});
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "RETURN";
  const SimTime at = 3 * kSecond;
  for (int i = 0; i < 2; ++i) {
    auto pkt = make_packet(text, ArgumentHeader{});
    EXPECT_EQ(runtime_.execute(pkt, {}, at).verdict, Verdict::kForward) << i;
  }
  auto exhausted = make_packet(text, ArgumentHeader{});
  EXPECT_EQ(runtime_.execute(exhausted, {}, at).verdict, Verdict::kDrop);
}

// ---------- how execution stops ----------

// Every way the interpreter loop can end, pinned field by field through
// the core entry point (so the cursor's done-bits are visible): a return
// after a taken branch, a protection fault on the first instruction of
// the second pass, an ADDR_MASK with no later access, the recirculation
// cap, and a deactivated FID. A fault stops the loop without advancing
// the instruction index, and that index sets passes and latency: the
// fault at index 20 is billed as one pass engaging two pipelines.
TEST_F(RuntimeTest, ExecutionStopsArePinned) {
  struct Want {
    Verdict verdict;
    Fault fault;
    u32 passes;
    SimTime latency;
    u32 stages_consumed;
    u32 instructions_executed;
    bool executed;
    std::vector<u32> done;  // instruction indices with a done-bit
    u64 instructions;       // RuntimeStats deltas
    u64 recirculations;
    u64 drops_protection;
    u64 drops_no_allocation;
    u64 drops_recirc_limit;
    u64 forwarded_unprocessed;
    u32 trace_events;
  };
  const auto range = [](u32 n) {
    std::vector<u32> out(n);
    for (u32 i = 0; i < n; ++i) out[i] = i;
    return out;
  };
  const auto nops = [](int n) {
    std::string text;
    for (int i = 0; i < n; ++i) text += "NOP\n";
    return text;
  };
  u32 trace_events = 0;
  runtime_.set_trace([&](const TraceEvent&) { ++trace_events; });

  const auto check = [&](const std::string& name, const std::string& text,
                         const Want& want) {
    SCOPED_TRACE(name);
    const auto program =
        active::CompiledProgram::compile(active::assemble(text));
    std::array<Word, active::kArgFields> args{99, 9, 0, 0};
    ExecContext ctx;
    ctx.args = &args;
    ctx.fid = 1;
    active::ExecCursor cursor;
    const RuntimeStats before = runtime_.stats();
    trace_events = 0;
    const ExecutionResult res = runtime_.execute(program, ctx, cursor);
    const RuntimeStats& after = runtime_.stats();

    EXPECT_EQ(res.verdict, want.verdict);
    EXPECT_EQ(res.fault, want.fault);
    EXPECT_EQ(res.passes, want.passes);
    EXPECT_EQ(res.latency, want.latency);
    EXPECT_EQ(res.stages_consumed, want.stages_consumed);
    EXPECT_EQ(res.instructions_executed, want.instructions_executed);
    EXPECT_EQ(res.executed, want.executed);
    std::vector<u32> done;
    for (u32 i = 0; i < program.size(); ++i) {
      if (cursor.done(i)) done.push_back(i);
    }
    EXPECT_EQ(done, want.done);
    EXPECT_EQ(trace_events, want.trace_events);

    EXPECT_EQ(after.packets - before.packets, 1u);
    EXPECT_EQ(after.instructions - before.instructions, want.instructions);
    EXPECT_EQ(after.recirculations - before.recirculations,
              want.recirculations);
    EXPECT_EQ(after.drops_protection - before.drops_protection,
              want.drops_protection);
    EXPECT_EQ(after.drops_no_allocation - before.drops_no_allocation,
              want.drops_no_allocation);
    EXPECT_EQ(after.drops_recirc_limit - before.drops_recirc_limit,
              want.drops_recirc_limit);
    EXPECT_EQ(after.drops_recirc_budget, before.drops_recirc_budget);
    EXPECT_EQ(after.drops_privilege, before.drops_privilege);
    EXPECT_EQ(after.drops_explicit, before.drops_explicit);
    EXPECT_EQ(after.rts_packets, before.rts_packets);
    EXPECT_EQ(after.forwarded_unprocessed - before.forwarded_unprocessed,
              want.forwarded_unprocessed);
  };
  const SimTime pass = rmt::PipelineConfig::kPassLatency;

  // Index 2 is skipped under the taken branch (a stage, not an
  // instruction); RETURN at index 3 leaves index 4 untouched.
  check("return",
        "MBR_LOAD $0\nCJUMP L1\nMBR_LOAD $1\nL1: RETURN\nMBR_STORE $2",
        {Verdict::kForward, Fault::kNone, 1, pass, 4, 3, true, {0, 1, 2, 3},
         3, 0, 0, 0, 0, 0, 4});
  // MEM_READ at index 20 (stage 0 of pass 2) reads MAR 99, below the
  // region: the faulting instruction consumes its stage, but pc stays 20.
  check("protection fault in pass 2",
        "MAR_LOAD $0\n" + nops(19) + "MEM_READ\nRETURN",
        {Verdict::kDrop, Fault::kProtectionViolation, 1, 2 * pass, 21, 21,
         true, range(21), 21, 0, 1, 0, 0, 0, 21});
  // ADDR_MASK with no later access faults before consuming its stage, but
  // still sets its done-bit.
  check("ADDR_MASK without a later access", "MBR_LOAD $0\nADDR_MASK\nRETURN",
        {Verdict::kDrop, Fault::kNoAllocation, 1, pass, 1, 1, true, {0, 1}, 1,
         0, 0, 1, 0, 0, 1});
  // The cap stops the loop at the start of pass 9 (index 180): eight
  // recirculations are billed.
  check("recirculation limit", nops(200) + "RETURN",
        {Verdict::kDrop, Fault::kRecircLimit, 9, 18 * pass, 180, 180, true,
         range(180), 180, 8, 0, 0, 1, 0, 180});
  runtime_.deactivate(1);
  check("deactivated", "MBR_LOAD $0\nRETURN",
        {Verdict::kForward, Fault::kDeactivated, 1, pass, 0, 0, false, {}, 0,
         0, 0, 0, 0, 1, 0});
}

// ---------- trace observer ----------

TEST_F(RuntimeTest, TraceReportsEveryConsumedStage) {
  std::vector<runtime::TraceEvent> events;
  runtime_.set_trace([&](const runtime::TraceEvent& e) { events.push_back(e); });
  auto pkt = make_packet(R"(
      MBR_LOAD $0
      CJUMP L1
      NOP
      L1: MBR_STORE $3
      RETURN
  )",
                         ArgumentHeader{{1, 0, 0, 0}});
  run(pkt);
  ASSERT_EQ(events.size(), 5u);
  EXPECT_EQ(events[0].op, Opcode::kMbrLoad);
  EXPECT_FALSE(events[0].skipped);
  EXPECT_TRUE(events[2].skipped);  // the NOP under a taken branch
  EXPECT_EQ(events[3].op, Opcode::kMbrStore);
  for (u32 i = 0; i < events.size(); ++i) {
    EXPECT_EQ(events[i].index, i);
    EXPECT_EQ(events[i].logical_stage, i);
    EXPECT_EQ(events[i].pass, 0u);
  }
  EXPECT_TRUE(events.back().phv.complete);
}

TEST_F(RuntimeTest, TracePassNumbersAcrossRecirculation) {
  std::vector<u32> passes;
  runtime_.set_trace(
      [&](const runtime::TraceEvent& e) { passes.push_back(e.pass); });
  std::string text;
  for (int i = 0; i < 24; ++i) text += "NOP\n";
  text += "RETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  run(pkt);
  ASSERT_EQ(passes.size(), 25u);
  EXPECT_EQ(passes[19], 0u);
  EXPECT_EQ(passes[20], 1u);
}

TEST_F(RuntimeTest, TraceDisablesWithEmptyFunction) {
  int calls = 0;
  runtime_.set_trace([&](const runtime::TraceEvent&) { ++calls; });
  runtime_.set_trace(nullptr);
  auto pkt = make_packet("RETURN", ArgumentHeader{});
  run(pkt);
  EXPECT_EQ(calls, 0);
}

// ---------- parameterized sweeps ----------

// Programs of every length from 1..45 instructions execute fully, engage
// ceil(n/10) pipelines of latency, and consume ceil(n/20) passes.
class ProgramLengthSweep : public RuntimeTest,
                           public ::testing::WithParamInterface<u32> {};

TEST_P(ProgramLengthSweep, PassAndLatencyArithmetic) {
  const u32 length = GetParam();
  std::string text;
  for (u32 i = 0; i + 1 < length; ++i) text += "NOP\n";
  text += "RETURN";
  auto pkt = make_packet(text, ArgumentHeader{});
  const auto res = run(pkt);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_EQ(res.instructions_executed, length);
  EXPECT_EQ(res.passes, (length - 1) / 20 + 1);
  EXPECT_EQ(res.latency,
            static_cast<SimTime>((length + 9) / 10) *
                rmt::PipelineConfig::kPassLatency);
  EXPECT_EQ(pkt.program->size(), 0u);  // everything executed and shrunk
}

INSTANTIATE_TEST_SUITE_P(Lengths, ProgramLengthSweep,
                         ::testing::Values(1u, 2u, 9u, 10u, 11u, 19u, 20u,
                                           21u, 30u, 39u, 40u, 41u, 45u));

// Memory round trips work in every logical stage.
class StageSweep : public RuntimeTest,
                   public ::testing::WithParamInterface<u32> {};

TEST_P(StageSweep, WriteReadAtEveryStage) {
  const u32 stage = GetParam();
  std::string pad;
  for (u32 i = 0; i < stage; ++i) pad += "NOP\n";
  // MAR_LOAD occupies index 0; pad so MEM_WRITE lands exactly at `stage`.
  std::string wr = "MAR_LOAD $0\nMBR_LOAD $1\n";
  for (u32 i = 2; i < stage; ++i) wr += "NOP\n";
  if (stage < 2) {
    // Stages 0/1 need the preload trick; emulate via direct memory.
    pipeline_.stage(stage).memory().write(150, 4242);
  } else {
    wr += "MEM_WRITE\nRETURN";
    auto wpkt = make_packet(wr, ArgumentHeader{{150, 4242, 0, 0}});
    ASSERT_EQ(run(wpkt).verdict, Verdict::kForward);
  }
  EXPECT_EQ(pipeline_.stage(stage).memory().read(150), 4242u);
}

INSTANTIATE_TEST_SUITE_P(Stages, StageSweep,
                         ::testing::Range(0u, 20u));

// The XOR-compare idiom is correct across word-boundary values.
class CompareSweep
    : public RuntimeTest,
      public ::testing::WithParamInterface<std::pair<Word, Word>> {};

TEST_P(CompareSweep, XorEqualitySemantics) {
  const auto [a, b] = GetParam();
  auto pkt = make_packet("MBR_LOAD $0\nMBR2_LOAD $1\nMBR_EQUALS_MBR2\nRETURN",
                         ArgumentHeader{{a, b, 0, 0}});
  const auto res = run(pkt);
  EXPECT_EQ(res.phv.mbr == 0, a == b);
}

INSTANTIATE_TEST_SUITE_P(
    Values, CompareSweep,
    ::testing::Values(std::pair<Word, Word>{0, 0},
                      std::pair<Word, Word>{0, 1},
                      std::pair<Word, Word>{0xffffffff, 0xffffffff},
                      std::pair<Word, Word>{0xffffffff, 0x7fffffff},
                      std::pair<Word, Word>{0x80000000, 0x80000000},
                      std::pair<Word, Word>{1u << 16, 1u << 15}));

}  // namespace
}  // namespace artmt::runtime
