// Tests for the digest-keyed program interner and the zero-mutation
// execution path it feeds: collision safety, the LRU bound, cache-hit
// ProgramView execution equivalence with the decoded-program reference,
// and kFlagNoShrink flowing through the cursor into the synthesized wire
// reply.
#include <gtest/gtest.h>

#include "active/assembler.hpp"
#include "active/program_cache.hpp"
#include "packet/active_packet.hpp"
#include "packet/program_view.hpp"
#include "proto/wire.hpp"
#include "runtime/runtime.hpp"

namespace artmt::active {
namespace {

using packet::ActivePacket;
using packet::ArgumentHeader;

Program assemble_text(const std::string& text) { return assemble(text); }

std::vector<u8> wire_of(const Program& program) {
  return CompiledProgram::compile(program).wire_code();
}

// Interns a decoded program by its wire instruction stream, as the switch
// parser does.
std::shared_ptr<const CompiledProgram> intern(ProgramCache& cache,
                                              const Program& program) {
  return cache.intern(wire_of(program), program.preload_mar,
                      program.preload_mbr);
}

// ---------- interning basics ----------

TEST(ProgramCache, RepeatInternHitsAndShares) {
  ProgramCache cache;
  const auto program = assemble_text("MBR_LOAD $0\nMBR_STORE $1\nRETURN");
  const auto first = intern(cache, program);
  const auto second = intern(cache, program);
  EXPECT_EQ(first.get(), second.get());
  EXPECT_EQ(cache.stats().misses, 1u);
  EXPECT_EQ(cache.stats().hits, 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ProgramCache, PreloadFlagsArePartOfTheKey) {
  ProgramCache cache;
  auto program = assemble_text("MEM_READ\nRETURN");
  const auto plain = intern(cache, program);
  program.preload_mar = true;
  const auto preloaded = intern(cache, program);
  EXPECT_NE(plain.get(), preloaded.get());
  EXPECT_TRUE(preloaded->preload_mar());
  EXPECT_EQ(cache.size(), 2u);
}

// ---------- digest collision safety ----------

u64 colliding_hash(std::span<const u8>, bool, bool) { return 42; }

TEST(ProgramCache, CollidingDigestsNeverExecuteTheWrongProgram) {
  ProgramCache cache(16, &colliding_hash);
  const auto prog_a = assemble_text("MBR_LOAD $0\nRETURN");
  const auto prog_b = assemble_text("MBR_LOAD $1\nRETURN");
  const auto wire_a = wire_of(prog_a);
  const auto wire_b = wire_of(prog_b);

  const auto a = cache.intern(wire_a, false, false);
  const auto b = cache.intern(wire_b, false, false);
  // Same digest, different bytes: the cache detected the mismatch and
  // compiled B rather than serving A.
  EXPECT_EQ(cache.stats().collisions, 1u);
  EXPECT_EQ(b->wire_code(), wire_b);
  // A's artifact is still usable by holders even though B took the slot.
  EXPECT_EQ(a->wire_code(), wire_a);

  // Re-interning A collides again and again yields the right program.
  const auto a2 = cache.intern(wire_a, false, false);
  EXPECT_EQ(cache.stats().collisions, 2u);
  EXPECT_EQ(a2->wire_code(), wire_a);
  EXPECT_EQ(cache.stats().hits, 0u);
}

// ---------- eviction bound ----------

TEST(ProgramCache, CapacityBoundsEntriesWithLruEviction) {
  ProgramCache cache(2);
  const auto p0 = assemble_text("MBR_LOAD $0\nRETURN");
  const auto p1 = assemble_text("MBR_LOAD $1\nRETURN");
  const auto p2 = assemble_text("MBR_LOAD $2\nRETURN");
  const auto held = intern(cache, p0);  // oldest; evicted below
  intern(cache, p1);
  intern(cache, p2);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.stats().evictions, 1u);
  // The evicted artifact survives for as long as someone holds it.
  EXPECT_EQ(held->wire_code(), wire_of(p0));
  // Re-interning the evicted program is a miss, not a hit.
  intern(cache, p0);
  EXPECT_EQ(cache.stats().misses, 4u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(ProgramCache, TouchOnHitProtectsHotEntries) {
  ProgramCache cache(2);
  const auto hot = assemble_text("MBR_LOAD $0\nRETURN");
  const auto cold = assemble_text("MBR_LOAD $1\nRETURN");
  const auto next = assemble_text("MBR_LOAD $2\nRETURN");
  intern(cache, hot);
  intern(cache, cold);
  intern(cache, hot);   // refresh: cold is now LRU
  intern(cache, next);  // evicts cold
  EXPECT_EQ(intern(cache, hot)->wire_code(), wire_of(hot));
  EXPECT_EQ(cache.stats().hits, 2u);
}

// ---------- cache-hit execution equivalence ----------

class CacheExecution : public ::testing::Test {
 protected:
  static rmt::PipelineConfig config() {
    rmt::PipelineConfig cfg;
    cfg.words_per_stage = 1024;
    cfg.block_words = 64;
    return cfg;
  }

  CacheExecution()
      : cold_pipeline_(config()),
        hot_pipeline_(config()),
        cold_runtime_(cold_pipeline_),
        hot_runtime_(hot_pipeline_) {
    for (u32 s = 0; s < cold_pipeline_.stage_count(); ++s) {
      cold_pipeline_.stage(s).install(1, 100, 200, 0);
      hot_pipeline_.stage(s).install(1, 100, 200, 0);
    }
  }

  struct ViewRun {
    runtime::ExecutionResult result;
    packet::ProgramView view;
    std::vector<u8> reply;
  };

  // Runs `frame` as the switch does: in-place parse (code interned
  // through the cache), execute on the hot runtime, in-place reply.
  ViewRun run_view(const std::vector<u8>& frame, ExecCursor& cursor) {
    FrameBuf buf = pool_.copy(frame);
    ViewRun run;
    run.view = packet::ProgramView::parse(buf, cache_);
    run.result = hot_runtime_.execute(run.view, cursor);
    run.reply =
        proto::encode_executed(run.view, cursor, std::move(buf), pool_)
            .to_vector();
    return run;
  }

  // Runs the same capsule through the decoded-program reference
  // (ActivePacket::parse, execute(ActivePacket&), serialize) and through
  // the interned ProgramView path and checks verdict/PHV/args/wire
  // parity.
  void expect_parity(const std::string& text, const ArgumentHeader& args,
                     u8 extra_flags = 0) {
    const auto program = assemble_text(text);

    auto made = ActivePacket::make_program(1, args, program);
    made.initial.flags |= extra_flags;
    const auto cold_frame_in = made.serialize();
    auto cold_pkt = ActivePacket::parse(cold_frame_in);
    const auto cold = cold_runtime_.execute(cold_pkt);
    const auto cold_frame_out = cold_pkt.serialize();

    // Parse through the cache twice so execution runs on a cache hit.
    const auto warm = packet::ProgramView::parse(cold_frame_in, cache_);
    ExecCursor cursor;
    const ViewRun run = run_view(cold_frame_in, cursor);
    const runtime::ExecutionResult& hot = run.result;
    EXPECT_EQ(warm.compiled.get(), run.view.compiled.get());
    EXPECT_GE(cache_.stats().hits, 1u);

    EXPECT_EQ(hot.verdict, cold.verdict);
    EXPECT_EQ(hot.fault, cold.fault);
    EXPECT_EQ(hot.passes, cold.passes);
    EXPECT_EQ(hot.instructions_executed, cold.instructions_executed);
    EXPECT_EQ(hot.phv.mar, cold.phv.mar);
    EXPECT_EQ(hot.phv.mbr, cold.phv.mbr);
    EXPECT_EQ(hot.phv.mbr2, cold.phv.mbr2);
    ASSERT_TRUE(cold_pkt.arguments);
    EXPECT_EQ(run.view.arguments, *cold_pkt.arguments);
    if (cold.verdict != runtime::Verdict::kDrop) {
      EXPECT_EQ(run.reply, cold_frame_out);
    }

    const auto& cs = cold_runtime_.stats();
    const auto& hs = hot_runtime_.stats();
    EXPECT_EQ(hs.packets, cs.packets);
    EXPECT_EQ(hs.instructions, cs.instructions);
    EXPECT_EQ(hs.recirculations, cs.recirculations);
    EXPECT_EQ(hs.drops_protection, cs.drops_protection);
    EXPECT_EQ(hs.drops_explicit, cs.drops_explicit);
    EXPECT_EQ(hs.rts_packets, cs.rts_packets);
  }

  rmt::Pipeline cold_pipeline_;
  rmt::Pipeline hot_pipeline_;
  runtime::ActiveRuntime cold_runtime_;
  runtime::ActiveRuntime hot_runtime_;
  ProgramCache cache_;
  FramePool pool_;
};

TEST_F(CacheExecution, StraightLineParity) {
  expect_parity("MBR_LOAD $2\nMBR_STORE $3\nRETURN",
                ArgumentHeader{{0, 0, 77, 0}});
}

TEST_F(CacheExecution, MemoryAccessParity) {
  expect_parity("MAR_LOAD $0\nMEM_INCREMENT\nMBR_STORE $1\nRETURN",
                ArgumentHeader{{150, 0, 0, 0}});
}

TEST_F(CacheExecution, BranchParity) {
  expect_parity(R"(
      MBR_LOAD $0
      MBR2_LOAD $1
      CJUMP L1
      MBR_STORE $2
      L1: RETURN
  )",
                ArgumentHeader{{5, 5, 0, 0}});
}

TEST_F(CacheExecution, RecirculationParity) {
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "MBR_LOAD $0\nMBR_STORE $1\nRETURN";
  expect_parity(text, ArgumentHeader{{9, 0, 0, 0}});
}

TEST_F(CacheExecution, ProtectionFaultParity) {
  // args[0] outside FID 1's [100, 200) region: both paths drop.
  expect_parity("MAR_LOAD $0\nMEM_READ\nRETURN",
                ArgumentHeader{{500, 0, 0, 0}});
}

TEST_F(CacheExecution, RtsParity) {
  expect_parity("MBR_LOAD $0\nRTS\nRETURN", ArgumentHeader{{1, 0, 0, 0}});
}

// ---------- kFlagNoShrink through the cursor ----------

TEST_F(CacheExecution, NoShrinkParity) {
  expect_parity("MBR_LOAD $2\nMBR_STORE $3\nRETURN",
                ArgumentHeader{{0, 0, 7, 0}}, packet::kFlagNoShrink);
}

TEST_F(CacheExecution, NoShrinkKeepsInstructionsOnTheWire) {
  const auto program = assemble_text("MBR_LOAD $0\nMBR_STORE $1\nRETURN");
  auto pkt = ActivePacket::make_program(1, ArgumentHeader{{3, 0, 0, 0}},
                                        program);
  pkt.initial.flags |= packet::kFlagNoShrink;
  ExecCursor cursor;
  const ViewRun hot = run_view(pkt.serialize(), cursor);
  EXPECT_EQ(hot.result.verdict, runtime::Verdict::kForward);
  EXPECT_FALSE(cursor.shrink);
  for (u32 i = 0; i < hot.view.compiled->code().size(); ++i) {
    EXPECT_TRUE(cursor.done(i)) << i;
  }
  // The reply still carries all three instructions, done-flagged, and the
  // shared artifact itself is untouched.
  auto parsed = ActivePacket::parse(hot.reply);
  ASSERT_TRUE(parsed.program);
  ASSERT_EQ(parsed.program->size(), 3u);
  for (const auto& insn : parsed.program->code()) {
    EXPECT_TRUE(insn.done);
  }
  for (const auto& insn : hot.view.compiled->code()) {
    EXPECT_FALSE(insn.wire_done);
  }
}

TEST_F(CacheExecution, ShrinkRemovesExecutedInstructionsFromTheWire) {
  const auto program = assemble_text("MBR_LOAD $0\nMBR_STORE $1\nRETURN");
  auto pkt = ActivePacket::make_program(1, ArgumentHeader{{3, 0, 0, 0}},
                                        program);
  ExecCursor cursor;
  const ViewRun hot = run_view(pkt.serialize(), cursor);
  EXPECT_TRUE(cursor.shrink);
  auto parsed = ActivePacket::parse(hot.reply);
  ASSERT_TRUE(parsed.program);
  EXPECT_EQ(parsed.program->size(), 0u);
}

}  // namespace
}  // namespace artmt::active
