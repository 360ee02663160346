// Tests for the control plane: admission, table installation (including
// the MAR advance chain), snapshots, the reallocation handshake, zeroing,
// release, cost accounting, FID minting within a switch's range, and the
// heap cost of a reallocation.
#include <gtest/gtest.h>

#include "alloc_counter.hpp"
#include "apps/programs.hpp"
#include "controller/controller.hpp"
#include "controller/switch_node.hpp"

namespace artmt::controller {
namespace {

// Blocks covered by the entries `fid` has installed in `pipe`.
u64 installed_blocks(const rmt::Pipeline& pipe, Fid fid) {
  u64 blocks = 0;
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    if (const rmt::FidEntry* entry = pipe.stage(s).lookup(fid)) {
      blocks += entry->words() / pipe.config().block_words;
    }
  }
  return blocks;
}

// A one-block inelastic tenant.
alloc::AllocationRequest one_block_request() {
  alloc::AllocationRequest request;
  request.accesses = {alloc::AccessDemand{0, 1, -1}};
  request.program_length = 2;
  return request;
}

class ControllerTest : public ::testing::Test {
 protected:
  ControllerTest()
      : pipeline_(config()), runtime_(pipeline_),
        controller_(pipeline_, runtime_) {}

  static rmt::PipelineConfig config() {
    rmt::PipelineConfig cfg;  // paper defaults: 20 stages, 368 blocks
    return cfg;
  }

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  Controller controller_;
};

TEST_F(ControllerTest, AdmitInstallsEntriesInChosenStages) {
  const auto result = controller_.admit(apps::cache_request());
  ASSERT_TRUE(result.admitted);
  EXPECT_FALSE(result.pending);
  u32 installed = 0;
  for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
    if (pipeline_.stage(s).lookup(result.fid) != nullptr) ++installed;
  }
  EXPECT_EQ(installed, 3u);
  EXPECT_TRUE(controller_.resident(result.fid));
}

TEST_F(ControllerTest, ResponseEncodesWordRegions) {
  const auto result = controller_.admit(apps::cache_request());
  const auto response = controller_.response_for(result.fid);
  u32 allocated_stages = 0;
  for (u32 s = 0; s < packet::kResponseStages; ++s) {
    if (!response.regions[s].allocated()) continue;
    ++allocated_stages;
    const rmt::FidEntry* entry = pipeline_.stage(s).lookup(result.fid);
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry->start_word, response.regions[s].start_word);
    EXPECT_EQ(entry->limit_word, response.regions[s].limit_word);
  }
  EXPECT_EQ(allocated_stages, 3u);
}

TEST_F(ControllerTest, AdvanceChainLinksAccessStages) {
  const auto result = controller_.admit(apps::cache_request());
  const auto* mutant = controller_.mutant_of(result.fid);
  ASSERT_NE(mutant, nullptr);
  ASSERT_EQ(mutant->size(), 3u);
  const u32 n = pipeline_.config().logical_stages;
  for (std::size_t i = 0; i + 1 < mutant->size(); ++i) {
    const auto* entry =
        pipeline_.stage((*mutant)[i] % n).lookup(result.fid);
    const auto* next =
        pipeline_.stage((*mutant)[i + 1] % n).lookup(result.fid);
    ASSERT_NE(entry, nullptr);
    ASSERT_NE(next, nullptr);
    EXPECT_EQ(entry->advance, static_cast<i32>(next->start_word) -
                                  static_cast<i32>(entry->start_word));
  }
  // The last access's entry does not advance.
  const auto* last = pipeline_.stage(mutant->back() % n).lookup(result.fid);
  EXPECT_EQ(last->advance, 0);
}

TEST_F(ControllerTest, RejectionReportsNoFid) {
  while (controller_.admit(apps::hh_request()).admitted) {
  }
  const auto result = controller_.admit(apps::hh_request());
  EXPECT_FALSE(result.admitted);
  EXPECT_EQ(result.fid, 0);
  EXPECT_GT(controller_.stats().rejections, 0u);
}

TEST_F(ControllerTest, SecondTenantTriggersHandshake) {
  // First-fit makes both caches pick (1,4,8): forced sharing.
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(first.admitted);
  const u64 first_blocks = installed_blocks(pipe, first.fid);
  ASSERT_GT(first_blocks, 0u);
  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.admitted);
  ASSERT_TRUE(second.pending);
  ASSERT_EQ(second.disturbed.size(), 1u);
  EXPECT_EQ(second.disturbed[0], first.fid);

  // The disturbed app is quiesced and snapshotted (its old blocks
  // counted); old entries intact.
  EXPECT_TRUE(rt.is_deactivated(first.fid));
  EXPECT_EQ(ctrl.stats().blocks_snapshotted, first_blocks);
  EXPECT_EQ(second.snapshot_cost, static_cast<SimTime>(first_blocks) *
                                      ctrl.costs().snapshot_per_block);
  EXPECT_EQ(installed_blocks(pipe, first.fid), first_blocks);

  // The new app's entries are NOT installed until the handshake ends.
  bool installed = false;
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    installed |= pipe.stage(s).lookup(second.fid) != nullptr;
  }
  EXPECT_FALSE(installed);

  EXPECT_TRUE(ctrl.extraction_complete(first.fid));
  ctrl.apply_pending();
  EXPECT_FALSE(rt.is_deactivated(first.fid));
  installed = false;
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    installed |= pipe.stage(s).lookup(second.fid) != nullptr;
  }
  EXPECT_TRUE(installed);
}

TEST_F(ControllerTest, SnapshotCapturesOldContents) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  // Write a sentinel into the first app's first region.
  const auto regions = ctrl.regions_of(first.fid);
  const auto [stage, interval] = *regions.begin();
  const u32 word = interval.begin * pipe.config().block_words + 5;
  pipe.stage(stage).memory().write(word, 0xfeedface);

  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);
  // While the admission is pending, the old region is untouched and still
  // mapped by the first app's entry: what its extraction capsules read.
  const rmt::FidEntry* entry = pipe.stage(stage).lookup(first.fid);
  ASSERT_NE(entry, nullptr);
  EXPECT_TRUE(entry->covers(word));
  EXPECT_EQ(pipe.stage(stage).memory().read(word), 0xfeedfaceu);

  // After the handshake the moved regions are zeroed (isolation).
  ctrl.extraction_complete(first.fid);
  ctrl.apply_pending();
  for (const auto& [s, iv] : ctrl.regions_of(second.fid)) {
    const u32 start = iv.begin * pipe.config().block_words;
    EXPECT_EQ(pipe.stage(s).memory().read(start), 0u);
  }
}

TEST_F(ControllerTest, TimeoutPathFinalizes) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);
  ctrl.timeout_pending();
  // apply_pending throws unless no extraction is still awaited.
  EXPECT_NO_THROW(ctrl.apply_pending());
  EXPECT_FALSE(ctrl.has_pending());
  EXPECT_EQ(ctrl.stats().extraction_timeouts, 1u);
  EXPECT_FALSE(rt.is_deactivated(first.fid));
}

TEST_F(ControllerTest, SerializedAdmissions) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  ctrl.admit(apps::cache_request());
  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.pending);
  EXPECT_THROW((void)ctrl.admit(apps::cache_request()), UsageError);
  EXPECT_THROW((void)ctrl.release(second.fid), UsageError);
}

TEST_F(ControllerTest, ApplyWithoutReadyThrows) {
  EXPECT_THROW(controller_.apply_pending(), UsageError);
}

TEST_F(ControllerTest, ReleaseRemovesEntriesAndRebalances) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto a = ctrl.admit(apps::cache_request());
  const auto b = ctrl.admit(apps::cache_request());
  ctrl.extraction_complete(a.fid);
  ctrl.apply_pending();

  const auto release = ctrl.release(b.fid);
  EXPECT_FALSE(ctrl.resident(b.fid));
  for (u32 s = 0; s < pipe.stage_count(); ++s) {
    EXPECT_EQ(pipe.stage(s).lookup(b.fid), nullptr);
  }
  // The survivor was rebalanced back to the full pool.
  ASSERT_EQ(release.disturbed.size(), 1u);
  EXPECT_EQ(release.disturbed[0], a.fid);
  for (const auto& [s, iv] : ctrl.regions_of(a.fid)) {
    EXPECT_EQ(iv.size(), pipe.config().blocks_per_stage());
  }
}

TEST_F(ControllerTest, ReleaseSnapshotCostCountsOldBlocks) {
  // Two caches share their stages; the second's departure grows the first
  // back to whole stages. The snapshot cost charges the first cache's old
  // (half-stage) blocks.
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto a = ctrl.admit(apps::cache_request());
  const auto b = ctrl.admit(apps::cache_request());
  ctrl.extraction_complete(a.fid);
  ctrl.apply_pending();
  const u64 old_blocks = installed_blocks(pipe, a.fid);
  const u64 snapshotted = ctrl.stats().blocks_snapshotted;
  ASSERT_GT(old_blocks, 0u);

  const auto release = ctrl.release(b.fid);
  ASSERT_EQ(release.disturbed.size(), 1u);
  EXPECT_GT(installed_blocks(pipe, a.fid), old_blocks);  // it grew
  EXPECT_EQ(release.snapshot_cost,
            static_cast<SimTime>(old_blocks) * ctrl.costs().snapshot_per_block);
  EXPECT_EQ(ctrl.stats().blocks_snapshotted, snapshotted + old_blocks);
}

TEST_F(ControllerTest, ReallocationCopiesNoRegisterWords) {
  // A disturbing admission runs the whole handshake without copying the
  // disturbed cache's old regions (3 stages x 94,208 words): clients
  // extract from pipeline memory, so the controller only counts blocks.
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(first.admitted);
  const auto request = apps::cache_request();

  const unsigned long long before = g_alloc_bytes;
  const auto second = ctrl.admit(request);
  ASSERT_TRUE(second.pending);
  ASSERT_TRUE(ctrl.extraction_complete(first.fid));
  ctrl.apply_pending();
  const unsigned long long bytes = g_alloc_bytes - before;

  EXPECT_LT(bytes, 64u * 1024u);
}

// An idle default switch pays for no register memory: its 20 stages of
// 94,208 words own no slot table or line store until a tenant writes them.
TEST(SwitchNodeHeap, IdleDefaultSwitchRequestsUnder32KiB) {
  const unsigned long long before = g_alloc_bytes;
  const auto sw = std::make_shared<SwitchNode>("switch", SwitchNode::Config{});
  EXPECT_LT(g_alloc_bytes - before, 32u << 10);
}

TEST_F(ControllerTest, ReleaseUnknownThrows) {
  EXPECT_THROW((void)controller_.release(123), UsageError);
}

TEST_F(ControllerTest, CostsScaleWithDisturbance) {
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit);
  const auto first = ctrl.admit(apps::cache_request());
  EXPECT_GT(first.table_update_cost, 0);
  EXPECT_EQ(first.snapshot_cost, 0);  // nobody disturbed

  const auto second = ctrl.admit(apps::cache_request());
  EXPECT_GT(second.table_update_cost, first.table_update_cost);
  EXPECT_GT(second.snapshot_cost, 0);
  EXPECT_GT(second.provisioning_time(), first.provisioning_time());
}

TEST(CostModel, TableUpdateTimeBatchedVsUnbatched) {
  CostModel costs;  // defaults: unbatched, 15 ms/entry
  EXPECT_EQ(costs.table_update_time(10, 1), 10 * costs.table_entry_update);
  EXPECT_EQ(costs.table_update_time(0, 0), 0);

  costs.batched_updates = true;
  // One coalesced batch: setup + per-entry streaming cost.
  EXPECT_EQ(costs.table_update_time(10, 1),
            CostModel::kBatchSetup + 10 * CostModel::kBatchedEntryUpdate);
  EXPECT_EQ(costs.table_update_time(10, 3),
            3 * CostModel::kBatchSetup + 10 * CostModel::kBatchedEntryUpdate);
  EXPECT_EQ(costs.table_update_time(0, 3), 0);  // nothing to install
  // At the defaults, batching wins whenever a batch has >1 entry.
  EXPECT_LT(costs.table_update_time(10, 1),
            static_cast<SimTime>(10) * CostModel{}.table_entry_update);
}

TEST(CostModel, BatchedAdmissionCoalescesPerApp) {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipe(cfg);
  runtime::ActiveRuntime rt(pipe);
  CostModel costs;
  costs.batched_updates = true;
  Controller ctrl(pipe, rt, alloc::Scheme::kFirstFit,
                  alloc::MutantPolicy::most_constrained(), costs);

  const auto first = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(first.admitted);
  // Undisturbed admission: a single batch for the new app's entries.
  EXPECT_EQ(first.table_update_batches, 1u);

  const auto second = ctrl.admit(apps::cache_request());
  ASSERT_TRUE(second.admitted);
  ASSERT_EQ(second.disturbed.size(), 1u);
  // One batch for the new app plus one per disturbed app.
  EXPECT_EQ(second.table_update_batches, 2u);
  ctrl.extraction_complete(first.fid);
  ctrl.apply_pending();

  EXPECT_EQ(ctrl.stats().table_update_batches, 3u);

  const auto release = ctrl.release(second.fid);
  EXPECT_EQ(release.table_update_batches, 2u);  // removal + survivor rewrite
}

TEST(CostModel, BatchedAdmissionIsCheaperUnderDisturbance) {
  // Same workload through an unbatched and a batched controller: identical
  // placements (the cost model never affects allocation), strictly smaller
  // table-update cost once installs are coalesced.
  rmt::PipelineConfig cfg;
  CostModel batched;
  batched.batched_updates = true;
  rmt::Pipeline pipe_a(cfg);
  runtime::ActiveRuntime rt_a(pipe_a);
  Controller plain(pipe_a, rt_a, alloc::Scheme::kFirstFit);
  rmt::Pipeline pipe_b(cfg);
  runtime::ActiveRuntime rt_b(pipe_b);
  Controller fast(pipe_b, rt_b, alloc::Scheme::kFirstFit,
                  alloc::MutantPolicy::most_constrained(), batched);

  for (int i = 0; i < 6; ++i) {
    const auto a = plain.admit(apps::cache_request());
    const auto b = fast.admit(apps::cache_request());
    ASSERT_EQ(a.admitted, b.admitted);
    ASSERT_EQ(a.disturbed.size(), b.disturbed.size());
    if (!a.disturbed.empty()) {
      EXPECT_LT(b.table_update_cost, a.table_update_cost);
    }
    for (Controller* c : {&plain, &fast}) {
      if (c->has_pending()) {
        c->timeout_pending();
        c->apply_pending();
      }
    }
  }
  EXPECT_EQ(plain.stats().table_entry_updates, fast.stats().table_entry_updates);
}

TEST_F(ControllerTest, StatsAccumulate) {
  const auto a = controller_.admit(apps::cache_request());
  controller_.admit(apps::lb_request());
  controller_.release(a.fid);
  EXPECT_EQ(controller_.stats().admissions, 2u);
  EXPECT_EQ(controller_.stats().releases, 1u);
  EXPECT_GT(controller_.stats().table_entry_updates, 0u);
}

TEST_F(ControllerTest, FidsAreUniqueAcrossLifetime) {
  const auto a = controller_.admit(apps::cache_request());
  controller_.release(a.fid);
  const auto b = controller_.admit(apps::cache_request());
  EXPECT_NE(a.fid, b.fid);

  // A fabric switch mints only from its own range, and its wrap skips the
  // FIDs still resident.
  rmt::Pipeline pipe(config());
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt);
  ctrl.set_fid_base(256);
  const auto kept = ctrl.admit(one_block_request());
  ASSERT_EQ(kept.fid, 256);
  for (int i = 0; i < 300; ++i) {
    const auto result = ctrl.admit(one_block_request());
    ASSERT_TRUE(result.admitted);
    ASSERT_GT(result.fid, 256) << "cycle " << i;
    ASSERT_LT(result.fid, 512) << "cycle " << i;
    ctrl.release(result.fid);
  }
}

TEST_F(ControllerTest, FidWrapSkipsZeroAndResidentFids) {
  const auto kept = controller_.admit(one_block_request());
  ASSERT_EQ(kept.fid, 1);
  const auto regions = controller_.regions_of(kept.fid);
  // One full pass over [1, 0xFFFF] and past its end.
  for (u32 i = 0; i < 0x10000; ++i) {
    const auto result = controller_.admit(one_block_request());
    ASSERT_TRUE(result.admitted);
    ASSERT_NE(result.fid, 0) << "cycle " << i;
    ASSERT_NE(result.fid, kept.fid) << "cycle " << i;
    controller_.release(result.fid);
  }
  EXPECT_EQ(controller_.regions_of(kept.fid), regions);
  EXPECT_EQ(controller_.resident_fids(), std::vector<Fid>{kept.fid});
}

TEST_F(ControllerTest, FullFidRangeDeniesAdmission) {
  controller_.set_fid_base(256);
  for (u32 i = 0; i < Controller::kFidRange; ++i) {
    ASSERT_TRUE(controller_.admit(one_block_request()).admitted);
  }
  const u32 residents = controller_.allocator().resident_count();
  const u64 rejections = controller_.stats().rejections;
  const auto denied = controller_.admit(one_block_request());
  EXPECT_FALSE(denied.admitted);
  EXPECT_EQ(controller_.stats().rejections, rejections + 1);
  EXPECT_EQ(controller_.stats().admissions, Controller::kFidRange);
  EXPECT_EQ(controller_.allocator().resident_count(), residents);
}

TEST_F(ControllerTest, HeavyHitterAliasSharesOneEntry) {
  const auto result = controller_.admit(apps::hh_request());
  ASSERT_TRUE(result.admitted);
  // Six accesses but only five distinct stages (threshold read/update).
  EXPECT_EQ(controller_.regions_of(result.fid).size(), 5u);
}

TEST_F(ControllerTest, TcamExhaustionRejectsGracefully) {
  rmt::PipelineConfig cfg;
  cfg.tcam_entries_per_stage = 2;  // tiny range-match capacity
  rmt::Pipeline pipe(cfg);
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt);
  u32 admitted = 0;
  u32 rejected = 0;
  for (int i = 0; i < 20; ++i) {
    const auto result = ctrl.admit(apps::cache_request());
    if (ctrl.has_pending()) {
      ctrl.timeout_pending();
      ctrl.apply_pending();
    }
    if (result.admitted) {
      ++admitted;
    } else {
      ++rejected;
    }
  }
  // The first access stage group has 3 stages x 2 entries = 6 slots.
  EXPECT_EQ(admitted, 6u);
  EXPECT_EQ(rejected, 14u);
  EXPECT_EQ(ctrl.stats().tcam_rejections, 14u);
  // Rejection rolled the allocator back: no ghost residents.
  EXPECT_EQ(ctrl.allocator().resident_count(), admitted);
}

TEST_F(ControllerTest, TcamRejectionFreesMemoryForLaterAdmissions) {
  rmt::PipelineConfig cfg;
  cfg.tcam_entries_per_stage = 1;
  rmt::Pipeline pipe(cfg);
  runtime::ActiveRuntime rt(pipe);
  Controller ctrl(pipe, rt);
  std::vector<Fid> fids;
  for (int i = 0; i < 5; ++i) {
    const auto result = ctrl.admit(apps::cache_request());
    if (ctrl.has_pending()) {
      ctrl.timeout_pending();
      ctrl.apply_pending();
    }
    if (result.admitted) fids.push_back(result.fid);
  }
  ASSERT_EQ(fids.size(), 3u);  // one per first-access stage
  ctrl.release(fids[0]);
  const auto result = ctrl.admit(apps::cache_request());
  EXPECT_TRUE(result.admitted);  // the freed entries are reusable
}

TEST_F(ControllerTest, ProvisioningTimeAroundASecondWhenLoaded) {
  // Fig. 8a: once memory is contended, provisioning lands in the
  // 0.1 s - 3 s band (dominated by table updates).
  for (int i = 0; i < 30; ++i) {
    controller_.admit(apps::cache_request());
    if (controller_.has_pending()) {
      controller_.timeout_pending();
      controller_.apply_pending();
    }
  }
  const auto result = controller_.admit(apps::cache_request());
  ASSERT_TRUE(result.admitted);
  if (controller_.has_pending()) {
    controller_.timeout_pending();
    controller_.apply_pending();
  }
  EXPECT_GT(result.provisioning_time(), 100 * kMillisecond);
  EXPECT_LT(result.provisioning_time(), 3 * kSecond);
}

}  // namespace
}  // namespace artmt::controller
