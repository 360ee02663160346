// Golden placement tests for the allocator: a fixed request sequence must
// keep producing exactly these placements (chosen mutants,
// mutants_considered, disturbance counts) under every scheme, and under
// churn every allocate, deallocate, demotion, promotion and re-slide must
// match a brute-force oracle built on the public StageState queries. Any
// drift here means the incremental search changed an allocation
// decision, which invalidates every calibrated figure downstream.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <vector>

#include "alloc/allocator.hpp"
#include "apps/programs.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"
#include "workload/churn.hpp"

namespace artmt::alloc {
namespace {

const StageGeometry kGeom{20, 10};
constexpr u32 kBlocks = 368;

// The fixed sequence: cache, hh, cache, lb, hh, cache.
std::vector<AllocationRequest> golden_sequence() {
  return {apps::cache_request(), apps::hh_request(), apps::cache_request(),
          apps::lb_request(),    apps::hh_request(), apps::cache_request()};
}

struct GoldenStep {
  bool success;
  Mutant chosen;
  u64 mutants_considered;
  std::size_t reallocated;
};

void expect_golden(Scheme scheme, const std::vector<GoldenStep>& golden) {
  Allocator alloc(kGeom, kBlocks, scheme);
  const auto seq = golden_sequence();
  ASSERT_EQ(seq.size(), golden.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    const auto out = alloc.allocate(seq[i]);
    SCOPED_TRACE(testing::Message() << scheme_name(scheme) << " step " << i);
    EXPECT_EQ(out.success, golden[i].success);
    EXPECT_EQ(out.chosen, golden[i].chosen);
    EXPECT_EQ(out.mutants_considered, golden[i].mutants_considered);
    EXPECT_EQ(out.reallocated.size(), golden[i].reallocated);
  }
}

TEST(AllocGolden, WorstFitPlacements) {
  expect_golden(Scheme::kWorstFit, {{true, {1, 4, 8}, 52, 0},
                                    {true, {7, 12, 16, 24, 29, 36}, 1, 1},
                                    {true, {2, 5, 10}, 52, 0},
                                    {true, {2, 5, 12}, 1, 1},
                                    {true, {7, 12, 16, 24, 29, 36}, 1, 1},
                                    {true, {3, 6, 11}, 52, 0}});
}

TEST(AllocGolden, BestFitPlacements) {
  expect_golden(Scheme::kBestFit, {{true, {1, 4, 8}, 52, 0},
                                   {true, {7, 12, 16, 24, 29, 36}, 1, 1},
                                   {true, {1, 4, 12}, 52, 1},
                                   {true, {2, 5, 12}, 1, 1},
                                   {true, {7, 12, 16, 24, 29, 36}, 1, 2},
                                   {true, {1, 4, 12}, 52, 2}});
}

TEST(AllocGolden, FirstFitPlacements) {
  expect_golden(Scheme::kFirstFit, {{true, {1, 4, 8}, 1, 0},
                                    {true, {7, 12, 16, 24, 29, 36}, 1, 1},
                                    {true, {1, 4, 8}, 1, 1},
                                    {true, {2, 5, 12}, 1, 0},
                                    {true, {7, 12, 16, 24, 29, 36}, 1, 2},
                                    {true, {1, 4, 8}, 1, 2}});
}

TEST(AllocGolden, ReallocPlacements) {
  expect_golden(Scheme::kRealloc, {{true, {1, 4, 8}, 52, 0},
                                   {true, {7, 12, 16, 24, 29, 36}, 1, 1},
                                   {true, {2, 5, 9}, 52, 0},
                                   {true, {2, 5, 12}, 1, 1},
                                   {true, {7, 12, 16, 24, 29, 36}, 1, 2},
                                   {true, {3, 6, 10}, 52, 0}});
}

// --- brute-force oracle ------------------------------------------------------
//
// A reference search written only against the allocator's public API. It
// walks every mutant in enumeration order (no filter, no prune), collapses
// each mutant's demands to a per-stage maximum, and checks feasibility and
// the scheme score with the StageState queries. A strictly lower score
// wins, so ties go to the first mutant enumerated (no stage bias is set in
// these tests); first-fit stops at the first feasible mutant. Disturbed
// sets are diffs of every stage's regions taken before and after an
// operation.

struct OracleChoice {
  bool found = false;
  Mutant chosen;
  u64 enumerated = 0;  // mutants walked until the decision
};

OracleChoice oracle_search(const Allocator& a,
                           const AllocationRequest& request) {
  OracleChoice out;
  const u32 n = a.geometry().logical_stages;
  i64 best = 0;
  std::vector<std::pair<u32, u32>> demand;  // (stage, max demand)
  out.enumerated = for_each_mutant(
      request, a.geometry(), a.policy(), [&](const Mutant& mutant) {
        demand.clear();
        for (std::size_t i = 0; i < mutant.size(); ++i) {
          const u32 stage = mutant[i] % n;
          const u32 blocks = request.accesses[i].demand_blocks;
          const auto it = std::find_if(
              demand.begin(), demand.end(),
              [stage](const auto& entry) { return entry.first == stage; });
          if (it == demand.end()) {
            demand.emplace_back(stage, blocks);
          } else {
            it->second = std::max(it->second, blocks);
          }
        }
        i64 score = 0;
        for (const auto& [s, d] : demand) {
          const StageState& stage = a.stage(s);
          if (request.elastic ? !stage.elastic_fits(d)
                              : !stage.inelastic_fits(d)) {
            return true;
          }
          const i64 fungible = stage.fungible_blocks();
          switch (a.scheme()) {
            case Scheme::kWorstFit:
              score -= fungible;
              break;
            case Scheme::kBestFit:
              score += fungible;
              break;
            case Scheme::kRealloc:
              if (request.elastic || stage.inelastic_needs_frontier(d)) {
                score += stage.elastic_member_count();
              }
              break;
            case Scheme::kFirstFit:
              break;
          }
        }
        if (!out.found || score < best) {
          out.found = true;
          out.chosen = mutant;
          best = score;
        }
        return a.scheme() != Scheme::kFirstFit;
      });
  return out;
}

using Layout = std::vector<std::map<AppId, Interval>>;

Layout layout_of(const Allocator& a) {
  Layout out;
  for (u32 s = 0; s < a.geometry().logical_stages; ++s) {
    out.push_back(a.stage(s).regions());
  }
  return out;
}

std::map<u32, Interval> regions_in(const Layout& layout, AppId id) {
  std::map<u32, Interval> out;
  for (u32 s = 0; s < layout.size(); ++s) {
    if (const auto it = layout[s].find(id); it != layout[s].end()) {
      out[s] = it->second;
    }
  }
  return out;
}

// Apps whose regions differ between two layouts, sorted, minus `exclude`
// (AppId 0 is never assigned, so 0 excludes nobody).
std::vector<AppId> changed_apps(const Layout& before, const Layout& after,
                                AppId exclude) {
  std::set<AppId> ids;
  for (const Layout* layout : {&before, &after}) {
    for (const auto& stage : *layout) {
      for (const auto& [id, region] : stage) ids.insert(id);
    }
  }
  std::vector<AppId> out;
  for (const AppId id : ids) {
    if (id != exclude && regions_in(before, id) != regions_in(after, id)) {
      out.push_back(id);
    }
  }
  return out;
}

// Under most-constrained the allocator walks the same unfiltered sequence
// as the oracle; least-constrained policies prune filtered subtrees, so
// they may visit fewer mutants, never more.
void check_considered(const Allocator& a, u64 considered, u64 enumerated) {
  if (a.policy().extra_passes == 0) {
    ASSERT_EQ(considered, enumerated);
  } else {
    ASSERT_LE(considered, enumerated);
  }
}

void checked_allocate(Allocator& a, const AllocationRequest& request,
                      AllocationOutcome& out) {
  const Layout before = layout_of(a);
  const OracleChoice expect = oracle_search(a, request);
  out = a.allocate(request);
  ASSERT_EQ(out.success, expect.found);
  if (out.mutants_considered == 0) {
    // The global prune: brute force walks a nonempty space, finds nothing.
    ASSERT_FALSE(out.success);
    ASSERT_GT(expect.enumerated, 0u);
  } else {
    ASSERT_NO_FATAL_FAILURE(
        check_considered(a, out.mutants_considered, expect.enumerated));
  }
  const Layout after = layout_of(a);
  if (!out.success) {
    ASSERT_EQ(after, before);
    return;
  }
  ASSERT_EQ(out.chosen, expect.chosen);
  ASSERT_EQ(out.regions, regions_in(after, out.app));
  ASSERT_EQ(out.reallocated, changed_apps(before, after, out.app));
}

void checked_deallocate(Allocator& a, AppId id, std::vector<AppId>& changed) {
  const Layout before = layout_of(a);
  changed = a.deallocate(id);
  ASSERT_FALSE(a.resident(id));
  ASSERT_EQ(changed, changed_apps(before, layout_of(a), id));
}

// Which request each churn kind admits.
using RequestFor = AllocationRequest (*)(workload::AppKind);

// The paper's applications: elastic cache, pinned heavy-hitter and LB.
AllocationRequest paper_request(workload::AppKind kind) {
  switch (kind) {
    case workload::AppKind::kHeavyHitter:
      return apps::hh_request();
    case workload::AppKind::kLoadBalancer:
      return apps::lb_request();
    default:
      return apps::cache_request();
  }
}

// Small-footprint services (1-4 blocks per stage), so a few hundred fit.
AllocationRequest small_request(workload::AppKind kind) {
  AllocationRequest r;
  r.program_length = 12;
  switch (kind) {
    case workload::AppKind::kCache:  // elastic, min 1 / cap 4 per stage
      r.accesses = {AccessDemand{5, 1, -1}};
      r.elastic = true;
      r.elastic_cap_blocks = 4;
      break;
    case workload::AppKind::kHeavyHitter:  // two pinned two-block regions
      r.accesses = {AccessDemand{3, 2, -1}, AccessDemand{7, 2, -1}};
      break;
    case workload::AppKind::kLoadBalancer:  // single pinned block
      r.accesses = {AccessDemand{4, 1, -1}};
      break;
  }
  return r;
}

// What a replayed stream exercised, for the coverage guards.
struct StreamStats {
  u64 rejected = 0;
  u64 disturbed = 0;  // operations that disturbed at least one resident
  u32 peak_residents = 0;
  double peak_utilization = 0.0;
};

// Applies one churn event to `a`, checked against the oracle. `ids` maps
// the generator's services to the allocator's resident AppIds.
void apply_checked(Allocator& a, const workload::ChurnEvent& event,
                   RequestFor request_for, std::map<u64, AppId>& ids,
                   StreamStats& stats) {
  SCOPED_TRACE(testing::Message() << scheme_name(a.scheme()) << " service "
                                  << event.service);
  if (event.type == workload::ChurnEvent::Type::kArrival) {
    AllocationOutcome out;
    ASSERT_NO_FATAL_FAILURE(checked_allocate(a, request_for(event.kind), out));
    if (out.success) {
      ids[event.service] = out.app;
      if (!out.reallocated.empty()) ++stats.disturbed;
    } else {
      ++stats.rejected;
    }
  } else if (const auto it = ids.find(event.service); it != ids.end()) {
    std::vector<AppId> changed;
    ASSERT_NO_FATAL_FAILURE(checked_deallocate(a, it->second, changed));
    if (!changed.empty()) ++stats.disturbed;
    ids.erase(it);
  }
  stats.peak_residents = std::max(stats.peak_residents, a.resident_count());
  stats.peak_utilization = std::max(stats.peak_utilization, a.utilization());
}

// Replays `events` Poisson churn events through `a`, checking every
// allocate and deallocate against the oracle, and the final layout's
// accounting against its regions.
void replay_checked(Allocator& a, const workload::ChurnConfig& churn,
                    std::size_t events, RequestFor request_for,
                    StreamStats& stats) {
  workload::PoissonChurn gen(churn);
  std::map<u64, AppId> ids;
  for (std::size_t i = 0; i < events; ++i) {
    SCOPED_TRACE(testing::Message() << "event " << i);
    ASSERT_NO_FATAL_FAILURE(
        apply_checked(a, gen.next(), request_for, ids, stats));
  }
  ASSERT_EQ(a.resident_count(), ids.size());
  u64 allocated = 0;
  for (const auto& stage : layout_of(a)) {
    for (const auto& [id, region] : stage) allocated += region.size();
  }
  ASSERT_EQ(a.utilization(), static_cast<double>(allocated) /
                                 (static_cast<double>(a.blocks_per_stage()) *
                                  a.geometry().logical_stages));
}

// The paper's mix at 368 blocks, steady state ~60 apps.
void replay_paper_mix(Scheme scheme, MutantPolicy policy, std::size_t events,
                      StreamStats& stats) {
  Allocator alloc(kGeom, kBlocks, scheme, policy);
  workload::ChurnConfig churn;
  churn.arrival_rate = 3.0;
  churn.mean_lifetime = 20.0;
  churn.seed = 7;
  replay_checked(alloc, churn, events, paper_request, stats);
}

// Under most-constrained the stage constraints reject some arrivals
// (13-14 per scheme), so both the search's failure path and disturbed
// residents are covered.
void expect_parity_with_rejections(Scheme scheme) {
  StreamStats stats;
  ASSERT_NO_FATAL_FAILURE(replay_paper_mix(
      scheme, MutantPolicy::most_constrained(), 600, stats));
  EXPECT_GE(stats.rejected, 1u);
  EXPECT_GE(stats.disturbed, 1u);
}

// A least-constrained policy's extra pass places every arrival; the
// stream still disturbs residents.
void expect_least_constrained_parity(Scheme scheme) {
  StreamStats stats;
  ASSERT_NO_FATAL_FAILURE(replay_paper_mix(
      scheme, MutantPolicy::least_constrained(), 600, stats));
  EXPECT_GE(stats.disturbed, 1u);
}

TEST(AllocParity, WorstFit) {
  expect_parity_with_rejections(Scheme::kWorstFit);
}
TEST(AllocParity, BestFit) { expect_parity_with_rejections(Scheme::kBestFit); }
TEST(AllocParity, FirstFit) {
  expect_parity_with_rejections(Scheme::kFirstFit);
}
TEST(AllocParity, Realloc) { expect_parity_with_rejections(Scheme::kRealloc); }
TEST(AllocParity, WorstFitLeastConstrained) {
  expect_least_constrained_parity(Scheme::kWorstFit);
}
TEST(AllocParity, BestFitLeastConstrained) {
  expect_least_constrained_parity(Scheme::kBestFit);
}
TEST(AllocParity, ReallocLeastConstrainedTwoPasses) {
  // Brute force over two extra passes is the slowest walk in the suite,
  // so this stream stops at 150 events: utilization is >= 0.99 from
  // about event 100 on, and no arrival is rejected in 600 events either.
  StreamStats stats;
  ASSERT_NO_FATAL_FAILURE(replay_paper_mix(
      Scheme::kRealloc, MutantPolicy::least_constrained(2), 150, stats));
  EXPECT_GE(stats.peak_utilization, 0.99);
}

// bench_alloc's small-footprint mix on two geometries: no rejections, but
// disturbance chains across ~100-400 residents.
workload::ChurnConfig small_mix_368_churn() {
  workload::ChurnConfig churn;
  churn.arrival_rate = 4.0;
  churn.mean_lifetime = 25.0;
  churn.kind_weights = {0.4, 0.3, 0.3};
  churn.seed = 11;
  return churn;
}

void expect_small_footprint_parity(u32 blocks,
                                   const workload::ChurnConfig& churn,
                                   u32 min_peak_residents) {
  for (const Scheme scheme : {Scheme::kWorstFit, Scheme::kBestFit,
                              Scheme::kFirstFit, Scheme::kRealloc}) {
    Allocator alloc(kGeom, blocks, scheme);
    StreamStats stats;
    ASSERT_NO_FATAL_FAILURE(
        replay_checked(alloc, churn, 1500, small_request, stats));
    EXPECT_GE(stats.peak_residents, min_peak_residents) << scheme_name(scheme);
    EXPECT_GE(stats.disturbed, 1u) << scheme_name(scheme);
  }
}

TEST(AllocParity, SmallFootprint368Blocks) {
  expect_small_footprint_parity(368, small_mix_368_churn(), 100);
}

TEST(AllocParity, SmallFootprint512Blocks) {
  workload::ChurnConfig churn;
  churn.arrival_rate = 20.0;
  churn.mean_lifetime = 20.0;
  churn.kind_weights = {0.1, 0.2, 0.7};
  churn.seed = 23;
  expect_small_footprint_parity(512, churn, 300);
}

// --- migration primitives against the oracle --------------------------------

// Demotion and promotion report every app whose regions changed, the
// target included.
void checked_share_change(Allocator& a, AppId id, bool demote,
                          std::vector<AppId>& changed) {
  const Layout before = layout_of(a);
  changed = demote ? a.demote_elastic(id) : a.promote_elastic(id);
  ASSERT_EQ(a.demoted(id), demote);
  ASSERT_EQ(changed, changed_apps(before, layout_of(a), 0));
}

// A re-slide lands where the oracle places the vacated app, and reports
// the net change of every other app.
void checked_reslide(Allocator& a, AppId id, MoveOutcome& out) {
  const Layout before = layout_of(a);
  Allocator vacated = a;
  vacated.deallocate(id);
  const OracleChoice expect = oracle_search(vacated, a.apps().at(id).request);
  out = a.reallocate_app(id);
  const Layout after = layout_of(a);
  ASSERT_TRUE(out.success);
  ASSERT_TRUE(expect.found);
  ASSERT_EQ(out.chosen, expect.chosen);
  ASSERT_NO_FATAL_FAILURE(
      check_considered(a, out.mutants_considered, expect.enumerated));
  ASSERT_EQ(out.old_regions, regions_in(before, id));
  ASSERT_EQ(out.new_regions, regions_in(after, id));
  ASSERT_EQ(out.moved, out.old_regions != out.new_regions);
  ASSERT_EQ(out.reallocated, changed_apps(before, after, id));
}

TEST(AllocParity, MigrationPrimitives) {
  for (const Scheme scheme : {Scheme::kWorstFit, Scheme::kBestFit,
                              Scheme::kFirstFit, Scheme::kRealloc}) {
    SCOPED_TRACE(scheme_name(scheme));
    Allocator alloc(kGeom, kBlocks, scheme);
    workload::PoissonChurn gen(small_mix_368_churn());
    Rng rng(5);
    std::map<u64, AppId> ids;
    StreamStats stats;
    u64 moved_reslides = 0;
    u64 disturbing_demotions = 0;
    for (int i = 0; i < 750; ++i) {
      SCOPED_TRACE(testing::Message() << "step " << i);
      ASSERT_NO_FATAL_FAILURE(
          apply_checked(alloc, gen.next(), small_request, ids, stats));
      if (ids.empty()) continue;

      // One migration operation on a random resident: elastic apps are
      // demoted, promoted or re-slid; pinned apps are re-slid.
      auto pick = ids.begin();
      std::advance(pick, static_cast<long>(rng.uniform(ids.size())));
      const AppId id = pick->second;
      if (alloc.apps().at(id).elastic && rng.uniform(2) == 0) {
        const bool demote = !alloc.demoted(id);
        std::vector<AppId> changed;
        ASSERT_NO_FATAL_FAILURE(
            checked_share_change(alloc, id, demote, changed));
        if (demote && std::any_of(changed.begin(), changed.end(),
                                  [id](AppId other) { return other != id; })) {
          ++disturbing_demotions;
        }
      } else {
        MoveOutcome out;
        ASSERT_NO_FATAL_FAILURE(checked_reslide(alloc, id, out));
        if (out.moved) ++moved_reslides;
      }
    }
    EXPECT_GE(moved_reslides, 1u);
    EXPECT_GE(disturbing_demotions, 1u);
  }
}

// --- the global feasibility prune ------------------------------------------

TEST(AllocPrune, HopelessRequestFailsWithoutEnumeration) {
  telemetry::MetricsRegistry metrics;
  Allocator alloc(kGeom, kBlocks);
  alloc.set_metrics(&metrics);

  AllocationRequest hopeless;
  hopeless.accesses = {AccessDemand{4, kBlocks + 1, -1}};  // > any stage
  hopeless.program_length = 12;

  const OracleChoice brute = oracle_search(alloc, hopeless);
  const auto out = alloc.allocate(hopeless);
  EXPECT_FALSE(out.success);
  EXPECT_EQ(out.mutants_considered, 0u);  // rejected by the stage scan
  EXPECT_GT(brute.enumerated, 0u);        // brute force walks the space...
  EXPECT_FALSE(brute.found);              // ...and finds nothing feasible
  EXPECT_EQ(metrics.counter("alloc", "search_pruned").value(), 1u);
  EXPECT_EQ(alloc.resident_count(), 0u);

  // A feasible request still succeeds afterwards: the prune is stateless.
  EXPECT_TRUE(alloc.allocate(apps::cache_request()).success);
}

}  // namespace
}  // namespace artmt::alloc
