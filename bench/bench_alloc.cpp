// Allocator churn bench (BENCH_alloc.json): drives the allocator through
// Poisson churn event streams and reports
//   - allocations/sec at ~1k and ~10k resident services,
//   - modeled p99 provisioning latency with per-entry vs batched+coalesced
//     table updates (CostModel::table_update_time),
//   - fragmentation over time (largest-free-run contiguity) while churning,
//   - admissions/sec through the full controller at 10k resident FIDs.
// Placement correctness is checked in tests/test_alloc_golden.cpp against
// a brute-force oracle, not here.
//
// The 10k-resident runs use a scaled geometry (20 stages x 2048 blocks):
// the paper's 368-block stages hold only a few dozen services, and the
// point of this bench is search/bookkeeping scaling, not capacity. Request
// demands are small (1-4 blocks) to match a 10k-service mix.
//
// CI smoke mode: ARTMT_BENCH_QUICK=1 shrinks event counts and skips the
// 10k run, and BENCH_alloc.json is NOT rewritten so a smoke run never
// clobbers committed full-run numbers.
//
// The JSON records the host fingerprint perfbench records (cores, CPU
// model, build type, compiler): its throughputs are wall-clock rates, and
// scripts/bench_compare.py compares them only between equal fingerprints.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "alloc/allocator.hpp"
#include "common/stopwatch.hpp"
#include "controller/controller.hpp"
#include "controller/cost_model.hpp"
#include "rmt/pipeline.hpp"
#include "runtime/runtime.hpp"
#include "workload/churn.hpp"

namespace artmt {
namespace {

bool quick_mode() {
  static const bool quick = std::getenv("ARTMT_BENCH_QUICK") != nullptr;
  return quick;
}

// --- synthetic 10k-service request mix -----------------------------------

// Small-footprint services: the churn kind slot doubles as the demand-mix
// selector (weights set per experiment below).
alloc::AllocationRequest request_for_kind(workload::AppKind kind) {
  alloc::AllocationRequest r;
  r.program_length = 12;
  switch (kind) {
    case workload::AppKind::kCache:  // elastic, min 1 / cap 4 per stage
      r.accesses = {alloc::AccessDemand{5, 1, -1}};
      r.elastic = true;
      r.elastic_cap_blocks = 4;
      break;
    case workload::AppKind::kHeavyHitter:  // two pinned two-block regions
      r.accesses = {alloc::AccessDemand{3, 2, -1},
                    alloc::AccessDemand{7, 2, -1}};
      break;
    case workload::AppKind::kLoadBalancer:  // single pinned block
      r.accesses = {alloc::AccessDemand{4, 1, -1}};
      break;
  }
  return r;
}

// --- churn driver ----------------------------------------------------------

// Replays a churn event stream against one Allocator, mapping generator
// service ids to allocator AppIds. Departures of never-admitted services
// exercise the graceful unknown-dealloc path by design.
struct Driver {
  alloc::Allocator alloc;
  std::unordered_map<u64, alloc::AppId> ids;
  u64 admitted = 0;
  u64 failed = 0;
  u64 released = 0;

  Driver(const alloc::StageGeometry& geom, u32 blocks, alloc::Scheme scheme)
      : alloc(geom, blocks, scheme) {
    alloc.set_compute_model(alloc::ComputeModel::deterministic());
  }

  alloc::AllocationOutcome apply(const workload::ChurnEvent& event) {
    if (event.type == workload::ChurnEvent::Type::kArrival) {
      auto outcome = alloc.allocate(request_for_kind(event.kind));
      if (outcome.success) {
        ids.emplace(event.service, outcome.app);
        ++admitted;
      } else {
        ++failed;
      }
      return outcome;
    }
    const auto it = ids.find(event.service);
    if (it != ids.end()) {
      alloc.deallocate(it->second);
      ids.erase(it);
      ++released;
    }
    return {};
  }
};

// --- throughput + fragmentation --------------------------------------------

struct FragPoint {
  std::size_t events = 0;
  u32 residents = 0;
  double utilization = 0.0;
  double contiguity = 0.0;  // sum(largest free run) / sum(free blocks)
};

double contiguity_of(const alloc::Allocator& a) {
  u64 largest = 0;
  u64 free_blocks = 0;
  for (u32 s = 0; s < a.geometry().logical_stages; ++s) {
    largest += a.stage(s).largest_free_run();
    free_blocks += a.stage(s).free_blocks();
  }
  return free_blocks == 0 ? 1.0
                          : static_cast<double>(largest) /
                                static_cast<double>(free_blocks);
}

struct ThroughputResult {
  u32 target_residents = 0;
  u32 residents_at_window = 0;
  std::size_t window_events = 0;
  u64 window_allocs = 0;
  double indexed_allocs_per_sec = 0.0;
  double p99_unbatched_ms = 0.0;  // modeled provisioning, per-entry updates
  double p99_batched_ms = 0.0;    // modeled provisioning, coalesced batches
  std::vector<FragPoint> frag;
};

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto idx = static_cast<std::size_t>(p * static_cast<double>(v.size()));
  return v[std::min(idx, v.size() - 1)];
}

// Modeled provisioning latency of one admission: allocator compute plus
// driver table updates (one install per region of the new app; one
// remove + one install per region of each disturbed app).
double provisioning_ms(const alloc::AllocationOutcome& outcome,
                       const alloc::Allocator& a,
                       const controller::CostModel& costs) {
  u64 entries = outcome.regions.size();
  for (const alloc::AppId app : outcome.reallocated) {
    entries += 2 * a.regions_of(app).size();
  }
  const u64 batches = 1 + outcome.reallocated.size();
  const SimTime table = costs.table_update_time(entries, batches);
  return outcome.search_ms + outcome.assign_ms +
         static_cast<double>(table) / static_cast<double>(kMillisecond);
}

ThroughputResult measure(u32 target_residents, double arrival_rate,
                         double mean_lifetime, std::size_t window,
                         u64 seed, const alloc::StageGeometry& geom,
                         u32 blocks) {
  ThroughputResult r;
  r.target_residents = target_residents;
  r.window_events = window;

  workload::ChurnConfig churn;
  churn.arrival_rate = arrival_rate;
  churn.mean_lifetime = mean_lifetime;
  churn.kind_weights = {0.1, 0.2, 0.7};  // elastic / 2-stage / 1-block
  churn.seed = seed;

  // Pre-generate the fill (until the generator population reaches the
  // target) and the measurement window, so only allocator work is timed.
  std::vector<workload::ChurnEvent> fill;
  std::vector<workload::ChurnEvent> window_events;
  {
    workload::PoissonChurn gen(churn);
    while (gen.resident() < target_residents) fill.push_back(gen.next());
    for (std::size_t i = 0; i < window; ++i) {
      window_events.push_back(gen.next());
    }
  }

  controller::CostModel unbatched;
  controller::CostModel batched;
  batched.batched_updates = true;

  // Fill (recording fragmentation), then the timed window.
  Driver indexed(geom, blocks, alloc::Scheme::kWorstFit);
  {
    const std::size_t stride = std::max<std::size_t>(1, fill.size() / 16);
    for (std::size_t i = 0; i < fill.size(); ++i) {
      indexed.apply(fill[i]);
      if (i % stride == 0 || i + 1 == fill.size()) {
        r.frag.push_back(FragPoint{i + 1, indexed.alloc.resident_count(),
                                   indexed.alloc.utilization(),
                                   contiguity_of(indexed.alloc)});
      }
    }
  }
  r.residents_at_window = indexed.alloc.resident_count();
  std::vector<double> lat_unbatched;
  std::vector<double> lat_batched;
  const u64 allocs_before = indexed.admitted;
  Stopwatch watch;
  for (const auto& event : window_events) {
    const auto outcome = indexed.apply(event);
    if (outcome.success) {
      lat_unbatched.push_back(
          provisioning_ms(outcome, indexed.alloc, unbatched));
      lat_batched.push_back(provisioning_ms(outcome, indexed.alloc, batched));
    }
  }
  const double indexed_sec = watch.elapsed_ms() / 1000.0;
  r.window_allocs = indexed.admitted - allocs_before;
  r.indexed_allocs_per_sec =
      indexed_sec > 0.0 ? static_cast<double>(r.window_allocs) / indexed_sec
                        : 0.0;
  r.p99_unbatched_ms = percentile(lat_unbatched, 0.99);
  r.p99_batched_ms = percentile(lat_batched, 0.99);
  r.frag.push_back(FragPoint{fill.size() + window_events.size(),
                             indexed.alloc.resident_count(),
                             indexed.alloc.utilization(),
                             contiguity_of(indexed.alloc)});
  return r;
}

// --- end-to-end controller datapath --------------------------------------

// Same churn stream, but admitted through the full control plane: FID
// issue, TCAM headroom checks, table/snapshot cost accounting, and the
// extraction handshake (force-finalized inline, as a quiesced switch
// would) instead of raw Allocator calls. The throughput phase isolates
// search cost; this phase reports what a provisioning client actually
// observes per admission at 10k resident FIDs.
struct E2EResult {
  u32 residents_at_window = 0;
  std::size_t window_events = 0;
  u64 window_admissions = 0;
  u64 window_handshakes = 0;  // admissions that rode the extraction path
  double admissions_per_sec = 0.0;
};

E2EResult measure_e2e(u32 target_residents, double arrival_rate,
                      double mean_lifetime, std::size_t window, u64 seed) {
  rmt::PipelineConfig pipe;
  pipe.words_per_stage = 2048 * pipe.block_words;  // scaled geometry
  pipe.tcam_entries_per_stage = 1u << 20;  // search scaling, not capacity
  rmt::Pipeline pipeline(pipe);
  runtime::ActiveRuntime runtime(pipeline);
  controller::Controller ctrl(pipeline, runtime);
  ctrl.set_compute_model(alloc::ComputeModel::deterministic());

  workload::ChurnConfig churn;
  churn.arrival_rate = arrival_rate;
  churn.mean_lifetime = mean_lifetime;
  churn.kind_weights = {0.1, 0.2, 0.7};
  churn.seed = seed;

  std::vector<workload::ChurnEvent> fill;
  std::vector<workload::ChurnEvent> window_events;
  {
    workload::PoissonChurn gen(churn);
    while (gen.resident() < target_residents) fill.push_back(gen.next());
    for (std::size_t i = 0; i < window; ++i) {
      window_events.push_back(gen.next());
    }
  }

  std::unordered_map<u64, Fid> fids;
  E2EResult r;
  r.window_events = window;
  const auto apply = [&](const workload::ChurnEvent& event, bool timed) {
    if (event.type == workload::ChurnEvent::Type::kArrival) {
      const auto result = ctrl.admit(request_for_kind(event.kind));
      if (result.pending) {
        ctrl.force_finalize();
        if (timed) ++r.window_handshakes;
      }
      if (result.admitted) {
        fids.emplace(event.service, result.fid);
        if (timed) ++r.window_admissions;
      }
    } else {
      const auto it = fids.find(event.service);
      if (it != fids.end()) {
        ctrl.release(it->second);
        fids.erase(it);
      }
    }
  };
  for (const auto& event : fill) apply(event, false);
  r.residents_at_window = static_cast<u32>(fids.size());
  Stopwatch watch;
  for (const auto& event : window_events) apply(event, true);
  const double sec = watch.elapsed_ms() / 1000.0;
  r.admissions_per_sec =
      sec > 0.0 ? static_cast<double>(r.window_admissions) / sec : 0.0;
  return r;
}

std::string fingerprint_json() {
  std::string cpu = "unknown";
  std::ifstream info("/proc/cpuinfo");
  for (std::string line; std::getline(info, line);) {
    const auto colon = line.find(':');
    if (line.rfind("model name", 0) == 0 && colon + 2 < line.size()) {
      cpu = line.substr(colon + 2);
      break;
    }
  }
  std::erase_if(cpu, [](char c) { return c == '"' || c == '\\'; });
  return "  \"fingerprint\": {\"cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"cpu\": \"" + cpu + "\", \"build_type\": \"" +
         ARTMT_BUILD_TYPE + "\", \"compiler\": \"" + ARTMT_COMPILER +
         "\"},\n";
}

std::string frag_json(const std::vector<FragPoint>& frag) {
  std::string out = "[";
  for (std::size_t i = 0; i < frag.size(); ++i) {
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"events\": %zu, \"residents\": %u, "
                  "\"utilization\": %.4f, \"contiguity\": %.4f}",
                  i == 0 ? "" : ", ", frag[i].events, frag[i].residents,
                  frag[i].utilization, frag[i].contiguity);
    out += buf;
  }
  return out + "]";
}

std::string throughput_json(const ThroughputResult& r) {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "    {\"target_residents\": %u, \"residents_at_window\": %u,\n"
      "     \"window_events\": %zu, \"window_allocs\": %llu,\n"
      "     \"indexed_allocs_per_sec\": %.1f,\n"
      "     \"p99_provisioning_ms_unbatched\": %.3f, "
      "\"p99_provisioning_ms_batched\": %.3f,\n"
      "     \"fragmentation\": ",
      r.target_residents, r.residents_at_window, r.window_events,
      static_cast<unsigned long long>(r.window_allocs),
      r.indexed_allocs_per_sec, r.p99_unbatched_ms, r.p99_batched_ms);
  return std::string(buf) + frag_json(r.frag) + "}";
}

}  // namespace
}  // namespace artmt

int main() {
  using namespace artmt;
  const bool quick = quick_mode();

  // --- Phase 1: throughput + provisioning + fragmentation. ---
  const alloc::StageGeometry scaled_geom{20, 10};
  const u32 scaled_blocks = 2048;
  std::vector<ThroughputResult> results;
  results.push_back(measure(1000, 15.0, 100.0, quick ? 300 : 2000, 42,
                            scaled_geom, scaled_blocks));
  if (!quick) {
    results.push_back(
        measure(10000, 150.0, 100.0, 600, 42, scaled_geom, scaled_blocks));
  }
  for (const auto& r : results) {
    std::printf(
        "residents=%u: %.0f allocs/s, p99 provisioning %.1f ms "
        "(batched %.1f ms)\n",
        r.residents_at_window, r.indexed_allocs_per_sec, r.p99_unbatched_ms,
        r.p99_batched_ms);
  }

  // --- Phase 2: end-to-end controller datapath at 10k FIDs. ---
  const E2EResult e2e =
      quick ? measure_e2e(500, 15.0, 100.0, 200, 42)
            : measure_e2e(10000, 150.0, 100.0, 600, 42);
  std::printf(
      "end-to-end (controller datapath): %u residents, %.0f admissions/s "
      "(%llu admissions, %llu handshakes over %zu events)\n",
      e2e.residents_at_window, e2e.admissions_per_sec,
      static_cast<unsigned long long>(e2e.window_admissions),
      static_cast<unsigned long long>(e2e.window_handshakes),
      e2e.window_events);

  // --- JSON (full mode only). ---
  if (!quick) {
    std::string json = "{\n  \"quick\": false,\n" + fingerprint_json();
    json += "  \"geometry\": {\"stages\": 20, \"blocks_per_stage\": 2048},\n";
    json += "  \"throughput\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
      json += throughput_json(results[i]);
      json += i + 1 == results.size() ? "\n" : ",\n";
    }
    json += "  ],\n";
    char e2ebuf[320];
    std::snprintf(
        e2ebuf, sizeof(e2ebuf),
        "  \"end_to_end\": {\"residents_at_window\": %u, "
        "\"window_events\": %zu,\n"
        "    \"window_admissions\": %llu, \"window_handshakes\": %llu,\n"
        "    \"admissions_per_sec\": %.1f}\n",
        e2e.residents_at_window, e2e.window_events,
        static_cast<unsigned long long>(e2e.window_admissions),
        static_cast<unsigned long long>(e2e.window_handshakes),
        e2e.admissions_per_sec);
    json += e2ebuf;
    json += "}\n";
    std::fputs(json.c_str(), stdout);
    if (std::FILE* f = std::fopen("BENCH_alloc.json", "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    }
  }
  return 0;
}
