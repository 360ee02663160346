// Background-migration bench gate (BENCH_migration.json), two sections:
//
//  A. Controller-level soak: a 10k-op PoissonChurn stream over a
//     contended 20x64-block pipeline, replayed twice -- migration off
//     and migration on (hotness-driven demotions plus fragmentation-
//     driven re-slides between churn bursts, every handshake driven
//     through force_finalize). Headline gate: migration-on sustains
//     >= 10% more utilization OR >= 15% fewer admission rejections.
//
//  B. End-to-end disruption: four cache tenants on one switch with the
//     background engine enabled; two tenants go idle mid-run (cold ->
//     demoted) and resume (hot -> promoted), every share move disturbing
//     the others. Per-tenant windowed hit rates plus move events feed
//     analyze_disruption: p99 dip depth and recovery time are reported
//     and gated. Run twice, the scenario must produce byte-identical
//     telemetry and reply digests, and it must survive a 2% uniform-loss
//     FaultPlan.
//
// CI smoke mode: ARTMT_BENCH_QUICK=1 shrinks both sections and skips the
// perf gates; BENCH_migration.json is NOT rewritten so a smoke run never
// clobbers committed full-run numbers.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "alloc/hotness.hpp"
#include "apps/cache_service.hpp"
#include "apps/kv.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/controller.hpp"
#include "controller/migration.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "rmt/pipeline.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/heatmap.hpp"
#include "workload/churn.hpp"
#include "workload/zipf.hpp"

namespace artmt {
namespace {

bool quick_mode() {
  static const bool quick = std::getenv("ARTMT_BENCH_QUICK") != nullptr;
  return quick;
}

// --- Section A: controller-level churn soak -------------------------------

// Small-footprint service mix, tuned to fragment: churning 1-block
// services leave single-block holes that strand the 2-block demands.
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

// Deterministic 25% hot split by FID hash: hot services keep their
// hotness score alive, the rest decay to cold and become demotion fodder.
bool fid_is_hot(Fid fid) {
  return (static_cast<u64>(fid) * 2654435761ull >> 4) % 4 == 0;
}

struct SoakSide {
  double sustained_utilization = 0.0;  // mean over the second half
  u64 admissions = 0;
  u64 rejections = 0;
  controller::ControllerStats stats;
};

struct SoakResult {
  std::size_t events = 0;
  SoakSide off;
  SoakSide on;
  double utilization_gain_pct = 0.0;
  double rejection_reduction_pct = 0.0;
  bool gate_pass = false;
};

SoakSide run_soak_side(const std::vector<workload::ChurnEvent>& events,
                       bool migration_on) {
  rmt::PipelineConfig pipe;
  pipe.words_per_stage = 64 * pipe.block_words;  // 64 blocks/stage: contended
  pipe.tcam_entries_per_stage = 2048;
  rmt::Pipeline pipeline(pipe);
  runtime::ActiveRuntime runtime(pipeline);
  // Batched+coalesced driver updates: the deployment configuration the
  // migration engine assumes (see the Fig. 8a composition shift in
  // EXPERIMENTS.md) -- remaps ride the same ranged-batch cost model as
  // admissions.
  controller::CostModel costs;
  costs.batched_updates = true;
  controller::Controller ctrl(pipeline, runtime, alloc::Scheme::kWorstFit,
                              alloc::MutantPolicy::most_constrained(), costs);
  ctrl.set_compute_model(alloc::ComputeModel::deterministic());

  telemetry::StageHeatmap heatmap(pipe.logical_stages);
  alloc::HotnessTable hotness;
  controller::MigrationPolicy policy;
  policy.max_plans_per_cycle = 16;
  policy.cooldown_cycles = 3;
  policy.frag_threshold = 0.9;
  policy.min_frag_blocks = 2;
  controller::MigrationPlanner planner(policy);
  controller::RemapQueue queue(64);

  std::map<u64, Fid> fid_of_service;
  std::vector<double> utilization;
  constexpr std::size_t kCycleEvery = 5;

  for (std::size_t i = 0; i < events.size(); ++i) {
    const auto& event = events[i];
    if (event.type == workload::ChurnEvent::Type::kArrival) {
      const auto result = ctrl.admit(request_for_kind(event.kind));
      if (result.pending) ctrl.force_finalize();
      if (result.admitted) fid_of_service.emplace(event.service, result.fid);
    } else {
      const auto it = fid_of_service.find(event.service);
      if (it != fid_of_service.end()) {
        ctrl.release(it->second);
        hotness.forget(static_cast<i32>(it->second));
        queue.drop_fid(it->second);
        fid_of_service.erase(it);
      }
    }

    if ((i + 1) % kCycleEvery != 0) continue;
    // One migration epoch: synthetic traffic (hot services loud, cold
    // ones a trickle so every resident has a hotness row), then the
    // planner + at most one cycle's worth of executed remaps.
    for (const Fid fid : ctrl.resident_fids()) {
      const u32 reads = fid_is_hot(fid) ? 64 : 1;
      for (u32 k = 0; k < reads; ++k) {
        heatmap.record_read(0, static_cast<i32>(fid));
      }
    }
    hotness.tick(heatmap);
    if (migration_on) {
      planner.plan(ctrl, hotness, queue);
      u32 steps = 0;
      while (steps < policy.max_plans_per_cycle) {
        const auto request = queue.pop();
        if (!request) break;
        if (!ctrl.resident(request->fid)) continue;
        const auto move = ctrl.migrate(*request);
        if (move.pending) ctrl.force_finalize();
        ++steps;
      }
    }
    utilization.push_back(ctrl.allocator().utilization());
  }

  SoakSide side;
  side.stats = ctrl.stats();
  side.admissions = side.stats.admissions;
  side.rejections = side.stats.rejections;
  double sum = 0.0;
  const std::size_t half = utilization.size() / 2;
  for (std::size_t i = half; i < utilization.size(); ++i) {
    sum += utilization[i];
  }
  side.sustained_utilization =
      utilization.size() > half
          ? sum / static_cast<double>(utilization.size() - half)
          : 0.0;
  return side;
}

SoakResult run_soak(std::size_t event_count) {
  workload::ChurnConfig churn;
  churn.arrival_rate = 40.0;
  churn.mean_lifetime = 16.0;  // ~640 residents vs 1280 blocks: contended
  churn.kind_weights = {0.2, 0.4, 0.4};
  churn.seed = 9;
  const auto events = workload::PoissonChurn::generate(churn, event_count);

  SoakResult r;
  r.events = event_count;
  r.off = run_soak_side(events, false);
  r.on = run_soak_side(events, true);
  r.utilization_gain_pct =
      r.off.sustained_utilization > 0.0
          ? 100.0 * (r.on.sustained_utilization - r.off.sustained_utilization) /
                r.off.sustained_utilization
          : 0.0;
  r.rejection_reduction_pct =
      r.off.rejections > 0
          ? 100.0 *
                (static_cast<double>(r.off.rejections) -
                 static_cast<double>(r.on.rejections)) /
                static_cast<double>(r.off.rejections)
          : 0.0;
  r.gate_pass =
      r.utilization_gain_pct >= 10.0 || r.rejection_reduction_pct >= 15.0;
  return r;
}

// --- Section B: end-to-end disruption under live migration ----------------

constexpr packet::MacAddr kSwitchMac = 0x0000aa;
constexpr packet::MacAddr kServerMac = 0x0000bb;
constexpr packet::MacAddr kClientMacBase = 0x000100;

struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

struct ScenarioKnobs {
  u32 universe = 20'000;
  double rps = 2'000.0;
  SimTime stop = 12 * kSecond;
  // Idle windows: tenant 1 pauses in [pause1, resume1), tenant 2 in
  // [pause2, resume2). resume2 == 0 disables the second cycle.
  SimTime pause1 = 3 * kSecond;
  SimTime resume1 = 6 * kSecond;
  SimTime pause2 = 7 * kSecond;
  SimTime resume2 = 9'500 * kMillisecond;
  const faults::FaultPlan* plan = nullptr;
};

// One cache tenant with a pausable Zipf request stream, windowed hit
// rates, and a move-event log (the disruption-analysis input).
struct Tenant {
  Tenant(netsim::Network& net, controller::SwitchNode& sw, u32 index,
         u32 universe, double alpha, double rps, u64 seed)
      : net(&net),
        index(index),
        zipf(universe, alpha),
        rng(seed),
        gap_ns(static_cast<SimTime>(1e9 / rps)) {
    client = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(index), kClientMacBase + index, kSwitchMac);
    net.attach(client);
    net.connect(sw, index + 1, *client, 0);
    sw.bind(kClientMacBase + index, index + 1);
    cache = std::make_shared<apps::CacheService>("cache" + std::to_string(index),
                                                 kServerMac);
    client->register_service(cache);
    client->on_passive = [this](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
          packet::EthernetHeader::kWireSize));
      if (msg) cache->handle_server_reply(*msg);
    };
    // The reply digest is per tenant; the scenario combines the four
    // digests in tenant order after the run.
    cache->on_result = [this](u32 seq, u64 key, u32 value, bool hit) {
      record(hit);
      replies.mix(static_cast<u64>(this->net->simulator().now()));
      replies.mix(seq);
      replies.mix(key);
      replies.mix(value);
      replies.mix(hit ? 1 : 0);
    };
    cache->on_relocated = [this] {
      move_events.push_back(windows.size());
      // An idle tenant does not repopulate: there is no traffic to serve,
      // and the write-back would read as recovered hotness.
      if (repopulate_on_move) cache->populate(hot_set_for_allocation());
    };
  }

  u64 key_for_rank(u32 rank) const {
    return (static_cast<u64>(index + 1) << 40) ^
           workload::ZipfGenerator::key_for_rank(rank);
  }

  void seed_server(apps::ServerNode& server) const {
    for (u32 rank = 0; rank < zipf.universe(); ++rank) {
      server.put(key_for_rank(rank), rank + 1);
    }
  }

  std::vector<std::pair<u64, u32>> hot_set_for_allocation() const {
    const u32 k = std::min(cache->bucket_count(), zipf.universe());
    std::vector<std::pair<u64, u32>> out;
    out.reserve(k);
    for (u32 rank = k; rank-- > 0;) {
      out.emplace_back(key_for_rank(rank), rank + 1);
    }
    return out;
  }

  void start_traffic(SimTime stop) {
    stop_time = stop;
    tick();
  }

  void tick() {
    if (net->simulator().now() >= stop_time) return;
    cache->get(key_for_rank(zipf.next_rank(rng)));
    net->simulator().schedule_after(gap_ns, [this] { tick(); });
  }

  void record(bool hit) {
    const SimTime now = net->simulator().now();
    if (window_start < 0) window_start = now;
    if (now - window_start >= kWindow) {
      windows.push_back(static_cast<double>(window_hits) /
                        std::max<u64>(1, window_total));
      window_start = now;
      window_hits = 0;
      window_total = 0;
    }
    ++window_total;
    if (hit) ++window_hits;
  }

  static constexpr SimTime kWindow = 50 * kMillisecond;

  netsim::Network* net;
  u32 index;
  workload::ZipfGenerator zipf;
  Rng rng;
  SimTime gap_ns;
  SimTime stop_time = 0;
  bool repopulate_on_move = true;
  std::shared_ptr<client::ClientNode> client;
  std::shared_ptr<apps::CacheService> cache;

  SimTime window_start = -1;
  u64 window_hits = 0;
  u64 window_total = 0;
  std::vector<double> windows;
  std::vector<std::size_t> move_events;
  Digest replies;
};

struct ScenarioOut {
  controller::DisruptionReport disruption;  // pooled over all tenants
  u64 move_events = 0;
  controller::SwitchNode::MigrationEngineStats engine;
  controller::ControllerStats ctrl;
  std::string snapshot;  // telemetry (run-to-run determinism key)
  u64 reply_digest = 0;
  SimTime completed_at = 0;
};

ScenarioOut run_scenario(const ScenarioKnobs& knobs) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  telemetry::MetricsRegistry registry;
  std::unique_ptr<faults::FaultInjector> injector;
  if (knobs.plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*knobs.plan);
    net.set_transmit_hook(injector.get());
  }

  controller::SwitchNode::Config cfg;
  cfg.costs.extraction_timeout = 300 * kMillisecond;
  cfg.costs.batched_updates = true;  // deployment config (EXPERIMENTS.md)
  cfg.metrics = &registry;
  cfg.migration.enabled = true;
  cfg.migration.interval = 100 * kMillisecond;
  auto sw = std::make_shared<controller::SwitchNode>("switch", cfg);
  net.attach(sw);
  auto server = std::make_shared<apps::ServerNode>("server", kServerMac);
  net.attach(server);
  net.connect(*sw, 0, *server, 0);
  sw->bind(kServerMac, 0);

  std::vector<std::unique_ptr<Tenant>> tenants;
  for (u32 i = 0; i < 4; ++i) {
    tenants.push_back(std::make_unique<Tenant>(net, *sw, i, knobs.universe,
                                               /*alpha=*/1.0, knobs.rps,
                                               101 + i));
    tenants.back()->seed_server(*server);
  }

  // Allocation + traffic timeline. Tenants 1 and 2 pause mid-run (going
  // cold -> demoted) and resume (hot again -> promoted); tenants 0 and 3
  // run throughout and absorb every share move.
  for (u32 i = 0; i < 4; ++i) {
    Tenant& t = *tenants[i];
    const SimTime first_stop =
        i == 1 ? knobs.pause1
               : (i == 2 && knobs.resume2 > 0 ? knobs.pause2 : knobs.stop);
    t.cache->on_ready = [&t, first_stop] {
      t.cache->populate(t.hot_set_for_allocation());
      t.start_traffic(first_stop);
    };
    sim.schedule_at((i + 1) * 100 * kMillisecond,
                    [&t] { t.cache->request_allocation(); });
  }
  Tenant& t1 = *tenants[1];
  sim.schedule_at(knobs.pause1, [&t1] { t1.repopulate_on_move = false; });
  sim.schedule_at(knobs.resume1, [&t1, stop = knobs.stop] {
    t1.repopulate_on_move = true;
    t1.start_traffic(stop);
  });
  if (knobs.resume2 > 0) {
    Tenant& t2 = *tenants[2];
    sim.schedule_at(knobs.pause2, [&t2] { t2.repopulate_on_move = false; });
    sim.schedule_at(knobs.resume2, [&t2, stop = knobs.stop] {
      t2.repopulate_on_move = true;
      t2.start_traffic(stop);
    });
  }

  sim.run_until(knobs.stop + 2 * kSecond);

  ScenarioOut out;
  // Pool every tenant's (series, events) pair through one analysis: the
  // p99 is over all per-service disruption events, as the gate demands.
  std::vector<double> series;
  std::vector<std::size_t> events;
  for (const auto& t : tenants) {
    for (const std::size_t w : t->move_events) {
      if (w > 0 && w < t->windows.size()) {
        events.push_back(series.size() + w);
      }
    }
    series.insert(series.end(), t->windows.begin(), t->windows.end());
    out.move_events += t->move_events.size();
  }
  out.disruption = controller::analyze_disruption(series, events);
  out.engine = sw->migration_stats();
  out.ctrl = sw->controller().stats();
  Digest combined;
  for (const auto& t : tenants) combined.mix(t->replies.h);
  out.reply_digest = combined.h;
  out.completed_at = sim.now();
  sim.export_metrics(registry);
  net.export_metrics(registry);
  sw->export_metrics(registry);
  std::ostringstream os;
  registry.snapshot_json(os);
  out.snapshot = os.str();
  return out;
}

// --- JSON ------------------------------------------------------------------

std::string soak_json(const SoakResult& r) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "  \"soak\": {\n"
      "    \"events\": %zu,\n"
      "    \"migration_off\": {\"sustained_utilization\": %.4f, "
      "\"admissions\": %llu, \"rejections\": %llu},\n"
      "    \"migration_on\": {\"sustained_utilization\": %.4f, "
      "\"admissions\": %llu, \"rejections\": %llu,\n"
      "      \"migrations\": %llu, \"reslides\": %llu, \"demotions\": %llu, "
      "\"promotions\": %llu,\n"
      "      \"noops\": %llu, \"tcam_skips\": %llu, \"blocks_migrated\": "
      "%llu},\n"
      "    \"utilization_gain_pct\": %.2f,\n"
      "    \"rejection_reduction_pct\": %.2f,\n"
      "    \"gate_pass\": %s\n"
      "  }",
      r.events, r.off.sustained_utilization,
      static_cast<unsigned long long>(r.off.admissions),
      static_cast<unsigned long long>(r.off.rejections),
      r.on.sustained_utilization,
      static_cast<unsigned long long>(r.on.admissions),
      static_cast<unsigned long long>(r.on.rejections),
      static_cast<unsigned long long>(r.on.stats.migrations),
      static_cast<unsigned long long>(r.on.stats.migration_reslides),
      static_cast<unsigned long long>(r.on.stats.migration_demotions),
      static_cast<unsigned long long>(r.on.stats.migration_promotions),
      static_cast<unsigned long long>(r.on.stats.migration_noops),
      static_cast<unsigned long long>(r.on.stats.migration_tcam_skips),
      static_cast<unsigned long long>(r.on.stats.blocks_migrated),
      r.utilization_gain_pct, r.rejection_reduction_pct,
      r.gate_pass ? "true" : "false");
  return buf;
}

std::string disruption_json(const char* key, const ScenarioOut& out) {
  char buf[512];
  std::snprintf(
      buf, sizeof(buf),
      "    \"%s\": {\"move_events\": %llu, \"analyzed_events\": %llu,\n"
      "      \"p99_dip\": %.3f, \"max_dip\": %.3f,\n"
      "      \"p99_recovery_windows\": %llu, \"max_recovery_windows\": %llu,\n"
      "      \"migrations\": %llu, \"demotions\": %llu, \"promotions\": %llu, "
      "\"ticks\": %llu}",
      key, static_cast<unsigned long long>(out.move_events),
      static_cast<unsigned long long>(out.disruption.events),
      out.disruption.p99_dip, out.disruption.max_dip,
      static_cast<unsigned long long>(out.disruption.p99_recovery_windows),
      static_cast<unsigned long long>(out.disruption.max_recovery_windows),
      static_cast<unsigned long long>(out.ctrl.migrations),
      static_cast<unsigned long long>(out.ctrl.migration_demotions),
      static_cast<unsigned long long>(out.ctrl.migration_promotions),
      static_cast<unsigned long long>(out.engine.ticks));
  return buf;
}

}  // namespace
}  // namespace artmt

int main() {
  using namespace artmt;
  const bool quick = quick_mode();

  // --- Section A ---
  const SoakResult soak = run_soak(quick ? 2'000 : 10'000);
  std::printf(
      "soak (%zu events): util %.4f -> %.4f (%+.1f%%), rejections %llu -> "
      "%llu (%+.1f%% fewer)\n",
      soak.events, soak.off.sustained_utilization,
      soak.on.sustained_utilization, soak.utilization_gain_pct,
      static_cast<unsigned long long>(soak.off.rejections),
      static_cast<unsigned long long>(soak.on.rejections),
      soak.rejection_reduction_pct);
  std::printf(
      "  migrations=%llu (reslides=%llu demotions=%llu promotions=%llu "
      "noops=%llu tcam_skips=%llu)\n",
      static_cast<unsigned long long>(soak.on.stats.migrations),
      static_cast<unsigned long long>(soak.on.stats.migration_reslides),
      static_cast<unsigned long long>(soak.on.stats.migration_demotions),
      static_cast<unsigned long long>(soak.on.stats.migration_promotions),
      static_cast<unsigned long long>(soak.on.stats.migration_noops),
      static_cast<unsigned long long>(soak.on.stats.migration_tcam_skips));

  // --- Section B ---
  ScenarioKnobs knobs;
  if (quick) {
    knobs.universe = 4'000;
    knobs.rps = 1'500.0;
    knobs.stop = 5 * kSecond;
    knobs.pause1 = 1'500 * kMillisecond;
    knobs.resume1 = 3 * kSecond;
    knobs.resume2 = 0;  // one idle cycle is enough for smoke
  }
  const ScenarioOut base = run_scenario(knobs);
  std::printf(
      "disruption: %llu move events, p99 dip %.3f, p99 recovery %llu "
      "windows (max %llu), %llu migrations over %llu ticks\n",
      static_cast<unsigned long long>(base.move_events), base.disruption.p99_dip,
      static_cast<unsigned long long>(base.disruption.p99_recovery_windows),
      static_cast<unsigned long long>(base.disruption.max_recovery_windows),
      static_cast<unsigned long long>(base.ctrl.migrations),
      static_cast<unsigned long long>(base.engine.ticks));
  std::printf(
      "  engine: deferred=%llu executed=%llu noops=%llu departed=%llu "
      "planned(d/p/r)=%llu/%llu/%llu cooldown_skips=%llu enqueued=%llu\n",
      static_cast<unsigned long long>(base.engine.deferred),
      static_cast<unsigned long long>(base.engine.executed),
      static_cast<unsigned long long>(base.engine.noops),
      static_cast<unsigned long long>(base.engine.departed),
      static_cast<unsigned long long>(base.engine.planner.demotions_planned),
      static_cast<unsigned long long>(base.engine.planner.promotions_planned),
      static_cast<unsigned long long>(base.engine.planner.reslides_planned),
      static_cast<unsigned long long>(base.engine.planner.cooldown_skips),
      static_cast<unsigned long long>(base.engine.queue.enqueued));

  const ScenarioOut repeat = run_scenario(knobs);
  const bool runs_match = repeat.snapshot == base.snapshot &&
                          repeat.reply_digest == base.reply_digest &&
                          repeat.completed_at == base.completed_at;
  std::printf("repeated run: %s\n",
              runs_match ? "byte-identical" : "DIVERGED");
  if (!runs_match) {
    std::fprintf(stderr, "FAIL: repeated migration scenario runs diverge\n");
    return 1;
  }

  const faults::FaultPlan plan = faults::FaultPlan::uniform_loss(5, 0.02);
  ScenarioKnobs faulted_knobs = knobs;
  faulted_knobs.plan = &plan;
  const ScenarioOut faulted = run_scenario(faulted_knobs);
  std::printf(
      "faulted (2%% loss): %llu move events, p99 dip %.3f, p99 recovery "
      "%llu windows, %llu migrations\n",
      static_cast<unsigned long long>(faulted.move_events),
      faulted.disruption.p99_dip,
      static_cast<unsigned long long>(faulted.disruption.p99_recovery_windows),
      static_cast<unsigned long long>(faulted.ctrl.migrations));

  if (!quick) {
    // --- JSON + gates (full mode only) ---
    std::string json = "{\n  \"quick\": false,\n";
    json += soak_json(soak);
    json += ",\n  \"disruption\": {\n";
    json += disruption_json("baseline", base);
    json += ",\n";
    json += disruption_json("faulted", faulted);
    json += ",\n    \"runs_match\": true\n  }\n}\n";
    std::fputs(json.c_str(), stdout);
    if (std::FILE* f = std::fopen("BENCH_migration.json", "w")) {
      std::fputs(json.c_str(), f);
      std::fclose(f);
    }

    if (!soak.gate_pass) {
      std::fprintf(stderr,
                   "FAIL: migration-on gained %.1f%% utilization / %.1f%% "
                   "fewer rejections (gate: >=10%% util or >=15%% "
                   "rejections)\n",
                   soak.utilization_gain_pct, soak.rejection_reduction_pct);
      return 1;
    }
  }
  // The remaining gates are pure virtual-time facts (no machine-speed
  // ratios), so quick mode keeps them at full strength -- this is what
  // the migration-soak CI job leans on.
  for (const ScenarioOut* run : {&base, &faulted}) {
    const char* label = run == &base ? "baseline" : "faulted";
    if (run->ctrl.migrations == 0 || run->disruption.events == 0) {
      std::fprintf(stderr, "FAIL: %s scenario executed no migrations\n",
                   label);
      return 1;
    }
    // Disruption bound: every affected service must recover within 3 s of
    // windows (60 x 50 ms) at the 99th percentile.
    if (run->disruption.p99_recovery_windows > 60) {
      std::fprintf(stderr,
                   "FAIL: %s p99 recovery %llu windows exceeds the "
                   "60-window (3 s) bound\n",
                   label,
                   static_cast<unsigned long long>(
                       run->disruption.p99_recovery_windows));
      return 1;
    }
  }
  return 0;
}
