// Fabric availability bench gate (BENCH_fabric.json), two sections:
//
//  A. Chaos soak: four cache tenants on a 4-leaf / 2-spine fabric with a
//     federated global controller. A deterministic chaos schedule kills
//     leaf0 (all links down at 500ms, never restored inside the run) and
//     flaps spine1's links (800-900ms; spine1 is standby redundancy, so
//     the flap must be non-disruptive). Gates: the evacuated service is
//     re-placed within a bounded p99 downtime window, recovers with zero
//     state loss (a sibling has capacity), and is serving cache hits
//     again after the recovery mark.
//
//  B. Determinism: the fault-free scenario and the chaos scenario, each
//     run twice with the same seed, must produce byte-identical reply
//     digests, per-leaf register digests, placements and completion
//     times.
//
// CI smoke mode: ARTMT_BENCH_QUICK=1 shrinks the schedule and skips the
// JSON rewrite so a smoke run never clobbers committed full-run numbers.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/kv.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/rng.hpp"
#include "controller/switch_node.hpp"
#include "fabric/global_controller.hpp"
#include "fabric/topology.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "workload/zipf.hpp"

namespace artmt {
namespace {

using fabric::Topology;
using fabric::TopologyConfig;

bool quick_mode() {
  static const bool quick = std::getenv("ARTMT_BENCH_QUICK") != nullptr;
  return quick;
}

constexpr packet::MacAddr kServerMac = 0x5E00;
constexpr packet::MacAddr kClientMacBase = 0xC100;

struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

u64 register_digest(rmt::Pipeline& pipeline) {
  Digest digest;
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    rmt::RegisterArray& memory = pipeline.stage(s).memory();
    for (const Word w : memory.dump(0, memory.size())) digest.mix(w);
  }
  return digest.h;
}

struct ScenarioKnobs {
  const faults::FaultPlan* plan = nullptr;
  SimTime mark = 0;  // results after this instant count as "late"
  SimTime stop = 1'500 * kMillisecond;
};

struct ScenarioOut {
  fabric::FabricReport report;
  std::vector<u64> leaf_digests;
  u64 reply_digest = 0;
  std::vector<Fid> fids;
  std::vector<packet::MacAddr> owners;
  std::vector<bool> operational;
  std::vector<u64> hits;
  std::vector<u64> late_hits;
  u64 bad_values = 0;
  SimTime completed_at = 0;

  [[nodiscard]] bool matches(const ScenarioOut& other) const {
    return reply_digest == other.reply_digest &&
           leaf_digests == other.leaf_digests && fids == other.fids &&
           owners == other.owners && completed_at == other.completed_at;
  }
};

// Four tenants on leaves {1,2,3,1} (none on the doomed leaf0), server on
// leaf2. Round-robin admission places service i on leaf i, so tenant 0's
// service rides leaf0 and is the chaos schedule's victim.
ScenarioOut run_scenario(const ScenarioKnobs& knobs) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  std::unique_ptr<faults::FaultInjector> injector;
  if (knobs.plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*knobs.plan);
    net.set_transmit_hook(injector.get());
  }

  TopologyConfig tcfg;
  tcfg.leaves = 4;
  tcfg.spines = 2;
  tcfg.switch_config.costs.table_entry_update = 100 * kMicrosecond;
  tcfg.switch_config.costs.snapshot_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.clear_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.extraction_timeout = 50 * kMillisecond;
  tcfg.controller.miss_threshold = 3;
  Topology topo(net, tcfg);

  auto server = std::make_shared<apps::ServerNode>("server", kServerMac);
  net.attach(server);
  topo.attach_host(*server, 0, 2, kServerMac);

  const std::vector<u32> client_leaf = {1, 2, 3, 1};
  const u32 n = static_cast<u32>(client_leaf.size());
  struct Tenant {
    std::shared_ptr<client::ClientNode> client;
    std::shared_ptr<apps::CacheService> cache;
    workload::ZipfGenerator zipf{512, 1.2};
    Rng rng{0};
    Digest replies;
    u64 hits = 0;
    u64 late_hits = 0;
    u64 bad_values = 0;
    SimTime stop_time = 0;
    std::function<void()> drive;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  for (u32 i = 0; i < n; ++i) {
    auto t = std::make_unique<Tenant>();
    t->rng = Rng(1000 + i);
    t->client = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(i), kClientMacBase + i,
        topo.controller_mac());
    net.attach(t->client);
    topo.attach_host(*t->client, 0, client_leaf[i], kClientMacBase + i);
    t->cache = std::make_shared<apps::CacheService>(
        "cache" + std::to_string(i), kServerMac);
    t->client->register_service(t->cache);
    tenants.push_back(std::move(t));
  }

  const auto key_of = [](u32 tenant, u32 rank) {
    return (static_cast<u64>(tenant + 1) << 40) ^
           workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 i = 0; i < n; ++i) {
    for (u32 rank = 0; rank < tenants[i]->zipf.universe(); ++rank) {
      server->put(key_of(i, rank), rank + 1);
    }
  }

  const SimTime drive_stop = knobs.stop - 300 * kMillisecond;
  for (u32 i = 0; i < n; ++i) {
    Tenant& t = *tenants[i];
    t.client->on_passive = [&t](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(
          std::span<const u8>(frame).subspan(
              packet::EthernetHeader::kWireSize));
      if (msg) t.cache->handle_server_reply(*msg);
    };
    t.cache->on_result = [&t, &net, &knobs](u32 seq, u64 key, u32 value,
                                            bool hit) {
      const SimTime now = net.simulator().now();
      if (hit) {
        ++t.hits;
        if (value == 0) ++t.bad_values;
        if (knobs.mark != 0 && now >= knobs.mark) ++t.late_hits;
      }
      t.replies.mix(static_cast<u64>(now));
      t.replies.mix(seq);
      t.replies.mix(key);
      t.replies.mix(value);
      t.replies.mix(hit ? 1 : 0);
    };
    const auto hot_set = [&t, i, key_of] {
      const u32 k = std::min(t.cache->bucket_count(), t.zipf.universe());
      std::vector<std::pair<u64, u32>> out;
      out.reserve(k);
      for (u32 rank = k; rank-- > 0;)
        out.emplace_back(key_of(i, rank), rank + 1);
      return out;
    };
    t.cache->on_relocated = [&t, hot_set] { t.cache->populate(hot_set()); };
    t.drive = [&t, &net, i, key_of] {
      if (net.simulator().now() >= t.stop_time) return;
      t.cache->get(key_of(i, t.zipf.next_rank(t.rng)));
      net.simulator().schedule_after(500 * kMicrosecond, [&t] { t.drive(); });
    };
    t.cache->on_ready = [&t, hot_set, drive_stop] {
      t.cache->populate(hot_set());
      t.stop_time = drive_stop;
      t.drive();
    };
    sim.schedule_at((i + 1) * 100 * kMillisecond,
                    [&t] { t.cache->request_allocation(); });
  }

  topo.start(sim, 1 * kMillisecond, knobs.stop);
  sim.run_until(knobs.stop + 500 * kMillisecond);

  ScenarioOut out;
  out.report = topo.controller().report();
  for (u32 i = 0; i < topo.leaves(); ++i) {
    out.leaf_digests.push_back(register_digest(topo.leaf(i).pipeline()));
  }
  Digest combined;
  for (u32 i = 0; i < n; ++i) {
    Tenant& t = *tenants[i];
    combined.mix(t.replies.h);
    const Fid fid = t.cache->fid();
    out.fids.push_back(fid);
    out.owners.push_back(topo.controller().owner_of(fid));
    out.operational.push_back(t.cache->operational());
    out.hits.push_back(t.hits);
    out.late_hits.push_back(t.late_hits);
    out.bad_values += t.bad_values;
  }
  out.reply_digest = combined.h;
  out.completed_at = sim.now();
  return out;
}

double percentile_ms(std::vector<SimTime> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t idx = static_cast<std::size_t>(
      p * static_cast<double>(samples.size() - 1) + 0.5);
  return static_cast<double>(samples[idx]) / static_cast<double>(kMillisecond);
}

}  // namespace
}  // namespace artmt

int main() {
  using namespace artmt;
  const bool quick = quick_mode();

  // Deterministic chaos schedule: leaf0 dies for good at 500ms; spine1
  // (standby redundancy) flaps 800-900ms, which must disturb nothing.
  faults::FaultPlan chaos;
  chaos.flaps.push_back({"leaf0", "", 500 * kMillisecond, 10 * kSecond});
  chaos.flaps.push_back(
      {"spine1", "", 800 * kMillisecond, 900 * kMillisecond});

  ScenarioKnobs chaos_knobs;
  chaos_knobs.plan = &chaos;
  chaos_knobs.mark = 700 * kMillisecond;
  if (quick) chaos_knobs.stop = 1'200 * kMillisecond;

  const ScenarioOut out = run_scenario(chaos_knobs);
  const double p99_ms = percentile_ms(out.report.downtimes, 0.99);
  const double max_ms = percentile_ms(out.report.downtimes, 1.0);
  const double zero_loss_fraction =
      out.report.evacuations == 0
          ? 1.0
          : 1.0 - static_cast<double>(out.report.state_loss_services) /
                      static_cast<double>(out.report.evacuations);
  const bool victim_serving = out.late_hits.at(0) > 0 && out.operational.at(0);
  u64 bystander_late = 0;
  for (u32 i = 1; i < out.late_hits.size(); ++i)
    bystander_late += out.late_hits[i];

  std::printf(
      "chaos: deaths=%llu evacuations=%llu replaced=%llu unplaced=%llu "
      "state_loss=%llu\n",
      static_cast<unsigned long long>(out.report.switch_deaths),
      static_cast<unsigned long long>(out.report.evacuations),
      static_cast<unsigned long long>(out.report.replaced),
      static_cast<unsigned long long>(out.report.unplaced),
      static_cast<unsigned long long>(out.report.state_loss_services));
  std::printf(
      "  downtime p99=%.3fms max=%.3fms, zero-loss fraction %.2f, victim "
      "serving after mark: %s (late hits %llu, bystanders %llu)\n",
      p99_ms, max_ms, zero_loss_fraction, victim_serving ? "yes" : "NO",
      static_cast<unsigned long long>(out.late_hits.at(0)),
      static_cast<unsigned long long>(bystander_late));

  // Availability gates: exactly the leaf kill is detected (the spine flap
  // is non-disruptive), every evacuated service is re-placed with no
  // state loss, and the victim serves hits again inside the run.
  constexpr double kDowntimeP99BoundMs = 50.0;
  const bool gate_pass =
      out.report.switch_deaths == 1 && out.report.evacuations >= 1 &&
      out.report.replaced == out.report.evacuations &&
      out.report.unplaced == 0 && out.report.state_loss_services == 0 &&
      p99_ms > 0.0 && p99_ms <= kDowntimeP99BoundMs && victim_serving &&
      bystander_late > 0 && out.bad_values == 0;

  // Determinism: the fault-free and the chaos run, each repeated.
  ScenarioKnobs clean_knobs;
  if (quick) clean_knobs.stop = 1'200 * kMillisecond;
  const bool clean_match =
      run_scenario(clean_knobs).matches(run_scenario(clean_knobs));
  const bool chaos_match = run_scenario(chaos_knobs).matches(out);
  std::printf("repeated runs: fault-free %s, chaos %s\n",
              clean_match ? "byte-identical" : "DIVERGED",
              chaos_match ? "byte-identical" : "DIVERGED");

  if (!quick) {
    char json[2048];
    std::snprintf(
        json, sizeof(json),
        "{\n"
        "  \"quick\": false,\n"
        "  \"chaos\": {\n"
        "    \"leaves\": 4, \"spines\": 2, \"tenants\": 4,\n"
        "    \"leaf_kill_at_ms\": 500, \"spine_flap_ms\": [800, 900],\n"
        "    \"switch_deaths\": %llu, \"evacuations\": %llu,\n"
        "    \"replaced\": %llu, \"unplaced\": %llu,\n"
        "    \"state_loss_services\": %llu,\n"
        "    \"downtime_p99_ms\": %.3f, \"downtime_max_ms\": %.3f,\n"
        "    \"downtime_p99_bound_ms\": %.1f,\n"
        "    \"zero_state_loss_fraction\": %.3f,\n"
        "    \"victim_serving_after_mark\": %s,\n"
        "    \"gate_pass\": %s\n"
        "  },\n"
        "  \"determinism\": {\n"
        "    \"fault_free_runs_match\": %s,\n"
        "    \"chaos_runs_match\": %s\n"
        "  }\n"
        "}\n",
        static_cast<unsigned long long>(out.report.switch_deaths),
        static_cast<unsigned long long>(out.report.evacuations),
        static_cast<unsigned long long>(out.report.replaced),
        static_cast<unsigned long long>(out.report.unplaced),
        static_cast<unsigned long long>(out.report.state_loss_services),
        p99_ms, max_ms, kDowntimeP99BoundMs, zero_loss_fraction,
        victim_serving ? "true" : "false", gate_pass ? "true" : "false",
        clean_match ? "true" : "false", chaos_match ? "true" : "false");
    std::fputs(json, stdout);
    if (std::FILE* f = std::fopen("BENCH_fabric.json", "w")) {
      std::fputs(json, f);
      std::fclose(f);
    }
  }

  if (!clean_match) {
    std::fprintf(stderr, "FAIL: repeated fault-free fabric runs diverge\n");
    return 1;
  }
  if (!chaos_match) {
    std::fprintf(stderr, "FAIL: repeated chaos fabric runs diverge\n");
    return 1;
  }
  if (!gate_pass) {
    std::fprintf(stderr, "FAIL: fabric availability gates not met\n");
    return 1;
  }
  std::printf("fabric availability gates: PASS\n");
  return 0;
}
