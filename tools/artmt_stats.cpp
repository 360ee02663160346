// artmt_stats -- run the end-to-end testbed scenario (an in-network cache
// plus a heavy-hitter monitor sharing one switch) with every component
// wired into one telemetry registry, then dump its snapshot as JSON: per-FID
// packet counters, admission/rejection totals, cache hit ratios, latency
// histograms, the allocator's per-stage layout (alloc.s<N>_free,
// _fungible, _largest_free_run, _elastic, _inelastic), the per-(stage, FID)
// access heatmap (heatmap.s<N>_reads{fid=N}, ...), and the migration
// engine's counters and hotness table -- the paper's evaluation quantities
// in one schema.
//
// Usage:
//   artmt_stats [--requests N] [--loss P] [--fault-seed S] [--migration]
//     --requests N   data-plane requests per service (default 2000)
//     --loss P       attach a FaultInjector with uniform loss P on every
//                    link; faults.* counters land in the snapshot and
//                    the reliability.* retransmit schedules absorb the
//                    loss (artmt_chaos runs the full scripted matrix)
//     --fault-seed S seed for the loss plan's substreams (default 1)
//     --migration    run with the background migration & defragmentation
//                    engine enabled: its tick/plan/execute and remap-queue
//                    counters (switch.migration_*), the controller's
//                    per-kind migration totals and the hotness table
//                    (hotness.score{fid=N}, hotness.cold_streak{fid=N})
//                    then count in the snapshot
//     --spans FILE   no scenario: load a span dump (--span-dump output
//                    or a flight-recorder dump) and print the per-FID
//                    p50/p90/p99 phase latency breakdown
//     --span-requests FILE
//                    like --spans, but one line per reconstructed
//                    request: root span, fid, attempts, recirculations,
//                    and the phase durations
//     --span-events FILE
//                    like --spans, but re-emit the events canonically
//                    sorted (normalizes a dump for byte comparison; also
//                    a validity check)
//     --span-dump F  record causal spans during the scenario and write
//                    the canonical sorted dump to F (byte-identical
//                    across runs): every capsule's lifecycle, with its
//                    fault on kExec, and the control plane's steps
//                    (txn, apply, deny)
//     --fabric       no single-switch scenario: run the multi-switch
//                    fabric story instead -- four cache tenants placed by
//                    the federated global controller across a 4-leaf /
//                    2-spine fabric, leaf0 killed mid-run so the
//                    failure-driven re-placement path executes -- and
//                    dump the global controller's snapshot (placements,
//                    evacuations, state loss, fabric.unplaced, and the
//                    fabric.downtime_ns histogram). Each tenant's owner
//                    goes to stderr.
//
// A numeric flag whose value does not parse or does not fit (N above 32
// bits, P outside [0, 1]) prints the usage line and exits 2. Every span
// dump line carries the trace schema version, so a dump written by an
// incompatible build is rejected (exit 1), not misread.
//
// Every output is a function of the flags alone: two runs with the same
// flags print the same bytes. The snapshot goes to stdout; a human
// summary goes to stderr.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/server_node.hpp"
#include "cli.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"
#include "common/rng.hpp"
#include "controller/switch_node.hpp"
#include "fabric/topology.hpp"
#include "faults/fault_plan.hpp"
#include "faults/injector.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"
#include "telemetry/span_analysis.hpp"
#include "workload/zipf.hpp"

using namespace artmt;

namespace {

// --fabric: the multi-switch observability surface. Four cache tenants on
// a 4-leaf / 2-spine fabric, placed by the federated global controller;
// leaf0 loses every link at 500ms and is never restored, so the health
// epochs declare it dead and the evacuation/re-placement machinery runs
// inside the dump window.
int run_fabric_report() {
  netsim::Simulator sim;
  netsim::Network net(sim);

  faults::FaultPlan plan;
  plan.flaps.push_back({"leaf0", "", 500 * kMillisecond, 10 * kSecond});
  faults::FaultInjector injector(plan);
  net.set_transmit_hook(&injector);

  telemetry::MetricsRegistry registry;
  fabric::TopologyConfig tcfg;
  tcfg.leaves = 4;
  tcfg.spines = 2;
  tcfg.switch_config.costs.table_entry_update = 100 * kMicrosecond;
  tcfg.switch_config.costs.snapshot_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.clear_per_block = 1 * kMicrosecond;
  tcfg.switch_config.costs.extraction_timeout = 50 * kMillisecond;
  tcfg.controller.metrics = &registry;
  fabric::Topology topo(net, tcfg);

  constexpr packet::MacAddr kFabServerMac = 0x5E00;
  constexpr packet::MacAddr kFabClientBase = 0xC100;
  auto server = std::make_shared<apps::ServerNode>("server", kFabServerMac);
  net.attach(server);
  topo.attach_host(*server, 0, 2, kFabServerMac);

  // Tenant 0 lands on the doomed leaf0 (round-robin admission places
  // service i on leaf i), so its service is the evacuation victim.
  const std::vector<u32> client_leaf = {1, 2, 3, 1};
  const u32 n = static_cast<u32>(client_leaf.size());
  struct Tenant {
    std::shared_ptr<client::ClientNode> client;
    std::shared_ptr<apps::CacheService> cache;
    workload::ZipfGenerator zipf{512, 1.2};
    Rng rng{0};
    u64 hits = 0;
    u64 misses = 0;
    SimTime stop_time = 0;
    std::function<void()> drive;
  };
  std::vector<std::unique_ptr<Tenant>> tenants;
  const auto key_of = [](u32 tenant, u32 rank) {
    return (static_cast<u64>(tenant + 1) << 40) ^
           workload::ZipfGenerator::key_for_rank(rank);
  };
  constexpr SimTime kStop = 1'200 * kMillisecond;
  const SimTime drive_stop = kStop - 300 * kMillisecond;
  for (u32 i = 0; i < n; ++i) {
    auto t = std::make_unique<Tenant>();
    t->rng = Rng(1000 + i);
    t->client = std::make_shared<client::ClientNode>(
        "tenant" + std::to_string(i), kFabClientBase + i,
        topo.controller_mac());
    net.attach(t->client);
    topo.attach_host(*t->client, 0, client_leaf[i], kFabClientBase + i);
    t->cache = std::make_shared<apps::CacheService>(
        "cache" + std::to_string(i), kFabServerMac);
    t->client->register_service(t->cache);
    tenants.push_back(std::move(t));
    for (u32 rank = 0; rank < tenants.back()->zipf.universe(); ++rank) {
      server->put(key_of(i, rank), rank + 1);
    }
  }
  for (u32 i = 0; i < n; ++i) {
    Tenant& t = *tenants[i];
    t.client->on_passive = [&t](netsim::Frame& frame) {
      const auto msg = apps::KvMessage::parse(
          std::span<const u8>(frame).subspan(
              packet::EthernetHeader::kWireSize));
      if (msg) t.cache->handle_server_reply(*msg);
    };
    t.cache->on_result = [&t](u32, u64, u32, bool hit) {
      (hit ? t.hits : t.misses)++;
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

  topo.start(sim, 1 * kMillisecond, kStop);
  sim.run_until(kStop + 500 * kMillisecond);

  const auto leaf_of = [&](packet::MacAddr mac) -> std::string {
    for (u32 i = 0; i < topo.leaves(); ++i) {
      if (topo.leaf_mac(i) == mac) return "leaf" + std::to_string(i);
    }
    return mac == 0 ? "unplaced" : "?";
  };
  // Queries carry the origin server as their L2 destination so a miss
  // continues there unassisted; a cache therefore intercepts them only
  // when its leaf is on the client->server path (client leaf or server
  // leaf). Off-path placements still serve every request -- management
  // capsules are steered to the owner, misses fall through to the origin.
  const auto on_path = [&](u32 tenant) {
    const packet::MacAddr owner =
        topo.controller().owner_of(tenants[tenant]->cache->fid());
    return owner == topo.leaf_mac(client_leaf[tenant]) ||
           owner == topo.leaf_mac(2);  // server leaf
  };
  std::fprintf(stderr,
               "fabric scenario done at t=%.3fs (%u leaves, %u spines, "
               "%u tenants, leaf0 killed at 0.5s)\n",
               sim.now() / 1e9, topo.leaves(), topo.spines(), n);
  for (u32 i = 0; i < n; ++i) {
    const Tenant& t = *tenants[i];
    std::fprintf(stderr,
                 "  tenant%u: fid %u on %s (%s), %llu hits / %llu misses%s\n",
                 i, t.cache->fid(),
                 leaf_of(topo.controller().owner_of(t.cache->fid())).c_str(),
                 on_path(i) ? "on-path" : "off-path: origin serves queries",
                 static_cast<unsigned long long>(t.hits),
                 static_cast<unsigned long long>(t.misses),
                 t.cache->operational() ? "" : " [NOT OPERATIONAL]");
  }

  topo.controller().export_metrics(registry);
  registry.snapshot_json(std::cout);
  return 0;
}

enum class SpanMode { kBreakdown, kRequests, kEvents };

// --spans / --span-requests / --span-events: read a span dump back.
int analyze_spans(const char* path, SpanMode mode) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "artmt_stats: cannot open %s\n", path);
    return 1;
  }
  std::vector<telemetry::SpanEvent> events;
  std::string error;
  if (!telemetry::load_span_events(in, &events, &error)) {
    std::fprintf(stderr, "artmt_stats: %s: %s\n", path, error.c_str());
    return 1;
  }
  if (mode == SpanMode::kEvents) {
    std::sort(events.begin(), events.end(), telemetry::span_event_before);
    telemetry::write_span_events(std::cout, events);
    return 0;
  }
  const std::vector<telemetry::SpanRequest> requests =
      telemetry::reconstruct_requests(events);
  if (mode == SpanMode::kBreakdown) {
    telemetry::print_span_breakdown(std::cout, requests);
  } else {
    std::printf(
        "root              fid  att  rec  done  total      queue      exec"
        "       wire       retry\n");
    for (const auto& req : requests) {
      std::printf(
          "%016llx  %-3d  %-3u  %-3u  %-4s  %-9lld  %-9lld  %-9lld  %-9lld"
          "  %lld\n",
          static_cast<unsigned long long>(req.root), req.fid, req.attempts,
          req.recircs, req.gave_up ? "gave" : (req.completed ? "yes" : "no"),
          static_cast<long long>(req.total), static_cast<long long>(req.queue),
          static_cast<long long>(req.exec), static_cast<long long>(req.wire),
          static_cast<long long>(req.retry_wait));
    }
  }
  std::fprintf(stderr, "%zu events, %zu requests\n", events.size(),
               requests.size());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  u32 requests = 2000;
  bool migration = false;
  bool fabric = false;
  double loss = 0.0;
  u64 fault_seed = 1;
  const char* spans_path = nullptr;
  SpanMode span_mode = SpanMode::kBreakdown;
  const char* span_dump_path = nullptr;
  const auto usage = [] {
    std::fprintf(stderr,
                 "usage: artmt_stats [--requests N] "
                 "[--loss P] [--fault-seed S] [--migration] "
                 "[--fabric] [--spans FILE] "
                 "[--span-requests FILE] [--span-events FILE] "
                 "[--span-dump FILE]\n");
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      const std::optional<u32> value = cli::parse_u32(argv[++i]);
      if (!value) return usage();
      requests = *value;
    } else if (std::strcmp(argv[i], "--loss") == 0 && i + 1 < argc) {
      const std::optional<double> value = cli::parse_probability(argv[++i]);
      if (!value) return usage();
      loss = *value;
    } else if (std::strcmp(argv[i], "--fault-seed") == 0 && i + 1 < argc) {
      const std::optional<u64> value = cli::parse_u64(argv[++i]);
      if (!value) return usage();
      fault_seed = *value;
    } else if (std::strcmp(argv[i], "--migration") == 0) {
      migration = true;
    } else if (std::strcmp(argv[i], "--fabric") == 0) {
      fabric = true;
    } else if (std::strcmp(argv[i], "--spans") == 0 && i + 1 < argc) {
      spans_path = argv[++i];
      span_mode = SpanMode::kBreakdown;
    } else if (std::strcmp(argv[i], "--span-requests") == 0 && i + 1 < argc) {
      spans_path = argv[++i];
      span_mode = SpanMode::kRequests;
    } else if (std::strcmp(argv[i], "--span-events") == 0 && i + 1 < argc) {
      spans_path = argv[++i];
      span_mode = SpanMode::kEvents;
    } else if (std::strcmp(argv[i], "--span-dump") == 0 && i + 1 < argc) {
      span_dump_path = argv[++i];
    } else {
      return usage();
    }
  }

  if (spans_path != nullptr) return analyze_spans(spans_path, span_mode);
  if (fabric) return run_fabric_report();

  // Everything records into one registry and the snapshot at the end is
  // the union of every component's counters.
  telemetry::MetricsRegistry registry;
  netsim::Simulator sim;
  netsim::Network net(sim);

  // Span capture: the canonical sorted dump is byte-identical across runs.
  std::unique_ptr<telemetry::SpanSink> span_sink;
  if (span_dump_path != nullptr) {
    span_sink = std::make_unique<telemetry::SpanSink>();
    telemetry::set_span_sink(span_sink.get());
  }

  controller::SwitchNode::Config cfg;
  cfg.migration.enabled = migration;
  cfg.metrics = &registry;
  auto sw = std::make_shared<controller::SwitchNode>("switch", cfg);
  auto server = std::make_shared<apps::ServerNode>("server", 0xbb);
  auto client = std::make_shared<client::ClientNode>("client", 0x100, 0xaa);
  net.attach(sw);
  net.attach(server);
  net.attach(client);
  net.connect(*sw, 0, *server, 0);
  net.connect(*sw, 1, *client, 0);
  sw->bind(0xbb, 0);
  sw->bind(0x100, 1);

  // Optional uniform loss: the reliability trackers ride through it and
  // the injected-fault counters join the snapshot.
  std::unique_ptr<faults::FaultInjector> injector;
  if (loss > 0.0) {
    injector = std::make_unique<faults::FaultInjector>(
        faults::FaultPlan::uniform_loss(fault_seed, loss));
    net.set_transmit_hook(injector.get());
  }

  workload::ZipfGenerator zipf(5'000, 1.2);
  Rng rng(42);
  auto key_of = [](u32 rank) {
    return workload::ZipfGenerator::key_for_rank(rank);
  };
  for (u32 rank = 0; rank < zipf.universe(); ++rank) {
    server->put(key_of(rank), rank + 1);
  }

  // Service 1: the in-network cache (GET traffic, RTS hits).
  auto cache = std::make_shared<apps::CacheService>("cache", 0xbb);
  client->register_service(cache);
  client->on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (msg) cache->handle_server_reply(*msg);
  };
  u64 hits = 0;
  u64 misses = 0;
  cache->on_result = [&](u32, u64, u32, bool hit) { (hit ? hits : misses)++; };

  // Service 2: the heavy-hitter monitor (observe traffic, extraction,
  // then release -- exercising the controller's departure path too).
  auto monitor = std::make_shared<apps::FrequentItemService>("monitor", 0xbb);
  client->register_service(monitor);
  std::size_t heavy_hitters = 0;

  std::function<void(u32)> get_next = [&](u32 remaining) {
    if (remaining == 0) return;
    cache->get(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        100 * 1000, [&get_next, remaining] { get_next(remaining - 1); });
  };
  std::function<void(u32)> observe_next = [&](u32 remaining) {
    if (remaining == 0) {
      monitor->extract(
          [&](std::vector<std::pair<u64, u32>> items) {
            heavy_hitters = items.size();
            monitor->release();
          },
          /*min_count=*/20);
      return;
    }
    monitor->observe(key_of(zipf.next_rank(rng)));
    net.simulator().schedule_after(
        50 * 1000, [&observe_next, remaining] { observe_next(remaining - 1); });
  };

  cache->on_ready = [&] {
    std::vector<std::pair<u64, u32>> hot;
    for (u32 rank = 200; rank-- > 0;) hot.emplace_back(key_of(rank), rank + 1);
    cache->populate(std::move(hot), [&] { get_next(requests); });
  };
  monitor->on_ready = [&] { observe_next(requests); };

  cache->request_allocation();
  sim.schedule_at(kSecond, [&] { monitor->request_allocation(); });
  sim.run();
  const SimTime end_time = sim.now();

  std::fprintf(stderr,
               "scenario done at t=%.3fs: cache %llu hits / %llu misses, "
               "%zu heavy hitters, %llu capsules through the switch\n",
               end_time / 1e9, static_cast<unsigned long long>(hits),
               static_cast<unsigned long long>(misses), heavy_hitters,
               static_cast<unsigned long long>(sw->runtime().stats().packets));
  if (span_sink != nullptr) {
    telemetry::set_span_sink(nullptr);
    std::ofstream out(span_dump_path);
    if (!out) {
      std::fprintf(stderr, "artmt_stats: cannot open %s\n", span_dump_path);
      return 1;
    }
    span_sink->dump(out);
    std::fprintf(stderr, "wrote %llu span events to %s\n",
                 static_cast<unsigned long long>(span_sink->recorded()),
                 span_dump_path);
  }

  // Every component's typed totals join the live registry counters once,
  // here.
  sim.export_metrics(registry);
  net.export_metrics(registry);
  sw->export_metrics(registry);
  if (injector) injector->export_metrics(registry);
  const auto cache_fid = static_cast<i32>(cache->fid());
  const auto monitor_fid = static_cast<i32>(monitor->fid());
  cache->populate_reliability().export_metrics(registry, cache_fid);
  cache->handshake_reliability().export_metrics(registry, cache_fid);
  monitor->extract_reliability().export_metrics(registry, monitor_fid);
  monitor->handshake_reliability().export_metrics(registry, monitor_fid);
  registry.snapshot_json(std::cout);
  return 0;
}
