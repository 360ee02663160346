// Microbenchmarks (google-benchmark) for the core data-plane and
// control-plane primitives: capsule parse/serialize, instruction
// execution, hashing, mutant enumeration, and single allocations.
//
// Before the google-benchmark cases run, a steady-state harness measures
// the switch packet path on a repeated-program workload two ways:
//   legacy  -- decode a fresh Program per packet, execute the mutating
//              compatibility path, serialize the mutated packet;
//   cached  -- intern through the ProgramCache, execute the immutable
//              CompiledProgram with a stack ExecCursor, synthesize the
//              shrink reply from the cursor.
// The harness asserts (exit 1) that the cache-hit execute performs zero
// heap allocations, and prints a JSON summary: packets/sec and
// allocations/packet for both paths, runtime drop/fault counters, and
// program-cache hit/miss statistics.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <thread>

#include "active/assembler.hpp"
#include "active/program_cache.hpp"
#include "alloc/allocator.hpp"
#include "apps/cache_service.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "packet/active_packet.hpp"
#include "proto/wire.hpp"
#include "rmt/hash.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

// --- global allocation counter -------------------------------------------
// Counts every heap allocation made by this binary; the steady-state
// harness reads deltas around the packet loop and around the cache-hit
// execute call specifically.
namespace {
unsigned long long g_alloc_count = 0;
}  // namespace

void* operator new(std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  ++g_alloc_count;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, std::align_val_t align) {
  ++g_alloc_count;
  const std::size_t a = static_cast<std::size_t>(align);
  const std::size_t rounded = (size + a - 1) / a * a;
  if (void* p = std::aligned_alloc(a, rounded ? rounded : a)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return operator new(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace artmt {
namespace {

// CI perf-smoke mode (scripts/ci.sh): ARTMT_BENCH_QUICK=1 shrinks every
// packet count so the whole harness finishes in seconds. Allocation
// assertions still run at full strength -- they are count-independent --
// but performance-ratio gates are skipped (the reduced rounds are too
// noisy to judge) and BENCH_datapath.json is NOT rewritten, so a smoke
// run never clobbers committed full-run numbers.
bool quick_mode() {
  static const bool quick = std::getenv("ARTMT_BENCH_QUICK") != nullptr;
  return quick;
}

// --- steady-state packet-path harness ------------------------------------

struct PathResult {
  double packets_per_sec = 0.0;
  double allocs_per_packet = 0.0;
};

struct SteadyStateRig {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline{cfg};
  runtime::ActiveRuntime runtime{pipeline};
  std::vector<u8> frame;  // the repeated cache-query capsule

  SteadyStateRig() {
    for (u32 s = 0; s < cfg.logical_stages; ++s) {
      pipeline.stage(s).install(1, 0, 4096, 0);
    }
    const auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}},
        apps::cache_query_program());
    frame = pkt.serialize();
  }
};

double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

u64 legacy_round(SteadyStateRig& rig, u64 packets) {
  const auto allocs_before = g_alloc_count;
  for (u64 i = 0; i < packets; ++i) {
    auto pkt = packet::ActivePacket::parse(rig.frame);
    rig.runtime.execute(pkt);
    benchmark::DoNotOptimize(pkt.serialize());
  }
  return g_alloc_count - allocs_before;
}

u64 cached_round(SteadyStateRig& rig, active::ProgramCache& cache,
                 active::ExecCursor& cursor, u64 packets,
                 u64* execute_allocs) {
  const auto allocs_before = g_alloc_count;
  for (u64 i = 0; i < packets; ++i) {
    auto pkt = packet::ActivePacket::parse(rig.frame, cache);
    const auto exec_before = g_alloc_count;
    rig.runtime.execute(*pkt.compiled, pkt, cursor);
    *execute_allocs += g_alloc_count - exec_before;
    benchmark::DoNotOptimize(proto::encode_executed(pkt, cursor));
  }
  return g_alloc_count - allocs_before;
}

// Rounds of the two paths are interleaved and each path reports its best
// round, so ambient load on a shared host skews both measurements alike
// instead of whichever path happened to run during a busy slice.
void measure_paths(SteadyStateRig& legacy_rig, SteadyStateRig& cached_rig,
                   active::ProgramCache& cache, u64 rounds, u64 per_round,
                   PathResult* legacy_out, PathResult* cached_out,
                   u64* execute_allocs_out) {
  active::ExecCursor cursor;
  // Warm up both paths (and populate the cache).
  legacy_round(legacy_rig, 1000);
  u64 execute_allocs = 0;
  cached_round(cached_rig, cache, cursor, 1000, &execute_allocs);
  execute_allocs = 0;

  double legacy_best_rate = 0.0;
  double cached_best_rate = 0.0;
  u64 legacy_allocs = 0;
  u64 cached_allocs = 0;
  for (u64 r = 0; r < rounds; ++r) {
    auto start = std::chrono::steady_clock::now();
    legacy_allocs += legacy_round(legacy_rig, per_round);
    legacy_best_rate =
        std::max(legacy_best_rate,
                 static_cast<double>(per_round) / seconds_since(start));
    start = std::chrono::steady_clock::now();
    cached_allocs +=
        cached_round(cached_rig, cache, cursor, per_round, &execute_allocs);
    cached_best_rate =
        std::max(cached_best_rate,
                 static_cast<double>(per_round) / seconds_since(start));
  }
  const double total = static_cast<double>(rounds * per_round);
  legacy_out->packets_per_sec = legacy_best_rate;
  legacy_out->allocs_per_packet = static_cast<double>(legacy_allocs) / total;
  cached_out->packets_per_sec = cached_best_rate;
  cached_out->allocs_per_packet = static_cast<double>(cached_allocs) / total;
  *execute_allocs_out = execute_allocs;
}

// Returns 0 on success, 1 when the zero-allocation assertion fails.
int run_steady_state() {
  const u64 kRounds = quick_mode() ? 3 : 10;
  const u64 kPerRound = quick_mode() ? 2'000 : 20'000;
  const u64 kIterations = kRounds * kPerRound;
  SteadyStateRig legacy_rig;
  SteadyStateRig cached_rig;
  active::ProgramCache cache;

  PathResult legacy;
  PathResult cached;
  u64 execute_allocs = 0;
  measure_paths(legacy_rig, cached_rig, cache, kRounds, kPerRound, &legacy,
                &cached, &execute_allocs);

  const runtime::RuntimeStats& stats = cached_rig.runtime.stats();
  const active::ProgramCache::Stats& cstats = cache.stats();
  std::printf(
      "{\n"
      "  \"workload\": {\"program\": \"cache_query\", \"packets\": %llu},\n"
      "  \"steady_state\": {\n"
      "    \"legacy\": {\"packets_per_sec\": %.0f, \"allocs_per_packet\": "
      "%.2f},\n"
      "    \"cached\": {\"packets_per_sec\": %.0f, \"allocs_per_packet\": "
      "%.2f, \"execute_allocs_per_packet\": %.6f},\n"
      "    \"speedup\": %.2f\n"
      "  },\n"
      "  \"runtime_counters\": {\n"
      "    \"packets\": %llu, \"instructions\": %llu, \"recirculations\": "
      "%llu,\n"
      "    \"drops_protection\": %llu, \"drops_no_allocation\": %llu,\n"
      "    \"drops_recirc_limit\": %llu, \"drops_recirc_budget\": %llu,\n"
      "    \"drops_privilege\": %llu, \"drops_explicit\": %llu,\n"
      "    \"rts_packets\": %llu, \"forwarded_unprocessed\": %llu\n"
      "  },\n"
      "  \"program_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"evictions\": %llu, \"collisions\": %llu}\n"
      "}\n",
      static_cast<unsigned long long>(kIterations), legacy.packets_per_sec,
      legacy.allocs_per_packet, cached.packets_per_sec,
      cached.allocs_per_packet,
      static_cast<double>(execute_allocs) /
          static_cast<double>(kIterations),
      cached.packets_per_sec / legacy.packets_per_sec,
      static_cast<unsigned long long>(stats.packets),
      static_cast<unsigned long long>(stats.instructions),
      static_cast<unsigned long long>(stats.recirculations),
      static_cast<unsigned long long>(stats.drops_protection),
      static_cast<unsigned long long>(stats.drops_no_allocation),
      static_cast<unsigned long long>(stats.drops_recirc_limit),
      static_cast<unsigned long long>(stats.drops_recirc_budget),
      static_cast<unsigned long long>(stats.drops_privilege),
      static_cast<unsigned long long>(stats.drops_explicit),
      static_cast<unsigned long long>(stats.rts_packets),
      static_cast<unsigned long long>(stats.forwarded_unprocessed),
      static_cast<unsigned long long>(cstats.hits),
      static_cast<unsigned long long>(cstats.misses),
      static_cast<unsigned long long>(cstats.evictions),
      static_cast<unsigned long long>(cstats.collisions));
  std::fflush(stdout);

  if (execute_allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: cache-hit ActiveRuntime::execute allocated %llu "
                 "times over %llu packets (expected 0)\n",
                 static_cast<unsigned long long>(execute_allocs),
                 static_cast<unsigned long long>(kIterations));
    return 1;
  }
  return 0;
}

// --- e2e netsim datapath harness -----------------------------------------
// The full wire-in/wire-out loop over the discrete-event network: a client
// node transmits pre-serialized program capsules to a SwitchNode, which
// parses them in place, executes them, and rewrites the shrunk reply into
// the inbound pooled buffer on its way to a server sink; writes
// BENCH_datapath.json. Asserts (exit 1) that the datapath performs zero
// heap allocations per forwarded frame once the pool is warm.
//
// A second rig runs the same path with telemetry recording enabled
// (per-FID counters + latency histogram on every frame, netsim counters
// on every delivery) against itself with recording gated off. Asserts
// (exit 1) that the instrumented path still performs zero steady-state
// allocations and stays within 5% of the recording-off packets/sec --
// the CI `telemetry-overhead` gate.
//
// A third rig measures the always-on tracing configuration: span
// emission live with the FlightRecorder ring armed (the production
// forensic setup -- the full-capture SpanSink is an offline dump mode,
// attached like a trace sink only when wanted), with metric/heatmap
// recording gated off (the third rig already prices those). Gates: zero
// steady-state allocations with the recorder armed (the ring is
// preallocated) and within 5% of the zero-copy baseline with spans live.

class SinkNode : public netsim::Node {
 public:
  explicit SinkNode(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    (void)port;
    ++received;
    bytes += frame.size();
    // `frame` dies here: the slab goes straight back to the pool.
  }
  u64 received = 0;
  u64 bytes = 0;
};

constexpr packet::MacAddr kBenchClientMac = 0x0c;
constexpr packet::MacAddr kBenchServerMac = 0x0b;
constexpr std::size_t kBenchPayloadBytes = 1400;  // MTU-ish data capsule

struct E2eRig {
  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<controller::SwitchNode> sw;
  std::shared_ptr<SinkNode> client;
  std::shared_ptr<SinkNode> server;
  std::vector<u8> wire;  // the repeated capsule, serialized once

  explicit E2eRig(bool telemetry = false) {
    sw = std::make_shared<controller::SwitchNode>(
        "switch", controller::SwitchNode::Config{});
    if (telemetry) {
      // Mirror the full artmt_stats wiring: netsim counters join the
      // switch's (private) registry, so the instrumented measurement pays
      // for every recording site the real deployment would.
      sim.set_metrics(&sw->metrics());
      net.set_metrics(&sw->metrics());
    }
    client = std::make_shared<SinkNode>("client");
    server = std::make_shared<SinkNode>("server");
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0);
    net.connect(*sw, 1, *server, 0);
    sw->bind(kBenchClientMac, 0);
    sw->bind(kBenchServerMac, 1);
    // Grant FID 1 the whole pipeline so the query never faults.
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      sw->pipeline().stage(s).install(1, 0, 4096, 0);
    }
    auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}},
        apps::cache_query_program());
    pkt.ethernet.src = kBenchClientMac;
    pkt.ethernet.dst = kBenchServerMac;
    pkt.payload.assign(kBenchPayloadBytes, 0x5a);
    wire = pkt.serialize();
  }

  // One frame at a time through the whole path (ingress copy into the
  // recycling pool, switch execution, egress delivery), draining the
  // simulator between frames like a line-rate switch between arrivals.
  void pump(u64 packets) {
    for (u64 i = 0; i < packets; ++i) {
      net.transmit(*client, 0, net.pool().copy(wire));
      sim.run();
    }
  }
};

struct E2eMeasurement {
  double packets_per_sec = 0.0;
  u64 allocs = 0;  // total over the measured rounds
};

void measure_e2e(E2eRig& rig, u64 rounds, u64 per_round, E2eMeasurement* out) {
  for (u64 r = 0; r < rounds; ++r) {
    const auto allocs_before = g_alloc_count;
    const auto start = std::chrono::steady_clock::now();
    rig.pump(per_round);
    out->packets_per_sec =
        std::max(out->packets_per_sec,
                 static_cast<double>(per_round) / seconds_since(start));
    out->allocs += g_alloc_count - allocs_before;
  }
}

// --- chaos: injector hook overhead + lossy reliability soak ---------------
// Two results ride in the "chaos" block of BENCH_datapath.json: a
// FaultInjector with an empty plan on the zero-copy datapath must stay
// within 5% of the hookless packets/sec baseline (the cost of having the
// subsystem compiled in and attached but idle), and a cache-populate soak
// through 5% uniform loss must converge, recording the injected /
// retransmitted / recovered capsule counts.

struct ChaosSoak {
  u64 injected_drops = 0;
  u64 retransmits = 0;
  u64 recovered = 0;
  u64 give_ups = 0;
  u64 cache_hits = 0;
  u64 cache_misses = 0;
  bool converged = false;
};

ChaosSoak run_chaos_soak() {
  netsim::Simulator sim;
  netsim::Network net(sim);
  controller::SwitchNode::Config cfg;
  cfg.costs.table_entry_update = 100 * kMicrosecond;
  cfg.costs.snapshot_per_block = 1 * kMicrosecond;
  cfg.costs.clear_per_block = 1 * kMicrosecond;
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

  // The loss window opens after admission settles: allocation-control
  // capsules carry no retransmission by design, so the soak measures the
  // reliability layer, not handshake luck.
  faults::FaultPlan plan = faults::FaultPlan::uniform_loss(3, 0.05);
  plan.link_faults[0].from = 50 * kMillisecond;
  faults::FaultInjector injector(plan);
  net.set_transmit_hook(&injector);

  auto cache = std::make_shared<apps::CacheService>("cache", 0xbb);
  client->register_service(cache);
  client->on_passive = [&cache](netsim::Frame& frame) {
    const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
        packet::EthernetHeader::kWireSize));
    if (msg) cache->handle_server_reply(*msg);
  };
  ChaosSoak soak;
  cache->on_result = [&](u32, u64, u32, bool hit) {
    (hit ? soak.cache_hits : soak.cache_misses)++;
  };
  for (u64 key = 0; key < 2048; ++key) server->put(key, 1);

  bool populated = false;
  std::function<void(u32)> get_next = [&](u32 remaining) {
    if (remaining == 0) return;
    cache->get(remaining % 256);
    sim.schedule_after(100 * kMicrosecond,
                       [&get_next, remaining] { get_next(remaining - 1); });
  };
  cache->on_ready = [&] {
    std::vector<std::pair<u64, u32>> hot;
    for (u32 key = 0; key < 128; ++key) hot.emplace_back(key, key + 1);
    sim.schedule_at(60 * kMillisecond, [&cache, hot = std::move(hot), &populated,
                                        &get_next] {
      cache->populate(hot, [&populated] { populated = true; });
      get_next(1000);
    });
  };
  cache->request_allocation();
  sim.run();

  soak.injected_drops = injector.injected(faults::FaultKind::kDrop);
  const auto& stats = cache->populate_reliability().stats();
  soak.retransmits = stats.retransmits;
  soak.recovered = stats.recovered;
  soak.give_ups = stats.give_ups;
  soak.converged =
      populated && cache->populate_reliability().outstanding() == 0;
  return soak;
}

// Fills `json` with the "chaos" member of BENCH_datapath.json (trailing
// comma included). Returns 0 on success, 1 when a gate fails.
int run_chaos_block(char* json, std::size_t cap) {
  E2eRig base_rig;
  E2eRig hook_rig;
  faults::FaultInjector idle{faults::FaultPlan{}};
  hook_rig.net.set_transmit_hook(&idle);
  telemetry::set_enabled(false);
  base_rig.pump(1000);
  hook_rig.pump(1000);
  E2eMeasurement base;
  E2eMeasurement hook;
  const u64 kChaosRounds = quick_mode() ? 3 : 10;
  const u64 kChaosPerRound = quick_mode() ? 1'000 : 5'000;
  for (u64 r = 0; r < kChaosRounds; ++r) {
    measure_e2e(base_rig, 1, kChaosPerRound, &base);
    measure_e2e(hook_rig, 1, kChaosPerRound, &hook);
  }
  telemetry::set_enabled(true);
  const double overhead_pct =
      100.0 * (1.0 - hook.packets_per_sec / base.packets_per_sec);
  const bool within_5pct = hook.packets_per_sec >= 0.95 * base.packets_per_sec;

  const ChaosSoak soak = run_chaos_soak();
  std::snprintf(
      json, cap,
      "  \"chaos\": {\n"
      "    \"idle_injector\": {\"packets_per_sec\": %.0f, "
      "\"baseline_packets_per_sec\": %.0f,\n"
      "                      \"overhead_pct\": %.2f, \"within_5pct\": %s},\n"
      "    \"lossy_soak\": {\"loss\": 0.05, \"injected_drops\": %llu, "
      "\"retransmits\": %llu,\n"
      "                   \"recovered\": %llu, \"give_ups\": %llu, "
      "\"cache_hits\": %llu,\n"
      "                   \"cache_misses\": %llu, \"converged\": %s}\n"
      "  }\n",
      hook.packets_per_sec, base.packets_per_sec, overhead_pct,
      within_5pct ? "true" : "false",
      static_cast<unsigned long long>(soak.injected_drops),
      static_cast<unsigned long long>(soak.retransmits),
      static_cast<unsigned long long>(soak.recovered),
      static_cast<unsigned long long>(soak.give_ups),
      static_cast<unsigned long long>(soak.cache_hits),
      static_cast<unsigned long long>(soak.cache_misses),
      soak.converged ? "true" : "false");

  if (!quick_mode() && !within_5pct) {
    std::fprintf(stderr,
                 "FAIL: idle fault injector ran at %.0f pps vs %.0f pps "
                 "baseline (%.2f%% overhead, budget 5%%)\n",
                 hook.packets_per_sec, base.packets_per_sec, overhead_pct);
    return 1;
  }
  if (!soak.converged) {
    std::fprintf(stderr,
                 "FAIL: lossy soak did not converge (populate done=%d, "
                 "outstanding writes give-ups=%llu)\n",
                 soak.converged,
                 static_cast<unsigned long long>(soak.give_ups));
    return 1;
  }
  return 0;
}

// Returns 0 on success, 1 when the zero-allocation assertion fails.
int run_e2e_datapath() {
  const u64 kRounds = quick_mode() ? 3 : 12;
  const u64 kPerRound = quick_mode() ? 1'000 : 5'000;
  const u64 kPackets = kRounds * kPerRound;
  E2eRig zc_rig;
  E2eRig tel_rig(/*telemetry=*/true);
  E2eRig spans_rig;
  // The production always-on tracing configuration: every span event is
  // emitted into the armed flight-recorder ring (preallocated, no dump
  // dir -- recording only). The full-capture SpanSink is the offline
  // forensic mode -- attached only when a dump is wanted, like a trace
  // sink -- so it stays detached here; counters/heatmap stay gated off
  // too (the third rig already prices those). The "spans" block thus
  // prices exactly what a deployment pays to keep the recorder armed.
  telemetry::FlightRecorder flight;
  auto arm_spans = [&] { telemetry::set_flight_recorder(&flight); };
  auto disarm_spans = [&] { telemetry::set_flight_recorder(nullptr); };
  // Warm-up: populates the program caches, the frame pools, the event
  // queue capacity, and (for the instrumented rigs) the per-FID counter
  // memos, so the measured rounds see the steady state.
  telemetry::set_enabled(true);
  zc_rig.pump(1000);
  tel_rig.pump(1000);
  arm_spans();
  spans_rig.pump(1000);
  disarm_spans();
  const u64 warmup_span_events = flight.recorded();

  E2eMeasurement zc;
  E2eMeasurement tel_base;
  E2eMeasurement tel;
  E2eMeasurement spans_base;
  E2eMeasurement spans;
  // Interleaved rounds, best-of: ambient load skews all paths alike. The
  // two overhead gates (telemetry recording, span tracing) are same-rig
  // paired A/Bs, like the chaos block's idle-injector gate: within each
  // round the rig alternates recording-off / recording-on in
  // sub-millisecond blocks so frequency ramps and scheduler quanta hit
  // both sides, each adjacent off/on pair yields one overhead ratio, and
  // the gate takes the MEDIAN over the pairs of the whole run. A
  // cross-rig comparison (or an independent best-of per side) lets one
  // lucky or stolen window on either side swing the measured cost by
  // tens of percent on a noisy host; the median of paired ratios is
  // robust in both directions.
  struct AbPair {
    double base_pps;  // the pair's recording-off throughput
    double on_pps;    // the pair's recording-on throughput
    double ratio;     // 1 - on/off for that pair
  };
  const u64 kAbBlocks = 5;
  // One paired A/B round: appends one overhead ratio per adjacent
  // off/on block pair and folds the block bests / alloc counts into the
  // global accumulators -- individual pairs are noisy, but a scheduler
  // steal poisons only the pairs it lands on, and the median shrugs
  // those off.
  const auto paired_round = [&](E2eRig& rig, auto&& off, auto&& on,
                                E2eMeasurement* base_out,
                                E2eMeasurement* on_out,
                                std::vector<AbPair>* overheads) {
    for (u64 k = 0; k < kAbBlocks; ++k) {
      E2eMeasurement base_b;
      E2eMeasurement on_b;
      // ABBA order alternation: the second slot of a pair sits closer to
      // the next scheduler quantum, so a fixed order would bias one side.
      if (k % 2 == 0) {
        off();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &base_b);
        on();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &on_b);
      } else {
        on();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &on_b);
        off();
        measure_e2e(rig, 1, kPerRound / kAbBlocks, &base_b);
      }
      base_out->packets_per_sec =
          std::max(base_out->packets_per_sec, base_b.packets_per_sec);
      base_out->allocs += base_b.allocs;
      on_out->packets_per_sec =
          std::max(on_out->packets_per_sec, on_b.packets_per_sec);
      on_out->allocs += on_b.allocs;
      overheads->push_back(
          {base_b.packets_per_sec, on_b.packets_per_sec,
           1.0 - on_b.packets_per_sec / base_b.packets_per_sec});
    }
    off();
  };
  std::vector<AbPair> tel_overheads;
  std::vector<AbPair> spans_overheads;
  tel_overheads.reserve(kRounds * kAbBlocks);
  spans_overheads.reserve(kRounds * kAbBlocks);
  for (u64 r = 0; r < kRounds; ++r) {
    telemetry::set_enabled(false);
    measure_e2e(zc_rig, 1, kPerRound, &zc);
    paired_round(tel_rig, [] { telemetry::set_enabled(false); },
                 [] { telemetry::set_enabled(true); }, &tel_base, &tel,
                 &tel_overheads);
    paired_round(spans_rig, disarm_spans, arm_spans, &spans_base, &spans,
                 &spans_overheads);
  }
  const u64 span_events = flight.recorded() - warmup_span_events;
  telemetry::set_enabled(true);  // the blocks below manage their own state
  // Median overhead over the clean-window pairs. A pair either of whose
  // blocks ran far below the run's best for that side was hit by host
  // throttling or a scheduler steal; such a pair's ratio is an outlier in
  // whichever direction the steal landed. The filter must test BOTH
  // sides: dropping only low-off-side pairs would remove the
  // negative-ratio outliers (steal on the off block) while keeping the
  // positive ones (steal on the on block), biasing the median upward.
  // VM throttling is measurement noise, not system-under-test cost.
  const auto median_overhead = [](const std::vector<AbPair>& pairs) {
    double best_off = 0.0;
    double best_on = 0.0;
    for (const AbPair& p : pairs) {
      best_off = std::max(best_off, p.base_pps);
      best_on = std::max(best_on, p.on_pps);
    }
    std::vector<double> v;
    v.reserve(pairs.size());
    for (const AbPair& p : pairs) {
      if (p.base_pps >= 0.6 * best_off && p.on_pps >= 0.6 * best_on) {
        v.push_back(p.ratio);
      }
    }
    if (v.size() < pairs.size() / 2) {
      // Degenerate throttle profile: fall back to every pair rather than
      // gate on a handful of samples.
      v.clear();
      for (const AbPair& p : pairs) v.push_back(p.ratio);
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n == 0) return 0.0;
    return n % 2 != 0 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };

  const double zc_allocs_per_frame =
      static_cast<double>(zc.allocs) / static_cast<double>(kPackets);
  const double tel_allocs_per_frame =
      static_cast<double>(tel.allocs) / static_cast<double>(kPackets);
  const double tel_overhead = median_overhead(tel_overheads);
  const double tel_overhead_pct = 100.0 * tel_overhead;
  const bool tel_within_5pct = tel_overhead <= 0.05;
  const double spans_allocs_per_frame =
      static_cast<double>(spans.allocs) / static_cast<double>(kPackets);
  const double spans_overhead = median_overhead(spans_overheads);
  const double spans_overhead_pct = 100.0 * spans_overhead;
  const bool spans_within_5pct = spans_overhead <= 0.05;

  const auto& ss = zc_rig.sw->node_stats();
  const auto& cs = zc_rig.sw->program_cache().stats();
  const auto& ps = zc_rig.net.pool().stats();
  const u64 lookups = cs.hits + cs.misses;
  const double hit_rate =
      lookups ? static_cast<double>(cs.hits) / static_cast<double>(lookups)
              : 0.0;

  char chaos_json[1024];
  const int chaos_rc = run_chaos_block(chaos_json, sizeof(chaos_json));

  char json[8192];
  std::snprintf(
      json, sizeof(json),
      "{\n"
      "  \"benchmark\": \"e2e_netsim_datapath\",\n"
      "  \"cores\": %u,\n"
      "  \"quick\": %s,\n"
      "  \"workload\": {\"program\": \"cache_query\", \"payload_bytes\": "
      "%zu,\n"
      "               \"frame_bytes\": %zu, \"packets_per_path\": %llu},\n"
      "  \"zero_copy\": {\"packets_per_sec\": %.0f, "
      "\"allocs_per_frame_steady\": %.6f},\n"
      "  \"telemetry\": {\"packets_per_sec\": %.0f, "
      "\"baseline_packets_per_sec\": %.0f,\n"
      "               \"allocs_per_frame_steady\": %.6f,\n"
      "               \"overhead_pct\": %.2f, \"within_5pct\": %s},\n"
      "  \"spans\": {\"packets_per_sec\": %.0f, "
      "\"baseline_packets_per_sec\": %.0f,\n"
      "           \"allocs_per_frame_steady\": %.6f,\n"
      "           \"overhead_pct\": %.2f, \"within_5pct\": %s, "
      "\"span_events\": %llu},\n"
      "  \"switch\": {\"forwarded\": %llu, \"returned\": %llu, \"dropped\": "
      "%llu,\n"
      "             \"malformed\": %llu, \"unknown_destination\": %llu,\n"
      "             \"zero_copy_frames\": %llu},\n"
      "  \"program_cache\": {\"hits\": %llu, \"misses\": %llu, "
      "\"hit_rate\": %.6f},\n"
      "  \"frame_pool\": {\"acquired\": %llu, \"slabs_created\": %llu, "
      "\"recycled\": %llu, \"oversize\": %llu},\n"
      "  \"network\": {\"frames_delivered\": %llu, \"frames_dropped\": "
      "%llu},\n"
      "  \"simulator\": {\"actions_spilled\": %llu},\n"
      "%s"
      "}\n",
      std::thread::hardware_concurrency(),
      quick_mode() ? "true" : "false", kBenchPayloadBytes, zc_rig.wire.size(),
      static_cast<unsigned long long>(kPackets), zc.packets_per_sec,
      zc_allocs_per_frame, tel.packets_per_sec, tel_base.packets_per_sec,
      tel_allocs_per_frame, tel_overhead_pct,
      tel_within_5pct ? "true" : "false", spans.packets_per_sec,
      spans_base.packets_per_sec, spans_allocs_per_frame, spans_overhead_pct,
      spans_within_5pct ? "true" : "false",
      static_cast<unsigned long long>(span_events),
      static_cast<unsigned long long>(ss.forwarded),
      static_cast<unsigned long long>(ss.returned),
      static_cast<unsigned long long>(ss.dropped),
      static_cast<unsigned long long>(ss.malformed),
      static_cast<unsigned long long>(ss.unknown_destination),
      static_cast<unsigned long long>(ss.zero_copy_frames),
      static_cast<unsigned long long>(cs.hits),
      static_cast<unsigned long long>(cs.misses), hit_rate,
      static_cast<unsigned long long>(ps.acquired),
      static_cast<unsigned long long>(ps.slabs_created),
      static_cast<unsigned long long>(ps.recycled),
      static_cast<unsigned long long>(ps.oversize),
      static_cast<unsigned long long>(zc_rig.net.frames_delivered()),
      static_cast<unsigned long long>(zc_rig.net.frames_dropped()),
      static_cast<unsigned long long>(zc_rig.sim.actions_spilled()),
      chaos_json);
  std::fputs(json, stdout);
  std::fflush(stdout);
  if (!quick_mode()) {
    if (std::FILE* f = std::fopen("BENCH_datapath.json", "w")) {
      std::fputs(json, f);
      std::fclose(f);
    }
  }

  if (zc.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: zero-copy datapath allocated %llu times over %llu "
                 "frames (expected 0 in steady state)\n",
                 static_cast<unsigned long long>(zc.allocs),
                 static_cast<unsigned long long>(kPackets));
    return 1;
  }
  if (tel.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: telemetry-enabled datapath allocated %llu times over "
                 "%llu frames (expected 0 in steady state)\n",
                 static_cast<unsigned long long>(tel.allocs),
                 static_cast<unsigned long long>(kPackets));
    return 1;
  }
  if (spans.allocs != 0) {
    std::fprintf(stderr,
                 "FAIL: span-tracing datapath allocated %llu times over "
                 "%llu frames (expected 0 in steady state with the flight "
                 "recorder armed)\n",
                 static_cast<unsigned long long>(spans.allocs),
                 static_cast<unsigned long long>(kPackets));
    return 1;
  }
  if (!quick_mode() && !tel_within_5pct) {
    std::fprintf(stderr,
                 "FAIL: telemetry-enabled datapath ran at %.0f pps vs %.0f "
                 "pps disarmed baseline (%.2f%% overhead, budget 5%%)\n",
                 tel.packets_per_sec, tel_base.packets_per_sec,
                 tel_overhead_pct);
    return 1;
  }
  if (!quick_mode() && !spans_within_5pct) {
    std::fprintf(stderr,
                 "FAIL: span-tracing datapath ran at %.0f pps vs %.0f pps "
                 "disarmed baseline (%.2f%% overhead, budget 5%%)\n",
                 spans.packets_per_sec, spans_base.packets_per_sec,
                 spans_overhead_pct);
    return 1;
  }
  return chaos_rc;
}

// --- google-benchmark cases ----------------------------------------------

void BM_PacketSerializeParse(benchmark::State& state) {
  const auto program = apps::cache_query_program();
  const auto pkt = packet::ActivePacket::make_program(
      1, packet::ArgumentHeader{{1, 2, 3, 4}}, program);
  for (auto _ : state) {
    auto frame = pkt.serialize();
    benchmark::DoNotOptimize(packet::ActivePacket::parse(frame));
  }
}
BENCHMARK(BM_PacketSerializeParse);

void BM_RuntimeCacheQuery(benchmark::State& state) {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline(cfg);
  runtime::ActiveRuntime runtime(pipeline);
  for (u32 s = 0; s < 20; ++s) pipeline.stage(s).install(1, 0, 4096, 0);
  const auto program = apps::cache_query_program();
  for (auto _ : state) {
    auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}}, program);
    benchmark::DoNotOptimize(runtime.execute(pkt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeCacheQuery);

void BM_RuntimeCacheQueryCompiled(benchmark::State& state) {
  // The zero-mutation hot path: shared CompiledProgram + stack cursor.
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline(cfg);
  runtime::ActiveRuntime runtime(pipeline);
  for (u32 s = 0; s < 20; ++s) pipeline.stage(s).install(1, 0, 4096, 0);
  const auto compiled =
      active::CompiledProgram::compile(apps::cache_query_program());
  auto pkt = packet::ActivePacket::make_program(
      1, packet::ArgumentHeader{{10, 2, 3, 0}}, active::Program{});
  active::ExecCursor cursor;
  for (auto _ : state) {
    pkt.arguments->args[0] = 10;
    benchmark::DoNotOptimize(runtime.execute(compiled, pkt, cursor));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeCacheQueryCompiled);

void BM_RuntimeMonitorProgram(benchmark::State& state) {
  rmt::PipelineConfig cfg;
  rmt::Pipeline pipeline(cfg);
  runtime::ActiveRuntime runtime(pipeline);
  for (u32 s = 0; s < 20; ++s) pipeline.stage(s).install(1, 0, 4096, 0);
  const auto program = apps::hh_monitor_program();
  u32 key = 0;
  for (auto _ : state) {
    auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{++key, key * 3, 0, 0}}, program);
    benchmark::DoNotOptimize(runtime.execute(pkt));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RuntimeMonitorProgram);

void BM_ProgramCacheIntern(benchmark::State& state) {
  active::ProgramCache cache;
  const auto program = apps::cache_query_program();
  cache.intern(program);  // warm: every iteration below is a hit
  for (auto _ : state) {
    benchmark::DoNotOptimize(cache.intern(program));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ProgramCacheIntern);

void BM_HashWords(benchmark::State& state) {
  const std::array<Word, 4> words{1, 2, 3, 4};
  for (auto _ : state) {
    benchmark::DoNotOptimize(rmt::hash_words(words, 1));
  }
}
BENCHMARK(BM_HashWords);

void BM_EnumerateCacheMutants(benchmark::State& state) {
  const auto request = apps::cache_request();
  const alloc::StageGeometry geom{20, 10};
  const auto policy = state.range(0) == 0
                          ? alloc::MutantPolicy::most_constrained()
                          : alloc::MutantPolicy::least_constrained(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        alloc::enumerate_mutants(request, geom, policy));
  }
}
BENCHMARK(BM_EnumerateCacheMutants)->Arg(0)->Arg(1);

void BM_AllocateCacheInstance(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    alloc::Allocator allocator({20, 10}, 368);
    for (int i = 0; i < state.range(0); ++i) {
      allocator.allocate(apps::cache_request());
    }
    state.ResumeTiming();
    benchmark::DoNotOptimize(allocator.allocate(apps::cache_request()));
  }
}
BENCHMARK(BM_AllocateCacheInstance)->Arg(0)->Arg(20)->Arg(100);

void BM_AssembleListing1(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(apps::cache_query_program());
  }
}
BENCHMARK(BM_AssembleListing1);

}  // namespace
}  // namespace artmt

int main(int argc, char** argv) {
  const int steady_state_rc = artmt::run_steady_state();
  const int e2e_rc = artmt::run_e2e_datapath();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 2;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return steady_state_rc != 0 ? steady_state_rc : e2e_rc;
}
