// Causal span tracing, heatmaps and the flight recorder.
//
// The determinism contract under test: a span dump's bytes are a pure
// function of the simulated scenario -- two runs with the same seed dump
// the same bytes, fault-free AND under an active FaultPlan -- because
// span ids derive from (attach_index, tx_seq) and the canonical dump
// sorts the buffer totally. The same holds for the per-switch heatmap
// snapshot. The flight recorder must
// wrap without allocating and dump the switch's final events on a
// brownout up-edge. The switch's control-plane steps share the same
// stream, so a transaction and the capsules it faults land in one dump.
#include <gtest/gtest.h>

#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "active/assembler.hpp"
#include "alloc/hotness.hpp"
#include "apps/cache_service.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "packet/active_packet.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/heatmap.hpp"
#include "telemetry/span.hpp"
#include "telemetry/span_analysis.hpp"

namespace artmt {
namespace {

using netsim::LinkSpec;
using netsim::Network;

constexpr packet::MacAddr kClientMac = 0x0c;
constexpr packet::MacAddr kServerMac = 0x0b;
constexpr u32 kWaves = 20;
constexpr SimTime kWavePeriod = 10 * kMicrosecond;

class CountSink : public netsim::Node {
 public:
  explicit CountSink(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame /*frame*/, u32 /*port*/) override {
    ++received;
  }
  u64 received = 0;
};

// 25 instructions against a 20-stage pipeline: wraps into a second pass,
// so the scenario exercises kRecirc child spans.
active::Program long_walk_program() {
  std::string text = "MAR_LOAD $0\n";
  for (int i = 0; i < 23; ++i) text += "MEM_INCREMENT\n";
  text += "RETURN\n";
  return active::assemble(text);
}

std::vector<u8> make_wire(Fid fid, const packet::ArgumentHeader& args,
                          const active::Program& program) {
  auto pkt = packet::ActivePacket::make_program(fid, args, program);
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  pkt.payload.assign(64, 0x5a);
  return pkt.serialize();
}

std::vector<std::vector<u8>> make_wires() {
  std::vector<std::vector<u8>> wires;
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 7}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{12, 4, 5, 9}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  // FID 2 is never installed: a no-allocation collision and a drop.
  wires.push_back(make_wire(2, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  wires.push_back(
      make_wire(1, packet::ArgumentHeader{{20, 0, 0, 0}}, long_walk_program()));
  return wires;
}

struct WaveInjector {
  Network* net;
  netsim::Node* client;
  const std::vector<std::vector<u8>>* wires;
  u32 remaining;
  void operator()() {
    for (const auto& w : *wires) {
      net->transmit(*client, 0, net->pool().copy(w));
    }
    if (--remaining > 0) {
      net->simulator().schedule_after(kWavePeriod, *this);
    }
  }
};

struct SpanRun {
  std::string span_dump;    // canonical sorted JSON-lines dump
  std::string heatmap;      // registry snapshot of the switch's heatmap
  u64 span_events = 0;
  u64 replies = 0;
};

// `wipe_after` models a brownout up-edge once the run is quiescent.
SpanRun run_scenario(const faults::FaultPlan* plan, bool wipe_after = false) {
  telemetry::SpanSink sink;
  telemetry::set_span_sink(&sink);

  netsim::Simulator sim;
  Network net(sim);
  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*plan);
    net.set_transmit_hook(injector.get());
  }

  auto sw = std::make_shared<controller::SwitchNode>(
      "sw", controller::SwitchNode::Config{});
  auto client = std::make_shared<CountSink>("client");
  auto server = std::make_shared<CountSink>("server");
  LinkSpec link;
  link.latency = kMicrosecond;
  net.attach(sw);
  net.attach(client);
  net.attach(server);
  net.connect(*sw, 0, *client, 0, link);
  net.connect(*sw, 1, *server, 0, link);
  sw->bind(kClientMac, 0);
  sw->bind(kServerMac, 1);
  for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
    sw->pipeline().stage(s).install(1, 0, 4096, 0);
  }

  const std::vector<std::vector<u8>> wires = make_wires();
  WaveInjector inj{&net, client.get(), &wires, kWaves};
  sim.schedule_at(0, inj);
  sim.run();

  if (wipe_after) sw->wipe_registers();
  telemetry::set_span_sink(nullptr);
  SpanRun out;
  std::ostringstream dump;
  sink.dump(dump);
  out.span_dump = dump.str();
  out.span_events = sink.recorded();
  telemetry::MetricsRegistry heat_registry;
  sw->heatmap().export_metrics(heat_registry);
  std::ostringstream heat;
  heat_registry.snapshot_json(heat);
  out.heatmap = heat.str();
  out.replies = client->received + server->received;
  return out;
}

TEST(SpanTrace, DumpBytesIdenticalAcrossRuns) {
  const SpanRun first = run_scenario(nullptr);
  EXPECT_GT(first.span_events, 0u);
  EXPECT_GT(first.replies, 0u);
  // The scenario exercised execution, recirculation and collisions.
  EXPECT_NE(first.span_dump.find("\"exec\""), std::string::npos);
  EXPECT_NE(first.span_dump.find("\"recirc\""), std::string::npos);
  EXPECT_NE(first.heatmap.find("_collisions"), std::string::npos);
  const SpanRun second = run_scenario(nullptr);
  EXPECT_EQ(first.span_dump, second.span_dump);
  EXPECT_EQ(first.heatmap, second.heatmap);
  EXPECT_EQ(first.replies, second.replies);
}

TEST(SpanTrace, DumpBytesInvariantUnderFaultPlan) {
  const faults::FaultPlan plan = faults::FaultPlan::uniform_loss(7, 0.05);
  const SpanRun first = run_scenario(&plan);
  EXPECT_GT(first.span_events, 0u);
  // The plan actually dropped sends, and drops carry their own phase.
  EXPECT_NE(first.span_dump.find("\"drop\""), std::string::npos);
  const SpanRun second = run_scenario(&plan);
  EXPECT_EQ(first.span_dump, second.span_dump);
  EXPECT_EQ(first.heatmap, second.heatmap);
  EXPECT_EQ(first.replies, second.replies);
}

TEST(SpanTrace, DumpRoundTripsThroughLoader) {
  const SpanRun run = run_scenario(nullptr);
  std::istringstream in(run.span_dump);
  std::vector<telemetry::SpanEvent> events;
  std::string error;
  ASSERT_TRUE(telemetry::load_span_events(in, &events, &error)) << error;
  EXPECT_EQ(events.size(), run.span_events);
  const std::vector<telemetry::SpanRequest> requests =
      telemetry::reconstruct_requests(events);
  EXPECT_GT(requests.size(), 0u);

  // kExec carries each capsule's fault: FID 2 has no table entry, FID 1
  // owns every stage's memory.
  std::map<i32, u64> execs;
  for (const telemetry::SpanEvent& e : events) {
    if (e.phase != telemetry::SpanPhase::kExec) continue;
    ++execs[e.fid];
    EXPECT_EQ(static_cast<runtime::Fault>(e.parent),
              e.fid == 2 ? runtime::Fault::kNoAllocation
                         : runtime::Fault::kNone)
        << "fid " << e.fid;
  }
  EXPECT_GT(execs[1], 0u);
  EXPECT_GT(execs[2], 0u);
}

TEST(SpanTrace, LoaderRejectsNumbersItWouldMisread) {
  const std::string good =
      "{\"v\":3,\"ts\":5,\"component\":\"span\",\"event\":\"send\","
      "\"fid\":1,\"span\":2,\"parent\":0,\"node\":1,\"a\":9,\"b\":64}\n";
  std::vector<telemetry::SpanEvent> events;
  std::string error;
  {
    std::istringstream in(good);
    ASSERT_TRUE(telemetry::load_span_events(in, &events, &error)) << error;
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].node, 1u);
  }
  const struct {
    std::string from;
    std::string to;
  } bad[] = {
      {"\"node\":1", "\"node\":70000"},     // above u16
      {"\"span\":2", "\"span\":-1"},        // negative
      {"\"fid\":1,\"span\":2",              // not numbers
       "\"fid\":\"x\",\"span\":\"abc\""},
      {"\"fid\":1", "\"fid\":99999999999"},  // above i32
      {"\"a\":9,", ""},                      // missing
      {"\"ts\":5", "\"ts\":5.5"},            // not an integer
  };
  for (const auto& [from, to] : bad) {
    std::string line = good;
    line.replace(line.find(from), from.size(), to);
    // The bad line comes second, so the error must name line 2.
    std::istringstream in(good + line);
    EXPECT_FALSE(telemetry::load_span_events(in, &events, &error)) << line;
    EXPECT_EQ(error.rfind("line 2: ", 0), 0u) << error;
  }
}

// A departure under live traffic. Three elastic caches share the same
// stages, laid out in arrival order; when the first leaves, the
// controller re-lays the other two at once, with no notice, and the
// middle one's region moves before its client learns the new layout, so
// its queries in that window take the protection fault. The span dump
// names the transaction and every capsule it faulted.
TEST(SpanTrace, DepartureTransactionPrecedesTheFaultsItCauses) {
  constexpr packet::MacAddr kSwitchMac = 0xaa;
  telemetry::SpanSink sink;
  telemetry::set_span_sink(&sink);
  // Detaches the sink on every exit, a failed ASSERT's included.
  struct Detach {
    ~Detach() { telemetry::set_span_sink(nullptr); }
  } detach;

  netsim::Simulator sim;
  Network net(sim);
  controller::SwitchNode::Config cfg;
  cfg.scheme = alloc::Scheme::kFirstFit;
  cfg.costs.table_entry_update = 100 * kMicrosecond;
  cfg.costs.snapshot_per_block = kMicrosecond;
  cfg.costs.clear_per_block = kMicrosecond;
  auto sw = std::make_shared<controller::SwitchNode>("sw", cfg);
  auto server = std::make_shared<apps::ServerNode>("server", kServerMac);
  auto client =
      std::make_shared<client::ClientNode>("client", kClientMac, kSwitchMac);
  net.attach(sw);
  net.attach(server);
  net.attach(client);
  net.connect(*sw, 0, *server, 0);
  net.connect(*sw, 1, *client, 0);
  sw->bind(kServerMac, 0);
  sw->bind(kClientMac, 1);
  const auto run_for = [&sim](SimTime d) { sim.run_until(sim.now() + d); };

  std::vector<std::shared_ptr<apps::CacheService>> caches;
  for (int i = 0; i < 3; ++i) {
    caches.push_back(std::make_shared<apps::CacheService>(
        "cache" + std::to_string(i), kServerMac));
    client->register_service(caches.back());
    caches.back()->request_allocation();
    run_for(2 * kSecond);
    ASSERT_TRUE(caches.back()->operational());
  }
  // A request whose access lies past its program is denied as malformed.
  packet::ActivePacket crafted;
  crafted.initial.type = packet::ActiveType::kAllocRequest;
  crafted.initial.seq = 9;
  crafted.arguments = packet::ArgumentHeader{{3, 0, 1, 0}};
  packet::AllocRequestHeader req;
  req.slots[0] = {200, 1, 0x01};
  crafted.request = req;
  crafted.ethernet.src = kClientMac;
  crafted.ethernet.dst = kSwitchMac;
  net.transmit(*client, 0, crafted.serialize());
  run_for(kSecond);

  const Fid leaving = caches[0]->fid();
  const Fid neighbour = caches[1]->fid();
  std::map<Fid, std::map<u32, Interval>> regions_before;
  for (const Fid fid : sw->controller().resident_fids()) {
    regions_before[fid] = sw->controller().regions_of(fid);
  }
  // The neighbour queries every 10 us across the departure.
  u64 key = 1;
  std::function<void(u32)> query = [&](u32 left) {
    if (left == 0) return;
    caches[1]->get(key++);
    sim.schedule_after(10 * kMicrosecond, [&query, left] { query(left - 1); });
  };
  query(2000);
  run_for(5 * kMillisecond);
  const runtime::RuntimeStats before = sw->runtime().stats();
  caches[0]->release();
  run_for(kSecond);
  const runtime::RuntimeStats after = sw->runtime().stats();

  std::set<Fid> disturbed;
  for (const Fid fid : sw->controller().resident_fids()) {
    if (sw->controller().regions_of(fid) != regions_before.at(fid)) {
      disturbed.insert(fid);
    }
  }
  ASSERT_TRUE(disturbed.contains(neighbour));

  std::ostringstream dump;
  sink.dump(dump);
  std::istringstream in(dump.str());
  std::vector<telemetry::SpanEvent> events;
  std::string error;
  ASSERT_TRUE(telemetry::load_span_events(in, &events, &error)) << error;

  // The departure's transaction: its kTxn for the leaving FID names it.
  const telemetry::SpanEvent* release = nullptr;
  for (const telemetry::SpanEvent& e : events) {
    if (e.phase == telemetry::SpanPhase::kTxn && e.fid == leaving &&
        e.b == static_cast<u64>(telemetry::TxnCause::kRelease)) {
      ASSERT_EQ(release, nullptr) << "one release per departure";
      release = &e;
    }
  }
  ASSERT_NE(release, nullptr);
  std::map<i32, u64> txn_causes;
  const telemetry::SpanEvent* apply = nullptr;
  for (const telemetry::SpanEvent& e : events) {
    if (e.node != release->node || e.a != release->a) continue;
    if (e.phase == telemetry::SpanPhase::kTxn) {
      EXPECT_EQ(e.ts, release->ts);
      EXPECT_TRUE(txn_causes.emplace(e.fid, e.b).second) << "fid " << e.fid;
    } else if (e.phase == telemetry::SpanPhase::kApply) {
      EXPECT_EQ(apply, nullptr) << "one apply per transaction";
      apply = &e;
    }
  }
  std::map<i32, u64> expected_causes{
      {leaving, static_cast<u64>(telemetry::TxnCause::kRelease)}};
  for (const Fid fid : disturbed) {
    expected_causes[fid] = static_cast<u64>(telemetry::TxnCause::kDisturb);
  }
  EXPECT_EQ(txn_causes, expected_causes);
  ASSERT_NE(apply, nullptr);
  EXPECT_GT(apply, release);  // canonical order: the apply comes after
  EXPECT_EQ(apply->fid, leaving);
  EXPECT_EQ(apply->b, static_cast<u64>(telemetry::ApplyCause::kImmediate));

  // Every memory fault in the run is one of the neighbour's capsules
  // inside the departure's window.
  u64 faulted = 0;
  for (const telemetry::SpanEvent& e : events) {
    if (e.phase != telemetry::SpanPhase::kExec || e.fid != neighbour) continue;
    const auto fault = static_cast<runtime::Fault>(e.parent);
    if (fault != runtime::Fault::kProtectionViolation &&
        fault != runtime::Fault::kNoAllocation) {
      continue;
    }
    ++faulted;
    EXPECT_GE(e.ts, release->ts);
    EXPECT_LE(e.ts, apply->ts);
  }
  EXPECT_EQ(faulted,
            (after.drops_protection + after.drops_no_allocation) -
                (before.drops_protection + before.drops_no_allocation));
  EXPECT_GT(faulted, 0u);  // today's departure applies before notifying

  // The malformed request's denial.
  u64 denials = 0;
  for (const telemetry::SpanEvent& e : events) {
    if (e.phase != telemetry::SpanPhase::kDeny) continue;
    ++denials;
    EXPECT_EQ(e.a, 9u);
    EXPECT_EQ(e.b, static_cast<u64>(telemetry::DenyCause::kMalformed));
  }
  EXPECT_EQ(denials, 1u);

  // Control phases ride span 0, so request reconstruction ignores them.
  std::vector<telemetry::SpanEvent> capsules;
  for (const telemetry::SpanEvent& e : events) {
    if (e.phase != telemetry::SpanPhase::kTxn &&
        e.phase != telemetry::SpanPhase::kApply &&
        e.phase != telemetry::SpanPhase::kDeny) {
      capsules.push_back(e);
    }
  }
  ASSERT_LT(capsules.size(), events.size());
  const std::vector<telemetry::SpanRequest> with =
      telemetry::reconstruct_requests(events);
  const std::vector<telemetry::SpanRequest> without =
      telemetry::reconstruct_requests(capsules);
  EXPECT_GT(with.size(), 0u);
  EXPECT_EQ(with, without);
  std::ostringstream table_with;
  std::ostringstream table_without;
  telemetry::print_span_breakdown(table_with, with);
  telemetry::print_span_breakdown(table_without, without);
  EXPECT_EQ(table_with.str(), table_without.str());
}

TEST(Heatmap, HotnessTableDecaysAndRanks) {
  telemetry::StageHeatmap heat(2);
  for (u32 i = 0; i < 10; ++i) heat.record_read(0, 1);
  for (u32 i = 0; i < 4; ++i) heat.record_read(1, 2);
  alloc::HotnessTable hotness;
  hotness.observe(heat);
  EXPECT_EQ(hotness.score(1), 10u);
  EXPECT_EQ(hotness.score(2), 4u);
  hotness.decay();
  EXPECT_EQ(hotness.score(1), 5u);
  // A second observation absorbs only the delta since the first.
  for (u32 i = 0; i < 3; ++i) heat.record_write(1, 2);
  hotness.observe(heat);
  EXPECT_EQ(hotness.score(2), 2u + 3u);
}

TEST(FlightRecorder, WraparoundKeepsLastN) {
  telemetry::FlightRecorder recorder(4);
  for (u64 i = 0; i < 10; ++i) {
    telemetry::SpanEvent event;
    event.ts = static_cast<SimTime>(i);
    event.span = i;
    recorder.record(event);
  }
  EXPECT_EQ(recorder.recorded(), 10u);
  const std::vector<telemetry::SpanEvent> kept = recorder.events();
  ASSERT_EQ(kept.size(), 4u);
  for (u64 i = 0; i < 4; ++i) {
    EXPECT_EQ(kept[i].span, 6 + i);  // oldest surviving event first
  }
}

TEST(FlightRecorder, BrownoutUpEdgeDumpsFinalEvents) {
  const std::string dir = ::testing::TempDir();
  telemetry::FlightRecorder recorder(1024);
  recorder.set_dump_dir(dir);
  telemetry::set_flight_recorder(&recorder);

  // Run the capsule scenario with the recorder armed: every span event
  // lands in the ring, then the brownout up-edge wipes the registers and
  // auto-dumps the buffered tail.
  run_scenario(nullptr, /*wipe_after=*/true);
  EXPECT_GT(recorder.recorded(), 0u);
  EXPECT_EQ(recorder.dumps_written(), 1u);  // wipe fired exactly once

  telemetry::set_flight_recorder(nullptr);

  std::ifstream dump_file(dir + "/flight_0_brownout.json");
  ASSERT_TRUE(dump_file.is_open());
  std::vector<telemetry::SpanEvent> events;
  std::string error;
  ASSERT_TRUE(telemetry::load_span_events(dump_file, &events, &error))
      << error;
  ASSERT_FALSE(events.empty());
  // The dump ends with the wipe marker and carries the switch's final
  // pre-wipe activity.
  EXPECT_EQ(events.back().phase, telemetry::SpanPhase::kWipe);
  EXPECT_GT(events.back().a, 0u);  // the populate writes were wiped
  bool saw_exec = false;
  for (const auto& event : events) {
    if (event.phase == telemetry::SpanPhase::kExec) saw_exec = true;
  }
  EXPECT_TRUE(saw_exec);
}

}  // namespace
}  // namespace artmt
