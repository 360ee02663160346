// Causal span tracing, heatmaps and the flight recorder.
//
// The determinism contract under test: a span dump's bytes are a pure
// function of the simulated scenario -- two runs with the same seed dump
// the same bytes, fault-free AND under an active FaultPlan -- because
// span ids derive from (attach_index, tx_seq) and the canonical dump
// sorts the buffer totally. The same holds for the per-switch heatmap
// snapshot. The flight recorder must
// wrap without allocating and dump the switch's final events on a
// brownout up-edge.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "active/assembler.hpp"
#include "alloc/hotness.hpp"
#include "apps/programs.hpp"
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
}

TEST(Heatmap, HotnessTableDecaysAndRanks) {
  telemetry::StageHeatmap heat(2);
  for (u32 i = 0; i < 10; ++i) heat.record_read(0, 1);
  for (u32 i = 0; i < 4; ++i) heat.record_read(1, 2);
  alloc::HotnessTable hotness;
  hotness.observe(heat);
  EXPECT_EQ(hotness.score(1), 10u);
  EXPECT_EQ(hotness.score(2), 4u);
  auto ranked = hotness.ranked();
  ASSERT_EQ(ranked.size(), 2u);
  EXPECT_EQ(ranked[0].first, 1);
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
