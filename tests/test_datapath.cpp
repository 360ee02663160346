// The switch frame datapath: in-place parse -> execute -> in-place reply
// encode checked against the decoded-program reference (ActivePacket::
// parse, execute, serialize), passive L2 forwarding, unknown-destination
// accounting, the per-capsule event budget, pool recycling across a full
// wire-in/wire-out exchange, the heap cost of passive and program
// traffic, and L2 learning around pinned routes.
#include <gtest/gtest.h>

#include "active/assembler.hpp"
#include "alloc_counter.hpp"
#include "apps/programs.hpp"
#include "client/client_node.hpp"
#include "controller/switch_node.hpp"
#include "netsim/network.hpp"
#include "proto/wire.hpp"
#include "runtime/runtime.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"

namespace artmt {
namespace {

using controller::SwitchNode;
using packet::ActivePacket;
using packet::ArgumentHeader;

constexpr packet::MacAddr kClientMac = 0x0000cc;
constexpr packet::MacAddr kServerMac = 0x0000bb;

class Recorder : public netsim::Node {
 public:
  explicit Recorder(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    (void)port;
    frames.push_back(std::move(frame));
  }
  std::vector<netsim::Frame> frames;
};

// One default-configured switch with a client-side and a server-side
// recorder. Pass a registry to share it with the caller (the telemetry
// tests read counters directly); by default the switch keeps a private
// one.
struct Bed {
  explicit Bed(telemetry::MetricsRegistry* metrics = nullptr) {
    SwitchNode::Config cfg;
    cfg.metrics = metrics;
    sw = std::make_shared<SwitchNode>("switch", cfg);
    client = std::make_shared<Recorder>("client");
    server = std::make_shared<Recorder>("server");
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0);
    net.connect(*sw, 1, *server, 0);
    sw->bind(kClientMac, 0);
    sw->bind(kServerMac, 1);
  }

  void inject(std::vector<u8> frame) {
    net.transmit(*client, 0, net.pool().copy(frame));
    sim.run();
  }

  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<SwitchNode> sw;
  std::shared_ptr<Recorder> client;
  std::shared_ptr<Recorder> server;
};

std::vector<u8> program_frame(const std::string& text,
                              const ArgumentHeader& args, u8 extra_flags = 0,
                              std::vector<u8> payload = {}) {
  auto pkt = ActivePacket::make_program(1, args, active::assemble(text));
  pkt.initial.flags |= extra_flags;
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  pkt.payload = std::move(payload);
  return pkt.serialize();
}

// ---------- switch vs library reference ----------

// Runs the capsule through the switch and through the decoded-program
// reference on an identically configured pipeline: ActivePacket::parse,
// ActiveRuntime::execute(ActivePacket&), then ActivePacket::serialize --
// no parser, shrink or encoder shared with the switch. The frame the
// switch emits (encoded in place into the inbound buffer) must be
// bit-identical to the reference encoding and reach the recorder the
// reference verdict names; the verdict counters and the runtime's stats
// must agree too. None of the parity programs reads the flow 5-tuple, so
// the reference runs with empty packet metadata.
void expect_wire_parity(const std::vector<u8>& frame) {
  Bed bed;
  bed.inject(frame);

  rmt::Pipeline pipeline(SwitchNode::Config{}.pipeline);
  runtime::ActiveRuntime runtime(pipeline);
  auto pkt = ActivePacket::parse(frame);
  const runtime::ExecutionResult result = runtime.execute(pkt);

  std::vector<std::vector<u8>> want_client;
  std::vector<std::vector<u8>> want_server;
  if (result.verdict != runtime::Verdict::kDrop) {
    // RTS swapped the reference packet's MACs, so its destination names
    // the recorder the reply must reach.
    ASSERT_TRUE(pkt.ethernet.dst == kClientMac ||
                pkt.ethernet.dst == kServerMac);
    (pkt.ethernet.dst == kClientMac ? want_client : want_server)
        .push_back(pkt.serialize());
  }
  ASSERT_EQ(bed.server->frames.size(), want_server.size());
  for (std::size_t i = 0; i < want_server.size(); ++i) {
    EXPECT_EQ(bed.server->frames[i].to_vector(), want_server[i]);
  }
  ASSERT_EQ(bed.client->frames.size(), want_client.size());
  for (std::size_t i = 0; i < want_client.size(); ++i) {
    EXPECT_EQ(bed.client->frames[i].to_vector(), want_client[i]);
  }

  const auto count = [&](runtime::Verdict v) -> u64 {
    return result.verdict == v ? 1 : 0;
  };
  const auto ns = bed.sw->node_stats();
  EXPECT_EQ(ns.forwarded, count(runtime::Verdict::kForward));
  EXPECT_EQ(ns.returned, count(runtime::Verdict::kReturnToSender));
  EXPECT_EQ(ns.dropped, count(runtime::Verdict::kDrop));
  EXPECT_EQ(ns.malformed, 0u);
  const runtime::RuntimeStats& got = bed.sw->runtime().stats();
  const runtime::RuntimeStats& want = runtime.stats();
  EXPECT_EQ(got.packets, want.packets);
  EXPECT_EQ(got.instructions, want.instructions);
  EXPECT_EQ(got.recirculations, want.recirculations);
  EXPECT_EQ(got.drops_no_allocation, want.drops_no_allocation);
  EXPECT_EQ(got.rts_packets, want.rts_packets);
}

TEST(Datapath, ParityStraightLineShrink) {
  expect_wire_parity(program_frame("MBR_LOAD $2\nMBR_STORE $3\nRETURN",
                                   ArgumentHeader{{0, 0, 77, 0}}));
}

TEST(Datapath, ParityWithPayload) {
  expect_wire_parity(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                                   ArgumentHeader{{42, 0, 0, 0}}, 0,
                                   {9, 8, 7, 6, 5, 4, 3, 2, 1}));
}

TEST(Datapath, ParityNoShrinkKeepsCode) {
  expect_wire_parity(program_frame("MBR_LOAD $2\nMBR_STORE $3\nRETURN",
                                   ArgumentHeader{{0, 0, 7, 0}},
                                   packet::kFlagNoShrink,
                                   {1, 2, 3, 4, 5}));
}

TEST(Datapath, ParityBranch) {
  expect_wire_parity(program_frame(R"(
      MBR_LOAD $0
      MBR2_LOAD $1
      CJUMP L1
      MBR_STORE $2
      L1: RETURN
  )",
                                   ArgumentHeader{{5, 5, 0, 0}}));
}

TEST(Datapath, ParityRts) {
  // RTS swaps the MACs: the reply lands back at the client recorder.
  expect_wire_parity(program_frame("MBR_LOAD $0\nRTS\nRETURN",
                                   ArgumentHeader{{1, 0, 0, 0}},
                                   packet::kFlagNoShrink));
}

TEST(Datapath, ParityRecirculation) {
  std::string text;
  for (int i = 0; i < 25; ++i) text += "NOP\n";
  text += "MBR_LOAD $0\nMBR_STORE $1\nRETURN";
  expect_wire_parity(program_frame(text, ArgumentHeader{{9, 0, 0, 0}}));
}

TEST(Datapath, ParityDrop) {
  // Unallocated memory access: switch and reference drop, nothing
  // egresses.
  expect_wire_parity(program_frame("MAR_LOAD $0\nMEM_READ\nRETURN",
                                   ArgumentHeader{{500, 0, 0, 0}}));
}

// ---------- accounting, event budget and recycling ----------

TEST(Datapath, ZeroCopyPathIsTaken) {
  Bed bed;
  bed.inject(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                           ArgumentHeader{{3, 0, 0, 0}}));
  EXPECT_EQ(bed.sw->runtime().stats().packets, 1u);
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);
  ASSERT_EQ(bed.server->frames.size(), 1u);
  // The delivered reply rides the very slab the client's send acquired.
  EXPECT_TRUE(bed.server->frames[0].pooled());
}

TEST(Datapath, OneCapsuleDispatchesThreeEvents) {
  // client -> switch -> server costs exactly three simulator events: the
  // delivery to the switch, the transmit delayed by the modeled switch
  // latency, and the delivery to the server. The capsule executes inside
  // its own delivery; no extra event runs it.
  Bed bed;
  bed.inject(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                           ArgumentHeader{{3, 0, 0, 0}}));
  ASSERT_EQ(bed.server->frames.size(), 1u);
  EXPECT_EQ(bed.sim.events_dispatched(), 3u);
}

TEST(Datapath, SlabRecyclesAfterReceiverReleases) {
  Bed bed;
  bed.inject(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                           ArgumentHeader{{3, 0, 0, 0}}));
  ASSERT_EQ(bed.server->frames.size(), 1u);
  const auto created = bed.net.pool().stats().slabs_created;
  bed.server->frames.clear();  // last reference: slab returns to the pool
  EXPECT_EQ(bed.net.pool().free_slabs(), 1u);
  // A second exchange is served entirely from the warm pool.
  bed.inject(program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                           ArgumentHeader{{4, 0, 0, 0}}));
  EXPECT_EQ(bed.net.pool().stats().slabs_created, created);
}

// ---------- passive traffic through the switch ----------

std::vector<u8> passive_frame(packet::MacAddr dst, packet::MacAddr src,
                              std::vector<u8> payload) {
  ByteWriter out;
  packet::EthernetHeader eth;
  eth.dst = dst;
  eth.src = src;
  eth.ethertype = packet::kEtherTypeIpv4;
  eth.serialize(out);
  out.put_bytes(payload);
  return out.take();
}

TEST(Datapath, PassiveFramesForwardByL2Address) {
  Bed bed;
  const auto frame = passive_frame(kServerMac, kClientMac, {1, 2, 3, 4});
  bed.inject(frame);
  ASSERT_EQ(bed.server->frames.size(), 1u);
  EXPECT_EQ(bed.server->frames[0].to_vector(), frame);  // untouched
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);
  EXPECT_EQ(bed.sw->node_stats().malformed, 0u);
  EXPECT_EQ(bed.sw->runtime().stats().packets, 0u);
}

TEST(Datapath, PassiveUnknownDestinationCountsMalformed) {
  Bed bed;
  bed.inject(passive_frame(/*dst=*/0xdead, kClientMac, {1, 2, 3}));
  EXPECT_TRUE(bed.server->frames.empty());
  EXPECT_TRUE(bed.client->frames.empty());
  EXPECT_EQ(bed.sw->node_stats().malformed, 1u);
}

TEST(Datapath, CapsuleToUnboundMacCountsUnknownDestination) {
  Bed bed;
  auto pkt = ActivePacket::make_program(
      1, ArgumentHeader{{3, 0, 0, 0}},
      active::assemble("MBR_LOAD $0\nMBR_STORE $1\nRETURN"));
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = 0xdead;  // executes fine, but egress lookup fails
  bed.inject(pkt.serialize());
  EXPECT_TRUE(bed.server->frames.empty());
  EXPECT_EQ(bed.sw->node_stats().unknown_destination, 1u);
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);  // verdict was forward
}

// A learning fabric switch with a host on each of three ports. Learning
// moves a plainly bound MAC to the port its frames arrive on, but never a
// pinned one; a plain bind on a pinned MAC changes its port and keeps it
// pinned. A capsule in transit toward a MAC nothing bound or taught counts
// unknown_destination.
TEST(SwitchNode, L2LearningNeverMovesPinnedRoutes) {
  SwitchNode::Config cfg;
  cfg.mac = 0xaa00;
  netsim::Simulator sim;
  netsim::Network net{sim};
  auto sw = std::make_shared<SwitchNode>("switch", cfg);
  net.attach(sw);
  std::vector<std::shared_ptr<Recorder>> hosts;
  for (u32 port = 0; port < 3; ++port) {
    hosts.push_back(std::make_shared<Recorder>("host" + std::to_string(port)));
    net.attach(hosts.back());
    net.connect(*sw, port, *hosts.back(), 0);
  }
  constexpr packet::MacAddr kLearned = 0x11;
  constexpr packet::MacAddr kPinned = 0x22;
  constexpr packet::MacAddr kProbe = 0x33;  // host 2's own MAC
  sw->bind(kLearned, 0);
  sw->bind_pinned(kPinned, 0);
  sw->bind(kProbe, 2);

  const auto send = [&](u32 port, packet::MacAddr src, packet::MacAddr dst) {
    net.transmit(*hosts[port], 0,
                 net.pool().copy(passive_frame(dst, src, {1, 2, 3})));
    sim.run();
  };
  // The port a frame to `dst` leaves the switch by, or -1.
  const auto port_of = [&](packet::MacAddr dst) {
    std::vector<std::size_t> before;
    for (const auto& host : hosts) before.push_back(host->frames.size());
    send(2, kProbe, dst);
    for (u32 port = 0; port < hosts.size(); ++port) {
      if (hosts[port]->frames.size() != before[port]) return int(port);
    }
    return -1;
  };
  EXPECT_EQ(port_of(kLearned), 0);
  EXPECT_EQ(port_of(kPinned), 0);

  send(1, kLearned, kProbe);
  send(1, kPinned, kProbe);
  EXPECT_EQ(port_of(kLearned), 1);  // learned from its frame
  EXPECT_EQ(port_of(kPinned), 0);   // pinned: learning left it

  sw->bind(kPinned, 2);
  EXPECT_EQ(port_of(kPinned), 2);
  send(1, kPinned, kProbe);
  EXPECT_EQ(port_of(kPinned), 2);  // still pinned after the plain bind

  auto transit = ActivePacket::make_program(
      /*fid=*/9, ArgumentHeader{}, active::assemble("RETURN"));
  transit.ethernet.src = kProbe;
  transit.ethernet.dst = 0xdead;
  net.transmit(*hosts[2], 0, net.pool().copy(transit.serialize()));
  sim.run();
  EXPECT_EQ(sw->node_stats().unknown_destination, 1u);
  EXPECT_EQ(sw->node_stats().malformed, 0u);
}

TEST(Datapath, TruncatedProgramFrameFallsBackToL2Forward) {
  Bed bed;
  // A frame that looks like a program capsule (active ethertype, kProgram
  // type byte) but has no valid code: the in-place parse must decline and
  // the frame must still reach its L2 destination as passive traffic.
  auto frame = program_frame("MBR_LOAD $0\nRETURN", ArgumentHeader{});
  frame.resize(packet::EthernetHeader::kWireSize + 12);  // cut mid-header
  bed.inject(frame);
  ASSERT_EQ(bed.server->frames.size(), 1u);
  EXPECT_EQ(bed.server->frames[0].to_vector(), frame);
  EXPECT_EQ(bed.sw->node_stats().forwarded, 1u);
  EXPECT_EQ(bed.sw->runtime().stats().packets, 0u);
}

TEST(Datapath, BadOpcodeProgramFrameToUnboundMacCountsMalformed) {
  Bed bed;
  // A complete program capsule whose first instruction byte is no opcode
  // at all, addressed to a MAC the switch cannot reach: neither parser
  // accepts it and L2 has no route, so it is counted malformed -- never
  // executed, never forwarded.
  auto pkt = ActivePacket::make_program(
      1, ArgumentHeader{{3, 0, 0, 0}},
      active::assemble("MBR_LOAD $0\nMBR_STORE $1\nRETURN"));
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = 0xdead;
  auto frame = pkt.serialize();
  frame[packet::EthernetHeader::kWireSize + packet::InitialHeader::kWireSize +
        packet::ArgumentHeader::kWireSize] = 0xee;
  bed.inject(frame);
  EXPECT_TRUE(bed.server->frames.empty());
  EXPECT_TRUE(bed.client->frames.empty());
  const auto ns = bed.sw->node_stats();
  EXPECT_EQ(ns.malformed, 1u);
  EXPECT_EQ(ns.forwarded, 0u);
  EXPECT_EQ(bed.sw->runtime().stats().packets, 0u);
  // The code is interned once: the rejected frame is not parsed again.
  EXPECT_EQ(bed.sw->program_cache().stats().misses, 1u);
}

// The wire's three operand bits can name argument words 4..7, which the
// four-word argument header does not have. Executed, MBR_STORE $4 would
// write past the view's argument words into the rest of the ProgramView
// (its compiled-program pointer first). The decoder rejects the capsule
// before anything runs, and it takes the malformed path of an unknown
// opcode: L2-forwarded unchanged to its bound destination.
TEST(Datapath, OutOfRangeArgumentOperandNeverExecutes) {
  for (u8 operand = 4; operand < 8; ++operand) {
    SCOPED_TRACE(static_cast<int>(operand));
    Bed bed;
    active::Program program;
    program.push({active::Opcode::kMbrLoad, 0});
    program.push({active::Opcode::kMbrStore, operand});
    program.push({active::Opcode::kReturn});
    auto pkt = ActivePacket::make_program(
        1, ArgumentHeader{{0x41414141, 0, 0, 0}}, program);
    pkt.ethernet.src = kClientMac;
    pkt.ethernet.dst = kServerMac;
    const auto frame = pkt.serialize();
    ASSERT_EQ(frame.size(), 48u);
    bed.inject(frame);
    EXPECT_EQ(bed.sw->runtime().stats().packets, 0u);
    ASSERT_EQ(bed.server->frames.size(), 1u);
    EXPECT_EQ(bed.server->frames[0].to_vector(), frame);
    EXPECT_TRUE(bed.client->frames.empty());
  }
}

TEST(Datapath, PassiveFramesAllocateNothing) {
  // IPv4 frames through the switch to a ClientNode's on_passive handler.
  // Both nodes classify them passive from a header peek; the switch
  // forwards them by L2 address. With a warm pool and event queue, none
  // of it touches the heap.
  netsim::Simulator sim;
  netsim::Network net{sim};
  auto sw = std::make_shared<SwitchNode>("switch", SwitchNode::Config{});
  auto sender = std::make_shared<Recorder>("sender");
  auto client = std::make_shared<client::ClientNode>("client", kClientMac,
                                                     /*switch_mac=*/0);
  net.attach(sw);
  net.attach(sender);
  net.attach(client);
  net.connect(*sw, 0, *client, 0);
  net.connect(*sw, 1, *sender, 0);
  sw->bind(kClientMac, 0);
  sw->bind(kServerMac, 1);
  u64 passive = 0;
  client->on_passive = [&passive](netsim::Frame&) { ++passive; };

  const auto frame =
      passive_frame(kClientMac, kServerMac, std::vector<u8>(64, 0x5a));
  const auto push = [&](int frames) {
    for (int i = 0; i < frames; ++i) {
      net.transmit(*sender, 0, net.pool().copy(frame));
      sim.run();
    }
  };
  push(16);  // warm the pool and the event queue
  const unsigned long long before = g_alloc_count;
  push(1000);
  const unsigned long long allocs = g_alloc_count - before;

  EXPECT_EQ(passive, 1016u);
  EXPECT_EQ(sw->node_stats().forwarded, 1016u);
  EXPECT_EQ(sw->node_stats().malformed, 0u);
  EXPECT_EQ(allocs, 0u);
}

class Sink : public netsim::Node {
 public:
  using netsim::Node::Node;
  void on_frame(netsim::Frame, u32) override { ++received; }
  u64 received = 0;
};

// The heap-cost rig for program capsules: client -> switch -> server, FID
// 1 granted the whole pipeline so nothing faults. Once the pool, program
// cache, event queue and per-FID counters are warm, a capsule's parse,
// execute, in-place encode and delayed send allocate nothing: with
// telemetry recording off, on, and feeding an armed flight recorder.
struct AllocRig {
  AllocRig() {
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0);
    net.connect(*sw, 1, *server, 0);
    sw->bind(kClientMac, 0);
    sw->bind(kServerMac, 1);
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      sw->pipeline().stage(s).install(1, 0, 4096, 0);
    }
  }

  // Sends 16 warm-up capsules, then checks that the next 1,000 allocate
  // nothing, in each of the three recording modes.
  void expect_steady_state_allocates_nothing(const std::vector<u8>& frame) {
    const auto push = [&](int capsules) {
      for (int i = 0; i < capsules; ++i) {
        net.transmit(*client, 0, net.pool().copy(frame));
        sim.run();
      }
    };
    const auto steady_allocs = [&] {
      push(16);  // warm up
      const auto slabs = net.pool().stats().slabs_created;
      const unsigned long long before = g_alloc_count;
      push(1000);
      EXPECT_EQ(net.pool().stats().slabs_created, slabs);
      return g_alloc_count - before;
    };

    const bool was_enabled = telemetry::enabled();
    telemetry::set_enabled(false);
    EXPECT_EQ(steady_allocs(), 0u) << "recording off";
    telemetry::set_enabled(true);
    EXPECT_EQ(steady_allocs(), 0u) << "recording on";
    telemetry::FlightRecorder flight;
    telemetry::set_flight_recorder(&flight);
    EXPECT_EQ(steady_allocs(), 0u) << "flight recorder armed";
    telemetry::set_flight_recorder(nullptr);
    telemetry::set_enabled(was_enabled);
    EXPECT_GT(flight.recorded(), 0u);
  }

  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<SwitchNode> sw =
      std::make_shared<SwitchNode>("switch", SwitchNode::Config{});
  std::shared_ptr<Sink> client = std::make_shared<Sink>("client");
  std::shared_ptr<Sink> server = std::make_shared<Sink>("server");
};

TEST(Datapath, ProgramCapsulesAllocateNothing) {
  // The cache query with a 1400-byte payload.
  AllocRig rig;
  auto pkt = ActivePacket::make_program(1, ArgumentHeader{{10, 2, 3, 0}},
                                        apps::cache_query_program());
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  pkt.payload.assign(1400, 0x5a);
  rig.expect_steady_state_allocates_nothing(pkt.serialize());
  EXPECT_EQ(rig.server->received, 3u * 1016u);
  EXPECT_EQ(rig.sw->program_cache().stats().misses, 1u);
}

TEST(Datapath, HashCapsulesAllocateNothing) {
  // The heavy-hitter monitor (Listing 2) runs HASH six times over its two
  // passes; a hash over the PHV's hash-metadata words needs no buffer.
  AllocRig rig;
  auto pkt = ActivePacket::make_program(
      1, ArgumentHeader{{0xbeef, 0xcafe, 0, 0}}, apps::hh_monitor_program());
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  rig.expect_steady_state_allocates_nothing(pkt.serialize());
  EXPECT_EQ(rig.server->received, 3u * 1016u);
  EXPECT_EQ(rig.sw->program_cache().stats().misses, 1u);
  // Every capsule is a heavy hitter (its sketch always tops the stored
  // threshold), so each one takes the second pass and all six HASHes.
  EXPECT_EQ(rig.sw->runtime().stats().recirculations, 3u * 1016u);
}

// ---------- telemetry-on parity ----------

TEST(Datapath, TelemetryCountsMatchOnBothPaths) {
  // The same capsule three times through a switch recording into a
  // caller-owned registry: the runtime's per-FID packet counter, the
  // verdict counter, the latency histogram, and the NodeStats snapshot
  // view all agree.
  telemetry::set_enabled(true);
  telemetry::MetricsRegistry reg;
  Bed bed(&reg);
  const auto frame = program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                                   ArgumentHeader{{3, 0, 0, 0}});
  for (int i = 0; i < 3; ++i) bed.inject(frame);

  EXPECT_EQ(reg.counter_value("runtime", "packets", 1), 3u);
  EXPECT_EQ(reg.counter_value("switch", "forwarded"), 3u);
  const telemetry::Histogram* lat =
      reg.find_histogram("switch", "exec_latency_ns");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), 3u);
  EXPECT_GT(lat->sum(), 0u);

  // The NodeStats snapshot is a view over the same registry.
  const auto ns = bed.sw->node_stats();
  EXPECT_EQ(ns.forwarded, 3u);
  EXPECT_EQ(ns.malformed, 0u);
  EXPECT_EQ(ns.control_rejects, 0u);
}

TEST(Datapath, SnapshotTotalsMatchTypedStatsWithRecordingOff) {
  // Totals live in the components' typed stats and reach a registry only
  // through export_metrics, so they count with recording off; the gated
  // per-FID breakdown does not.
  telemetry::MetricsRegistry reg;
  Bed bed(&reg);
  const auto frame = program_frame("MBR_LOAD $0\nMBR_STORE $1\nRETURN",
                                   ArgumentHeader{{3, 0, 0, 0}});
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(false);
  for (int i = 0; i < 3; ++i) bed.inject(frame);
  telemetry::set_enabled(was_enabled);
  bed.sim.export_metrics(reg);
  bed.net.export_metrics(reg);
  bed.sw->export_metrics(reg);

  const auto& cache = bed.sw->program_cache().stats();
  const std::pair<u64, u64> exported_and_typed[] = {
      {reg.counter_value("runtime", "instructions"),
       bed.sw->runtime().stats().instructions},
      {reg.counter_value("program_cache", "hits"), cache.hits},
      {reg.counter_value("program_cache", "misses"), cache.misses},
      {reg.counter_value("netsim", "frames_delivered"),
       bed.net.frames_delivered()},
      {reg.counter_value("netsim", "events_dispatched"),
       bed.sim.events_dispatched()}};
  for (const auto& [exported, typed] : exported_and_typed) {
    EXPECT_GT(typed, 0u);
    EXPECT_EQ(exported, typed);
  }
  EXPECT_EQ(reg.counter_value("runtime", "packets", 1), 0u);
}

TEST(Datapath, MalformedControlTrafficSplitsFromMalformedData) {
  // A wire-valid allocation request whose access position lies beyond
  // the declared program length is structurally invalid: it counts as a
  // control reject, not as a malformed data frame and not as an unknown
  // destination.
  telemetry::MetricsRegistry reg;
  Bed bed(&reg);
  alloc::AllocationRequest request;
  request.program_length = 3;
  request.accesses.push_back(alloc::AccessDemand{/*position=*/200,
                                                 /*demand_blocks=*/1,
                                                 /*alias=*/-1});
  auto pkt = proto::encode_request(request, /*seq=*/1);
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  bed.inject(pkt.serialize());

  const auto stats = bed.sw->node_stats();
  EXPECT_EQ(stats.control_rejects, 1u);
  EXPECT_EQ(stats.malformed, 0u);
  EXPECT_EQ(stats.unknown_destination, 0u);
  EXPECT_EQ(reg.counter_value("switch", "control_rejects"), 1u);
}

}  // namespace
}  // namespace artmt
