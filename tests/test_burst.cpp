// Same-instant bursts through the switch are deterministic: two runs of
// one scenario produce byte-identical reply streams (bytes AND virtual
// timestamps), identical register contents, and identical runtime/switch
// metric totals -- with and without an active FaultPlan. The workload
// mixes cache populates and queries, a capsule for an unallocated FID
// (no-allocation drop), and a program longer than the pipeline
// (recirculates), all injected in bursts that arrive at the switch at the
// same virtual instant.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "active/assembler.hpp"
#include "apps/programs.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "packet/active_packet.hpp"
#include "telemetry/metrics.hpp"

namespace artmt {
namespace {

using netsim::LinkSpec;
using netsim::Network;
using netsim::Simulator;

// FNV-1a over 64-bit words: order-sensitive, so equal digests mean equal
// event streams in equal order.
struct Digest {
  u64 h = 1469598103934665603ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (i * 8)) & 0xff;
      h *= 1099511628211ull;
    }
  }
};

// Records every arriving frame: timestamp, port, and every payload byte.
class DigestSink : public netsim::Node {
 public:
  explicit DigestSink(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    digest.mix(static_cast<u64>(network().simulator().now()));
    digest.mix(port);
    digest.mix(frame.size());
    for (const u8 b : frame) digest.mix(b);
    ++received;
  }
  Digest digest;
  u64 received = 0;
};

// 25 instructions against a 20-stage pipeline: wraps into a second pass.
active::Program long_walk_program() {
  std::string text = "MAR_LOAD $0\n";
  for (int i = 0; i < 23; ++i) text += "MEM_INCREMENT\n";
  text += "RETURN\n";
  return active::assemble(text);
}

constexpr packet::MacAddr kClientMac = 0x0c;
constexpr packet::MacAddr kServerMac = 0x0b;
constexpr u32 kRings = 4;
constexpr u32 kWaves = 40;
constexpr SimTime kWavePeriod = 10 * kMicrosecond;

std::vector<u8> make_wire(Fid fid, const packet::ArgumentHeader& args,
                          const active::Program& program) {
  auto pkt = packet::ActivePacket::make_program(fid, args, program);
  pkt.ethernet.src = kClientMac;
  pkt.ethernet.dst = kServerMac;
  pkt.payload.assign(64, 0x5a);
  return pkt.serialize();
}

struct WaveInjector {
  Network* net;
  netsim::Node* client;
  const std::vector<std::vector<u8>>* wires;
  u32 remaining;
  void operator()() {
    // The whole burst is transmitted at one virtual instant, so every
    // frame of it reaches the switch at the same timestamp.
    for (const auto& w : *wires) {
      net->transmit(*client, 0, net->pool().copy(w));
    }
    if (--remaining > 0) {
      net->simulator().schedule_after(kWavePeriod, *this);
    }
  }
};

struct RunResult {
  u64 digest = 0;           // replies + registers + metric totals
  u64 replies = 0;          // sanity: traffic actually flowed
  u64 drops = 0;            // sanity: the faulting capsule actually dropped
  u64 recirculations = 0;   // sanity: the long program actually wrapped
  u64 rts = 0;              // sanity: populate acks actually RTSed
  u64 injected_drops = 0;   // sanity: the fault plan actually fired
};

RunResult run_scenario(const faults::FaultPlan* plan) {
  Simulator sim;
  Network net(sim);
  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    injector = std::make_unique<faults::FaultInjector>(*plan);
    net.set_transmit_hook(injector.get());
  }

  // One burst: two populates, a hitting query, a missing query, a
  // capsule for an unallocated FID (no-allocation drop), and a
  // recirculating long walk.
  std::vector<std::vector<u8>> wires;
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 7}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{12, 4, 5, 9}},
                            apps::cache_populate_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{14, 8, 8, 0}},
                            apps::cache_query_program()));
  wires.push_back(make_wire(2, packet::ArgumentHeader{{10, 2, 3, 0}},
                            apps::cache_query_program()));
  wires.push_back(make_wire(1, packet::ArgumentHeader{{20, 0, 0, 0}},
                            long_walk_program()));

  LinkSpec link;
  link.latency = kMicrosecond;
  std::vector<std::shared_ptr<controller::SwitchNode>> switches;
  std::vector<std::shared_ptr<DigestSink>> clients;
  std::vector<std::shared_ptr<DigestSink>> servers;
  for (u32 r = 0; r < kRings; ++r) {
    const std::string tag = std::to_string(r);
    auto sw = std::make_shared<controller::SwitchNode>(
        "sw" + tag, controller::SwitchNode::Config{});
    auto client = std::make_shared<DigestSink>("client" + tag);
    auto server = std::make_shared<DigestSink>("server" + tag);
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0, link);
    net.connect(*sw, 1, *server, 0, link);
    sw->bind(kClientMac, 0);
    sw->bind(kServerMac, 1);
    // FID 1 owns the whole pipeline; FID 2 is never installed, so its
    // capsules die with a no-allocation fault.
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      sw->pipeline().stage(s).install(1, 0, 4096, 0);
    }
    switches.push_back(std::move(sw));
    clients.push_back(std::move(client));
    servers.push_back(std::move(server));
  }
  for (u32 r = 0; r < kRings; ++r) {
    WaveInjector inj{&net, clients[r].get(), &wires, kWaves};
    sim.schedule_at(sim.now(), inj);
  }
  sim.run();

  RunResult out;
  Digest d;
  for (u32 r = 0; r < kRings; ++r) {
    d.mix(clients[r]->digest.h);
    d.mix(servers[r]->digest.h);
    out.replies += clients[r]->received + servers[r]->received;
  }
  for (const auto& sw : switches) {
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      for (const Word w : sw->pipeline().stage(s).memory().dump(0, 128)) {
        d.mix(w);
      }
    }
    const runtime::RuntimeStats& rs = sw->runtime().stats();
    d.mix(rs.packets);
    d.mix(rs.instructions);
    d.mix(rs.recirculations);
    d.mix(rs.drops_protection);
    d.mix(rs.drops_no_allocation);
    d.mix(rs.drops_recirc_limit);
    d.mix(rs.drops_recirc_budget);
    d.mix(rs.drops_privilege);
    d.mix(rs.drops_explicit);
    d.mix(rs.rts_packets);
    d.mix(rs.forwarded_unprocessed);
    const auto ns = sw->node_stats();
    d.mix(ns.forwarded);
    d.mix(ns.returned);
    d.mix(ns.dropped);
    d.mix(ns.malformed);
    d.mix(ns.unknown_destination);
    out.drops += rs.drops_no_allocation;
    out.recirculations += rs.recirculations;
    out.rts += rs.rts_packets;
  }
  out.digest = d.h;
  if (injector) {
    out.injected_drops = injector->injected(faults::FaultKind::kDrop);
  }
  return out;
}

TEST(Burst, FaultFreeRunsAreByteIdentical) {
  const RunResult a = run_scenario(nullptr);
  const RunResult b = run_scenario(nullptr);
  EXPECT_EQ(a.digest, b.digest);
  // The workload exercised every interesting path.
  EXPECT_GT(a.replies, 0u);
  EXPECT_GT(a.drops, 0u);
  EXPECT_GT(a.recirculations, 0u);
  EXPECT_GT(a.rts, 0u);
}

TEST(Burst, FaultPlanRunsAreByteIdentical) {
  const faults::FaultPlan plan = faults::FaultPlan::uniform_loss(7, 0.05);
  const RunResult a = run_scenario(&plan);
  const RunResult b = run_scenario(&plan);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_GT(a.injected_drops, 0u);
  EXPECT_EQ(a.injected_drops, b.injected_drops);
  // The digest tracks what was delivered: losing frames changes it.
  EXPECT_NE(a.digest, run_scenario(nullptr).digest);
}

}  // namespace
}  // namespace artmt
