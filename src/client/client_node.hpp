// The client endpoint: a netsim node that owns services, encapsulates
// their capsules onto the wire (the paper's VirtIO shim), and dispatches
// arriving active frames to the right service by FID or negotiation
// sequence number.
//
// Program capsules are encoded and read in place: a service's capsule is
// written straight into one pool frame, and an arriving one is read with
// packet::ProgramView through the client's own ProgramCache (payload left
// in the frame). Only control frames, and capsules no service claims, are
// materialized as ActivePackets.
//
// Fabric extensions (src/fabric): a per-FID steering table learned from
// allocation responses routes switch-addressed program capsules to the
// owning switch, and a dual-homed client can health-probe its current
// leaf, failing over to the backup uplink after consecutive missed acks
// (the fabric re-learns its location from the first frame out).
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "active/program_cache.hpp"
#include "client/service.hpp"
#include "netsim/network.hpp"
#include "packet/active_packet.hpp"

namespace artmt::client {

class ClientNode : public netsim::Node {
 public:
  // `logical_stages` is the switch pipeline depth the compiler synthesizes
  // against (learned out of band; the paper's clients know their switch).
  ClientNode(std::string name, packet::MacAddr mac,
             packet::MacAddr switch_mac, u32 logical_stages = 20);

  void register_service(std::shared_ptr<Service> service);

  // Sends a control packet (allocation, extraction, dealloc) to the
  // control plane: the switch, or in a fabric the global controller.
  // Fills Ethernet addressing. Program capsules go through
  // Service::send_program.
  void send_active(packet::ActivePacket pkt);
  // Sends an active packet to an arbitrary destination (e.g. a server).
  void send_active_to(packet::MacAddr dst, packet::ActivePacket pkt);

  void on_frame(netsim::Frame frame, u32 port) override;

  [[nodiscard]] packet::MacAddr mac() const { return mac_; }
  [[nodiscard]] packet::MacAddr switch_mac() const { return switch_mac_; }
  [[nodiscard]] u32 logical_stages() const { return logical_stages_; }
  [[nodiscard]] netsim::Simulator& sim() { return network().simulator(); }

  // --- fabric steering / failover ---
  // Owning-switch MAC learned for `fid` (0 = none; capsules fall back to
  // switch_mac_).
  [[nodiscard]] packet::MacAddr steering_of(Fid fid) const;

  // Dual-homed uplink failover: the client health-probes its current leaf
  // every `interval`; after `miss_threshold` consecutive unanswered
  // probes it toggles to the other uplink (port 0 <-> port 1) and keeps
  // probing the new leaf. `until` bounds the probe train in virtual time
  // so deterministic runs drain. enable_uplink_probe() only installs the
  // config; schedule the first probe_tick() on the simulator.
  struct UplinkProbeConfig {
    packet::MacAddr primary_mac = 0;  // leaf reachable on uplink port 0
    packet::MacAddr backup_mac = 0;   // leaf reachable on uplink port 1
    SimTime interval = 5 * kMillisecond;
    u32 miss_threshold = 2;
    SimTime until = 0;  // probing stops at this virtual time
  };
  void enable_uplink_probe(const UplinkProbeConfig& config);
  void probe_tick();

  [[nodiscard]] u32 active_uplink() const { return active_uplink_; }
  [[nodiscard]] u64 failovers() const { return failovers_; }

  // Frames no service claimed (e.g. app-level server responses).
  std::function<void(packet::ActivePacket&)> on_unclaimed;
  // Non-active frames, and malformed program capsules.
  std::function<void(netsim::Frame&)> on_passive;

 private:
  friend class Service;

  // Writes a program capsule (Ethernet, initial and argument headers, the
  // code and its EOF instruction, `payload`) straight into one pool frame
  // and sends it to `dst`, or, when `dst` is 0, to the switch that owns
  // initial.fid. `Code` is a compiled program's wire code (EOF excluded),
  // as a std::span<const u8>, or an active::Program, encoded in place.
  template <typename Code>
  void send_capsule(packet::MacAddr dst, const packet::InitialHeader& initial,
                    const packet::ArgumentHeader& args, const Code& code,
                    std::span<const u8> payload);
  // The live (not released) service holding `fid`, or nullptr for FID 0.
  [[nodiscard]] Service* service_of(Fid fid) const;
  void on_control(packet::ActivePacket& pkt);

  packet::MacAddr mac_;
  packet::MacAddr switch_mac_;
  u32 logical_stages_;
  u32 next_seq_ = 1;
  std::vector<std::shared_ptr<Service>> services_;
  active::ProgramCache program_cache_;  // returned capsules' code

  // Fabric state (inert in single-switch runs: responses carry src 0, so
  // the steering table stays empty, and nothing arms the probe train).
  std::map<Fid, packet::MacAddr> steering_;
  u32 active_uplink_ = 0;
  UplinkProbeConfig probe_;
  bool probing_ = false;
  bool probe_outstanding_ = false;
  u32 probe_misses_ = 0;
  u32 probe_seq_ = 0;
  u64 failovers_ = 0;
};

}  // namespace artmt::client
