// Leaf-spine fabric builder. Constructs `leaves` SwitchNodes and `spines`
// SwitchNodes, wires every leaf to every spine, hangs a GlobalController
// off spine 0, and installs the static L2 routes that make the whole
// fabric addressable:
//
//        spine0 ---- spine1          (spines are transit-only)
//       /  |  x     x  |  x
//   leaf0 leaf1 leaf2 leaf3          (leaves hold service placements)
//    |      |     |     |
//  hosts  hosts hosts hosts
//
// Inter-switch routes are deterministic and spine0-primary: leaf-to-leaf
// traffic crosses spine 0, spine 1 is standby redundancy (and the target
// of non-disruptive link-flap chaos). Every switch runs in fabric mode
// (own MAC, L2 learning, disjoint FID range, scoreboard provider wired to
// fabric::build_scoreboard), so a dual-homed host's failover re-teaches
// the fabric with its first frame.
//
// Port conventions:
//   leaf i:  ports 0..spines-1 = uplinks (port j -> spine j),
//            ports spines..    = host ports (attach_host assigns).
//   spine j: ports 0..leaves-1 = downlinks (port i -> leaf i),
//            spine 0 port `leaves` = global controller.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "controller/switch_node.hpp"
#include "fabric/global_controller.hpp"
#include "netsim/network.hpp"

namespace artmt::fabric {

struct TopologyConfig {
  u32 leaves = 4;
  u32 spines = 2;
  // Template for every switch; mac and fid_base are overridden per
  // switch (leaf i -> MAC 0xAA00+i, FID base (i+1)*256;
  // spine j -> MAC 0xBB00+j, FID base (leaves+j+1)*256). Every link
  // is a default netsim::LinkSpec.
  controller::SwitchNode::Config switch_config;
  GlobalController::Config controller;
};

class Topology {
 public:
  Topology(netsim::Network& net, const TopologyConfig& config);

  // Connects `host` (already attached to the network) to leaf `leaf` and
  // teaches the whole fabric how to reach `mac`: the leaf binds it to the
  // host port, other leaves route it via spine 0, spines route it toward
  // its leaf. `host_port` is the port on the host's side (0 for its
  // primary uplink, 1 for a backup on a second leaf).
  void attach_host(netsim::Node& host, u32 host_port, u32 leaf,
                   packet::MacAddr mac);

  // Starts the controller's health epochs at `at`, probing until `until`
  // (call before run()).
  void start(netsim::Simulator& sim, SimTime at, SimTime until);

  [[nodiscard]] u32 leaves() const { return static_cast<u32>(leaves_.size()); }
  [[nodiscard]] u32 spines() const { return static_cast<u32>(spines_.size()); }
  [[nodiscard]] controller::SwitchNode& leaf(u32 i) { return *leaves_.at(i); }
  [[nodiscard]] controller::SwitchNode& spine(u32 j) { return *spines_.at(j); }
  [[nodiscard]] GlobalController& controller() { return *controller_; }
  [[nodiscard]] packet::MacAddr leaf_mac(u32 i) const;
  [[nodiscard]] packet::MacAddr spine_mac(u32 j) const;
  [[nodiscard]] packet::MacAddr controller_mac() const {
    return controller_->mac();
  }

  static constexpr packet::MacAddr kLeafMacBase = 0xAA00;
  static constexpr packet::MacAddr kSpineMacBase = 0xBB00;
  static constexpr Fid kFidRange = controller::Controller::kFidRange;

 private:
  netsim::Network* net_;
  std::vector<std::shared_ptr<controller::SwitchNode>> leaves_;
  std::vector<std::shared_ptr<controller::SwitchNode>> spines_;
  std::shared_ptr<GlobalController> controller_;
  std::vector<u32> next_host_port_;  // per leaf
};

}  // namespace artmt::fabric
