#include "fabric/topology.hpp"

namespace artmt::fabric {

packet::MacAddr Topology::leaf_mac(u32 i) const {
  return kLeafMacBase + i;
}

packet::MacAddr Topology::spine_mac(u32 j) const {
  return kSpineMacBase + j;
}

Topology::Topology(netsim::Network& net, const TopologyConfig& config)
    : net_(&net) {
  if (config.leaves < 2) throw UsageError("Topology: need >= 2 leaves");
  if (config.spines < 1) throw UsageError("Topology: need >= 1 spine");
  if (config.leaves + config.spines > 200)
    throw UsageError("Topology: too many switches for the FID ranges");

  const u32 leaves = config.leaves;
  const u32 spines = config.spines;

  auto make_switch = [&](const std::string& name, packet::MacAddr mac,
                         Fid fid_base) {
    controller::SwitchNode::Config cfg = config.switch_config;
    cfg.mac = mac;
    cfg.fid_base = fid_base;
    auto node = std::make_shared<controller::SwitchNode>(name, cfg);
    net.attach(node);
    return node;
  };

  for (u32 i = 0; i < leaves; ++i) {
    leaves_.push_back(make_switch("leaf" + std::to_string(i), leaf_mac(i),
                                  static_cast<Fid>((i + 1) * kFidRange)));
  }
  for (u32 j = 0; j < spines; ++j) {
    spines_.push_back(
        make_switch("spine" + std::to_string(j), spine_mac(j),
                    static_cast<Fid>((leaves + j + 1) * kFidRange)));
  }
  next_host_port_.assign(leaves, spines);  // host ports start above uplinks

  // Physical links: leaf i port j <-> spine j port i.
  for (u32 i = 0; i < leaves; ++i) {
    for (u32 j = 0; j < spines; ++j) {
      net.connect(*leaves_[i], j, *spines_[j], i);
    }
  }

  // Static inter-switch routes, spine0-primary. Pinned: the controller
  // forwards steering-bearing grants with the owning switch's source MAC,
  // and a learned entry from such a frame would re-point the fabric's
  // route to that switch at the controller's port. Switch positions never
  // change, so authority beats learning here. (Host routes, installed by
  // attach_host, stay learnable for dual-homed failover.)
  for (u32 i = 0; i < leaves; ++i) {
    for (u32 k = 0; k < leaves; ++k) {
      if (k != i) leaves_[i]->bind_pinned(leaf_mac(k), 0);  // via spine 0
    }
    for (u32 j = 0; j < spines; ++j)
      leaves_[i]->bind_pinned(spine_mac(j), j);
  }
  for (u32 j = 0; j < spines; ++j) {
    for (u32 i = 0; i < leaves; ++i)
      spines_[j]->bind_pinned(leaf_mac(i), i);
    for (u32 k = 0; k < spines; ++k) {
      if (k != j) spines_[j]->bind_pinned(spine_mac(k), 0);  // via leaf 0
    }
  }

  // The global controller hangs off spine 0.
  controller_ =
      std::make_shared<GlobalController>("fabric-gc", config.controller);
  net.attach(controller_);
  net.connect(*controller_, 0, *spines_[0], leaves);
  spines_[0]->bind_pinned(controller_->mac(), leaves);
  for (u32 j = 1; j < spines; ++j)
    spines_[j]->bind_pinned(controller_->mac(), 0);  // via leaf 0 -> spine 0
  for (u32 i = 0; i < leaves; ++i)
    leaves_[i]->bind_pinned(controller_->mac(), 0);  // via spine 0

  // Placement targets: the leaves, in index order. Scoreboards are wired
  // (health acks) and seeded (cold-start balance).
  for (u32 i = 0; i < leaves; ++i) {
    controller::SwitchNode* sw = leaves_[i].get();
    sw->set_scoreboard_provider(
        [sw] { return build_scoreboard(*sw).encode(); });
    controller_->add_switch(leaf_mac(i), sw->name());
    controller_->seed_scoreboard(leaf_mac(i), build_scoreboard(*sw));
  }
  // Spines answer probes too (if anyone asks) but take no placements.
  for (u32 j = 0; j < spines; ++j) {
    controller::SwitchNode* sw = spines_[j].get();
    sw->set_scoreboard_provider(
        [sw] { return build_scoreboard(*sw).encode(); });
  }
}

void Topology::attach_host(netsim::Node& host, u32 host_port, u32 leaf,
                           packet::MacAddr mac) {
  if (leaf >= leaves_.size()) throw UsageError("attach_host: bad leaf");
  if (mac == 0) throw UsageError("attach_host: zero host MAC");
  const u32 port = next_host_port_[leaf]++;
  net_->connect(host, host_port, *leaves_[leaf], port);
  leaves_[leaf]->bind(mac, port);
  for (u32 i = 0; i < leaves_.size(); ++i) {
    if (i != leaf) leaves_[i]->bind(mac, 0);  // via spine 0
  }
  for (u32 j = 0; j < spines_.size(); ++j) {
    spines_[j]->bind(mac, leaf);
  }
}

void Topology::start(netsim::Simulator& sim, SimTime at, SimTime until) {
  sim.schedule_at(at, [this, until] { controller_->start(until); });
}

}  // namespace artmt::fabric
