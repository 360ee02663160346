// Declarative fault schedules for the deterministic fault-injection
// subsystem. A FaultPlan is immutable once handed to a FaultInjector:
// probabilistic rules (drop / corrupt / duplicate / reorder / jitter on a
// link) fire as pure functions of (plan seed, sender, tx sequence), and
// scripted events (link flaps, switch brownouts) are plain time windows
// -- so an identical plan and seed reproduce the identical fault
// sequence on every run.
#pragma once

#include <limits>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace artmt::faults {

// Probabilistic per-frame faults on the links matching (node_a, node_b).
// An empty name is a wildcard; a rule matches in both directions. Only
// frames sent inside [from, until) are considered.
struct LinkFaults {
  std::string node_a;  // "" = any node
  std::string node_b;  // "" = any node
  SimTime from = 0;
  SimTime until = kMaxSimTime;
  double drop = 0.0;       // P(frame lost)
  double corrupt = 0.0;    // P(one payload byte flipped in place)
  double duplicate = 0.0;  // P(an extra copy delivered dup_delay later)
  double reorder = 0.0;    // P(frame held back reorder_hold, letting
                           // later frames overtake it)
  double jitter = 0.0;     // P(uniform extra delay in [0, jitter_max))
  SimTime reorder_hold = 50 * kMicrosecond;
  SimTime dup_delay = 20 * kMicrosecond;
  SimTime jitter_max = 20 * kMicrosecond;

  static constexpr SimTime kMaxSimTime = std::numeric_limits<SimTime>::max();
};

// Scripted outage of the links matching (node_a, node_b): every frame
// sent in [down_at, up_at) is lost, both directions.
struct LinkFlap {
  std::string node_a;  // "" = any node
  std::string node_b;  // "" = any node
  SimTime down_at = 0;
  SimTime up_at = 0;
};

// Scripted switch brownout: frames to or from `node` sent in
// [at, at + duration) are lost. Register state does not survive the
// power cycle -- the harness schedules SwitchNode::wipe_registers() at
// the up-edge (at + duration) to model that.
struct Brownout {
  std::string node;
  SimTime at = 0;
  SimTime duration = 0;
  [[nodiscard]] SimTime up_at() const { return at + duration; }
};

struct FaultPlan {
  u64 seed = 1;  // root of the fault substreams (isolated from workload)
  std::vector<LinkFaults> link_faults;
  std::vector<LinkFlap> flaps;
  std::vector<Brownout> brownouts;

  [[nodiscard]] bool empty() const {
    return link_faults.empty() && flaps.empty() && brownouts.empty();
  }

  // Uniform loss on every link over the whole run -- the workhorse
  // configuration of the chaos matrix.
  static FaultPlan uniform_loss(u64 seed, double p) {
    FaultPlan plan;
    plan.seed = seed;
    LinkFaults rule;
    rule.drop = p;
    plan.link_faults.push_back(rule);
    return plan;
  }
};

}  // namespace artmt::faults
