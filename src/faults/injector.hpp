// FaultInjector: the netsim::TransmitHook that executes a FaultPlan.
//
// Determinism contract: every probabilistic decision is drawn from an
// Rng substream keyed on (plan seed, sender attach index, sender tx
// sequence) -- a pure function of simulation state -- so the set of
// injected faults is identical across repeated runs. Scripted flaps and
// brownouts are stateless time-window predicates. The injector never
// draws from a shared sequential stream, so attaching it to a fault-free
// plan leaves every workload RNG sequence untouched. The plan is
// immutable after construction; only the counters change.
#pragma once

#include <array>
#include <map>
#include <string>

#include "faults/fault_plan.hpp"
#include "netsim/network.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
}  // namespace artmt::telemetry

namespace artmt::faults {

enum class FaultKind : u32 {
  kDrop = 0,
  kCorrupt,
  kDuplicate,
  kReorder,
  kJitter,
  kLinkCut,  // scripted flap window
  kOutage,   // scripted brownout window
};
inline constexpr u32 kFaultKindCount = 7;
[[nodiscard]] const char* fault_kind_name(FaultKind kind);

class FaultInjector final : public netsim::TransmitHook {
 public:
  // The simulator has one engine, so `shards` must be 1 (UsageError
  // otherwise); the parameter stays for callers that still pass it.
  explicit FaultInjector(FaultPlan plan, u32 shards = 1);

  Verdict on_transmit(const netsim::Node& from, const netsim::Node& to,
                      SimTime now, u64 tx_seq, netsim::Frame& frame,
                      FramePool& pool) override;

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }

  // --- introspection ---
  [[nodiscard]] u64 injected(FaultKind kind) const;
  [[nodiscard]] u64 injected_total() const;
  // Per-link totals keyed "src->dst", per kind.
  [[nodiscard]] const std::map<std::string,
                               std::array<u64, kFaultKindCount>>&
  injected_by_link() const {
    return by_link_;
  }

  // Mirrors the totals into `metrics`: "faults" / "injected_<kind>"
  // counters plus per-link "injected_<kind>:<src>-><dst>" counters
  // (call after the run).
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

 private:
  void count(const netsim::Node& from, const netsim::Node& to, FaultKind kind);

  FaultPlan plan_;
  std::array<u64, kFaultKindCount> by_kind_{};
  std::map<std::string, std::array<u64, kFaultKindCount>> by_link_;
};

}  // namespace artmt::faults
