#include "faults/injector.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::faults {

namespace {

const char* const kKindNames[kFaultKindCount] = {
    "drop", "corrupt", "duplicate", "reorder", "jitter", "link_cut", "outage"};

bool name_matches(const std::string& pattern, const netsim::Node& node) {
  return pattern.empty() || pattern == node.name();
}

// A rule names an unordered link; frames match in either direction.
bool link_matches(const std::string& a, const std::string& b,
                  const netsim::Node& from, const netsim::Node& to) {
  return (name_matches(a, from) && name_matches(b, to)) ||
         (name_matches(a, to) && name_matches(b, from));
}

}  // namespace

const char* fault_kind_name(FaultKind kind) {
  return kKindNames[static_cast<u32>(kind)];
}

FaultInjector::FaultInjector(FaultPlan plan, u32 shards)
    : plan_(std::move(plan)) {
  if (shards != 1) {
    throw UsageError("FaultInjector: shard count must be 1 (one engine)");
  }
}

void FaultInjector::count(const netsim::Node& from, const netsim::Node& to,
                          FaultKind kind) {
  ++by_kind_[static_cast<u32>(kind)];
  ++by_link_[from.name() + "->" + to.name()][static_cast<u32>(kind)];
}

netsim::TransmitHook::Verdict FaultInjector::on_transmit(
    const netsim::Node& from, const netsim::Node& to, SimTime now, u64 tx_seq,
    netsim::Frame& frame, FramePool& pool) {
  Verdict verdict;

  // Scripted windows first: a downed link or browned-out switch loses the
  // frame regardless of the probabilistic rules.
  for (const Brownout& b : plan_.brownouts) {
    if (now < b.at || now >= b.up_at()) continue;
    if (b.node != from.name() && b.node != to.name()) continue;
    count(from, to, FaultKind::kOutage);
    verdict.drop = true;
    return verdict;
  }
  for (const LinkFlap& flap : plan_.flaps) {
    if (now < flap.down_at || now >= flap.up_at) continue;
    if (!link_matches(flap.node_a, flap.node_b, from, to)) continue;
    count(from, to, FaultKind::kLinkCut);
    verdict.drop = true;
    return verdict;
  }

  if (plan_.link_faults.empty()) return verdict;

  // One isolated substream per transmission: the decision depends only on
  // (seed, sender, tx_seq), never on which other frames were inspected
  // before this one.
  const u64 frame_tag =
      (static_cast<u64>(from.attach_index()) << 40) | tx_seq;
  Rng rng = Rng::substream(plan_.seed, frame_tag);

  for (const LinkFaults& rule : plan_.link_faults) {
    if (now < rule.from || now >= rule.until) continue;
    if (!link_matches(rule.node_a, rule.node_b, from, to)) continue;

    if (rule.drop > 0.0 && rng.uniform_double() < rule.drop) {
      count(from, to, FaultKind::kDrop);
      verdict.drop = true;
      return verdict;
    }
    if (rule.corrupt > 0.0 && rng.uniform_double() < rule.corrupt &&
        frame.size() > 0) {
      if (!frame.unique()) frame = pool.clone(frame);
      const auto offset = static_cast<std::size_t>(rng.uniform(frame.size()));
      frame.data()[offset] ^= static_cast<u8>(1u << rng.uniform(8));
      count(from, to, FaultKind::kCorrupt);
    }
    if (rule.duplicate > 0.0 && rng.uniform_double() < rule.duplicate) {
      ++verdict.copies;
      verdict.dup_delay = std::max(verdict.dup_delay, rule.dup_delay);
      count(from, to, FaultKind::kDuplicate);
    }
    if (rule.reorder > 0.0 && rng.uniform_double() < rule.reorder) {
      verdict.extra_delay += rule.reorder_hold;
      count(from, to, FaultKind::kReorder);
    }
    if (rule.jitter > 0.0 && rng.uniform_double() < rule.jitter &&
        rule.jitter_max > 0) {
      verdict.extra_delay +=
          static_cast<SimTime>(rng.uniform(static_cast<u64>(rule.jitter_max)));
      count(from, to, FaultKind::kJitter);
    }
  }
  return verdict;
}

u64 FaultInjector::injected(FaultKind kind) const {
  return by_kind_[static_cast<u32>(kind)];
}

u64 FaultInjector::injected_total() const {
  u64 total = 0;
  for (u32 k = 0; k < kFaultKindCount; ++k) {
    total += injected(static_cast<FaultKind>(k));
  }
  return total;
}

void FaultInjector::export_metrics(telemetry::MetricsRegistry& metrics) const {
  for (u32 k = 0; k < kFaultKindCount; ++k) {
    const u64 total = injected(static_cast<FaultKind>(k));
    if (total == 0) continue;
    metrics
        .counter("faults",
                 std::string("injected_") + kKindNames[k])
        .merge_add(total);
  }
  for (const auto& [link, kinds] : injected_by_link()) {
    for (u32 k = 0; k < kFaultKindCount; ++k) {
      if (kinds[k] == 0) continue;
      metrics
          .counter("faults",
                   std::string("injected_") + kKindNames[k] + ":" + link)
          .merge_add(kinds[k]);
    }
  }
}

}  // namespace artmt::faults
