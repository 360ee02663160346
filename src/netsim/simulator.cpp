#include "netsim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.hpp"

namespace artmt::netsim {

void Simulator::export_metrics(telemetry::MetricsRegistry& metrics) const {
  metrics.counter("netsim", "events_dispatched").merge_add(events_dispatched_);
  metrics.counter("netsim", "actions_spilled").merge_add(actions_spilled_);
  metrics.gauge("netsim", "queue_depth")
      .merge_add(static_cast<i64>(queue_.size()));
}

void Simulator::push_event(SimTime at, SimTime tie, u32 src_index, u64 tx_seq,
                           Action&& action) {
  if (at < now_) {
    throw UsageError("Simulator::schedule_at: time is in the past");
  }
  if (action.heap_allocated()) ++actions_spilled_;
  if (free_slots_.empty()) {
    free_slots_.push_back(static_cast<u32>(actions_.size()));
    actions_.emplace_back();
  }
  const u32 slot = free_slots_.back();
  free_slots_.pop_back();
  actions_[slot] = std::move(action);
  queue_.push_back(Key{at, tie, tx_seq, next_seq_++, src_index, slot});
  std::push_heap(queue_.begin(), queue_.end(), Later{});
}

void Simulator::schedule_at(SimTime at, Action action) {
  // tie = the current clock: non-decreasing with seq, so ordering among
  // plain events is exactly the historical scheduling-order FIFO.
  push_event(at, now_, kNoSrc, 0, std::move(action));
}

void Simulator::schedule_delivery(SimTime at, SimTime send, u32 src_index,
                                  u64 tx_seq, Action action) {
  push_event(at, send, src_index, tx_seq, std::move(action));
}

void Simulator::schedule_after(SimTime delay, Action action) {
  if (delay < 0) {
    throw UsageError("Simulator::schedule_after: negative delay");
  }
  schedule_at(now_ + delay, std::move(action));
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  const Key key = queue_.back();
  queue_.pop_back();
  Action action = std::move(actions_[key.slot]);
  free_slots_.push_back(key.slot);
  now_ = key.at;
  ++events_dispatched_;
  action();
  return true;
}

void Simulator::run_until(SimTime until) {
  while (!queue_.empty() && queue_.front().at <= until) {
    step();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace artmt::netsim
