#include "netsim/simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "telemetry/metrics.hpp"

namespace artmt::netsim {

void Simulator::export_metrics(telemetry::MetricsRegistry& metrics) const {
  metrics.counter("netsim", "events_dispatched").merge_add(events_dispatched_);
  metrics.counter("netsim", "actions_spilled").merge_add(actions_spilled_);
  metrics.gauge("netsim", "queue_depth")
      .merge_add(static_cast<i64>(pending_));
}

void Simulator::push_event(SimTime at, SimTime tie, u32 src_index, u64 tx_seq,
                           Action&& action) {
  if (at < now_) {
    throw UsageError("Simulator::schedule_at: time is in the past");
  }
  if (action.heap_allocated()) ++actions_spilled_;
  u32 slot = free_;
  if (slot == kNil) {
    slot = static_cast<u32>(keys_.size());
    keys_.emplace_back();
    actions_.emplace_back();
    if (batch_.capacity() < keys_.capacity()) batch_.reserve(keys_.capacity());
  } else {
    free_ = keys_[slot].next;
  }
  actions_[slot] = std::move(action);
  keys_[slot] = Key{at, tie, tx_seq, next_seq_++, src_index, kNil};
  ++pending_;
  if (at == last_) {
    join_batch(slot);
  } else {
    link(slot);
  }
}

void Simulator::link(u32 slot) {
  Key& key = keys_[slot];
  const int b = std::bit_width(static_cast<u64>(key.at ^ last_)) - 1;
  const u64 bit = u64{1} << b;
  if ((occupied_ & bit) != 0) {
    key.next = head_[b];
    min_[b] = std::min(min_[b], key.at);
  } else {
    key.next = kNil;
    min_[b] = key.at;
    occupied_ |= bit;
  }
  head_[b] = slot;
}

void Simulator::join_batch(u32 slot) {
  if (batch_next_ > 0 && batch_.size() == batch_.capacity()) {
    // Drop the slots already run rather than grow.
    batch_.erase(batch_.begin(),
                 batch_.begin() + static_cast<std::ptrdiff_t>(batch_next_));
    batch_next_ = 0;
  }
  const auto pending = batch_.begin() + static_cast<std::ptrdiff_t>(batch_next_);
  batch_.insert(std::upper_bound(pending, batch_.end(), slot,
                                 [this](u32 a, u32 b) { return earlier(a, b); }),
                slot);
}

bool Simulator::refill() {
  batch_.clear();
  batch_next_ = 0;
  if (occupied_ == 0) return false;
  const int b = std::countr_zero(occupied_);
  occupied_ &= occupied_ - 1;
  last_ = min_[b];
  for (u32 slot = head_[b]; slot != kNil;) {
    const u32 next = keys_[slot].next;
    if (keys_[slot].at == last_) {
      batch_.push_back(slot);
    } else {
      link(slot);  // agrees with last_ on bit b and above: a lower bucket
    }
    slot = next;
  }
  if (batch_.size() > 1) {
    std::sort(batch_.begin(), batch_.end(),
              [this](u32 a, u32 b) { return earlier(a, b); });
  }
  return true;
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
  if (batch_next_ == batch_.size() && !refill()) return false;
  const u32 slot = batch_[batch_next_++];
  Action action = std::move(actions_[slot]);
  keys_[slot].next = free_;
  free_ = slot;
  --pending_;
  now_ = last_;
  ++events_dispatched_;
  action();
  return true;
}

void Simulator::run_until(SimTime until) {
  // Peeks at the next `at` without moving last_: an event scheduled after
  // this returns may fall between `until` and the next pending one, and
  // must still find every pending `at` >= last_.
  while (batch_next_ < batch_.size()
             ? last_ <= until
             : occupied_ != 0 && min_[std::countr_zero(occupied_)] <= until) {
    step();
  }
  if (now_ < until) now_ = until;
}

void Simulator::run() {
  while (step()) {
  }
}

}  // namespace artmt::netsim
