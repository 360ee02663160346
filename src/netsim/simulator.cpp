#include "netsim/simulator.hpp"

#include <algorithm>
#include <utility>

#include "telemetry/metrics.hpp"

namespace artmt::netsim {

void Simulator::set_metrics(telemetry::MetricsRegistry* metrics) {
  if (metrics == nullptr) {
    m_dispatched_ = nullptr;
    m_spilled_ = nullptr;
    m_queue_depth_ = nullptr;
    return;
  }
  m_dispatched_ = &metrics->counter("netsim", "events_dispatched");
  m_spilled_ = &metrics->counter("netsim", "actions_spilled");
  m_queue_depth_ = &metrics->gauge("netsim", "queue_depth");
  // Count dispatches from attach time, not since construction.
  dispatched_flushed_ = events_dispatched_;
}

void Simulator::push_event(SimTime at, SimTime tie, u32 src_index, u64 tx_seq,
                           Action action) {
  if (at < now_) {
    throw UsageError("Simulator::schedule_at: time is in the past");
  }
  if (action.heap_allocated()) {
    ++actions_spilled_;
    if (m_spilled_ != nullptr) m_spilled_->inc();
  }
  queue_.push_back(Event{at, tie, src_index, tx_seq, next_seq_++,
                         std::move(action)});
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

bool Simulator::dispatch_one() {
  if (queue_.empty()) return false;
  std::pop_heap(queue_.begin(), queue_.end(), Later{});
  Event ev = std::move(queue_.back());
  queue_.pop_back();
  now_ = ev.at;
  ++events_dispatched_;
  ev.action();
  return true;
}

bool Simulator::step() {
  const bool ran = dispatch_one();
  // Single-stepping callers (tests, artmt_stats tooling) read the registry
  // between events, so step() flushes even though the run loops batch.
  flush_metrics();
  return ran;
}

// Per-event mirroring would put two telemetry updates on every frame hop;
// batching at the drain boundary keeps the dispatch counter exact for
// every observer that reads after run()/run_until()/step() returns.
void Simulator::flush_metrics() {
  if (m_dispatched_ == nullptr) return;
  m_dispatched_->inc(events_dispatched_ - dispatched_flushed_);
  dispatched_flushed_ = events_dispatched_;
  m_queue_depth_->set(static_cast<i64>(queue_.size()));
}

void Simulator::run_until(SimTime until) {
  while (!queue_.empty() && queue_.front().at <= until) {
    dispatch_one();
  }
  if (now_ < until) now_ = until;
  flush_metrics();
}

void Simulator::run() {
  while (dispatch_one()) {
  }
  flush_metrics();
}

}  // namespace artmt::netsim
