#include "client/reliability.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace artmt::client {

namespace {

// FNV-1a, so two trackers on one node with different names draw from
// different jitter streams (std::hash is not cross-platform stable).
u64 fnv1a(const std::string& s) {
  u64 h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<u8>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

}  // namespace

ReliabilityTracker::ReliabilityTracker(std::string name,
                                       std::function<netsim::Simulator&()> sim)
    : ReliabilityTracker(std::move(name), std::move(sim), Options()) {}

ReliabilityTracker::ReliabilityTracker(
    std::string name, std::function<netsim::Simulator&()> sim, Options opts)
    : name_(std::move(name)),
      sim_(std::move(sim)),
      opts_(opts),
      rng_(Rng::substream(opts.seed, fnv1a(name_))) {
  if (sim_ == nullptr) {
    throw UsageError("ReliabilityTracker: null simulator resolver");
  }
}

SimTime ReliabilityTracker::jittered(SimTime rto) {
  if (opts_.jitter <= 0.0) return std::max<SimTime>(rto, 1);
  const double factor =
      1.0 + opts_.jitter * (2.0 * rng_.uniform_double() - 1.0);
  return std::max<SimTime>(
      static_cast<SimTime>(static_cast<double>(rto) * factor), 1);
}

void ReliabilityTracker::set_deadline(u32 id, Entry& entry,
                                      SimTime deadline) {
  deadlines_.erase({entry.deadline, id});
  entry.deadline = deadline;
  deadlines_.emplace(deadline, id);
}

void ReliabilityTracker::erase(std::map<u32, Entry>::iterator it) {
  deadlines_.erase({it->second.deadline, it->first});
  entries_.erase(it);
}

void ReliabilityTracker::track(u32 id, ResendFn resend) {
  const SimTime deadline = sim_().now() + jittered(opts_.rto);
  Entry& entry = entries_[id];  // re-tracking restarts the schedule
  set_deadline(id, entry, deadline);
  entry.rto = opts_.rto;
  entry.attempts = 0;
  // The repo's idiom is send-then-track within one event handler, so the
  // thread's latest transmit span is the capsule this entry guards;
  // retransmits chain off it. (0 when spans are off or nothing was sent.)
  entry.span = telemetry::spans_active() ? telemetry::last_tx_span() : 0;
  entry.resend = std::move(resend);
  ++stats_.tracked;
  arm();
}

bool ReliabilityTracker::ack(u32 id) {
  const auto it = entries_.find(id);
  if (it == entries_.end()) return false;
  ++stats_.acked;
  if (it->second.attempts > 0) ++stats_.recovered;
  erase(it);
  return true;
}

void ReliabilityTracker::cancel(u32 id) {
  const auto it = entries_.find(id);
  if (it != entries_.end()) erase(it);
}

void ReliabilityTracker::cancel_all() {
  entries_.clear();
  deadlines_.clear();
}

void ReliabilityTracker::arm() {
  if (deadlines_.empty()) return;
  const SimTime earliest = deadlines_.begin()->first;
  if (timer_armed_ && timer_at_ <= earliest) return;
  timer_armed_ = true;
  timer_at_ = earliest;
  const u64 generation = ++timer_generation_;
  sim_().schedule_at(earliest,
                     [this, generation] { on_timer(generation); });
}

void ReliabilityTracker::on_timer(u64 generation) {
  if (generation != timer_generation_) return;  // superseded by re-arm
  timer_armed_ = false;
  const SimTime now = sim_().now();
  const bool gate = paused != nullptr && paused();

  // Expired ids snapshotted first, in id order: resend/give-up callbacks
  // may track, ack, or cancel entries, so each id is re-looked-up before
  // use.
  std::vector<u32> expired;
  for (auto it = deadlines_.begin();
       it != deadlines_.end() && it->first <= now; ++it) {
    expired.push_back(it->second);
  }
  std::sort(expired.begin(), expired.end());
  for (const u32 id : expired) {
    const auto it = entries_.find(id);
    if (it == entries_.end()) continue;
    Entry& entry = it->second;
    if (gate) {
      // Transmissions are paused; hold the capsule without charging the
      // retry budget.
      set_deadline(id, entry, now + jittered(entry.rto));
      continue;
    }
    if (entry.attempts >= opts_.retry_budget) {
      ++stats_.give_ups;
      const u64 span = entry.span;
      const u32 attempts = entry.attempts;
      erase(it);
      if (span != 0 && telemetry::spans_active()) {
        telemetry::SpanEvent event;
        event.ts = now;
        event.span = span;
        event.phase = telemetry::SpanPhase::kGiveUp;
        event.a = attempts;
        telemetry::span_emit(event);
      }
      if (on_give_up) on_give_up(id);
      continue;
    }
    ++entry.attempts;
    ++stats_.retransmits;
    backoff_samples_.push_back(static_cast<u64>(entry.rto));
    const SimTime expired_rto = entry.rto;
    const u64 prev_span = entry.span;
    entry.rto = std::min<SimTime>(
        opts_.max_rto, static_cast<SimTime>(static_cast<double>(entry.rto) *
                                            Options::kBackoff));
    set_deadline(id, entry, now + jittered(entry.rto));
    const u32 attempt = entry.attempts;
    ResendFn resend = entry.resend;  // copy: the callback may erase `id`
    {
      // The retransmit's send is causally a child of the lost attempt.
      telemetry::SpanScope scope(prev_span);
      resend(id, attempt);
    }
    if (prev_span != 0 && telemetry::spans_active()) {
      const u64 new_span = telemetry::last_tx_span();
      if (new_span != prev_span) {
        telemetry::SpanEvent event;
        event.ts = now;
        event.span = new_span;
        event.parent = prev_span;
        event.phase = telemetry::SpanPhase::kRetry;
        event.a = attempt;
        event.b = static_cast<u64>(expired_rto);
        telemetry::span_emit(event);
        // The entry (if the callback kept it) now guards the new attempt.
        const auto again = entries_.find(id);
        if (again != entries_.end()) again->second.span = new_span;
      }
    }
  }
  arm();
}

void ReliabilityTracker::export_metrics(telemetry::MetricsRegistry& metrics,
                                        i32 fid) const {
  if (stats_.tracked == 0) return;
  metrics.counter("reliability", name_ + "_tracked", fid)
      .merge_add(stats_.tracked);
  metrics.counter("reliability", name_ + "_acked", fid)
      .merge_add(stats_.acked);
  metrics.counter("reliability", name_ + "_retransmits", fid)
      .merge_add(stats_.retransmits);
  metrics.counter("reliability", name_ + "_recovered", fid)
      .merge_add(stats_.recovered);
  metrics.counter("reliability", name_ + "_give_ups", fid)
      .merge_add(stats_.give_ups);
  if (!backoff_samples_.empty()) {
    auto& histogram = metrics.histogram("reliability", "backoff_ns", fid);
    for (const u64 sample : backoff_samples_) histogram.record(sample);
  }
}

}  // namespace artmt::client
