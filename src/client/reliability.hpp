// Unified retransmission for the client side of the paper's idempotent
// capsule protocols (Section 4.3, Appendix C): memory-sync reads/writes,
// cache populate write-backs, and the extraction handshake all ride on
// "send, wait, resend" loops that used to be re-implemented per app. A
// ReliabilityTracker owns that loop once: per-capsule timeout,
// exponential backoff with deterministic jitter, a retry budget, and a
// give-up callback. IDs are caller-chosen (request ids); the tracker
// never touches the wire itself -- it calls back into the owner to
// resend, so capsules keep their app-specific framing.
//
// Timers run on the owning node's simulator (supplied lazily via a
// callback, so a tracker can be constructed before its service is
// attached). Jitter comes from a seed-derived Rng substream; draws happen
// in the node's own event order, so schedules are identical across runs.
#pragma once

#include <functional>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "netsim/simulator.hpp"

namespace artmt::telemetry {
class MetricsRegistry;
}  // namespace artmt::telemetry

namespace artmt::client {

class ReliabilityTracker {
 public:
  struct Options {
    static constexpr double kBackoff = 2.0;  // rto multiplier per attempt

    SimTime rto = 5 * kMillisecond;        // first retransmit timeout
    SimTime max_rto = 80 * kMillisecond;   // backoff ceiling
    u32 retry_budget = 12;                 // resends before giving up
    double jitter = 0.1;                   // deadline *= 1 + U(-j, +j)
    u64 seed = 0x7e11ab1e;                 // jitter substream root
  };

  struct Stats {
    u64 tracked = 0;
    u64 acked = 0;
    u64 retransmits = 0;
    u64 recovered = 0;  // acked after at least one retransmit
    u64 give_ups = 0;
  };

  using ResendFn = std::function<void(u32 id, u32 attempt)>;

  // `name` labels exported metrics; `sim` resolves the simulator at
  // schedule time (e.g. [this] -> node().sim()).
  ReliabilityTracker(std::string name,
                     std::function<netsim::Simulator&()> sim);
  ReliabilityTracker(std::string name,
                     std::function<netsim::Simulator&()> sim, Options opts);

  // Starts (or restarts) tracking `id`. `resend` fires on every timeout
  // until ack/cancel/give-up; the caller performs the initial send.
  void track(u32 id, ResendFn resend);
  // Stops tracking; returns true if `id` was outstanding.
  bool ack(u32 id);
  // Forgets `id` without counting an ack.
  void cancel(u32 id);
  void cancel_all();

  [[nodiscard]] bool tracking(u32 id) const { return entries_.contains(id); }
  [[nodiscard]] std::size_t outstanding() const { return entries_.size(); }
  [[nodiscard]] const Stats& stats() const { return stats_; }
  [[nodiscard]] const std::string& name() const { return name_; }

  // Fires after the retry budget is exhausted (the entry is already
  // forgotten when this runs; it may re-track).
  std::function<void(u32 id)> on_give_up;
  // Optional gate: while it returns true, expiries push their deadline
  // out by one rto instead of resending (used to pause write-backs while
  // the service is mid-reallocation, mirroring Section 5's transmission
  // pause). Paused expiries never charge the retry budget.
  std::function<bool()> paused;

  // Quiescent-only: mirrors stats into `metrics` under component
  // "reliability", labelled with `fid` -- counters
  // "<name>_retransmits" / "<name>_recovered" / "<name>_give_ups" plus a
  // "backoff_ns" histogram of every retransmit's timeout.
  void export_metrics(telemetry::MetricsRegistry& metrics, i32 fid) const;

 private:
  struct Entry {
    SimTime deadline = 0;
    SimTime rto = 0;
    u32 attempts = 0;
    u64 span = 0;  // span of the latest transmission attempt
    ResendFn resend;
  };

  [[nodiscard]] SimTime jittered(SimTime rto);
  // Moves `id`'s deadline (and its key in deadlines_) to `deadline`.
  void set_deadline(u32 id, Entry& entry, SimTime deadline);
  void erase(std::map<u32, Entry>::iterator it);
  void arm();
  void on_timer(u64 generation);

  std::string name_;
  std::function<netsim::Simulator&()> sim_;
  Options opts_;
  Rng rng_;
  std::map<u32, Entry> entries_;
  // (deadline, id) of every entry: the earliest is begin().
  std::set<std::pair<SimTime, u32>> deadlines_;
  Stats stats_;
  std::vector<u64> backoff_samples_;  // rto of each retransmit, ns
  bool timer_armed_ = false;
  SimTime timer_at_ = 0;
  u64 timer_generation_ = 0;
};

}  // namespace artmt::client
