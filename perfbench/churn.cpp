// churn: one switch at the paper's geometry (20 stages x 368 blocks).
// Services -- cache, heavy-hitter monitor, load balancer -- arrive and
// leave under workload::PoissonChurn through the full wire path: the
// client's allocation request queues in the switch's serialized control
// plane, the controller admits it (disturbing elastic residents through
// the extract -> snapshot -> repopulate handshake) or denies it, and a
// departure releases the allocation. Every live service sends a light
// trickle of singleton requests. The arrival rate keeps the pipeline near
// full, so some admissions disturb residents and some are denied.
#include <unordered_map>

#include "scenario.hpp"
#include "workload/churn.hpp"

namespace perfbench {

using namespace artmt;

namespace {

constexpr u32 kHosts = 32;
constexpr u32 kUniverse = 256;
constexpr u32 kHotKeys = 8;
constexpr double kArrivalsPerSecond = 0.5;  // virtual
constexpr double kMeanLifetimeS = 60.0;
constexpr double kTrickleRate = 0.25;  // requests per live service per second
constexpr SimTime kDrain = 10 * kMillisecond;  // departure: stop, then release
constexpr double kPrefillS = 600.0;   // setup: fill the pipeline
constexpr double kMeasuredS = 2000.0;
// Admission latency and the work per arrival follow the resident mix,
// which drifts slowly; a repetition pools five independent trajectories.
constexpr u32 kTrajectories = 5;
// Wide count-min rows: a few dozen residents fill the pipeline.
constexpr u32 kCmsBlocks = 96;

SimTime at_seconds(double s) { return static_cast<SimTime>(s * 1e9); }

class Churn final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    resend_lost_ = true;
    zipf_ = workload::ZipfGenerator(kUniverse, 1.2);
    build_star(kHosts);
    workload::ChurnConfig cfg;
    cfg.arrival_rate = kArrivalsPerSecond;
    cfg.mean_lifetime = kMeanLifetimeS;
    cfg.seed = params_.seed;
    churn_ = std::make_unique<workload::PoissonChurn>(cfg);
    horizon_ = at_seconds(kPrefillS + kMeasuredS);
    schedule_next();
    sim_.run_until(at_seconds(kPrefillS));
  }

  [[nodiscard]] u32 trajectories() const override { return kTrajectories; }

  void measure() override {
    begin_measure();
    admit_from_ = sim_.now();
    sim_.run();  // the churn stream stops at the horizon, then drains
    end_measure();
  }

 private:
  void schedule_next() {
    const workload::ChurnEvent ev = churn_->next();
    const SimTime at = at_seconds(ev.time);
    if (at >= horizon_) return;
    sim_.schedule_at(at, [this, ev] {
      handle(ev);
      schedule_next();
    });
  }

  void handle(const workload::ChurnEvent& ev) {
    using State = client::Service::State;
    if (ev.type == workload::ChurnEvent::Type::kArrival) {
      static constexpr Kind kKinds[] = {Kind::kCache, Kind::kMonitor,
                                        Kind::kLb};
      BenchClient& host = *hosts_[ev.service % kHosts];
      Tenant& t = add_tenant(kKinds[static_cast<u32>(ev.kind)], host, kCmsBlocks);
      t.hot_keys = kHotKeys;
      t.rate = kTrickleRate;
      fill_server(t);
      by_service_[ev.service] = &t;
      request_admission(t);
      start_generator(t, sim_.now() + kMicrosecond, horizon_);
      return;
    }
    const auto it = by_service_.find(ev.service);
    if (it == by_service_.end()) return;
    Tenant& t = *it->second;
    by_service_.erase(it);
    // A departing service stops sending, lets its requests in flight
    // finish, then releases its allocation.
    t.stop = sim_.now();
    sim_.schedule_after(kDrain, [&t] {
      const State s = t.service->state();
      if (s == State::kOperational || s == State::kMemoryManagement) {
        t.service->release();
      } else if (s == State::kNegotiating) {
        t.depart_pending = true;  // released as soon as the grant lands
      }
    });
  }

  std::unique_ptr<workload::PoissonChurn> churn_;
  SimTime horizon_ = 0;
  std::unordered_map<u64, Tenant*> by_service_;
};

}  // namespace

std::unique_ptr<Workload> make_churn(const WorkloadParams& params) {
  return std::make_unique<Churn>(params);
}

}  // namespace perfbench
