// Continuous-time service churn (Section 6.1 at production scale): a
// Poisson arrival process with exponentially distributed service
// lifetimes and a weighted application-kind mix. Unlike ArrivalProcess
// (per-epoch counts), this generator emits a single time-ordered event
// stream -- arrive/depart interleaved exactly as a cluster scheduler
// would observe them -- which the allocator bench and churn tests replay
// against an Allocator or Controller.
//
// Determinism: the three random draws (inter-arrival gaps, lifetimes,
// kinds) come from isolated Rng::substream streams of one root seed, so
// the event sequence is a pure function of ChurnConfig and never shifts
// when a consumer adds draws of its own.
#pragma once

#include <array>
#include <queue>
#include <vector>

#include "common/rng.hpp"
#include "common/types.hpp"
#include "workload/arrivals.hpp"

namespace artmt::workload {

struct ChurnEvent {
  enum class Type : u8 { kArrival = 0, kDeparture = 1 };
  Type type = Type::kArrival;
  double time = 0.0;  // seconds since stream start (monotone non-decreasing)
  u64 service = 0;    // generator-assigned id, 1-based, unique per arrival
  AppKind kind = AppKind::kCache;  // drawn at arrival, echoed at departure
};

struct ChurnConfig {
  // Poisson arrival process: services per unit time.
  double arrival_rate = 10.0;
  // Exponential lifetime mean (units of the same clock). The steady-state
  // resident population is arrival_rate * mean_lifetime (Little's law).
  double mean_lifetime = 100.0;
  // Relative weights of the application-kind mix (normalized internally;
  // all-zero falls back to uniform).
  std::array<double, kAppKinds> kind_weights{1.0, 1.0, 1.0};
  u64 seed = 1;
};

class PoissonChurn {
 public:
  explicit PoissonChurn(const ChurnConfig& config);

  // The next event in time order (an infinite stream; callers bound it by
  // count or by event.time).
  ChurnEvent next();

  // Services currently alive (arrived, not yet departed).
  [[nodiscard]] u32 resident() const {
    return static_cast<u32>(departures_.size());
  }
  [[nodiscard]] const ChurnConfig& config() const { return config_; }

  // Convenience for tests and benches: the first `count` events.
  [[nodiscard]] static std::vector<ChurnEvent> generate(
      const ChurnConfig& config, std::size_t count);

 private:
  AppKind draw_kind();

  struct PendingDeparture {
    double time;
    u64 service;
    AppKind kind;
    bool operator>(const PendingDeparture& o) const { return time > o.time; }
  };

  ChurnConfig config_;
  Rng gaps_;       // inter-arrival gaps
  Rng lifetimes_;  // per-service lifetimes
  Rng kinds_;      // kind mix draws
  double next_arrival_ = 0.0;
  u64 next_service_ = 1;
  std::priority_queue<PendingDeparture, std::vector<PendingDeparture>,
                      std::greater<>>
      departures_;
};

}  // namespace artmt::workload
