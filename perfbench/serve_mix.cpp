// serve_mix: one switch, 64 tenants admitted during setup (cache, heavy-
// hitter monitor and Cheetah load balancer, one third each), then an
// open-loop datapath phase: every tenant sends Poisson arrivals of Zipf
// requests, half of them singletons and half same-instant bursts of 2..32,
// with 64 B and 1400 B payloads. The control plane is idle while measured.
#include "scenario.hpp"

namespace perfbench {

using namespace artmt;

namespace {

constexpr u32 kTenants = 64;
constexpr u32 kUniverse = 4096;  // keys per tenant
constexpr u32 kHotKeys = 128;    // cache buckets populated per tenant
// Monitors with half the default CMS width, so all 64 tenants fit.
constexpr u32 kCmsBlocks = 8;
// Arrivals per tenant per virtual second; a burst (mean 17 requests) with
// probability 1/18 makes half of all requests singletons.
constexpr double kArrivalRate = 24'000.0;
constexpr double kBurstP = 1.0 / 18.0;
constexpr SimTime kAdmitGapMean = 20 * kMillisecond;
constexpr SimTime kWarmup = 5 * kMillisecond;
constexpr SimTime kMeasured = 60 * kMillisecond;

class ServeMix final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    zipf_ = workload::ZipfGenerator(kUniverse, 1.2);
    build_star(kTenants);
    Rng arrivals = Rng::substream(params_.seed, 1);
    SimTime at = kMillisecond;
    for (u32 i = 0; i < kTenants; ++i) {
      Tenant& t = add_tenant(static_cast<Kind>(i % 3), *hosts_[i], kCmsBlocks);
      t.hot_keys = kHotKeys;
      t.rate = kArrivalRate;
      t.burst_p = kBurstP;
      fill_server(t);
      at += static_cast<SimTime>(arrivals.exponential(1.0) *
                                 static_cast<double>(kAdmitGapMean));
      sim_.schedule_at(at, [this, &t] { request_admission(t); });
    }
    sim_.run();  // admissions, handshakes, cache populates, LB pools
    const SimTime w0 = sim_.now() + kMicrosecond;
    for (auto& t : tenants_) start_generator(*t, w0, w0 + kWarmup);
    sim_.run();
  }

  void measure() override {
    begin_measure();
    const SimTime start = sim_.now() + kMicrosecond;
    for (auto& t : tenants_) {
      const auto first = static_cast<SimTime>(t->rng.exponential(t->rate) * 1e9);
      start_generator(*t, start + first, start + kMeasured);
    }
    sim_.run();
    end_measure();
  }

  void finish(Outcome& out) override {
    if (out.check_error.empty() && out.admit_granted != kTenants) {
      out.check_error = "serve_mix: setup admissions not granted:";
      for (const auto& t : tenants_) {
        if (!t->admitted) {
          out.check_error += std::string(" ") + kind_name(t->kind) +
                             std::to_string(t->index);
        }
      }
    }
  }
};

}  // namespace

std::unique_ptr<Workload> make_serve_mix(const WorkloadParams& params) {
  return std::make_unique<ServeMix>(params);
}

}  // namespace perfbench
