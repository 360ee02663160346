// fabric_failover: a 16-leaf x 2-spine fabric::Topology with 64 cache
// tenants placed by the GlobalController (admitted one after another, so
// the owned-count ranking spreads them round-robin over the leaves).
// Tenants send Zipf GETs toward the origin server; a cache serves hits
// when its leaf is on the client -> server path. While measured, a
// FaultPlan kills one leaf (every link, never restored) and flaps one
// standby spine uplink, so health epochs declare the leaf dead and its
// services are evacuated onto siblings. Leaf, kill instant and flap
// window are drawn from the seed.
#include "fabric/topology.hpp"
#include "faults/injector.hpp"
#include "scenario.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace artmt;

namespace {

constexpr u32 kLeaves = 16;
constexpr u32 kSpines = 2;
constexpr u32 kTenants = 64;
constexpr u32 kUniverse = 512;
constexpr u32 kHotKeys = 128;
constexpr double kGetRate = 1'500.0;  // GETs per tenant per virtual second
constexpr SimTime kSettle = 100 * kMillisecond;
constexpr SimTime kWarmup = 5 * kMillisecond;
constexpr SimTime kMeasured = 2 * kSecond;

class FabricFailover final : public Workload {
 public:
  using Workload::Workload;

  void setup() override {
    zipf_ = workload::ZipfGenerator(kUniverse, 1.2);
    Rng pick = Rng::substream(params_.seed, 2);
    links_ = Rng::substream(params_.seed, 4);
    victim_ = static_cast<u32>(pick.uniform(kLeaves));
    const auto other_leaf = [&] {
      return (victim_ + 1 + static_cast<u32>(pick.uniform(kLeaves - 1))) %
             kLeaves;
    };
    const u32 server_leaf = other_leaf();
    flap_leaf_ = other_leaf();
    kill_frac_ = 0.15 + 0.1 * pick.uniform_double();
    flap_frac_ = 0.6 + 0.1 * pick.uniform_double();

    fabric::TopologyConfig tc;
    tc.leaves = kLeaves;
    tc.spines = kSpines;
    tc.switch_config = switch_config();
    // A re-placement on a sibling takes hundreds of milliseconds at the
    // default table-update cost; the controller's default 2-epoch (4 ms)
    // evacuation timeout would abandon every one of them and park the
    // service. Wait up to 2 s instead.
    tc.controller.evac_timeout_epochs = 1000;
    topo_ = std::make_unique<fabric::Topology>(net_, tc);
    for (u32 i = 0; i < kLeaves; ++i) switches_.push_back(&topo_->leaf(i));
    for (u32 j = 0; j < kSpines; ++j) switches_.push_back(&topo_->spine(j));

    server_ = std::make_shared<BenchServer>("server", server_mac_, *this);
    net_.attach(server_);
    attach_pinned(*server_, server_leaf, server_mac_, {});
    for (u32 i = 0; i < kTenants; ++i) {
      // Tenant i's cache lands on leaf i % 16; its client sits there too
      // (on-path hits), except on the doomed leaf, whose tenants' clients
      // live elsewhere and are served by the origin.
      const u32 leaf = i % kLeaves == victim_ ? other_leaf() : i % kLeaves;
      BenchClient& host = add_host(topo_->controller_mac());
      attach_pinned(host, leaf, host.mac(), host_link());
      Tenant& t = add_tenant(Kind::kCache, host);
      t.hot_keys = kHotKeys;
      t.rate = kGetRate;
      fill_server(t);
    }
    gaps_ = Rng::substream(params_.seed, 3);
    sim_.schedule_at(kMillisecond,
                     [this] { request_admission(*tenants_.front()); });
    sim_.run();  // every admission, then every populate
    const SimTime w0 = sim_.now() + kMicrosecond;
    for (auto& t : tenants_) start_generator(*t, w0, w0 + kWarmup);
    sim_.run();
  }

  void measure() override {
    begin_measure();
    const SimTime start = sim_.now() + kMicrosecond;
    const SimTime end = start + kMeasured;
    const auto at = [&](double frac) {
      return start + static_cast<SimTime>(frac * static_cast<double>(kMeasured));
    };
    plan_.seed = params_.seed;
    plan_.flaps.push_back({"leaf" + std::to_string(victim_), "", at(kill_frac_),
                           faults::LinkFaults::kMaxSimTime});
    plan_.flaps.push_back({"leaf" + std::to_string(flap_leaf_), "spine1",
                           at(flap_frac_), at(flap_frac_ + 0.05)});
    injector_ = std::make_unique<faults::FaultInjector>(plan_, 1);
    if (recorder_ != nullptr) {
      recorder_->inner = injector_.get();
      net_.set_transmit_hook(recorder_);
    } else {
      net_.set_transmit_hook(injector_.get());
    }
    topo_->start(sim_, start, end);
    for (auto& t : tenants_) {
      const auto first = static_cast<SimTime>(t->rng.exponential(t->rate) * 1e9);
      start_generator(*t, start + first, end);
    }
    sim_.run_until(end + kSettle);
    end_measure();
  }

  void finish(Outcome& out) override {
    const fabric::FabricReport report = topo_->controller().report();
    out.evacuations = report.evacuations;
    out.state_loss_services = report.state_loss_services;
    for (const SimTime d : report.downtimes) {
      out.downtime_max_ms =
          std::max(out.downtime_max_ms, static_cast<double>(d) / 1e6);
    }
    if (!out.check_error.empty()) return;
    if (out.admit_granted != kTenants) {
      out.check_error = "fabric_failover: not every tenant was placed";
    } else if (report.evacuations == 0 ||
               report.replaced != report.evacuations) {
      out.check_error = "fabric_failover: the killed leaf's services were "
                        "not all re-placed";
    } else if (report.state_loss_services != 0) {
      out.check_error = "fabric_failover: an evacuated service lost state";
    }
  }

  // The victim leaf, and so the traffic it strands, differs from seed to
  // seed; a repetition pools two trajectories.
  [[nodiscard]] u32 trajectories() const override { return 2; }

  void install_recorder(TransmitRecorder* recorder) override {
    recorder_ = recorder;  // wrapped around the injector once it exists
    net_.set_transmit_hook(recorder);
  }
  [[nodiscard]] faults::FaultPlan fault_plan() const override { return plan_; }
  [[nodiscard]] fabric::GlobalController* global_controller() override {
    return &topo_->controller();
  }
  [[nodiscard]] Fid fid_base(u32 index) const override {
    return static_cast<Fid>((index + 1) * fabric::Topology::kFidRange);
  }

 protected:
  void on_admission_decided(Tenant& t) override {
    const u32 next = t.index + 1;
    if (next >= tenants_.size()) return;
    const auto gap = static_cast<SimTime>(gaps_.exponential(1.0) *
                                          static_cast<double>(kMillisecond));
    sim_.schedule_after(gap, [this, next] { request_admission(*tenants_[next]); });
  }

 private:
  // Topology::attach_host with every route to the host pinned. The
  // GlobalController relays clients' control capsules with the client's
  // source MAC, and L2 learning then points the relaying path at the
  // controller: frames to that client loop spine <-> controller or
  // leaf <-> spine until the client's next frame re-teaches the fabric.
  // Static host routes keep that out of the measurement (README.md,
  // known issues).
  // Client cables draw their latency from the seed (see host_link()).
  void attach_pinned(netsim::Node& host, u32 leaf, packet::MacAddr mac,
                     const netsim::LinkSpec& link) {
    const u32 port = kSpines + host_ports_[leaf]++;  // above the uplinks
    net_.connect(host, 0, topo_->leaf(leaf), port, link);
    for (u32 i = 0; i < kLeaves; ++i) {
      topo_->leaf(i).bind_pinned(mac, i == leaf ? port : 0);
    }
    for (u32 j = 0; j < kSpines; ++j) topo_->spine(j).bind_pinned(mac, leaf);
  }

  std::unique_ptr<fabric::Topology> topo_;
  u32 host_ports_[kLeaves] = {};
  faults::FaultPlan plan_;
  std::unique_ptr<faults::FaultInjector> injector_;
  TransmitRecorder* recorder_ = nullptr;
  Rng gaps_{0};
  u32 victim_ = 0;
  u32 flap_leaf_ = 0;
  double kill_frac_ = 0.0;
  double flap_frac_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> make_fabric_failover(const WorkloadParams& params) {
  return std::make_unique<FabricFailover>(params);
}

}  // namespace perfbench
