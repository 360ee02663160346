// Shared machinery of the benchmark's workloads. Everything here reaches
// the simulator through its public API only: the benchmark's own node
// subclasses (BenchClient, BenchServer) wrap the public ClientNode /
// ServerNode entry points, and request generators call the public Service
// API with the services' synthesized programs.
//
// Requests carry the benchmark's own 32-bit request id in their KvMessage
// (and in a trailer at the end of the payload), so every result -- an RTS
// hit, a server reply, a load-balanced data packet reaching the server --
// is attributed to exactly one request of exactly one service, and a
// request that resolves twice is caught.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "apps/cache_service.hpp"
#include "apps/hh_service.hpp"
#include "apps/lb_service.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "common/rng.hpp"
#include "controller/switch_node.hpp"
#include "fabric/global_controller.hpp"
#include "faults/fault_plan.hpp"
#include "netsim/network.hpp"
#include "netsim/simulator.hpp"
#include "workload/zipf.hpp"

namespace perfbench {

using artmt::Fid;
using artmt::SimTime;
using artmt::u32;
using artmt::u64;
using artmt::u8;

// operator new calls made by this process so far (alloc_count.cpp).
u64 heap_allocs();

// Host wall clock, nanoseconds.
u64 now_ns();

enum class Kind : u8 { kCache = 0, kMonitor = 1, kLb = 2 };
const char* kind_name(Kind kind);

inline constexpr u32 kPayloadSmall = 64;
inline constexpr u32 kPayloadLarge = 1400;

// One request's virtual-time record.
struct Request {
  SimTime sched = 0;  // scheduled send (open loop: the arrival instant)
  SimTime done = 0;
  u32 tenant = 0;
  Kind kind = Kind::kCache;
  u8 resolutions = 0;
  bool hit = false;
  u32 value = 0;
};

class RequestTracker {
 public:
  u32 issue(u32 tenant, Kind kind, SimTime sched);
  // Records a result; a second result for one id counts as a duplicate.
  void resolve(u32 id, SimTime now, bool hit = false, u32 value = 0);
  [[nodiscard]] const Request* find(u32 id) const;
  [[nodiscard]] const std::vector<Request>& all() const { return reqs_; }
  [[nodiscard]] u64 duplicates() const { return duplicates_; }
  [[nodiscard]] u64 strays() const { return strays_; }

 private:
  std::vector<Request> reqs_;  // id - 1 -> request
  u64 duplicates_ = 0;
  u64 strays_ = 0;
};

// Live per-layer timers of the traced run, taken from the benchmark's own
// code around calls into the client, server and generator.
struct LiveTimers {
  bool on = false;
  u64 request_ns = 0, requests = 0;  // generator calls into the services
  u64 receive_ns = 0, receives = 0;  // ClientNode::on_frame
  u64 server_ns = 0, server_frames = 0;  // ServerNode::on_frame
};

// What one request put on the wire, kept while it may have to be resent.
struct Outgoing {
  u32 id = 0;
  u64 key = 0;         // cache / monitor key; LB data packet: its flow
  u32 size = 0;        // payload bytes
  u8 trailer = 0;      // what the request is (scenario.cpp's TrailerKind)
  u32 sends = 1;
  SimTime deadline = 0;  // resent if still without a result by then
};

struct Tenant;
class Workload;

class BenchClient final : public artmt::client::ClientNode {
 public:
  BenchClient(std::string name, artmt::packet::MacAddr mac,
              artmt::packet::MacAddr switch_mac, Workload& owner);
  void on_frame(artmt::netsim::Frame frame, u32 port) override;
  std::vector<Tenant*> tenants;

 private:
  Workload* owner_;
};

class BenchServer final : public artmt::apps::ServerNode {
 public:
  BenchServer(std::string name, artmt::packet::MacAddr mac, Workload& owner);
  void on_frame(artmt::netsim::Frame frame, u32 port) override;

 private:
  Workload* owner_;
};

struct Tenant {
  u32 index = 0;
  Kind kind = Kind::kCache;
  BenchClient* host = nullptr;
  std::shared_ptr<artmt::apps::CacheService> cache;
  std::shared_ptr<artmt::apps::FrequentItemService> monitor;
  std::shared_ptr<artmt::apps::CheetahLbService> lb;
  artmt::client::Service* service = nullptr;
  artmt::Rng rng{0};
  double rate = 0.0;       // request arrivals per virtual second
  double burst_p = 0.0;    // probability an arrival is a burst of 2..32
  SimTime stop = 0;        // generator stops at this virtual time
  u32 generation = 0;      // restarting a generator retires the old chain
  std::vector<u32> flows;  // LB: open flows (ring of recent SYNs)
  u32 flow_cursor = 0;
  u32 hot_keys = 0;        // cache: ranks written on every (re)placement
  // Requests that may still need a resend (Workload::resend_lost_), and
  // the pending check of their deadlines.
  std::vector<Outgoing> outstanding;
  SimTime resend_at = -1;
  u32 resend_generation = 0;
  // Control-plane outcomes.
  SimTime requested_at = -1;
  bool admitted = false;
  bool denied = false;
  bool depart_pending = false;  // churn: leave as soon as granted
  artmt::client::Service::State last_state =
      artmt::client::Service::State::kIdle;
  SimTime paused_at = -1;  // entered kMemoryManagement
};

struct WorkloadParams {
  u64 seed = 1;
};

// Counters snapshotted around the measured phase.
struct PhaseCounters {
  u64 capsules = 0;   // runtime packets over every switch
  u64 events = 0;     // simulator events dispatched
  u64 pool_ops = 0;   // FramePool acquire()/copy() calls
  u64 admissions = 0, releases = 0;  // switch controllers
  u64 heap_allocs = 0;
  u64 transit = 0;    // fabric transit frames (telemetry counter)
  u64 health_acks = 0;
  u64 frames = 0;     // frames delivered by the network
};

// Everything one repetition produced.
struct Outcome {
  double setup_s = 0.0;
  double wall_s = 0.0;
  std::vector<double> trajectory_wall_s;  // a pooled repetition's parts
  std::vector<double> trajectory_downtime_ms;
  std::vector<double> reference_s;  // reference kernel runs around it
  PhaseCounters phase;  // measured-phase deltas
  std::vector<double> rtt_us;    // virtual, per resolved request
  std::vector<double> admit_ms;  // virtual, per granted admission
  u64 attempted = 0, resolved = 0, unresolved = 0, duplicates = 0;
  u64 strays = 0, bad_values = 0, give_ups = 0;
  u64 retransmits = 0;  // by ReliabilityTrackers and the benchmark's clients
  u64 resends = 0;      // of those, requests the benchmark's clients resent
  u64 cache_gets = 0, cache_hits = 0;
  u64 admit_requested = 0, admit_granted = 0;
  double downtime_max_ms = 0.0;  // longest service interruption
  u64 evacuations = 0, state_loss_services = 0;
  u64 server_replies[3] = {0, 0, 0};  // per service kind
  u64 unresolved_by_kind[3] = {0, 0, 0};
  u64 digest = 0;  // registers + replies + control outcomes
  std::string check_error;  // non-empty: an output check failed
};

class TransmitRecorder;

// One scenario instance: build (setup) then run the measured phase once.
// A repetition constructs a fresh instance, so every repetition of a seed
// starts from the identical state.
class Workload {
 public:
  explicit Workload(const WorkloadParams& params);
  virtual ~Workload();
  Workload(const Workload&) = delete;
  Workload& operator=(const Workload&) = delete;

  // Topology, admissions and warm-up (timed as setup_s).
  virtual void setup() = 0;
  // The measured phase, run to completion including its drain.
  virtual void measure() = 0;
  // Workload-specific output checks and numbers (after measure()).
  virtual void finish(Outcome& out) { (void)out; }

  // Results of the run: requests of the measured phase, admissions and
  // interruptions of the whole run.
  Outcome collect();

  // Installs a transmit hook in front of the workload's own (if any).
  virtual void install_recorder(TransmitRecorder* recorder);
  // Independent trajectories (seeds derived from the run's seed) one
  // repetition simulates and pools: workloads whose results vary much
  // from seed to seed average over several.
  [[nodiscard]] virtual u32 trajectories() const { return 1; }
  // The workload's fault plan (empty unless it injects faults through its
  // own transmit hook).
  [[nodiscard]] virtual artmt::faults::FaultPlan fault_plan() const {
    return {};
  }
  [[nodiscard]] virtual artmt::fabric::GlobalController* global_controller() {
    return nullptr;
  }
  // First FID switch `index` mints (0 = the controller's default).
  [[nodiscard]] virtual Fid fid_base(u32 index) const {
    (void)index;
    return 0;
  }

  // Default switch configuration of every workload: the stock Config
  // with the deterministic compute model (virtual timelines must not
  // depend on host load).
  static artmt::controller::SwitchNode::Config switch_config();

  artmt::netsim::Simulator& sim() { return sim_; }
  const std::vector<artmt::controller::SwitchNode*>& switches() const {
    return switches_;
  }
  const LiveTimers& timers() const { return timers_; }
  void set_timers(bool on) { timers_.on = on; }
  // Counters of the measured phase (valid after measure()).
  [[nodiscard]] const PhaseCounters& phase() const { return phase_; }

 protected:
  // Builds a single-switch star: switch, the server on port 0, `hosts`
  // clients on ports 1..hosts.
  void build_star(u32 hosts);
  // Client links differ in length: each draws its propagation latency
  // uniformly from [0.8, 1.2) us (from the `links_` stream), so virtual
  // latencies are spread, not quantized to a few path lengths.
  artmt::netsim::LinkSpec host_link();
  BenchClient& add_host(artmt::packet::MacAddr switch_mac);
  // `cms_blocks`: CMS row width of a heavy-hitter monitor.
  Tenant& add_tenant(Kind kind, BenchClient& host, u32 cms_blocks = 16);
  void request_admission(Tenant& t);
  // Called once per admission decision (grant or denial).
  virtual void on_admission_decided(Tenant& t) { (void)t; }
  void start_generator(Tenant& t, SimTime first, SimTime stop);
  void populate_hot_set(Tenant& t);
  // Server values for every (tenant, Zipf rank) key of `t`.
  void fill_server(const Tenant& t);
  // Bracket the measured phase: counters and the first measured request.
  void begin_measure();
  void end_measure();

  WorkloadParams params_;
  artmt::netsim::Simulator sim_;
  artmt::netsim::Network net_{sim_};
  std::vector<artmt::controller::SwitchNode*> switches_;
  std::shared_ptr<BenchServer> server_;
  artmt::packet::MacAddr server_mac_ = 0x5E00;
  std::vector<std::shared_ptr<BenchClient>> hosts_;
  std::vector<std::unique_ptr<Tenant>> tenants_;
  artmt::workload::ZipfGenerator zipf_;
  artmt::Rng links_{0};
  double max_pause_ms_ = 0.0;
  // Admissions requested before this virtual instant are not reported
  // (churn: the prefill ramp is not the steady state).
  SimTime admit_from_ = 0;
  // Clients resend a request that has no result after a timeout, backing
  // off (churn: a departure moves elastic residents at once but tells
  // their clients only after the table updates, so capsules sent with the
  // old layout in between are dropped by the protection check).
  bool resend_lost_ = false;

 private:
  friend class BenchClient;
  friend class BenchServer;

  PhaseCounters counters();
  // Data-plane capsules given up on, and resends of every tracker.
  struct Reliability {
    u64 give_ups = 0, retransmits = 0;
  };
  [[nodiscard]] Reliability reliability() const;
  void fire(Tenant& t, u32 generation);
  // One request of tenant `t` scheduled at `sched` (burst members share it).
  void send_one(Tenant& t, SimTime sched, bool burst_member);
  // Puts `req` on the wire with the service's current layout.
  void transmit(Tenant& t, const Outgoing& req);
  // Schedules the check of `t`'s outstanding requests at `at` unless an
  // earlier one is pending; the check resends every overdue request.
  void arm_resend(Tenant& t, SimTime at);
  void resend_due(Tenant& t);
  void on_passive(artmt::netsim::Frame& frame);
  void on_server_frame(const artmt::netsim::Frame& frame);
  void note_state(Tenant& t);
  [[nodiscard]] u64 key_of(const Tenant& t, u32 rank) const;

  std::shared_ptr<artmt::controller::SwitchNode> star_switch_;
  RequestTracker tracker_;
  LiveTimers timers_;
  // (requested at, latency) of every granted admission.
  std::vector<std::pair<SimTime, double>> admit_ms_;
  u64 bad_values_ = 0;
  u64 resends_ = 0, resends_before_ = 0;
  u64 server_replies_[3] = {0, 0, 0};
  std::size_t measured_from_ = 0;  // first request of the measured phase
  PhaseCounters before_;
  PhaseCounters phase_;
  Reliability rel_before_;
  artmt::active::Program lb_route_;
};

std::unique_ptr<Workload> make_serve_mix(const WorkloadParams& params);
std::unique_ptr<Workload> make_churn(const WorkloadParams& params);
std::unique_ptr<Workload> make_fabric_failover(const WorkloadParams& params);
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& params);

// FNV-style 64-bit mixing digest.
struct Digest {
  u64 h = 0xcbf29ce484222325ull;
  void mix(u64 v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 0x100000001b3ull;
    }
  }
};

u64 register_digest(artmt::controller::SwitchNode& sw);

}  // namespace perfbench
