// Same-rig paired A/B overhead budgets for the zero-copy switch datapath.
// Each budget gets its own E2eRig: a client node transmits the cache
// query with a 1400-byte payload to a SwitchNode, which parses it in
// place, executes it, and rewrites the shrunk reply into the inbound
// pooled buffer on its way to a server sink. The rig runs with one piece
// of instrumentation off and on in alternating blocks:
//   telemetry      -- metric recording (per-FID counters, node counters,
//                     the latency histogram) gated on vs off; the
//                     components' totals are plain members that count
//                     either way, so they are not part of this budget;
//   spans          -- span emission into an armed FlightRecorder ring
//                     (the always-on forensic setup) vs no recorder;
//   idle_injector  -- a FaultInjector with an empty plan attached as the
//                     network's transmit hook vs no hook.
// Prints one JSON object with each budget's median overhead and the
// interquartile range of the pair ratios it kept, and exits 1 when a
// median is above 5%. The datapath's heap, program-cache and frame-pool
// counts are checked deterministically by test_datapath
// (Datapath.ProgramCapsulesAllocateNothing).
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "apps/programs.hpp"
#include "controller/switch_node.hpp"
#include "faults/injector.hpp"
#include "netsim/network.hpp"
#include "packet/active_packet.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace artmt {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  return elapsed.count();
}

class SinkNode : public netsim::Node {
 public:
  explicit SinkNode(std::string name) : netsim::Node(std::move(name)) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    (void)port;
    (void)frame;  // dies here: the slab goes straight back to the pool
  }
};

constexpr packet::MacAddr kBenchClientMac = 0x0c;
constexpr packet::MacAddr kBenchServerMac = 0x0b;
constexpr std::size_t kBenchPayloadBytes = 1400;  // MTU-ish data capsule

struct E2eRig {
  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<controller::SwitchNode> sw;
  std::shared_ptr<SinkNode> client;
  std::shared_ptr<SinkNode> server;
  std::vector<u8> wire;  // the repeated capsule, serialized once

  E2eRig() {
    sw = std::make_shared<controller::SwitchNode>(
        "switch", controller::SwitchNode::Config{});
    client = std::make_shared<SinkNode>("client");
    server = std::make_shared<SinkNode>("server");
    net.attach(sw);
    net.attach(client);
    net.attach(server);
    net.connect(*sw, 0, *client, 0);
    net.connect(*sw, 1, *server, 0);
    sw->bind(kBenchClientMac, 0);
    sw->bind(kBenchServerMac, 1);
    // Grant FID 1 the whole pipeline so the query never faults.
    for (u32 s = 0; s < sw->pipeline().stage_count(); ++s) {
      sw->pipeline().stage(s).install(1, 0, 4096, 0);
    }
    auto pkt = packet::ActivePacket::make_program(
        1, packet::ArgumentHeader{{10, 2, 3, 0}},
        apps::cache_query_program());
    pkt.ethernet.src = kBenchClientMac;
    pkt.ethernet.dst = kBenchServerMac;
    pkt.payload.assign(kBenchPayloadBytes, 0x5a);
    wire = pkt.serialize();
  }

  // One frame at a time through the whole path (ingress copy into the
  // recycling pool, switch execution, egress delivery), draining the
  // simulator between frames like a line-rate switch between arrivals.
  void pump(u64 packets) {
    for (u64 i = 0; i < packets; ++i) {
      net.transmit(*client, 0, net.pool().copy(wire));
      sim.run();
    }
  }
};

// Packets/sec of one timed block.
double measure_block(E2eRig& rig, u64 packets) {
  const auto start = std::chrono::steady_clock::now();
  rig.pump(packets);
  return static_cast<double>(packets) / seconds_since(start);
}

// Interleaved rounds of same-rig paired A/Bs: within each round every rig
// alternates instrumentation-off / -on in sub-millisecond blocks so
// frequency ramps and scheduler quanta hit both sides, each adjacent
// off/on pair yields one overhead ratio, and the gate takes the MEDIAN
// over the pairs of the whole run. A cross-rig comparison (or an
// independent best-of per side) lets one lucky or stolen window on
// either side swing the measured cost by tens of percent on a noisy
// host; the median of paired ratios is robust in both directions.
constexpr u64 kRounds = 12;
constexpr u64 kAbBlocks = 5;
constexpr u64 kPerBlock = 1000;

struct AbPair {
  double base_pps;  // the pair's instrumentation-off throughput
  double on_pps;    // the pair's instrumentation-on throughput
  double ratio;     // 1 - on/off for that pair
};

// One paired A/B round: appends one overhead ratio per adjacent off/on
// block pair -- individual pairs are noisy, but a scheduler steal poisons
// only the pairs it lands on, and the median shrugs those off.
template <class Off, class On>
void paired_round(E2eRig& rig, Off&& off, On&& on,
                  std::vector<AbPair>* pairs) {
  for (u64 k = 0; k < kAbBlocks; ++k) {
    double base_pps = 0.0;
    double on_pps = 0.0;
    // ABBA order alternation: the second slot of a pair sits closer to
    // the next scheduler quantum, so a fixed order would bias one side.
    if (k % 2 == 0) {
      off();
      base_pps = measure_block(rig, kPerBlock);
      on();
      on_pps = measure_block(rig, kPerBlock);
    } else {
      on();
      on_pps = measure_block(rig, kPerBlock);
      off();
      base_pps = measure_block(rig, kPerBlock);
    }
    pairs->push_back({base_pps, on_pps, 1.0 - on_pps / base_pps});
  }
  off();
}

struct Overhead {
  double median = 0.0;
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t kept = 0;
};

// Median and quartiles of the overhead ratio over the clean-window pairs.
// A pair either of whose blocks ran far below the run's best for that
// side was hit by host throttling or a scheduler steal; such a pair's
// ratio is an outlier in whichever direction the steal landed. The filter
// must test BOTH sides: dropping only low-off-side pairs would remove the
// negative-ratio outliers (steal on the off block) while keeping the
// positive ones (steal on the on block), biasing the median upward. VM
// throttling is measurement noise, not system-under-test cost.
Overhead summarize(const std::vector<AbPair>& pairs) {
  double best_off = 0.0;
  double best_on = 0.0;
  for (const AbPair& p : pairs) {
    best_off = std::max(best_off, p.base_pps);
    best_on = std::max(best_on, p.on_pps);
  }
  std::vector<double> v;
  v.reserve(pairs.size());
  for (const AbPair& p : pairs) {
    if (p.base_pps >= 0.6 * best_off && p.on_pps >= 0.6 * best_on) {
      v.push_back(p.ratio);
    }
  }
  if (v.size() < pairs.size() / 2) {
    // Degenerate throttle profile: fall back to every pair rather than
    // gate on a handful of samples.
    v.clear();
    for (const AbPair& p : pairs) v.push_back(p.ratio);
  }
  Overhead out;
  out.kept = v.size();
  if (v.empty()) return out;
  std::sort(v.begin(), v.end());
  // Linear interpolation between order statistics; at 0.5 this is the
  // usual median (the mean of the middle two for an even count).
  const auto quantile = [&v](double q) {
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  };
  out.median = quantile(0.5);
  out.q1 = quantile(0.25);
  out.q3 = quantile(0.75);
  return out;
}

constexpr double kBudget = 0.05;

// Appends one budget's JSON block; returns false (and explains on stderr)
// when its median is over budget.
bool report(const char* name, const Overhead& o, const std::string& extra,
            std::string* json) {
  const bool within = o.median <= kBudget;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "  \"%s\": {\"median_pct\": %.2f, \"q1_pct\": %.2f, "
                "\"q3_pct\": %.2f, \"iqr_pct\": %.2f,\n"
                "    \"pairs_kept\": %zu, \"within_5pct\": %s%s}",
                name, 100.0 * o.median, 100.0 * o.q1, 100.0 * o.q3,
                100.0 * (o.q3 - o.q1), o.kept, within ? "true" : "false",
                extra.c_str());
  *json += buf;
  if (!within) {
    std::fprintf(stderr,
                 "FAIL: %s overhead median %.2f%% (IQR %.2f..%.2f%%) is over "
                 "the 5%% budget\n",
                 name, 100.0 * o.median, 100.0 * o.q1, 100.0 * o.q3);
  }
  return within;
}

int run() {
  E2eRig tel_rig;
  E2eRig spans_rig;
  E2eRig hook_rig;
  // The production always-on tracing configuration: every span event is
  // emitted into the armed flight-recorder ring (preallocated, no dump
  // dir -- recording only). The full-capture SpanSink is the offline
  // forensic mode -- attached only when a dump is wanted, like a trace
  // sink -- so it stays detached here, and metric recording stays gated
  // off (the telemetry rig prices that).
  telemetry::FlightRecorder flight;
  const auto arm_spans = [&] { telemetry::set_flight_recorder(&flight); };
  const auto disarm_spans = [] { telemetry::set_flight_recorder(nullptr); };
  faults::FaultInjector idle{faults::FaultPlan{}};
  const auto hook_on = [&] { hook_rig.net.set_transmit_hook(&idle); };
  const auto hook_off = [&] { hook_rig.net.set_transmit_hook(nullptr); };
  const auto recording_on = [] { telemetry::set_enabled(true); };
  const auto recording_off = [] { telemetry::set_enabled(false); };

  // Warm-up: populates the program caches, the frame pools, the event
  // queue capacity, and the per-FID counter memos, so the measured rounds
  // see the steady state.
  recording_on();
  tel_rig.pump(1000);
  recording_off();
  arm_spans();
  spans_rig.pump(1000);
  disarm_spans();
  hook_on();
  hook_rig.pump(1000);
  hook_off();
  const u64 warmup_span_events = flight.recorded();

  std::vector<AbPair> tel_pairs;
  std::vector<AbPair> spans_pairs;
  std::vector<AbPair> hook_pairs;
  for (u64 r = 0; r < kRounds; ++r) {
    paired_round(tel_rig, recording_off, recording_on, &tel_pairs);
    paired_round(spans_rig, disarm_spans, arm_spans, &spans_pairs);
    paired_round(hook_rig, hook_off, hook_on, &hook_pairs);
  }
  const u64 span_events = flight.recorded() - warmup_span_events;
  recording_on();

  char head[320];
  std::snprintf(head, sizeof(head),
                "{\n"
                "  \"benchmark\": \"datapath_overhead\",\n"
                "  \"cores\": %u,\n"
                "  \"workload\": {\"program\": \"cache_query\", "
                "\"frame_bytes\": %zu,\n"
                "    \"pairs_per_budget\": %llu, \"packets_per_block\": "
                "%llu},\n",
                std::thread::hardware_concurrency(), tel_rig.wire.size(),
                static_cast<unsigned long long>(kRounds * kAbBlocks),
                static_cast<unsigned long long>(kPerBlock));
  std::string json = head;
  bool ok = report("telemetry", summarize(tel_pairs), "", &json);
  json += ",\n";
  ok &= report("spans", summarize(spans_pairs),
               ", \"span_events\": " + std::to_string(span_events), &json);
  json += ",\n";
  ok &= report("idle_injector", summarize(hook_pairs), "", &json);
  json += "\n}\n";
  std::fputs(json.c_str(), stdout);
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace artmt

int main() { return artmt::run(); }
