// The traced run's instruments, all outside the simulator:
//
//  * TransmitRecorder -- a netsim::TransmitHook (wrapping the workload's
//    own hook, if any) that counts every transmit, samples the program
//    frames delivered to switches and the transmits themselves, records
//    every allocation request and departure a switch receives, and times
//    the switch-side reallocation handshakes.
//  * analyze() -- replays each layer alone on those recorded inputs and
//    turns per-operation costs times live operation counts into each
//    layer's share of the traced wall time.
#pragma once

#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "alloc/request.hpp"
#include "netsim/network.hpp"
#include "scenario.hpp"

namespace perfbench {

struct RecordedFrame {
  std::vector<u8> bytes;
  const artmt::netsim::Node* from = nullptr;
  const artmt::netsim::Node* to = nullptr;
  SimTime now = 0;
  u64 tx_seq = 0;
  u32 switch_index = 0;  // program frames: the switch receiving it
};

// An admission or departure as a switch's control plane received it.
struct ControlOp {
  u32 switch_index = 0;
  bool admit = false;
  artmt::alloc::AllocationRequest request;
  Fid fid = 0;  // departures
};

class TransmitRecorder final : public artmt::netsim::TransmitHook {
 public:
  // Keeps one program frame in `frame_stride` and one transmit in
  // `transmit_stride` while measuring.
  TransmitRecorder(Workload& workload, u64 frame_stride, u64 transmit_stride);

  Verdict on_transmit(const artmt::netsim::Node& from,
                      const artmt::netsim::Node& to, SimTime now, u64 tx_seq,
                      artmt::netsim::Frame& frame,
                      artmt::FramePool& pool) override;

  artmt::netsim::TransmitHook* inner = nullptr;  // the workload's own hook
  bool measuring = false;

  u64 measured_calls = 0;  // transmits during the measured phase
  u64 depth_sum = 0, depth_samples = 0, depth_max = 0;
  std::vector<RecordedFrame> program_frames;
  std::vector<RecordedFrame> transmits;
  std::vector<ControlOp> control;
  std::vector<artmt::alloc::AllocationRequest> client_requests;
  std::vector<double> handshake_ms;

 private:
  Workload* workload_;
  u64 frame_stride_;
  u64 transmit_stride_;
  u64 program_seen_ = 0;
  std::unordered_map<const artmt::netsim::Node*, u32> switch_index_;
  std::map<std::pair<u32, Fid>, SimTime> notice_at_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// Inputs measured outside the traced repetition.
struct TraceInputs {
  double wall_untraced_ns = 0.0;  // median untraced measured phase
  double wall_traced_ns = 0.0;    // the traced repetition's measured phase
  double record_share = 0.0;      // 1 - telemetry-off wall / telemetry-on
  PhaseCounters untraced;         // counters of an untraced repetition
};

// Replays every layer and returns the per-layer metrics (names as listed
// in BENCHMARK.json). `out` is the traced repetition's outcome.
std::vector<Metric> analyze(Workload& workload, TransmitRecorder& recorder,
                            const Outcome& out, const TraceInputs& in);

}  // namespace perfbench
