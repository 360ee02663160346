#include "client/service.hpp"

#include "client/client_node.hpp"
#include "common/error.hpp"
#include "common/logging.hpp"
#include "proto/wire.hpp"

namespace artmt::client {

namespace {

// The ExtractComplete resend schedule: a handful of quick retries inside
// the switch's extraction timeout window (CostModel::extraction_timeout,
// 1 s by default; testbeds shrink it), then the switch's own deadline
// takes over via force_finalize.
ReliabilityTracker::Options handshake_options() {
  ReliabilityTracker::Options opts;
  opts.rto = 20 * kMillisecond;
  opts.max_rto = 160 * kMillisecond;
  opts.retry_budget = 8;
  return opts;
}

}  // namespace

Service::Service(std::string name, ServiceSpec spec)
    : name_(std::move(name)),
      spec_(std::move(spec)),
      handshake_retry_(
          "handshake", [this]() -> netsim::Simulator& { return node().sim(); },
          handshake_options()) {}

ClientNode& Service::node() const {
  if (node_ == nullptr) throw UsageError("Service not attached to a client");
  return *node_;
}

void Service::request_allocation() {
  if (state_ != State::kIdle && state_ != State::kDenied) {
    throw UsageError("Service::request_allocation: not idle");
  }
  state_ = State::kNegotiating;
  node().send_active(proto::encode_request(allocation_request(), seq_));
  log(LogLevel::kInfo, "service ", name_, ": allocation requested");
}

void Service::release() {
  if (state_ != State::kOperational && state_ != State::kMemoryManagement) {
    throw UsageError("Service::release: not operational");
  }
  node().send_active(
      packet::ActivePacket::make_control(fid_, packet::ActiveType::kDealloc));
  log(LogLevel::kInfo, "service ", name_, ": release requested");
}

void Service::send_program(const active::Program& program,
                          const packet::ArgumentHeader& args,
                          std::vector<u8> payload, bool management,
                          packet::MacAddr dst) {
  node().send_capsule(dst,
                      capsule_header(program.preload_mar, program.preload_mbr,
                                     management),
                      args, program, payload);
}

void Service::send_program(const SynthesizedProgram& synth,
                          const packet::ArgumentHeader& args,
                          std::vector<u8> payload, bool management,
                          packet::MacAddr dst) {
  if (!synth.compiled) {
    send_program(synth.program, args, std::move(payload), management, dst);
    return;
  }
  const active::CompiledProgram& compiled = *synth.compiled;
  node().send_capsule(dst,
                      capsule_header(compiled.preload_mar(),
                                     compiled.preload_mbr(), management),
                      args, std::span<const u8>(compiled.wire_code()),
                      payload);
}

packet::InitialHeader Service::capsule_header(bool preload_mar,
                                              bool preload_mbr,
                                              bool management) const {
  if (fid_ == 0) throw UsageError("Service::send_program: no allocation");
  packet::InitialHeader initial;
  initial.fid = fid_;
  initial.type = packet::ActiveType::kProgram;
  if (preload_mar) initial.flags |= packet::kFlagPreloadMar;
  if (preload_mbr) initial.flags |= packet::kFlagPreloadMbr;
  if (management) initial.flags |= packet::kFlagManagement;
  return initial;
}

void Service::extraction_done() {
  if (state_ != State::kMemoryManagement) {
    throw UsageError("Service::extraction_done: not in memory management");
  }
  node().send_active(packet::ActivePacket::make_control(
      fid_, packet::ActiveType::kExtractComplete));
  // The implicit ack is the switch's new AllocResponse; until it arrives
  // (still kMemoryManagement) the control packet is resent -- it is
  // idempotent on the switch, so a lost ExtractComplete no longer stalls
  // the admission until the extraction timeout.
  handshake_retry_.track(kHandshakeId, [this](u32, u32) {
    if (state_ != State::kMemoryManagement) return;
    node().send_active(packet::ActivePacket::make_control(
        fid_, packet::ActiveType::kExtractComplete));
  });
}

void Service::accept_allocation(const packet::ActivePacket& pkt) {
  fid_ = pkt.initial.fid;
  mutant_ = proto::decode_mutant(pkt);
  regions_ = *pkt.response;
  synthesized_ =
      synthesize(spec_, *mutant_, *regions_, node().logical_stages());
  state_ = State::kOperational;
}

void Service::handle_active(packet::ActivePacket& pkt) {
  switch (pkt.initial.type) {
    case packet::ActiveType::kAllocResponse: {
      handshake_retry_.ack(kHandshakeId);  // no-op outside the handshake
      if ((pkt.initial.flags & packet::kFlagAllocFailed) != 0) {
        state_ = State::kDenied;
        log(LogLevel::kWarn, "service ", name_, ": allocation denied");
        return;
      }
      const bool first = state_ == State::kNegotiating;
      accept_allocation(pkt);
      if (first) {
        log(LogLevel::kInfo, "service ", name_, ": operational, fid=", fid_);
        on_operational();
      } else {
        log(LogLevel::kInfo, "service ", name_, ": allocation moved");
        on_moved();
      }
      return;
    }
    case packet::ActiveType::kReallocNotice:
      state_ = State::kMemoryManagement;
      handshake_retry_.cancel(kHandshakeId);  // fresh handshake
      log(LogLevel::kInfo, "service ", name_, ": realloc notice");
      on_realloc_notice();
      return;
    case packet::ActiveType::kDeallocAck:
      handshake_retry_.cancel(kHandshakeId);
      state_ = State::kReleased;
      log(LogLevel::kInfo, "service ", name_, ": released");
      return;
    default:
      return;
  }
}

}  // namespace artmt::client
