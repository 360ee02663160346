// Client-side service state machine (Section 5's shim layer): a Service
// owns one switch allocation (one FID), negotiates it, synthesizes program
// mutants on allocation responses, pauses transmissions while negotiating
// or responding to a memory reallocation, and exposes hooks for concrete
// services (cache, heavy hitter, load balancer) to act on state changes.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "client/compiler.hpp"
#include "client/reliability.hpp"
#include "packet/active_packet.hpp"

namespace artmt::client {

class ClientNode;

class Service {
 public:
  // Mirrors the paper's operational / negotiating / memory-management
  // states, plus terminal states.
  enum class State {
    kIdle,
    kNegotiating,
    kOperational,
    kMemoryManagement,  // yielded; extracting before the switch re-layouts
    kDenied,
    kReleased,
  };

  Service(std::string name, ServiceSpec spec);
  virtual ~Service() = default;

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  // --- control operations ---
  void request_allocation();
  void release();

  // --- state / introspection ---
  [[nodiscard]] State state() const { return state_; }
  [[nodiscard]] Fid fid() const { return fid_; }
  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] const ServiceSpec& spec() const { return spec_; }
  [[nodiscard]] const SynthesizedProgram* synthesized() const {
    return synthesized_ ? &*synthesized_ : nullptr;
  }
  [[nodiscard]] const packet::AllocResponseHeader* regions() const {
    return regions_ ? &*regions_ : nullptr;
  }
  [[nodiscard]] const alloc::Mutant* mutant() const {
    return mutant_ ? &*mutant_ : nullptr;
  }
  [[nodiscard]] bool operational() const {
    return state_ == State::kOperational;
  }

  // Retransmits the handshake's kExtractComplete until the switch's new
  // AllocResponse lands (the data plane may lose either side; the control
  // packets are idempotent). Exposed so tools can export its stats and
  // tests can tighten the schedule.
  [[nodiscard]] ReliabilityTracker& handshake_reliability() {
    return handshake_retry_;
  }

  // Sends a program capsule under this service's FID, written straight
  // into one pool frame (headers, code, payload). `management` marks
  // memory-sync traffic that must run while the FID is deactivated. `dst`
  // is the packet's L2 destination (0 = the switch that owns the FID;
  // capsules riding on application traffic name the server).
  void send_program(const active::Program& program,
                    const packet::ArgumentHeader& args,
                    std::vector<u8> payload = {}, bool management = false,
                    packet::MacAddr dst = 0);

  // The per-packet path: copies the synthesized program's compiled wire
  // code instead of encoding its instructions.
  void send_program(const SynthesizedProgram& synth,
                    const packet::ArgumentHeader& args,
                    std::vector<u8> payload = {}, bool management = false,
                    packet::MacAddr dst = 0);

  // Control-frame dispatch (called by ClientNode).
  void handle_active(packet::ActivePacket& pkt);

 protected:
  // --- hooks for concrete services ---
  // The request sent at negotiation; services with several programs
  // sharing one allocation override this with compose_request().
  [[nodiscard]] virtual alloc::AllocationRequest allocation_request() const {
    return build_request(spec_);
  }
  virtual void on_operational() {}
  // The switch needs this service's memory: extract what matters, then
  // call extraction_done(). Default: yield immediately.
  virtual void on_realloc_notice() { extraction_done(); }
  // The switch applied a new layout for this service (synthesized() and
  // regions() already reflect it): repopulate as needed.
  virtual void on_moved() {}
  // An RTS'd or otherwise returned program capsule: its argument header
  // and its payload, read in place from the frame.
  virtual void on_returned(const packet::ArgumentHeader& args,
                           std::span<const u8> payload) {
    (void)args;
    (void)payload;
  }

  // Reports extraction complete to the switch (ends kMemoryManagement).
  void extraction_done();

  [[nodiscard]] ClientNode& node() const;

 private:
  friend class ClientNode;
  void attach(ClientNode* node, u32 seq) {
    node_ = node;
    seq_ = seq;
  }
  void accept_allocation(const packet::ActivePacket& pkt);
  // A program capsule's initial header under this service's FID; throws
  // UsageError before the first allocation.
  [[nodiscard]] packet::InitialHeader capsule_header(bool preload_mar,
                                                     bool preload_mbr,
                                                     bool management) const;

  // The handshake tracker carries exactly one entry.
  static constexpr u32 kHandshakeId = 0;

  std::string name_;
  ServiceSpec spec_;
  ReliabilityTracker handshake_retry_;
  ClientNode* node_ = nullptr;
  u32 seq_ = 0;  // correlates the allocation request with its response
  State state_ = State::kIdle;
  Fid fid_ = 0;
  std::optional<alloc::Mutant> mutant_;
  std::optional<packet::AllocResponseHeader> regions_;
  std::optional<SynthesizedProgram> synthesized_;
};

}  // namespace artmt::client
