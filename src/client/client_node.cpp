#include "client/client_node.hpp"

#include "common/logging.hpp"
#include "packet/program_view.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/span.hpp"

namespace artmt::client {

namespace {

// A service claimed the delivered frame: terminate its span (the delivery
// context set around on_frame carries the transmission's id).
void emit_recv(netsim::Node& node, i32 fid) {
  if (!telemetry::spans_active()) return;
  telemetry::span_emit_with([&](telemetry::SpanEvent& event) {
    event.ts = node.network().simulator().now();
    event.span = telemetry::current_span();
    event.fid = fid;
    event.phase = telemetry::SpanPhase::kRecv;
    event.node = static_cast<u16>(node.attach_index());
  });
}

// A capsule's code on the wire, EOF instruction included: a compiled
// program's wire code (which excludes it) or a Program.
std::size_t code_wire_size(std::span<const u8> wire_code) {
  return wire_code.size() + 2;
}
std::size_t code_wire_size(const active::Program& program) {
  return program.wire_size();
}
void put_code(SpanWriter& out, std::span<const u8> wire_code) {
  out.put_bytes(wire_code);
  out.put_u8(static_cast<u8>(active::Opcode::kEof));
  out.put_u8(0);
}
void put_code(SpanWriter& out, const active::Program& program) {
  program.serialize(out);
}

}  // namespace

ClientNode::ClientNode(std::string name, packet::MacAddr mac,
                       packet::MacAddr switch_mac, u32 logical_stages)
    : netsim::Node(std::move(name)),
      mac_(mac),
      switch_mac_(switch_mac),
      logical_stages_(logical_stages) {}

void ClientNode::register_service(std::shared_ptr<Service> service) {
  if (service == nullptr) throw UsageError("register_service: null service");
  service->attach(this, next_seq_++);
  services_.push_back(std::move(service));
}

void ClientNode::send_active(packet::ActivePacket pkt) {
  send_active_to(switch_mac_, std::move(pkt));
}

void ClientNode::send_active_to(packet::MacAddr dst,
                                packet::ActivePacket pkt) {
  pkt.ethernet.src = mac_;
  pkt.ethernet.dst = dst;
  // Pooled copy: the switch's in-place reply then recycles the very slab
  // this send warmed up.
  network().transmit(*this, active_uplink_,
                     network().pool().copy(pkt.serialize()));
}

template <typename Code>
void ClientNode::send_capsule(packet::MacAddr dst,
                              const packet::InitialHeader& initial,
                              const packet::ArgumentHeader& args,
                              const Code& code, std::span<const u8> payload) {
  packet::EthernetHeader ethernet;
  // Unaddressed capsules run on the switch that holds the FID's memory:
  // its steering entry, else switch_mac_ (the single-switch case).
  ethernet.dst = dst;
  if (ethernet.dst == 0) ethernet.dst = steering_of(initial.fid);
  if (ethernet.dst == 0) ethernet.dst = switch_mac_;
  ethernet.src = mac_;
  ethernet.ethertype = packet::kEtherTypeActive;
  netsim::Frame frame = network().pool().acquire(
      packet::EthernetHeader::kWireSize + packet::InitialHeader::kWireSize +
      packet::ArgumentHeader::kWireSize + code_wire_size(code) +
      payload.size());
  SpanWriter out(frame.span());
  ethernet.serialize(out);
  initial.serialize(out);
  args.serialize(out);
  put_code(out, code);
  out.put_bytes(payload);
  network().transmit(*this, active_uplink_, std::move(frame));
}

template void ClientNode::send_capsule(packet::MacAddr,
                                       const packet::InitialHeader&,
                                       const packet::ArgumentHeader&,
                                       const std::span<const u8>&,
                                       std::span<const u8>);
template void ClientNode::send_capsule(packet::MacAddr,
                                       const packet::InitialHeader&,
                                       const packet::ArgumentHeader&,
                                       const active::Program&,
                                       std::span<const u8>);

packet::MacAddr ClientNode::steering_of(Fid fid) const {
  const auto it = steering_.find(fid);
  return it == steering_.end() ? 0 : it->second;
}

void ClientNode::enable_uplink_probe(const UplinkProbeConfig& config) {
  if (config.primary_mac == 0 || config.backup_mac == 0)
    throw UsageError("enable_uplink_probe: both leaf MACs required");
  if (config.interval == 0 || config.miss_threshold == 0 ||
      config.until == 0)
    throw UsageError("enable_uplink_probe: zero interval/threshold/until");
  probe_ = config;
  probing_ = true;
}

void ClientNode::probe_tick() {
  if (!probing_) throw UsageError("probe_tick: probe not enabled");
  if (network().simulator().now() >= probe_.until) return;
  if (probe_outstanding_) {
    if (++probe_misses_ >= probe_.miss_threshold) {
      // The current leaf went quiet: swing to the other uplink. The next
      // frame out re-teaches the fabric (L2 learning) where we live now.
      active_uplink_ = active_uplink_ == 0 ? 1 : 0;
      ++failovers_;
      probe_misses_ = 0;
      log(LogLevel::kInfo, name(), ": uplink failover -> port ",
          active_uplink_);
    }
  } else {
    probe_misses_ = 0;
  }
  packet::ActivePacket probe = packet::ActivePacket::make_control(
      0, packet::ActiveType::kHealthProbe);
  probe.initial.seq = ++probe_seq_;
  probe_outstanding_ = true;
  const packet::MacAddr leaf =
      active_uplink_ == 0 ? probe_.primary_mac : probe_.backup_mac;
  send_active_to(leaf, std::move(probe));
  network().simulator().schedule_after(probe_.interval,
                                       [this] { probe_tick(); });
}

Service* ClientNode::service_of(Fid fid) const {
  if (fid == 0) return nullptr;
  for (const auto& service : services_) {
    if (service->fid() == fid &&
        service->state() != Service::State::kReleased) {
      return service.get();
    }
  }
  return nullptr;
}

void ClientNode::on_frame(netsim::Frame frame, u32 port) {
  (void)port;
  switch (packet::classify(frame)) {
    case packet::FrameClass::kProgram: {
      std::optional<packet::ProgramView> view;
      try {
        view = packet::ProgramView::parse(frame, program_cache_);
      } catch (const ParseError&) {
        break;  // a malformed capsule is read as passive traffic
      }
      // An RTS'd or otherwise returned capsule of one of our services.
      if (Service* service = service_of(view->initial.fid)) {
        emit_recv(*this, view->initial.fid);
        service->on_returned(view->arguments, view->payload(frame));
      } else if (on_unclaimed) {
        packet::ActivePacket pkt = packet::ActivePacket::parse(frame);
        on_unclaimed(pkt);
      } else {
        log(LogLevel::kDebug, name(), ": unclaimed active frame dropped");
      }
      return;
    }
    case packet::FrameClass::kControl:
      if (auto parsed = packet::try_parse(frame)) {
        on_control(*parsed);
        return;
      }
      break;
    case packet::FrameClass::kPassive:
      break;
  }
  if (on_passive) on_passive(frame);
}

void ClientNode::on_control(packet::ActivePacket& pkt) {
  // Uplink health acks are addressed to the client itself (FID 0), never
  // to a service.
  if (pkt.initial.type == packet::ActiveType::kHealthAck &&
      pkt.initial.fid == 0) {
    probe_outstanding_ = false;
    return;
  }

  // Fabric steering: a successful allocation response's source MAC names
  // the switch that owns the FID (single-switch responses carry src 0).
  if (pkt.initial.type == packet::ActiveType::kAllocResponse &&
      pkt.initial.fid != 0 && pkt.ethernet.src != 0 &&
      (pkt.initial.flags & packet::kFlagAllocFailed) == 0) {
    steering_[pkt.initial.fid] = pkt.ethernet.src;
  }

  // Negotiation responses match on seq; everything else matches on FID.
  // Seq matching covers any live service, not just negotiating ones: an
  // evacuation re-placement arrives as a response with a *new* FID, and
  // the requester's seq is the only stable handle back to the service.
  if (pkt.initial.type == packet::ActiveType::kAllocResponse) {
    const bool denial = (pkt.initial.flags & packet::kFlagAllocFailed) != 0;
    for (auto& service : services_) {
      // Denials only ever answer an in-flight negotiation; never let a
      // stray failure flag tear down an operational service.
      if (denial && service->state() != Service::State::kNegotiating)
        continue;
      if (service->state() != Service::State::kReleased &&
          service->seq_ == pkt.initial.seq) {
        emit_recv(*this, pkt.initial.fid);
        service->handle_active(pkt);
        return;
      }
    }
  }
  if (Service* service = service_of(pkt.initial.fid)) {
    emit_recv(*this, pkt.initial.fid);
    service->handle_active(pkt);
    return;
  }
  if (on_unclaimed) {
    on_unclaimed(pkt);
  } else {
    log(LogLevel::kDebug, name(), ": unclaimed active frame dropped");
  }
}

}  // namespace artmt::client
