#include "netsim/network.hpp"

#include <utility>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace artmt::netsim {

void Network::export_metrics(telemetry::MetricsRegistry& metrics) const {
  metrics.counter("netsim", "frames_delivered").merge_add(frames_delivered_);
  metrics.counter("netsim", "bytes_delivered").merge_add(bytes_delivered_);
  metrics.counter("netsim", "frames_dropped").merge_add(frames_dropped_);
}

void Network::attach(std::shared_ptr<Node> node) {
  if (node == nullptr) throw UsageError("Network::attach: null node");
  if (node->network_ != nullptr) {
    throw UsageError("Network::attach: node already attached");
  }
  node->network_ = this;
  node->attach_index_ = static_cast<u32>(nodes_.size());
  nodes_.push_back(std::move(node));
}

void Network::connect(Node& node_a, u32 port_a, Node& node_b, u32 port_b,
                      const LinkSpec& spec) {
  const auto connected = [](const Node& node, u32 port) {
    return port < node.egress_.size() && node.egress_[port].peer != nullptr;
  };
  if (connected(node_a, port_a) || connected(node_b, port_b)) {
    throw UsageError("Network::connect: port already connected");
  }
  const auto plug = [&spec](Node& node, u32 port, Node& peer, u32 peer_port) {
    if (port >= node.egress_.size()) node.egress_.resize(std::size_t{port} + 1);
    node.egress_[port] = {&peer, peer_port, spec};
  };
  plug(node_a, port_a, node_b, port_b);
  plug(node_b, port_b, node_a, port_a);
}

void Network::dispatch(Node& to, u32 to_port, Node& from, u64 tx_seq,
                       SimTime send, SimTime arrival, Frame frame) {
  sim_->schedule_delivery(
      arrival, send, from.attach_index_, tx_seq,
      [this, to = &to, to_port,
       span = telemetry::span_id(from.attach_index_, tx_seq),
       f = std::move(frame)]() mutable {
        // Delivery runs under the transmission's span, so anything the
        // handler sends is causally parented to this frame.
        telemetry::SpanScope scope(span);
        ++frames_delivered_;
        bytes_delivered_ += f.size();
        to->on_frame(std::move(f), to_port);
      });
}

void Network::transmit(Node& from, u32 port, Frame frame) {
  if (port >= from.egress_.size() || from.egress_[port].peer == nullptr) {
    ++frames_dropped_;  // unplugged port: the frame is lost
    return;
  }
  const Node::Egress out = from.egress_[port];
  // Consumed unconditionally, hook or not: the pair (attach_index,
  // tx_seq) names this transmission from simulation state alone, which is
  // what keeps injected faults identical across runs.
  const u64 tx_seq = from.tx_seq_++;
  const SimTime send = sim_->now();

  // Span ids reuse the fault injector's (attach_index, tx_seq) key, so
  // they are byte-identical across runs. Noted before the hook runs: a
  // dropped send still names a span, which is what lets the reliability
  // layer chain retransmits of lost frames.
  const bool spans = telemetry::spans_active();
  u64 span = 0;
  if (spans) {
    span = telemetry::span_id(from.attach_index_, tx_seq);
    telemetry::note_tx_span(span);
  }

  TransmitHook::Verdict verdict;
  if (hook_ != nullptr) {
    verdict = hook_->on_transmit(from, *out.peer, send, tx_seq, frame, pool());
    if (verdict.drop || verdict.copies == 0) {
      if (spans) {
        telemetry::span_emit_with([&](telemetry::SpanEvent& event) {
          event.ts = send;
          event.span = span;
          event.parent = telemetry::current_span();
          event.phase = telemetry::SpanPhase::kDrop;
          event.node = static_cast<u16>(from.attach_index_);
          event.b = frame.size();
        });
      }
      return;
    }
  }

  // Serialization delay: bytes * 8 / rate. At 40 Gbps a 256-byte frame
  // serializes in ~51 ns.
  const double bits = static_cast<double>(frame.size()) * 8.0;
  const auto serialize =
      static_cast<SimTime>(bits / out.spec.gbps);  // Gbps -> bits/ns
  const SimTime nominal = send + serialize + out.spec.latency;

  const auto emit_send = [&](u64 send_span, u64 parent, SimTime arrival,
                             std::size_t bytes) {
    telemetry::span_emit_with([&](telemetry::SpanEvent& event) {
      event.ts = send;
      event.span = send_span;
      event.parent = parent;
      event.phase = telemetry::SpanPhase::kSend;
      event.node = static_cast<u16>(from.attach_index_);
      event.a = static_cast<u64>(arrival);
      event.b = bytes;
    });
  };

  if (verdict.copies > 1) {
    // Injected duplicates: independent deep copies on the same link, each
    // consuming its own tx sequence slot (cloned before the original is
    // moved out, dispatched after it so same-arrival duplicates trail the
    // original).
    std::vector<Frame> dups;
    dups.reserve(verdict.copies - 1);
    for (u32 i = 1; i < verdict.copies; ++i) dups.push_back(pool().clone(frame));
    const SimTime arrival = nominal + verdict.extra_delay;
    if (spans) emit_send(span, telemetry::current_span(), arrival, frame.size());
    dispatch(*out.peer, out.peer_port, from, tx_seq, send, arrival,
             std::move(frame));
    for (auto& dup : dups) {
      const u64 dup_seq = from.tx_seq_++;
      const SimTime dup_arrival = nominal + verdict.dup_delay;
      if (spans) {
        // A duplicate is its own transmission, causally a child of the
        // original send.
        emit_send(telemetry::span_id(from.attach_index_, dup_seq), span,
                  dup_arrival, dup.size());
      }
      dispatch(*out.peer, out.peer_port, from, dup_seq, send, dup_arrival,
               std::move(dup));
    }
    return;
  }
  const SimTime arrival = nominal + verdict.extra_delay;
  if (spans) emit_send(span, telemetry::current_span(), arrival, frame.size());
  dispatch(*out.peer, out.peer_port, from, tx_seq, send, arrival,
             std::move(frame));
}

}  // namespace artmt::netsim
