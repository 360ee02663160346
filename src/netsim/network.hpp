// Frame-level network model: nodes with numbered ports joined by
// point-to-point links with latency and line rate. Frames are pooled,
// ref-counted FrameBuf buffers (see common/frame_buf.hpp); the packet
// library defines their contents.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/frame_buf.hpp"
#include "common/types.hpp"
#include "netsim/simulator.hpp"

namespace artmt::netsim {

using Frame = FrameBuf;

class Network;

// Characteristics of one direction of a link.
struct LinkSpec {
  SimTime latency = 1 * kMicrosecond;  // propagation delay
  double gbps = 40.0;                  // line rate (paper testbed: 40 Gbps)
};

// A device attached to the network. Subclasses implement frame handling;
// the switch, clients, and servers are all Nodes.
class Node {
 public:
  explicit Node(std::string name) : name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  // Invoked by the network when a frame arrives on `port`. The node owns
  // the buffer; dropping it recycles the slab into the network's pool.
  virtual void on_frame(Frame frame, u32 port) = 0;

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] Network& network() const {
    if (network_ == nullptr) throw UsageError("Node is not attached");
    return *network_;
  }

  // Attach order (stable across runs); with the per-node transmit
  // sequence it identifies every frame the node has ever sent, which is
  // what fault injection keys its deterministic decisions on.
  [[nodiscard]] u32 attach_index() const { return attach_index_; }

 private:
  friend class Network;
  std::string name_;
  Network* network_ = nullptr;
  u32 attach_index_ = 0;  // attach order; delivery tie-break
  u64 tx_seq_ = 0;        // per-node transmit sequence (delivery tie-break)
  // One direction of a link: where frames sent out of a port arrive.
  struct Egress {
    Node* peer = nullptr;  // nullptr: the port is not connected
    u32 peer_port = 0;
    LinkSpec spec;
  };
  // Indexed by port and filled by Network::connect, so a transmit
  // resolves its link with one bounds-checked index.
  std::vector<Egress> egress_;
};

// Consulted on every transmit after egress resolution (see
// Network::set_transmit_hook). The hook may drop the frame, mutate its
// bytes in place, duplicate it, or delay it -- the fault-injection layer
// (src/faults) implements this. Contract: the verdict must be a pure
// function of the arguments plus the hook's immutable configuration, so
// that two runs of the same scenario draw the same faults; the hook may
// keep its own counters.
class TransmitHook {
 public:
  virtual ~TransmitHook() = default;

  struct Verdict {
    bool drop = false;        // lose the frame (not counted in
                              // Network::frames_dropped(); the hook keeps
                              // its own books)
    u32 copies = 1;           // > 1 duplicates the frame
    SimTime extra_delay = 0;  // added to the first copy's arrival
    SimTime dup_delay = 0;    // added to every extra copy's arrival
  };

  // `tx_seq` is `from`'s per-node transmit sequence for this frame; with
  // from.attach_index() it uniquely identifies the transmission. `frame`
  // may be mutated (corruption); use `pool` to take a deep copy first if
  // the buffer is shared.
  virtual Verdict on_transmit(const Node& from, const Node& to, SimTime now,
                              u64 tx_seq, Frame& frame, FramePool& pool) = 0;
};

// Owns nodes and links; routes frames between node ports over the virtual
// clock, modelling serialization + propagation delay per frame. Every
// delivery is scheduled on the one Simulator with its canonical
// (arrival, send time, sender attach index, tx sequence) key.
class Network {
 public:
  explicit Network(Simulator& sim) : sim_(&sim) {}

  // Attaches a node; the network keeps a non-owning pointer (caller keeps
  // the node alive for the network's lifetime, enforced by shared_ptr).
  void attach(std::shared_ptr<Node> node);

  // Connects node_a's port_a to node_b's port_b bidirectionally; throws
  // UsageError when either port is already connected. A node's ports
  // index a dense table, so number them from 0.
  void connect(Node& node_a, u32 port_a, Node& node_b, u32 port_b,
               const LinkSpec& spec = {});

  // Transmits a frame out of (node, port); it arrives at the peer after
  // serialization + propagation delay. Silently drops if the port is not
  // connected (an unplugged cable, not an error) — counted in
  // frames_dropped().
  void transmit(Node& from, u32 port, Frame frame);

  // The simulator every node schedules on.
  [[nodiscard]] Simulator& simulator() const { return *sim_; }
  // Buffer arena for the datapath; nodes acquire reply/ingress buffers
  // here so slabs recirculate instead of hitting the heap.
  [[nodiscard]] FramePool& pool() { return pool_; }
  [[nodiscard]] u64 frames_delivered() const { return frames_delivered_; }
  [[nodiscard]] u64 bytes_delivered() const { return bytes_delivered_; }
  [[nodiscard]] u64 frames_dropped() const { return frames_dropped_; }

  // Adds the delivery/drop counts to `metrics` under component "netsim";
  // call once per snapshot.
  void export_metrics(telemetry::MetricsRegistry& metrics) const;

  // Installs (or with nullptr removes) the transmit hook. Install before
  // frames flow; the pointer is read on every transmit.
  void set_transmit_hook(TransmitHook* hook) { hook_ = hook; }

 private:
  // Schedules one copy of a frame for delivery.
  void dispatch(Node& to, u32 to_port, Node& from, u64 tx_seq, SimTime send,
                SimTime arrival, Frame frame);

  Simulator* sim_ = nullptr;
  TransmitHook* hook_ = nullptr;
  FramePool pool_;
  std::vector<std::shared_ptr<Node>> nodes_;
  u64 frames_delivered_ = 0;
  u64 bytes_delivered_ = 0;
  u64 frames_dropped_ = 0;
};

}  // namespace artmt::netsim
