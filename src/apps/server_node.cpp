#include "apps/server_node.hpp"

#include <bit>

#include "common/error.hpp"
#include "common/logging.hpp"
#include "packet/program_view.hpp"

namespace artmt::apps {

ServerNode::ServerNode(std::string name, packet::MacAddr mac)
    : netsim::Node(std::move(name)), mac_(mac) {}

std::size_t ServerNode::find(u64 key) const {
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift_;
  while (slots_[i].key() != key && slots_[i].key() != 0) i = (i + 1) & mask;
  return i;
}

void ServerNode::grow() {
  std::vector<Slot> old(2 * slots_.size());
  old.swap(slots_);
  shift_ = 64 - static_cast<u32>(std::countr_zero(slots_.size()));
  for (const Slot& slot : old) {
    if (slot.key() != 0) slots_[find(slot.key())] = slot;
  }
}

void ServerNode::put(u64 key, u32 value) {
  if (key == 0) {
    zero_value_ = value;
    return;
  }
  std::size_t i = find(key);
  if (slots_[i].key() == 0) {
    if (4 * (used_ + 1) > 3 * slots_.size()) {
      grow();
      i = find(key);
    }
    ++used_;
    slots_[i].key_hi = static_cast<u32>(key >> 32);
    slots_[i].key_lo = static_cast<u32>(key);
  }
  slots_[i].value = value;
}

std::optional<u32> ServerNode::get(u64 key) const {
  if (key == 0) return zero_value_;
  const Slot& slot = slots_[find(key)];
  return slot.key() == 0 ? std::nullopt : std::optional<u32>(slot.value);
}

void ServerNode::reply(packet::MacAddr dst, const KvMessage& msg) {
  // Replies are passive frames; the switch forwards them by L2 address.
  // Serialized straight into a pool buffer: the reply path allocates
  // nothing once the pool is warm.
  netsim::Frame frame = network().pool().acquire(
      packet::EthernetHeader::kWireSize + KvMessage::kWireSize);
  SpanWriter out(frame.span());
  packet::EthernetHeader eth;
  eth.src = mac_;
  eth.dst = dst;
  eth.ethertype = packet::kEtherTypeIpv4;
  eth.serialize(out);
  msg.serialize_into(out);
  network().transmit(*this, 0, std::move(frame));
}

void ServerNode::on_frame(netsim::Frame frame, u32 port) {
  (void)port;
  switch (packet::classify(frame)) {
    case packet::FrameClass::kProgram: {
      std::optional<packet::ProgramView> view;
      try {
        view = packet::ProgramView::parse(frame, program_cache_);
      } catch (const ParseError&) {
        break;  // a malformed capsule is read as passive traffic
      }
      serve(view->ethernet.src, view->payload(frame), view->arguments.args[3]);
      return;
    }
    case packet::FrameClass::kControl:
      if (const auto parsed = packet::try_parse(frame)) {
        std::optional<Word> cookie;
        if (parsed->arguments) cookie = parsed->arguments->args[3];
        serve(parsed->ethernet.src, parsed->payload, cookie);
        return;
      }
      break;
    case packet::FrameClass::kPassive:
      break;
  }
  // Passive request: payload follows the Ethernet header directly.
  if (frame.size() <= packet::EthernetHeader::kWireSize) {
    ++stats_.ignored;
    return;
  }
  ByteReader in(frame);
  const packet::MacAddr requester = packet::EthernetHeader::parse(in).src;
  serve(requester,
        std::span<const u8>(frame).subspan(packet::EthernetHeader::kWireSize),
        std::nullopt);
}

void ServerNode::serve(packet::MacAddr requester, std::span<const u8> payload,
                       std::optional<Word> cookie) {
  const auto msg = KvMessage::parse(payload);
  if (!msg) {
    ++stats_.ignored;
    return;
  }
  switch (msg->type) {
    case KvMessage::Type::kGet: {
      ++stats_.gets_served;
      KvMessage response = *msg;
      response.type = KvMessage::Type::kReply;
      if (const auto value = get(msg->key)) response.value = *value;
      reply(requester, response);
      return;
    }
    case KvMessage::Type::kLbSyn: {
      ++stats_.syns_answered;
      KvMessage response = *msg;
      response.type = KvMessage::Type::kLbCookie;
      // The cookie was stamped into args[3] by the select program.
      if (cookie) response.value = *cookie;
      reply(requester, response);
      return;
    }
    case KvMessage::Type::kLbData:
      ++stats_.data_packets;
      return;
    default:
      ++stats_.ignored;
      return;
  }
}

}  // namespace artmt::apps
