#include "packet/active_packet.hpp"

#include "common/error.hpp"

namespace artmt::packet {

namespace {

template <typename Writer>
void put_initial(Writer& out, const InitialHeader& header) {
  out.put_u16(header.fid);
  out.put_u8(static_cast<u8>(header.type));
  out.put_u8(header.flags);
  out.put_u32(header.seq);
  out.put_u16(0);  // reserved
}

template <typename Writer>
void put_arguments(Writer& out, const ArgumentHeader& header) {
  for (Word arg : header.args) out.put_u32(arg);
}

}  // namespace

void InitialHeader::serialize(ByteWriter& out) const {
  put_initial(out, *this);
}

void InitialHeader::serialize(SpanWriter& out) const {
  put_initial(out, *this);
}

InitialHeader InitialHeader::parse(ByteReader& in) {
  InitialHeader header;
  header.fid = in.get_u16();
  const u8 type = in.get_u8();
  if (type > static_cast<u8>(kLastActiveType)) {
    throw ParseError("InitialHeader: unknown active packet type " +
                     std::to_string(type));
  }
  header.type = static_cast<ActiveType>(type);
  header.flags = in.get_u8();
  header.seq = in.get_u32();
  in.skip(2);  // reserved
  return header;
}

void ArgumentHeader::serialize(ByteWriter& out) const {
  put_arguments(out, *this);
}

void ArgumentHeader::serialize(SpanWriter& out) const {
  put_arguments(out, *this);
}

ArgumentHeader ArgumentHeader::parse(ByteReader& in) {
  ArgumentHeader header;
  for (Word& arg : header.args) arg = in.get_u32();
  return header;
}

u32 AllocRequestHeader::access_count() const {
  u32 count = 0;
  for (const auto& slot : slots) {
    if (slot.valid()) ++count;
  }
  return count;
}

void AllocRequestHeader::serialize(ByteWriter& out) const {
  for (const auto& slot : slots) {
    out.put_u8(slot.position);
    out.put_u8(slot.demand_blocks);
    out.put_u8(slot.flags);
  }
}

AllocRequestHeader AllocRequestHeader::parse(ByteReader& in) {
  AllocRequestHeader header;
  for (auto& slot : header.slots) {
    slot.position = in.get_u8();
    slot.demand_blocks = in.get_u8();
    slot.flags = in.get_u8();
  }
  return header;
}

void AllocResponseHeader::serialize(ByteWriter& out) const {
  for (const auto& region : regions) {
    out.put_u32(region.start_word);
    out.put_u32(region.limit_word);
  }
}

AllocResponseHeader AllocResponseHeader::parse(ByteReader& in) {
  AllocResponseHeader header;
  for (auto& region : header.regions) {
    region.start_word = in.get_u32();
    region.limit_word = in.get_u32();
  }
  return header;
}

std::vector<u8> ActivePacket::serialize() const {
  ByteWriter out(256);
  EthernetHeader eth = ethernet;
  eth.ethertype = kEtherTypeActive;
  eth.serialize(out);
  initial.serialize(out);
  switch (initial.type) {
    case ActiveType::kProgram:
      if (!arguments || !program) {
        throw UsageError("ActivePacket: program packets need args + code");
      }
      arguments->serialize(out);
      program->serialize(out);
      break;
    case ActiveType::kAllocRequest:
      if (!arguments || !request) {
        throw UsageError("ActivePacket: request packets need args + slots");
      }
      arguments->serialize(out);
      request->serialize(out);
      break;
    case ActiveType::kAllocResponse:
      if (!response) {
        throw UsageError("ActivePacket: response packets need regions");
      }
      response->serialize(out);
      break;
    default:
      break;  // control-only packets carry just the initial header
  }
  out.put_bytes(payload);
  return out.take();
}

ActivePacket ActivePacket::parse(std::span<const u8> frame) {
  ByteReader in(frame);
  ActivePacket pkt;
  pkt.ethernet = EthernetHeader::parse(in);
  if (pkt.ethernet.ethertype != kEtherTypeActive) {
    throw ParseError("ActivePacket: not an active frame");
  }
  pkt.initial = InitialHeader::parse(in);
  switch (pkt.initial.type) {
    case ActiveType::kProgram: {
      pkt.arguments = ArgumentHeader::parse(in);
      active::Program program = active::Program::parse(in);
      program.preload_mar = (pkt.initial.flags & kFlagPreloadMar) != 0;
      program.preload_mbr = (pkt.initial.flags & kFlagPreloadMbr) != 0;
      pkt.program = std::move(program);
      break;
    }
    case ActiveType::kAllocRequest:
      pkt.arguments = ArgumentHeader::parse(in);
      pkt.request = AllocRequestHeader::parse(in);
      break;
    case ActiveType::kAllocResponse:
      pkt.response = AllocResponseHeader::parse(in);
      break;
    default:
      break;
  }
  const auto rest = in.get_bytes(in.remaining());
  pkt.payload.assign(rest.begin(), rest.end());
  return pkt;
}

ActivePacket ActivePacket::make_program(Fid fid, const ArgumentHeader& args,
                                        const active::Program& program) {
  ActivePacket pkt;
  pkt.initial.fid = fid;
  pkt.initial.type = ActiveType::kProgram;
  if (program.preload_mar) pkt.initial.flags |= kFlagPreloadMar;
  if (program.preload_mbr) pkt.initial.flags |= kFlagPreloadMbr;
  pkt.arguments = args;
  pkt.program = program;
  return pkt;
}

ActivePacket ActivePacket::make_control(Fid fid, ActiveType type) {
  ActivePacket pkt;
  pkt.initial.fid = fid;
  pkt.initial.type = type;
  return pkt;
}

FrameClass classify(std::span<const u8> frame) {
  // Ethertype at offset 12, initial-header type byte at offset 16
  // (dst 6 + src 6 + ethertype 2 + fid 2).
  if (frame.size() < EthernetHeader::kWireSize + InitialHeader::kWireSize) {
    return FrameClass::kPassive;
  }
  const u16 ethertype = static_cast<u16>(frame[12]) << 8 | frame[13];
  if (ethertype != kEtherTypeActive) return FrameClass::kPassive;
  const u8 type = frame[16];
  if (type == static_cast<u8>(ActiveType::kProgram)) {
    return FrameClass::kProgram;
  }
  return type <= static_cast<u8>(kLastActiveType) ? FrameClass::kControl
                                                  : FrameClass::kPassive;
}

std::optional<ActivePacket> try_parse(std::span<const u8> frame) {
  if (classify(frame) == FrameClass::kPassive) return std::nullopt;
  try {
    return ActivePacket::parse(frame);
  } catch (const ParseError&) {
    return std::nullopt;
  }
}

}  // namespace artmt::packet
