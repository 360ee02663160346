#include "proto/wire.hpp"

#include <cstring>

#include "common/error.hpp"

namespace artmt::proto {

using packet::ActivePacket;
using packet::ActiveType;

namespace {

// Fixed prefix of every executed-program reply: Ethernet + initial +
// argument headers.
constexpr std::size_t kExecutedHeaderBytes =
    packet::EthernetHeader::kWireSize + packet::InitialHeader::kWireSize +
    packet::ArgumentHeader::kWireSize;

// Instructions that survive the shrink decision.
u32 count_live(std::span<const active::CompiledInsn> code,
               const active::ExecCursor& cursor) {
  u32 live = 0;
  for (u32 i = 0; i < code.size(); ++i) {
    const bool done = code[i].wire_done || cursor.done(i);
    if (!(done && cursor.shrink)) ++live;
  }
  return live;
}

// The hottest serializer in the switch: raw big-endian stores into an
// exact-size destination (a growable writer's per-byte bookkeeping costs
// more than the frame itself at line rate). Writes Ethernet + initial +
// arguments + surviving instructions + EOF at `p`; returns the pointer
// past the EOF pair (where the payload belongs). Used for both the
// in-place and the fresh-buffer reply, so their wire bytes cannot
// diverge.
u8* write_executed(u8* p, const packet::EthernetHeader& ethernet,
                   const packet::InitialHeader& initial,
                   const packet::ArgumentHeader& arguments,
                   std::span<const active::CompiledInsn> code,
                   const active::ExecCursor& cursor) {
  const auto put16 = [&p](u16 v) {
    *p++ = static_cast<u8>(v >> 8);
    *p++ = static_cast<u8>(v);
  };
  const auto put32 = [&p](u32 v) {
    *p++ = static_cast<u8>(v >> 24);
    *p++ = static_cast<u8>(v >> 16);
    *p++ = static_cast<u8>(v >> 8);
    *p++ = static_cast<u8>(v);
  };
  const auto put_mac = [&](packet::MacAddr mac) {
    put16(static_cast<u16>(mac >> 32));
    put32(static_cast<u32>(mac));
  };
  // Ethernet (ethertype forced active, as ActivePacket::serialize does).
  put_mac(ethernet.dst);
  put_mac(ethernet.src);
  put16(packet::kEtherTypeActive);
  // Initial header.
  put16(initial.fid);
  *p++ = static_cast<u8>(initial.type);
  *p++ = initial.flags;
  put32(initial.seq);
  put16(0);  // reserved
  // Arguments.
  for (Word arg : arguments.args) put32(arg);
  // Surviving instructions, done-flags folded in from the cursor.
  for (u32 i = 0; i < code.size(); ++i) {
    const active::CompiledInsn& insn = code[i];
    const bool done = insn.wire_done || cursor.done(i);
    if (done && cursor.shrink) continue;  // shrunk off the wire
    u8 flags = static_cast<u8>(insn.operand & 0x07);
    flags |= static_cast<u8>((insn.label & 0x0f) << 3);
    if (done) flags |= 0x80;
    *p++ = static_cast<u8>(insn.op);
    *p++ = flags;
  }
  *p++ = static_cast<u8>(active::Opcode::kEof);
  *p++ = 0;
  return p;
}

}  // namespace

FrameBuf encode_executed(const packet::ProgramView& view,
                         const active::ExecCursor& cursor, FrameBuf frame,
                         FramePool& pool) {
  const auto& code = view.compiled->code();
  const u32 live = count_live(code, cursor);
  const std::size_t head = kExecutedHeaderBytes +
                           2 * (static_cast<std::size_t>(live) + 1);
  const std::size_t payload_len = frame.size() - view.payload_begin;
  const std::size_t total = head + payload_len;

  if (frame.unique()) {
    // In-place: the reply can only be the same size or smaller (shrink
    // never adds instructions), so rewrite the headers to end exactly
    // where the untouched payload starts and slide the window forward
    // over the freed bytes. Zero copies, zero allocations.
    const std::size_t delta = frame.size() - total;
    u8* base = frame.data() + delta;
    write_executed(base, view.ethernet, view.initial, view.arguments, code,
                   cursor);
    frame.drop_front(delta);
    return frame;
  }
  // Shared buffer (e.g. a FORKed clone still in flight): synthesize into a
  // fresh pool buffer; only the payload bytes are copied.
  FrameBuf out = pool.acquire(total);
  u8* p = write_executed(out.data(), view.ethernet, view.initial,
                         view.arguments, code, cursor);
  if (payload_len != 0) {
    std::memcpy(p, frame.data() + view.payload_begin, payload_len);
  }
  return out;
}

packet::ActivePacket encode_request(const alloc::AllocationRequest& request,
                                    u32 seq) {
  if (request.accesses.size() > packet::kMaxAccessSlots) {
    throw UsageError("encode_request: more than 8 memory accesses");
  }
  ActivePacket pkt;
  pkt.initial.type = ActiveType::kAllocRequest;
  pkt.initial.seq = seq;
  packet::ArgumentHeader args;
  args.args[0] = request.program_length;
  args.args[1] = request.rts_position ? *request.rts_position + 1 : 0;
  args.args[2] = request.elastic ? 1 : 0;
  args.args[3] = request.elastic_cap_blocks;
  pkt.arguments = args;
  packet::AllocRequestHeader header;
  for (std::size_t i = 0; i < request.accesses.size(); ++i) {
    auto& slot = header.slots[i];
    // Positions are 1-based on the wire so 0 can mean "unused".
    slot.position = static_cast<u8>(request.accesses[i].position + 1);
    slot.demand_blocks =
        static_cast<u8>(request.accesses[i].demand_blocks);
    slot.flags = request.elastic ? 0x01 : 0x00;
    // Same-stage alias in bits 4..6 (value = alias index + 1; 0 = none).
    if (request.accesses[i].alias >= 0) {
      slot.flags |=
          static_cast<u8>((request.accesses[i].alias + 1) << 4);
    }
  }
  pkt.request = header;
  return pkt;
}

alloc::AllocationRequest decode_request(const packet::ActivePacket& pkt) {
  if (pkt.initial.type != ActiveType::kAllocRequest || !pkt.request ||
      !pkt.arguments) {
    throw ParseError("decode_request: not an allocation request");
  }
  alloc::AllocationRequest request;
  request.program_length = pkt.arguments->args[0];
  if (pkt.arguments->args[1] != 0) {
    request.rts_position = pkt.arguments->args[1] - 1;
  }
  request.elastic = (pkt.arguments->args[2] & 1) != 0;
  request.elastic_cap_blocks = pkt.arguments->args[3];
  for (const auto& slot : pkt.request->slots) {
    if (!slot.valid()) continue;
    alloc::AccessDemand demand;
    demand.position = static_cast<u32>(slot.position - 1);
    demand.demand_blocks = slot.demand_blocks;
    demand.alias = static_cast<i32>((slot.flags >> 4) & 0x07) - 1;
    request.accesses.push_back(demand);
  }
  return request;
}

packet::ActivePacket encode_response(Fid fid,
                                     const packet::AllocResponseHeader& regions,
                                     const alloc::Mutant& mutant, u32 seq) {
  ActivePacket pkt;
  pkt.initial.fid = fid;
  pkt.initial.type = ActiveType::kAllocResponse;
  pkt.initial.seq = seq;
  pkt.response = regions;
  ByteWriter payload;
  payload.put_u8(static_cast<u8>(mutant.size()));
  for (u32 stage : mutant) payload.put_u16(static_cast<u16>(stage));
  pkt.payload = payload.take();
  return pkt;
}

packet::ActivePacket encode_denial(u32 seq) {
  ActivePacket pkt;
  pkt.initial.type = ActiveType::kAllocResponse;
  pkt.initial.flags |= packet::kFlagAllocFailed;
  pkt.initial.seq = seq;
  pkt.response = packet::AllocResponseHeader{};
  return pkt;
}

alloc::Mutant decode_mutant(const packet::ActivePacket& response) {
  ByteReader in(response.payload);
  const u8 count = in.get_u8();
  alloc::Mutant mutant;
  mutant.reserve(count);
  for (u8 i = 0; i < count; ++i) mutant.push_back(in.get_u16());
  return mutant;
}

}  // namespace artmt::proto
