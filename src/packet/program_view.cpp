#include "packet/program_view.hpp"

#include "common/error.hpp"

namespace artmt::packet {

ProgramView ProgramView::parse(std::span<const u8> frame,
                               active::ProgramCache& cache) {
  ByteReader in(frame);
  ProgramView view;
  view.ethernet = EthernetHeader::parse(in);
  if (view.ethernet.ethertype != kEtherTypeActive) {
    throw ParseError("ProgramView: not an active frame");
  }
  view.initial = InitialHeader::parse(in);
  if (view.initial.type != ActiveType::kProgram) {
    throw ParseError("ProgramView: not a program capsule");
  }
  view.arguments = ArgumentHeader::parse(in);
  // Scan to the EOF marker: only the EOF opcode is matched here; opcode
  // validation happens inside the cache (byte-compare against a validated
  // artifact on hits, compile on misses), so the hot path touches each
  // code byte once.
  const std::size_t code_begin = in.position();
  std::size_t code_end = code_begin;
  for (;;) {
    if (code_end + 2 > frame.size()) {
      throw ParseError("ProgramView: program missing EOF");
    }
    if (frame[code_end] == static_cast<u8>(active::Opcode::kEof)) break;
    code_end += 2;
  }
  view.code_begin = static_cast<u32>(code_begin);
  view.code_end = static_cast<u32>(code_end);
  view.payload_begin = static_cast<u32>(code_end + 2);
  view.compiled = cache.intern(
      frame.subspan(code_begin, code_end - code_begin),
      (view.initial.flags & kFlagPreloadMar) != 0,
      (view.initial.flags & kFlagPreloadMbr) != 0);
  return view;
}

}  // namespace artmt::packet
