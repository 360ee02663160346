// Non-owning, zero-copy view of a program capsule: the switch fast path's
// alternative to materializing a full ActivePacket. The fixed-size headers
// (Ethernet, initial, arguments) are decoded in place into value fields —
// they are mutated by execution (MBR_STORE, RTS address swap) and re-
// emitted by proto::encode_executed — while the instruction stream is
// resolved through the ProgramCache into a shared CompiledProgram and the
// passive payload is never touched: it stays in the frame buffer, located
// by offset.
//
// Lifetime: a ProgramView borrows the frame it was parsed from. It must
// not outlive that buffer, and payload() must be called with the same
// (unmoved, unshrunk) frame. The switch keeps both on the stack for the
// duration of one on_frame dispatch.
#pragma once

#include <memory>
#include <span>

#include "active/program_cache.hpp"
#include "packet/active_packet.hpp"

namespace artmt::packet {

struct ProgramView {
  EthernetHeader ethernet;
  InitialHeader initial;
  ArgumentHeader arguments;
  std::shared_ptr<const active::CompiledProgram> compiled;
  u32 code_begin = 0;    // byte offset of the first instruction
  u32 code_end = 0;      // byte offset of the EOF marker
  u32 payload_begin = 0;  // byte offset of the passive remainder

  // Parses the capsule headers in place and interns the code through
  // `cache`. Performs no heap allocation on a cache hit. Throws ParseError
  // on truncation, a non-program capsule, or an invalid instruction; a frame
  // that classify() calls kProgram can fail only on its body.
  static ProgramView parse(std::span<const u8> frame,
                           active::ProgramCache& cache);

  [[nodiscard]] std::span<const u8> payload(std::span<const u8> frame) const {
    return frame.subspan(payload_begin);
  }
};

}  // namespace artmt::packet
