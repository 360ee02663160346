// Wire translation between the allocator's request/placement model and the
// active packet headers of Section 3.3. Shared by the client shim (encode
// request, decode response) and the switch node (decode request, encode
// response).
#pragma once

#include "active/compiled_program.hpp"
#include "alloc/mutant.hpp"
#include "alloc/request.hpp"
#include "common/frame_buf.hpp"
#include "packet/active_packet.hpp"
#include "packet/program_view.hpp"

namespace artmt::proto {

// Synthesizes the reply for an executed ProgramView, consuming the
// inbound frame. The packet-shrink reply of Section 3.1 comes from the
// execution cursor: instructions whose done-bit is set (on the wire or in
// this execution) are dropped when the cursor allows shrinking, or
// re-emitted with the done flag set under kFlagNoShrink. The shared
// CompiledProgram is never modified. When the buffer is uniquely owned,
// the (possibly shrunk) headers are rewritten in place ahead of the
// untouched payload — the window simply slides forward over the freed
// bytes — and no copy or allocation happens at all. A shared buffer falls
// back to a fresh pool buffer with one payload memcpy. Parity tests check
// the bytes against the decoded-program reference
// (ActiveRuntime::execute(ActivePacket&) then ActivePacket::serialize).
FrameBuf encode_executed(const packet::ProgramView& view,
                         const active::ExecCursor& cursor, FrameBuf frame,
                         FramePool& pool);

// Request packets carry program shape in the argument header:
//   args[0] = program length
//   args[1] = RTS position + 1 (0 = no ingress-pinned instruction)
//   args[2] = flags (bit0: elastic)
//   args[3] = elastic per-stage cap in blocks (0 = uncapped)
// and the per-access slots in the 24-byte request header.
packet::ActivePacket encode_request(const alloc::AllocationRequest& request,
                                    u32 seq = 0);

alloc::AllocationRequest decode_request(const packet::ActivePacket& pkt);

// Response packets carry the per-stage regions in the 160-byte response
// header and the chosen mutant (needed for client-side synthesis) as a
// payload trailer: u8 count, then u16 global stage indices.
packet::ActivePacket encode_response(Fid fid,
                                     const packet::AllocResponseHeader& regions,
                                     const alloc::Mutant& mutant, u32 seq);

// A denial: kFlagAllocFailed set, no regions.
packet::ActivePacket encode_denial(u32 seq);

alloc::Mutant decode_mutant(const packet::ActivePacket& response);

}  // namespace artmt::proto
