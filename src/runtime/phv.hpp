// Packet header vector state carried by an active packet through the
// pipeline (Section 3.1): the three 32-bit variables MAR/MBR/MBR2, hash
// metadata, the INC operand, and the control flags that drive sequential
// execution, branching, and termination.
#pragma once

#include <array>

#include "active/isa.hpp"
#include "common/types.hpp"

namespace artmt::runtime {

struct Phv {
  Word mar = 0;
  Word mbr = 0;
  Word mbr2 = 0;
  Word inc = 1;  // MEM_INCREMENT / MEM_MINREADINC step
  std::array<Word, active::kHashdataWords> hashdata{};

  // Control flags (Section 3.1).
  bool complete = false;  // RETURN/CRET executed; skip remaining stages
  bool disabled = false;  // branch taken; skip until the cursor's resume
                          // index (active::ExecCursor::resume_index)

  // Forwarding intent accumulated during execution.
  bool rts = false;           // return-to-sender requested
  u32 rts_stage = 0;          // logical stage where RTS executed
  bool drop = false;          // DROP executed or fault
  bool fork = false;          // FORK executed (clone + recirculate)
  bool dst_overridden = false;
  Word dst_value = 0;  // SET_DST operand (port/address encoding)
};

}  // namespace artmt::runtime
