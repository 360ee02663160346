// Immutable, pre-resolved execution form of an active program plus the
// small per-packet cursor that carries all mutable execution state.
//
// `CompiledProgram` decodes an instruction stream once into one array of
// `CompiledInsn`: each wire opcode with its operand, plus what the
// interpreter would otherwise re-derive per packet -- the memory-access
// flag, the next memory access that ADDR_MASK / ADDR_OFFSET translate
// for, and each branch's resume index. The runtime's loop dispatches on
// the wire opcode straight from this array, and replies, digests and
// traces read the same array. Decoding rejects what cannot execute: an
// unknown opcode, or an argument operand naming no argument word.
// `ExecCursor` holds the done-bits and branch-resume state, so the
// program is never written and one compiled artifact is shared by every
// packet of a recurring program (see program_cache.hpp).
#pragma once

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "active/program.hpp"

namespace artmt::active {

// One instruction with its static properties resolved at compile time.
struct CompiledInsn {
  Opcode op = Opcode::kNop;
  u8 operand = 0;
  u8 label = 0;
  bool wire_done = false;      // `done` flag as received on the wire
  bool memory_access = false;  // resolved from OpcodeInfo
  // Index of the next memory-access instruction strictly after this one
  // (kNoIndex if none): ADDR_MASK / ADDR_OFFSET translate for that
  // instruction's stage without rescanning the code.
  u32 next_access = 0;
  // For branches: index of the first instruction after this one carrying
  // the target label (kNoIndex when the target does not exist, which
  // disables the packet to the end of the program, as on hardware).
  u32 branch_target = 0;
};

inline constexpr u32 kNoIndex = 0xffff'ffffu;

class CompiledProgram {
 public:
  // Compiles a decoded program (wire `done` flags are taken from each
  // instruction's `done` member); throws ParseError on an unknown opcode
  // or an out-of-range argument operand.
  static CompiledProgram compile(const Program& source);

  // Compiles directly from the on-wire instruction stream (2 bytes per
  // instruction, EOF excluded); throws ParseError on an unknown opcode, an
  // out-of-range argument operand or an odd-length stream. This is the parse-side fast path: no
  // intermediate Program is materialized.
  static CompiledProgram compile(std::span<const u8> wire_code,
                                 bool preload_mar, bool preload_mbr);

  [[nodiscard]] const std::vector<CompiledInsn>& code() const { return code_; }
  [[nodiscard]] std::size_t size() const { return code_.size(); }
  [[nodiscard]] bool empty() const { return code_.empty(); }
  [[nodiscard]] bool preload_mar() const { return preload_mar_; }
  [[nodiscard]] bool preload_mbr() const { return preload_mbr_; }

  // Canonical on-wire instruction bytes (2 per instruction, EOF excluded).
  // Used for digest computation, collision verification, and synthesizing
  // outbound capsules.
  [[nodiscard]] const std::vector<u8>& wire_code() const { return wire_; }

  // FNV-1a digest over (preload flags, wire_code); the ProgramCache key.
  [[nodiscard]] u64 digest() const { return digest_; }

  static u64 compute_digest(std::span<const u8> wire_code, bool preload_mar,
                            bool preload_mbr);

 private:
  CompiledProgram() = default;
  // Fills next_access / branch_target and computes the digest.
  void link();

  std::vector<CompiledInsn> code_;
  std::vector<u8> wire_;
  bool preload_mar_ = false;
  bool preload_mbr_ = false;
  u64 digest_ = 0;
};

// Per-packet execution state, threaded through ActiveRuntime::execute so
// the shared CompiledProgram is never written. Lives on the caller's
// stack: no heap allocation, and reusable across packets via reset().
class ExecCursor {
 public:
  // Done-bits are tracked for the first kMaxTracked instructions. The
  // recirculation cap bounds how far execution can advance
  // ((kMaxRecirculations + 1) * logical_stages, 180 with the defaults),
  // so this is never reached in practice; marks beyond the window are
  // ignored and the corresponding instructions simply never shrink.
  static constexpr u32 kMaxTracked = 2048;

  ExecCursor() = default;

  // Prepares the cursor for a program of `code_len` instructions,
  // clearing exactly the words the previous use could have touched.
  void reset(std::size_t code_len) {
    const u32 words =
        (std::min<u32>(tracked_, kMaxTracked) + 63) / 64;
    for (u32 i = 0; i < words; ++i) done_[i] = 0;
    tracked_ = static_cast<u32>(std::min<std::size_t>(code_len, kMaxTracked));
    resume_index = kNoIndex;
    shrink = true;
  }

  void mark_done(u32 index) {
    if (index < kMaxTracked) done_[index / 64] |= u64{1} << (index % 64);
  }
  [[nodiscard]] bool done(u32 index) const {
    return index < kMaxTracked &&
           (done_[index / 64] >> (index % 64) & u64{1}) != 0;
  }

  // Resume point of a taken branch (kNoIndex when execution is enabled).
  u32 resume_index = kNoIndex;
  // Shrink decision for the reply capsule (false under kFlagNoShrink).
  bool shrink = true;

 private:
  std::array<u64, kMaxTracked / 64> done_{};
  u32 tracked_ = kMaxTracked;  // force a full clear on first reset()
};

}  // namespace artmt::active
