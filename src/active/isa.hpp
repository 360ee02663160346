// The ActiveRMT instruction set (paper Appendix A): opcodes grouped into
// data copying, data manipulation, control flow, memory access, packet
// forwarding, and special instructions. Naming follows the paper's
// destination-first convention: COPY_A_B performs A <- B.
#pragma once

#include <optional>
#include <string_view>

#include "common/types.hpp"

namespace artmt::active {

enum class Opcode : u8 {
  // --- A.6 special ---
  kEof = 0x00,   // end of active program (wire terminator)
  kNop = 0x01,   // skip a stage
  kAddrMask = 0x02,    // MAR <- MAR & mask(fid, next access stage)
  kAddrOffset = 0x03,  // MAR <- MAR + offset(fid, next access stage)
  kHash = 0x04,        // MAR <- hash(hashdata)

  // --- A.1 data copying ---
  kMbrLoad = 0x10,   // MBR <- args[operand]
  kMbrStore = 0x11,  // args[operand] <- MBR
  kMbr2Load = 0x12,  // MBR2 <- args[operand]
  kMarLoad = 0x13,   // MAR <- args[operand]
  kCopyMbr2Mbr = 0x14,      // MBR2 <- MBR
  kCopyMbrMbr2 = 0x15,      // MBR <- MBR2
  kCopyMbrMar = 0x16,       // MBR <- MAR
  kCopyMarMbr = 0x17,       // MAR <- MBR
  kCopyHashdataMbr = 0x18,  // hashdata[operand] <- MBR
  kCopyHashdataMbr2 = 0x19, // hashdata[operand] <- MBR2
  kCopyHashdata5Tuple = 0x1a,  // hashdata <- packet 5-tuple metadata

  // --- A.2 data manipulation ---
  kMbrAddMbr2 = 0x20,      // MBR <- MBR + MBR2
  kMarAddMbr = 0x21,       // MAR <- MAR + MBR
  kMarAddMbr2 = 0x22,      // MAR <- MAR + MBR2
  kMarMbrAddMbr2 = 0x23,   // MAR <- MBR + MBR2
  kMbrSubtractMbr2 = 0x24, // MBR <- MBR - MBR2
  kBitAndMarMbr = 0x25,    // MAR <- MAR & MBR
  kBitOrMbrMbr2 = 0x26,    // MBR <- MBR | MBR2
  kMbrEqualsMbr2 = 0x27,   // MBR <- MBR ^ MBR2 (0 iff equal)
  kMax = 0x28,             // MBR <- max(MBR, MBR2)
  kMin = 0x29,             // MBR <- min(MBR, MBR2)
  kRevMin = 0x2a,          // MBR2 <- min(MBR, MBR2)
  kSwapMbrMbr2 = 0x2b,     // MBR <-> MBR2
  kMbrNot = 0x2c,          // MBR <- ~MBR
  kMbrEqualsData = 0x2d,   // MBR <- MBR ^ args[operand] (Listing 1's
                           // MBR_EQUALS_DATA_k, written MBR_EQUALS_DATA $k)

  // --- A.3 control flow ---
  kReturn = 0x30,  // mark complete; forward to resolved destination
  kCret = 0x31,    // return if MBR != 0
  kCreti = 0x32,   // return if MBR == 0
  kCjump = 0x33,   // jump to label if MBR != 0
  kCjumpi = 0x34,  // jump to label if MBR == 0
  kUjump = 0x35,   // unconditional jump to label

  // --- A.4 memory access (register ALU) ---
  kMemWrite = 0x40,       // mem[MAR] <- MBR
  kMemRead = 0x41,        // MBR <- mem[MAR]
  kMemIncrement = 0x42,   // mem[MAR] += INC; MBR <- new value
  kMemMinread = 0x43,     // MBR <- min(mem[MAR], MBR)
  kMemMinreadinc = 0x44,  // mem[MAR] += INC; MBR <- new; MBR2 <- min(MBR,MBR2)

  // --- A.5 packet forwarding ---
  kDrop = 0x50,    // drop the packet
  kFork = 0x51,    // clone packet, both continue (requires recirculation)
  kSetDst = 0x52,  // destination port <- MBR
  kRts = 0x53,     // return to sender (ingress-effective)
  kCrts = 0x54,    // RTS if MBR != 0
};

// Which kind of per-instruction operand the flag byte's operand bits carry.
enum class OperandKind : u8 {
  kNone,
  kArgIndex,  // index into the packet's four 32-bit argument fields
  kLabel,     // branch target label (carried in the label bits; see below)
};

// Static properties of an opcode, driving the assembler, the client
// compiler's constraint analysis, and the runtime's decode tables.
struct OpcodeInfo {
  Opcode op;
  std::string_view mnemonic;
  OperandKind operand = OperandKind::kNone;
  bool memory_access = false;  // touches the stage register array
  bool branch = false;         // consumes a label
  bool returns = false;        // may set the `complete` flag
  bool forwarding = false;     // alters packet forwarding
};

// Info for a given opcode; nullptr for an unknown byte (the runtime drops
// such capsules as malformed).
const OpcodeInfo* opcode_info(Opcode op);
const OpcodeInfo* opcode_info(u8 raw);

// Mnemonic lookup for the assembler; nullopt if unknown.
std::optional<Opcode> opcode_from_mnemonic(std::string_view mnemonic);

// Human-readable name ("<bad:0xNN>" never returned; throws on unknown).
std::string_view mnemonic(Opcode op);

// Number of 32-bit argument fields in an active packet (Section 3.3: the
// argument header is 16 bytes, four fields).
inline constexpr u32 kArgFields = 4;

// The operand rule every decoder applies, as the assembler does: an
// argument-index operand must name one of the kArgFields argument words.
// The wire's three operand bits can also say 4..7.
[[nodiscard]] constexpr bool operand_in_range(const OpcodeInfo& info,
                                              u8 operand) {
  return info.operand != OperandKind::kArgIndex || operand < kArgFields;
}

// Hash metadata width in words (enough for a TCP 5-tuple plus salt).
inline constexpr u32 kHashdataWords = 4;

// Labels are encoded in 4 bits of the instruction flag byte; 0 = unlabeled.
inline constexpr u8 kMaxLabel = 15;

}  // namespace artmt::active
