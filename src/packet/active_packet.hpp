// Active packet headers (Section 3.3). Three kinds of active packets share
// a 10-byte initial header: allocation requests, allocation responses, and
// active programs. Program packets carry a 16-byte argument header (four
// 32-bit data fields) followed by 2-byte instruction headers; request
// packets carry a 24-byte constraint header (eight 3-byte access slots);
// response packets carry a 160-byte header (twenty 8-byte per-stage memory
// regions). The reproduction adds a few pure-control types (deallocation,
// reallocation notice, extraction-complete) that the paper describes as
// "special packets containing only the global active header".
#pragma once

#include <array>
#include <optional>
#include <span>
#include <vector>

#include "active/program.hpp"
#include "common/bytes.hpp"
#include "common/types.hpp"
#include "packet/ethernet.hpp"

namespace artmt::packet {

enum class ActiveType : u8 {
  kProgram = 0,
  kAllocRequest = 1,
  kAllocResponse = 2,
  kDealloc = 3,          // client releases its allocation
  kDeallocAck = 4,       // switch confirms release
  kReallocNotice = 5,    // switch -> client: yield memory, snapshot ready
  kExtractComplete = 6,  // client -> switch: done extracting state
  kReactivated = 7,      // switch -> client: new allocation applied
  // Fabric health epochs (src/fabric): a probe is echoed as an ack whose
  // payload carries the switch's allocator scoreboard. Both are
  // control-only frames (initial header + opaque payload).
  kHealthProbe = 8,  // controller/client -> switch: are you alive?
  kHealthAck = 9,    // switch -> prober: alive; payload = scoreboard
};
// Type bytes above this are unknown; parsers reject them.
inline constexpr ActiveType kLastActiveType = ActiveType::kHealthAck;

// Control-flag bits in the initial header.
inline constexpr u8 kFlagPreloadMar = 0x01;   // seed MAR from args[0]
inline constexpr u8 kFlagPreloadMbr = 0x02;   // seed MBR from args[1]
inline constexpr u8 kFlagNoShrink = 0x04;     // disable packet shrinking
inline constexpr u8 kFlagAllocFailed = 0x08;  // response: admission denied
// Management capsules (memory sync during reallocation) execute even while
// the FID's ordinary program packets are deactivated (Section 4.3).
inline constexpr u8 kFlagManagement = 0x10;
// Privileged capsules (set by a trusted host-based shim, Section 7.2) may
// use forwarding-affecting opcodes when the runtime enforces privilege.
inline constexpr u8 kFlagPrivileged = 0x20;

// 10-byte initial header: fid(2) type(1) flags(1) seq(4) reserved(2).
struct InitialHeader {
  Fid fid = 0;
  ActiveType type = ActiveType::kProgram;
  u8 flags = 0;
  u32 seq = 0;  // client-chosen sequence number, echoed in replies

  static constexpr std::size_t kWireSize = 10;

  void serialize(ByteWriter& out) const;
  void serialize(SpanWriter& out) const;  // into a caller-sized window
  static InitialHeader parse(ByteReader& in);

  friend bool operator==(const InitialHeader&, const InitialHeader&) = default;
};

// 16-byte argument header: four 32-bit data fields.
struct ArgumentHeader {
  std::array<Word, active::kArgFields> args{};

  static constexpr std::size_t kWireSize = 16;

  void serialize(ByteWriter& out) const;
  void serialize(SpanWriter& out) const;  // into a caller-sized window
  static ArgumentHeader parse(ByteReader& in);

  friend bool operator==(const ArgumentHeader&, const ArgumentHeader&) =
      default;
};

// One of the eight 3-byte access slots in an allocation request: the
// position of the memory access within the (most compact) program, the
// per-stage block demand, and flags.
struct AccessSlot {
  u8 position = 0;  // 1-based instruction index of the access; 0 = unused
  u8 demand_blocks = 0;
  u8 flags = 0;  // bit0: elastic demand in this slot

  [[nodiscard]] bool valid() const { return position != 0; }
  [[nodiscard]] bool elastic() const { return (flags & 0x01) != 0; }

  friend bool operator==(const AccessSlot&, const AccessSlot&) = default;
};

inline constexpr std::size_t kMaxAccessSlots = 8;

// 24-byte allocation request header (+ program shape carried alongside in
// an argument header: length, ingress-limit position, recirculation budget).
struct AllocRequestHeader {
  std::array<AccessSlot, kMaxAccessSlots> slots{};

  static constexpr std::size_t kWireSize = 24;

  [[nodiscard]] u32 access_count() const;

  void serialize(ByteWriter& out) const;
  static AllocRequestHeader parse(ByteReader& in);

  friend bool operator==(const AllocRequestHeader&, const AllocRequestHeader&) =
      default;
};

// Per-stage memory region granted to an application: word-addressed
// half-open range [start, limit). Unallocated stages have start == limit.
struct StageRegion {
  u32 start_word = 0;
  u32 limit_word = 0;

  [[nodiscard]] bool allocated() const { return limit_word > start_word; }
  [[nodiscard]] u32 words() const { return limit_word - start_word; }

  friend bool operator==(const StageRegion&, const StageRegion&) = default;
};

inline constexpr u32 kResponseStages = 20;

// 160-byte allocation response: twenty 8-byte per-stage regions.
struct AllocResponseHeader {
  std::array<StageRegion, kResponseStages> regions{};

  static constexpr std::size_t kWireSize = 160;

  void serialize(ByteWriter& out) const;
  static AllocResponseHeader parse(ByteReader& in);

  friend bool operator==(const AllocResponseHeader&,
                         const AllocResponseHeader&) = default;
};

// A fully parsed active packet. Exactly one of the optional sections is
// present according to `initial.type` (program packets have arguments AND
// a decoded, mutable `program`); `payload` is the opaque passive remainder
// (e.g. the TCP/IP bytes the program does not inspect). The datapath reads
// and writes program capsules in place (ProgramView, proto::encode_executed,
// the client's send path); an ActivePacket is the materialized form for
// control frames, tools and reference checks.
struct ActivePacket {
  EthernetHeader ethernet;
  InitialHeader initial;
  std::optional<ArgumentHeader> arguments;
  std::optional<active::Program> program;
  std::optional<AllocRequestHeader> request;
  std::optional<AllocResponseHeader> response;
  std::vector<u8> payload;

  // Serializes the whole frame (Ethernet + active headers + payload).
  [[nodiscard]] std::vector<u8> serialize() const;

  // Parses a frame; requires ethertype == kEtherTypeActive.
  static ActivePacket parse(std::span<const u8> frame);

  // Convenience constructors.
  static ActivePacket make_program(Fid fid, const ArgumentHeader& args,
                                   const active::Program& program);
  static ActivePacket make_control(Fid fid, ActiveType type);
};

// What a frame carries, read from fixed-offset header bytes without
// parsing and without throwing. A frame is active when it has the active
// EtherType, a complete initial header and a known type byte; everything
// else is passive traffic. Nodes classify before they parse, so the
// throwing parsers see active frames only and a ParseError means a
// malformed active frame.
enum class FrameClass : u8 {
  kPassive,
  kProgram,  // a program capsule (ProgramView::parse's input)
  kControl,  // any other active type (materialized as an ActivePacket)
};
[[nodiscard]] FrameClass classify(std::span<const u8> frame);

// Materializes an active frame. Returns nullopt for passive traffic,
// which is classified without a throw, and for a malformed active frame;
// the nodes hand both to their passive path.
[[nodiscard]] std::optional<ActivePacket> try_parse(
    std::span<const u8> frame);

}  // namespace artmt::packet
