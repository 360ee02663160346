// Tests for the active packet wire formats of Section 3.3, the
// header-peek frame classifier, and the in-place program view against the
// materializing parser.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "active/assembler.hpp"
#include "active/program_cache.hpp"
#include "packet/active_packet.hpp"
#include "packet/program_view.hpp"

namespace artmt::packet {
namespace {

TEST(Ethernet, RoundTrip) {
  EthernetHeader eth;
  eth.dst = 0x0011223344556677 & 0xffffffffffff;
  eth.src = 0x0a0b0c0d0e0f;
  eth.ethertype = kEtherTypeActive;
  ByteWriter w;
  eth.serialize(w);
  EXPECT_EQ(w.size(), EthernetHeader::kWireSize);
  ByteReader r(w.bytes());
  EXPECT_EQ(EthernetHeader::parse(r), eth);
}

TEST(InitialHeader, RoundTripAndSize) {
  InitialHeader h;
  h.fid = 0x1234;
  h.type = ActiveType::kReallocNotice;
  h.flags = kFlagPreloadMar | kFlagManagement;
  h.seq = 77;
  ByteWriter w;
  h.serialize(w);
  EXPECT_EQ(w.size(), InitialHeader::kWireSize);  // the paper's 10 bytes
  ByteReader r(w.bytes());
  EXPECT_EQ(InitialHeader::parse(r), h);
}

TEST(InitialHeader, RejectsUnknownType) {
  ByteWriter w;
  w.put_u16(1);
  w.put_u8(250);  // bogus type
  w.put_u8(0);
  w.put_u32(0);
  w.put_u16(0);
  ByteReader r(w.bytes());
  EXPECT_THROW((void)InitialHeader::parse(r), ParseError);
}

TEST(ArgumentHeader, SizeMatchesPaper) {
  ArgumentHeader args;
  args.args = {1, 2, 3, 4};
  ByteWriter w;
  args.serialize(w);
  EXPECT_EQ(w.size(), 16u);  // four 32-bit data fields
  ByteReader r(w.bytes());
  EXPECT_EQ(ArgumentHeader::parse(r), args);
}

TEST(AllocRequestHeader, SizeMatchesPaper) {
  AllocRequestHeader req;
  req.slots[0] = {3, 5, 0x01};
  req.slots[1] = {8, 2, 0x00};
  ByteWriter w;
  req.serialize(w);
  EXPECT_EQ(w.size(), 24u);  // eight three-byte headers
  ByteReader r(w.bytes());
  EXPECT_EQ(AllocRequestHeader::parse(r), req);
  EXPECT_EQ(req.access_count(), 2u);
}

TEST(AllocResponseHeader, SizeMatchesPaper) {
  AllocResponseHeader resp;
  resp.regions[4] = {1024, 2048};
  ByteWriter w;
  resp.serialize(w);
  EXPECT_EQ(w.size(), 160u);  // twenty eight-byte headers
  ByteReader r(w.bytes());
  EXPECT_EQ(AllocResponseHeader::parse(r), resp);
  EXPECT_TRUE(resp.regions[4].allocated());
  EXPECT_FALSE(resp.regions[0].allocated());
  EXPECT_EQ(resp.regions[4].words(), 1024u);
}

TEST(ActivePacket, ProgramRoundTrip) {
  active::Program prog;
  prog.push({active::Opcode::kMarLoad, 0});
  prog.push({active::Opcode::kMemRead});
  prog.push({active::Opcode::kReturn});
  ArgumentHeader args;
  args.args = {10, 20, 30, 40};
  ActivePacket pkt = ActivePacket::make_program(9, args, prog);
  pkt.payload = {0xde, 0xad};
  const auto frame = pkt.serialize();

  const ActivePacket back = ActivePacket::parse(frame);
  EXPECT_EQ(back.initial.fid, 9);
  EXPECT_EQ(back.initial.type, ActiveType::kProgram);
  ASSERT_TRUE(back.arguments.has_value());
  EXPECT_EQ(back.arguments->args, args.args);
  ASSERT_TRUE(back.program.has_value());
  EXPECT_EQ(back.program->code(), prog.code());
  EXPECT_EQ(back.payload, (std::vector<u8>{0xde, 0xad}));
}

TEST(ActivePacket, PreloadFlagsTravel) {
  active::Program prog;
  prog.push({active::Opcode::kMemRead});
  prog.push({active::Opcode::kReturn});
  prog.preload_mar = true;
  prog.preload_mbr = true;
  const ActivePacket pkt =
      ActivePacket::make_program(1, ArgumentHeader{}, prog);
  const ActivePacket back = ActivePacket::parse(pkt.serialize());
  EXPECT_TRUE(back.program->preload_mar);
  EXPECT_TRUE(back.program->preload_mbr);
}

TEST(ActivePacket, ControlOnlyRoundTrip) {
  const ActivePacket pkt =
      ActivePacket::make_control(5, ActiveType::kExtractComplete);
  const ActivePacket back = ActivePacket::parse(pkt.serialize());
  EXPECT_EQ(back.initial.fid, 5);
  EXPECT_EQ(back.initial.type, ActiveType::kExtractComplete);
  EXPECT_FALSE(back.program.has_value());
  EXPECT_FALSE(back.arguments.has_value());
}

TEST(ActivePacket, RequestRoundTrip) {
  ActivePacket pkt;
  pkt.initial.type = ActiveType::kAllocRequest;
  pkt.arguments = ArgumentHeader{{11, 8, 1, 0}};
  AllocRequestHeader req;
  req.slots[0] = {2, 1, 0x01};
  pkt.request = req;
  const ActivePacket back = ActivePacket::parse(pkt.serialize());
  ASSERT_TRUE(back.request.has_value());
  EXPECT_EQ(back.request->slots[0], req.slots[0]);
}

TEST(ActivePacket, ResponseRoundTrip) {
  ActivePacket pkt;
  pkt.initial.type = ActiveType::kAllocResponse;
  pkt.initial.fid = 3;
  AllocResponseHeader resp;
  resp.regions[7] = {100, 356};
  pkt.response = resp;
  const ActivePacket back = ActivePacket::parse(pkt.serialize());
  ASSERT_TRUE(back.response.has_value());
  EXPECT_EQ(back.response->regions[7], resp.regions[7]);
}

TEST(ActivePacket, NonActiveEtherTypeRejected) {
  ByteWriter w;
  EthernetHeader eth;
  eth.ethertype = kEtherTypeIpv4;
  eth.serialize(w);
  EXPECT_THROW((void)ActivePacket::parse(w.bytes()), ParseError);
}

TEST(ActivePacket, MissingSectionsThrowOnSerialize) {
  ActivePacket pkt;
  pkt.initial.type = ActiveType::kProgram;  // but no args/program
  EXPECT_THROW((void)pkt.serialize(), UsageError);
  pkt.initial.type = ActiveType::kAllocResponse;
  EXPECT_THROW((void)pkt.serialize(), UsageError);
}

TEST(ActivePacket, TruncatedFrameThrows) {
  active::Program prog;
  prog.push({active::Opcode::kReturn});
  const ActivePacket pkt =
      ActivePacket::make_program(1, ArgumentHeader{}, prog);
  auto frame = pkt.serialize();
  frame.resize(frame.size() - 6);  // chop EOF + payload
  EXPECT_THROW((void)ActivePacket::parse(frame), ParseError);
}

// The initial header is 10 bytes, arg header 16, instructions 2 each plus
// EOF: Listing 1 (11 instructions) rides in 14 + 10 + 16 + 24 = 64 bytes.
TEST(ActivePacket, Listing1WireSize) {
  active::Program prog;
  for (int i = 0; i < 11; ++i) prog.push({active::Opcode::kNop});
  const ActivePacket pkt =
      ActivePacket::make_program(1, ArgumentHeader{}, prog);
  EXPECT_EQ(pkt.serialize().size(), 14u + 10u + 16u + 24u);
}

// ---------- classification ----------

// Ethernet header plus a 10-byte initial header with the given type byte,
// then cut (or zero-padded) to `size` bytes.
std::vector<u8> header_frame(u16 ethertype, u8 type, std::size_t size) {
  ByteWriter w;
  EthernetHeader eth;
  eth.dst = 0xbb;
  eth.src = 0xcc;
  eth.ethertype = ethertype;
  eth.serialize(w);
  w.put_u16(/*fid=*/7);
  w.put_u8(type);
  w.put_u8(/*flags=*/0);
  w.put_u32(/*seq=*/1);
  w.put_u16(0);
  std::vector<u8> frame = w.take();
  frame.resize(size);
  return frame;
}

TEST(Classify, HeaderPeekTable) {
  constexpr std::size_t kFull =
      EthernetHeader::kWireSize + InitialHeader::kWireSize;  // 24
  struct Case {
    std::string name;
    std::vector<u8> frame;
    FrameClass want;
  };
  std::vector<Case> cases = {
      {"13 bytes", header_frame(kEtherTypeActive, 0, 13),
       FrameClass::kPassive},
      {"type 0xff", header_frame(kEtherTypeActive, 0xff, kFull),
       FrameClass::kPassive},
      {"first unknown type",
       header_frame(kEtherTypeActive, static_cast<u8>(kLastActiveType) + 1,
                    kFull),
       FrameClass::kPassive},
      {"IPv4 EtherType, program type byte",
       header_frame(kEtherTypeIpv4, 0, 64), FrameClass::kPassive},
      {"IPv4 EtherType, control type byte",
       header_frame(kEtherTypeIpv4, 1, 64), FrameClass::kPassive},
      {"empty", {}, FrameClass::kPassive},
  };
  // An active frame is passive until its initial header is complete.
  for (std::size_t size = EthernetHeader::kWireSize; size < kFull; ++size) {
    cases.push_back({"active, " + std::to_string(size) + " bytes",
                     header_frame(kEtherTypeActive, 0, size),
                     FrameClass::kPassive});
  }
  // Every known type, at exactly the full initial header and with a body.
  for (u8 t = 0; t <= static_cast<u8>(kLastActiveType); ++t) {
    const FrameClass want =
        t == 0 ? FrameClass::kProgram : FrameClass::kControl;
    for (std::size_t size : {kFull, kFull + 200}) {
      cases.push_back({"type " + std::to_string(t) + ", " +
                           std::to_string(size) + " bytes",
                       header_frame(kEtherTypeActive, t, size), want});
    }
  }
  // The serializer's own capsules, so the peek offsets match the format.
  active::Program prog;
  prog.push({active::Opcode::kReturn});
  cases.push_back(
      {"serialized program",
       ActivePacket::make_program(1, ArgumentHeader{}, prog).serialize(),
       FrameClass::kProgram});
  cases.push_back(
      {"serialized health ack",
       ActivePacket::make_control(1, ActiveType::kHealthAck).serialize(),
       FrameClass::kControl});
  for (const Case& c : cases) {
    EXPECT_EQ(classify(c.frame), c.want) << c.name;
  }
}

TEST(TryParse, PassiveAndMalformedFramesAreNullopt) {
  active::Program prog;
  prog.push({active::Opcode::kReturn});
  const auto frame =
      ActivePacket::make_program(3, ArgumentHeader{{9, 0, 0, 0}}, prog)
          .serialize();
  const auto parsed = try_parse(frame);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->initial.fid, 3u);
  EXPECT_EQ(parsed->arguments->args[0], 9u);

  EXPECT_FALSE(try_parse(header_frame(kEtherTypeIpv4, 0, 64)).has_value());
  EXPECT_FALSE(
      try_parse(header_frame(kEtherTypeActive, 0xff, 24)).has_value());
  // Classified a program, but the argument header is cut short.
  auto truncated = frame;
  truncated.resize(EthernetHeader::kWireSize + InitialHeader::kWireSize + 4);
  ASSERT_EQ(classify(truncated), FrameClass::kProgram);
  EXPECT_THROW((void)ActivePacket::parse(truncated), ParseError);
  EXPECT_FALSE(try_parse(truncated).has_value());
}

// The origin server parses program capsules in place with
// ProgramView::parse and reads a frame it rejects as passive traffic, as it
// did try_parse's nullopt. So the two must reject the same frames: every
// truncation of a few capsules, a bad opcode inside and after the code, and
// a type byte no active type has.
TEST(TryParse, ProgramViewRejectsExactlyWhatTryParseRejects) {
  const auto capsule = [](const char* text, u8 flags,
                          std::vector<u8> payload) {
    auto pkt = ActivePacket::make_program(
        5, ArgumentHeader{{1, 2, 3, 4}}, active::assemble(text));
    pkt.initial.flags |= flags;
    pkt.ethernet.src = 0xcc;
    pkt.ethernet.dst = 0xbb;
    pkt.payload = std::move(payload);
    return pkt.serialize();
  };
  const std::vector<std::vector<u8>> capsules = {
      capsule("RETURN", 0, {}),
      capsule("MAR_LOAD $0\nMEM_READ\nMBR_STORE $1\nRETURN", kFlagPreloadMar,
              {0x11, 0x22, 0x33}),
      capsule("MBR_LOAD $0\nCJUMP L1\nMBR_STORE $2\nL1: RETURN", 0,
              std::vector<u8>(40, 0x5a)),
  };
  const std::size_t payload_bytes = 0 + 3 + 40;
  constexpr std::size_t kCode = EthernetHeader::kWireSize +
                                InitialHeader::kWireSize +
                                ArgumentHeader::kWireSize;
  std::vector<std::pair<std::string, std::vector<u8>>> frames;
  for (std::size_t c = 0; c < capsules.size(); ++c) {
    for (std::size_t size = 0; size <= capsules[c].size(); ++size) {
      frames.emplace_back(
          "capsule " + std::to_string(c) + " cut to " + std::to_string(size),
          std::vector<u8>(capsules[c].begin(), capsules[c].begin() + size));
    }
    auto bad_opcode = capsules[c];
    bad_opcode[kCode] = 0xee;
    frames.emplace_back("capsule " + std::to_string(c) + ", bad opcode",
                        bad_opcode);
    auto bad_type = capsules[c];
    bad_type[16] = static_cast<u8>(kLastActiveType) + 1;
    frames.emplace_back("capsule " + std::to_string(c) + ", bad type",
                        bad_type);
  }
  // Past the EOF marker the bytes are payload, whatever they hold.
  auto payload_bad_opcode = capsules[1];
  payload_bad_opcode.back() = 0xee;
  frames.emplace_back("bad opcode in the payload", payload_bad_opcode);

  active::ProgramCache cache;
  std::size_t accepted = 0;
  for (const auto& [name, frame] : frames) {
    ASSERT_NE(classify(frame), FrameClass::kControl) << name;
    bool view_accepts = false;
    if (classify(frame) == FrameClass::kProgram) {
      try {
        (void)ProgramView::parse(frame, cache);
        view_accepts = true;
      } catch (const ParseError&) {
      }
    }
    EXPECT_EQ(view_accepts, try_parse(frame).has_value()) << name;
    accepted += view_accepts ? 1 : 0;
  }
  // A cut is accepted only while it keeps the EOF marker (it shortens the
  // payload), plus the payload case.
  EXPECT_EQ(accepted, capsules.size() + payload_bytes + 1);
}

}  // namespace
}  // namespace artmt::packet
