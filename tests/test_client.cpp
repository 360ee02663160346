// Tests for the client compiler (request derivation, mutant synthesis,
// preloading) and the memory-sync capsule builders, including executing
// memsync programs against a real runtime + controller, and the client
// node's handling of frames that are not well-formed capsules, of
// capsules no service claims, and of returned capsules (read in place).
#include <gtest/gtest.h>

#include "active/assembler.hpp"
#include "alloc_counter.hpp"
#include "apps/cache_service.hpp"
#include "apps/kv.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/client_node.hpp"
#include "client/compiler.hpp"
#include "client/memsync.hpp"
#include "controller/controller.hpp"
#include "controller/switch_node.hpp"
#include "netsim/network.hpp"

namespace artmt::client {
namespace {

using active::Opcode;

// ---------- compiler ----------

TEST(Compiler, BuildRequestDerivesEverything) {
  const auto request = build_request(apps::cache_service_spec());
  EXPECT_EQ(request.program_length, 11u);
  EXPECT_TRUE(request.elastic);
  ASSERT_EQ(request.accesses.size(), 3u);
  EXPECT_EQ(request.accesses[0].position, 1u);
  EXPECT_EQ(request.accesses[0].demand_blocks, 1u);
  EXPECT_EQ(*request.rts_position, 7u);
}

TEST(Compiler, BuildRequestValidates) {
  ServiceSpec spec = apps::cache_service_spec();
  spec.demands = {1, 1};  // wrong arity
  EXPECT_THROW((void)build_request(spec), CompileError);

  ServiceSpec no_access;
  no_access.program = active::assemble("NOP\nRETURN");
  EXPECT_THROW((void)build_request(no_access), CompileError);

  ServiceSpec bad_alias = apps::cache_service_spec();
  bad_alias.aliases = {-1, -1};  // wrong arity
  EXPECT_THROW((void)build_request(bad_alias), CompileError);
}

TEST(Compiler, SynthesizeMutatesAndResolvesBases) {
  const auto spec = apps::cache_service_spec();
  packet::AllocResponseHeader regions;
  regions.regions[2] = {1000, 2000};
  regions.regions[6] = {3000, 4000};
  regions.regions[12] = {500, 600};
  const auto synth = synthesize(spec, {2, 6, 12}, regions, 20);
  const auto analysis = active::analyze(synth.program);
  EXPECT_EQ(analysis.access_positions, (std::vector<u32>{2, 6, 12}));
  EXPECT_EQ(synth.access_base, (std::vector<u32>{1000, 3000, 500}));
  EXPECT_EQ(synth.access_words, (std::vector<u32>{1000, 1000, 100}));
  EXPECT_EQ(synth.bucket_count(), 100u);  // min across coupled stages
}

TEST(Compiler, SynthesizeWrapsRecirculatedStages) {
  const auto spec = apps::cache_service_spec();
  packet::AllocResponseHeader regions;
  regions.regions[1] = {0, 10};
  regions.regions[4] = {0, 10};
  regions.regions[3] = {0, 10};  // global stage 23 -> physical 3
  const auto synth = synthesize(spec, {1, 4, 23}, regions, 20);
  EXPECT_EQ(synth.access_base.size(), 3u);
}

TEST(Compiler, SynthesizeRejectsMissingRegion) {
  const auto spec = apps::cache_service_spec();
  packet::AllocResponseHeader regions;  // nothing allocated
  EXPECT_THROW((void)synthesize(spec, {1, 4, 8}, regions, 20), CompileError);
}

TEST(Compiler, SynthesizeRejectsWrongMutantArity) {
  const auto spec = apps::cache_service_spec();
  packet::AllocResponseHeader regions;
  EXPECT_THROW((void)synthesize(spec, {1, 4}, regions, 20), CompileError);
}

TEST(Compiler, ApplyPreloadStripsLeadingLoads) {
  active::Program p = active::assemble(R"(
      MAR_LOAD $0
      MBR_LOAD $1
      MEM_WRITE
      RETURN
  )");
  apply_preload(p);
  EXPECT_TRUE(p.preload_mar);
  EXPECT_TRUE(p.preload_mbr);
  EXPECT_EQ(p.size(), 2u);
  EXPECT_EQ(p.code()[0].op, Opcode::kMemWrite);
}

TEST(Compiler, ApplyPreloadOnlyMatchesConvention) {
  // MAR_LOAD $2 does not match the $0 convention: untouched.
  active::Program p = active::assemble("MAR_LOAD $2\nMEM_READ\nRETURN");
  apply_preload(p);
  EXPECT_FALSE(p.preload_mar);
  EXPECT_EQ(p.size(), 3u);
}

// ---------- composition ----------

TEST(Compose, CacheQueryDominatesPopulate) {
  // The query's accesses (1,4,8) bind; the preloaded populate program's
  // (0,2,4) are slack. Composite == the query-derived request.
  ServiceSpec populate_spec;
  populate_spec.program = apps::cache_populate_program();
  populate_spec.demands = {1, 1, 1};
  populate_spec.elastic = true;
  const ServiceSpec members[] = {apps::cache_service_spec(), populate_spec};
  const auto composite = compose_request(members);
  const auto query_only = build_request(apps::cache_service_spec());
  ASSERT_EQ(composite.accesses.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(composite.accesses[i].position,
              query_only.accesses[i].position);
  }
  EXPECT_EQ(composite.program_length, query_only.program_length);
  EXPECT_EQ(*composite.rts_position, *query_only.rts_position);
}

TEST(Compose, WiderGapBinds) {
  // Program A: accesses at 1, 3 (gap 2); program B: accesses at 1, 6
  // (gap 5). The composite must honor the larger gap.
  ServiceSpec a;
  a.program = active::assemble("MAR_LOAD $0\nMEM_READ\nNOP\nMEM_READ\nRETURN");
  a.demands = {1, 1};
  ServiceSpec b;
  b.program = active::assemble(
      "MAR_LOAD $0\nMEM_READ\nNOP\nNOP\nNOP\nNOP\nMEM_READ\nRETURN");
  b.demands = {2, 1};
  const ServiceSpec members[] = {a, b};
  const auto composite = compose_request(members);
  EXPECT_EQ(composite.accesses[0].position, 1u);
  EXPECT_EQ(composite.accesses[1].position, 6u);
  EXPECT_EQ(composite.accesses[0].demand_blocks, 2u);  // max of members
}

TEST(Compose, MismatchedMembersRejected) {
  ServiceSpec a = apps::cache_service_spec();
  ServiceSpec b;
  b.program = active::assemble("MAR_LOAD $0\nMEM_READ\nRETURN");
  b.demands = {1};
  const ServiceSpec members[] = {a, b};
  EXPECT_THROW((void)compose_request(members), CompileError);

  ServiceSpec inelastic = apps::cache_service_spec();
  inelastic.elastic = false;
  const ServiceSpec mixed[] = {apps::cache_service_spec(), inelastic};
  EXPECT_THROW((void)compose_request(mixed), CompileError);

  EXPECT_THROW((void)compose_request({}), CompileError);
}

TEST(Compose, SingleMemberIsIdentity) {
  const ServiceSpec members[] = {apps::cache_service_spec()};
  const auto composite = compose_request(members);
  const auto direct = build_request(apps::cache_service_spec());
  EXPECT_EQ(composite.program_length, direct.program_length);
  for (std::size_t i = 0; i < composite.accesses.size(); ++i) {
    EXPECT_EQ(composite.accesses[i].position, direct.accesses[i].position);
  }
}

TEST(Compose, EveryMemberSynthesizableFromCompositePlacements) {
  // Property: any mutant admissible for the composite must be a valid
  // mutation target for each member program.
  ServiceSpec populate_spec;
  populate_spec.program = apps::cache_populate_program();
  populate_spec.demands = {1, 1, 1};
  populate_spec.elastic = true;
  const ServiceSpec members[] = {apps::cache_service_spec(), populate_spec};
  const auto composite = compose_request(members);
  const auto mutants = alloc::enumerate_mutants(
      composite, alloc::StageGeometry{20, 10},
      alloc::MutantPolicy::most_constrained());
  ASSERT_FALSE(mutants.empty());
  for (const auto& mutant : mutants) {
    for (const auto& member : members) {
      EXPECT_NO_THROW((void)active::mutate(member.program, mutant));
    }
  }
}

// ---------- memsync builders ----------

TEST(Memsync, ReadProgramAlignsToStage) {
  for (const u32 stage : {0u, 1u, 5u, 17u}) {
    const auto p = make_read_program({stage, 1234});
    const auto analysis = active::analyze(p);
    ASSERT_EQ(analysis.access_positions.size(), 1u);
    const u32 index = analysis.access_positions[0];
    const u32 effective = index + (p.preload_mar ? 1u : 0u);
    (void)effective;
    // With preload the indices already equal stages.
    EXPECT_EQ(index, stage == 0 ? 0u : stage);
  }
}

TEST(Memsync, WriteProgramAlignsToStage) {
  for (const u32 stage : {0u, 1u, 2u, 9u}) {
    const auto p = make_write_program({stage, 50});
    const auto analysis = active::analyze(p);
    ASSERT_EQ(analysis.access_positions.size(), 1u);
    EXPECT_EQ(analysis.access_positions[0], stage);
    EXPECT_EQ(p.code()[analysis.access_positions[0]].op, Opcode::kMemWrite);
  }
}

TEST(Memsync, PairProgramsHitBothStages) {
  const auto rd = make_read_pair_program({2, 10}, {7, 20});
  const auto a = active::analyze(rd);
  EXPECT_EQ(a.access_positions, (std::vector<u32>{2, 7}));

  const auto wr = make_write_pair_program({3, 10}, {9, 20});
  const auto b = active::analyze(wr);
  EXPECT_EQ(b.access_positions, (std::vector<u32>{3, 9}));
}

TEST(Memsync, PairRejectsBadStageOrder) {
  EXPECT_THROW((void)make_read_pair_program({7, 0}, {7, 0}), UsageError);
  EXPECT_THROW((void)make_read_pair_program({9, 0}, {4, 0}), UsageError);
  // Second stage too close to fit the re-load instructions.
  EXPECT_THROW((void)make_write_pair_program({5, 0}, {6, 0}), UsageError);
}

// ---------- memsync against a live switch ----------

class MemsyncLive : public ::testing::Test {
 protected:
  MemsyncLive()
      : pipeline_(rmt::PipelineConfig{}), runtime_(pipeline_),
        controller_(pipeline_, runtime_) {
    const auto result = controller_.admit(apps::cache_request());
    fid_ = result.fid;
    mutant_ = *controller_.mutant_of(fid_);
    response_ = controller_.response_for(fid_);
  }

  MemRef ref(u32 access, u32 index) const {
    const u32 stage = mutant_[access] % 20;
    return {stage, response_.regions[stage].start_word + index};
  }

  runtime::ExecutionResult run(const active::Program& program,
                               const packet::ArgumentHeader& args,
                               packet::ActivePacket& out) {
    out = packet::ActivePacket::make_program(fid_, args, program);
    // Wire trip to exercise flag encoding.
    out = packet::ActivePacket::parse(out.serialize());
    return runtime_.execute(out);
  }

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  controller::Controller controller_;
  Fid fid_ = 0;
  alloc::Mutant mutant_;
  packet::AllocResponseHeader response_;
};

TEST_F(MemsyncLive, WriteThenReadRoundTrips) {
  const MemRef target = ref(0, 17);
  packet::ActivePacket pkt;
  auto res = run(make_write_program(target), write_args(target, 0xabcd), pkt);
  EXPECT_EQ(res.verdict, runtime::Verdict::kReturnToSender);

  res = run(make_read_program(target), read_args(target), pkt);
  EXPECT_EQ(res.verdict, runtime::Verdict::kReturnToSender);
  EXPECT_EQ(pkt.arguments->args[1], 0xabcdu);
}

TEST_F(MemsyncLive, PairWriteReadsBackInOneCapsule) {
  const MemRef first = ref(0, 3);
  const MemRef second = ref(2, 3);
  ASSERT_LT(first.stage, second.stage);
  packet::ActivePacket pkt;
  auto res = run(make_write_pair_program(first, second),
                 write_pair_args(first, 111, second, 222), pkt);
  EXPECT_EQ(res.verdict, runtime::Verdict::kReturnToSender);

  res = run(make_read_pair_program(first, second),
            read_pair_args(first, second), pkt);
  EXPECT_EQ(res.verdict, runtime::Verdict::kReturnToSender);
  EXPECT_EQ(pkt.arguments->args[1], 111u);
  EXPECT_EQ(pkt.arguments->args[3], 222u);
}

TEST_F(MemsyncLive, OutOfRegionWriteDropsNoAck) {
  // One word past the region: protection drops the capsule (the paper's
  // clients detect this as a missing response and retransmit).
  const u32 stage = mutant_[0] % 20;
  const MemRef bad{stage, response_.regions[stage].limit_word};
  packet::ActivePacket pkt;
  const auto res = run(make_write_program(bad), write_args(bad, 1), pkt);
  EXPECT_EQ(res.verdict, runtime::Verdict::kDrop);
}

TEST_F(MemsyncLive, IdempotentRetransmitSafe) {
  const MemRef target = ref(1, 9);
  packet::ActivePacket pkt;
  run(make_write_program(target), write_args(target, 5), pkt);
  run(make_write_program(target), write_args(target, 5), pkt);  // retransmit
  auto res = run(make_read_program(target), read_args(target), pkt);
  EXPECT_EQ(res.verdict, runtime::Verdict::kReturnToSender);
  EXPECT_EQ(pkt.arguments->args[1], 5u);
}

// ---------- passive traffic at the client node ----------

class Sender : public netsim::Node {
 public:
  Sender() : netsim::Node("sender") {}
  void on_frame(netsim::Frame, u32) override {}
};

TEST(ClientNodePassive, NonCapsuleFramesReachOnPassive) {
  netsim::Simulator sim;
  netsim::Network net(sim);
  auto sender = std::make_shared<Sender>();
  auto client = std::make_shared<ClientNode>("client", /*mac=*/0xcc,
                                             /*switch_mac=*/0xaa);
  net.attach(sender);
  net.attach(client);
  net.connect(*sender, 0, *client, 0);
  std::vector<std::vector<u8>> passive;
  client->on_passive = [&passive](netsim::Frame& frame) {
    passive.push_back(frame.to_vector());
  };
  u32 unclaimed = 0;
  client->on_unclaimed = [&unclaimed](packet::ActivePacket&) { ++unclaimed; };

  // A complete initial header behind the active EtherType.
  const auto active_header = [](u8 type) {
    auto pkt = packet::ActivePacket::make_control(
        0, packet::ActiveType::kDeallocAck);
    pkt.ethernet.dst = 0xcc;
    auto frame = pkt.serialize();
    frame[packet::EthernetHeader::kWireSize + 2] = type;
    return frame;
  };
  auto ipv4 = active_header(0);
  ipv4[12] = 0x08;  // EtherType 0x0800
  ipv4[13] = 0x00;
  auto truncated_header = active_header(0);
  truncated_header.resize(packet::EthernetHeader::kWireSize + 6);
  auto truncated_args = active_header(0);  // a program, cut in its args
  truncated_args.resize(packet::EthernetHeader::kWireSize +
                        packet::InitialHeader::kWireSize + 4);
  const std::vector<std::vector<u8>> frames = {
      std::vector<u8>(10, 0xab),  // shorter than an Ethernet header
      ipv4,
      truncated_header,
      active_header(0xff),  // unknown type byte
      truncated_args,
  };
  for (const auto& frame : frames) {
    net.transmit(*sender, 0, net.pool().copy(frame));
  }
  // A well-formed control capsule no service claims: not passive.
  net.transmit(*sender, 0,
               net.pool().copy(active_header(
                   static_cast<u8>(packet::ActiveType::kDeallocAck))));
  sim.run();

  EXPECT_EQ(passive, frames);
  EXPECT_EQ(unclaimed, 1u);
}

// ---------- program capsules at the client node ----------

// A sender wired straight to a client with no services.
struct CapsuleBed {
  CapsuleBed() {
    net.attach(sender);
    net.attach(client);
    net.connect(*sender, 0, *client, 0);
    client->on_passive = [this](netsim::Frame& frame) {
      passive.push_back(frame.to_vector());
    };
    client->on_unclaimed = [this](packet::ActivePacket& pkt) {
      unclaimed.push_back(pkt);
    };
  }

  void send(const std::vector<u8>& frame) {
    net.transmit(*sender, 0, net.pool().copy(frame));
    sim.run();
  }

  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<Sender> sender = std::make_shared<Sender>();
  std::shared_ptr<ClientNode> client = std::make_shared<ClientNode>(
      "client", /*mac=*/0xcc, /*switch_mac=*/0xaa);
  std::vector<std::vector<u8>> passive;
  std::vector<packet::ActivePacket> unclaimed;
};

std::vector<u8> capsule(Fid fid, std::vector<u8> payload = {1, 2, 3}) {
  auto pkt = packet::ActivePacket::make_program(
      fid, packet::ArgumentHeader{{7, 8, 9, 10}},
      active::assemble("MBR_LOAD $0\nRETURN"));
  pkt.ethernet.dst = 0xcc;
  pkt.ethernet.src = 0xaa;
  pkt.payload = std::move(payload);
  return pkt.serialize();
}

TEST(ClientNodeCapsules, MalformedProgramCapsuleReachesOnPassive) {
  CapsuleBed bed;
  constexpr std::size_t kCode = packet::EthernetHeader::kWireSize +
                                packet::InitialHeader::kWireSize +
                                packet::ArgumentHeader::kWireSize;
  auto unknown_opcode = capsule(5);
  unknown_opcode[kCode] = 0xee;
  auto no_eof = capsule(5, {});
  no_eof.resize(kCode + 4);  // two instructions, then the frame ends
  bed.send(unknown_opcode);
  bed.send(no_eof);
  EXPECT_EQ(bed.passive,
            (std::vector<std::vector<u8>>{unknown_opcode, no_eof}));
  EXPECT_TRUE(bed.unclaimed.empty());
}

TEST(ClientNodeCapsules, UnclaimedProgramCapsuleReachesOnUnclaimed) {
  CapsuleBed bed;
  const auto frame = capsule(77, {4, 5, 6, 7});
  bed.send(frame);
  ASSERT_EQ(bed.unclaimed.size(), 1u);
  const packet::ActivePacket& pkt = bed.unclaimed[0];
  EXPECT_EQ(pkt.initial.fid, 77);
  EXPECT_EQ(pkt.initial.type, packet::ActiveType::kProgram);
  EXPECT_EQ(pkt.arguments->args[3], 10u);
  EXPECT_EQ(pkt.payload, (std::vector<u8>{4, 5, 6, 7}));
  EXPECT_EQ(pkt.serialize(), frame);
  EXPECT_TRUE(bed.passive.empty());
}

// A client that keeps a copy of the last frame it received.
class TappedClient : public ClientNode {
 public:
  using ClientNode::ClientNode;
  void on_frame(netsim::Frame frame, u32 port) override {
    last = frame.to_vector();
    ClientNode::on_frame(std::move(frame), port);
  }
  std::vector<u8> last;
};

// A switch that keeps a copy of the last frame it received and, while
// `tap_only` is set, handles nothing.
class TappedSwitch : public controller::SwitchNode {
 public:
  TappedSwitch() : SwitchNode("switch", Config{}) {}
  void on_frame(netsim::Frame frame, u32 port) override {
    last = frame.to_vector();
    if (!tap_only) SwitchNode::on_frame(std::move(frame), port);
  }
  std::vector<u8> last;
  bool tap_only = false;
};

// A switch, an origin server and a client whose cache service is
// operational.
struct LiveCacheBed {
  static constexpr packet::MacAddr kSwitchMac = 0xaa;
  static constexpr packet::MacAddr kServerMac = 0xbb;
  static constexpr packet::MacAddr kClientMac = 0xcc;

  LiveCacheBed() {
    net.attach(sw);
    net.attach(server);
    net.attach(client);
    net.connect(*sw, 0, *server, 0);
    net.connect(*sw, 1, *client, 0);
    sw->bind(kServerMac, 0);
    sw->bind(kClientMac, 1);
    client->register_service(cache);
    cache->request_allocation();
    sim.run_until(2 * kSecond);
  }

  netsim::Simulator sim;
  netsim::Network net{sim};
  std::shared_ptr<TappedSwitch> sw = std::make_shared<TappedSwitch>();
  std::shared_ptr<apps::ServerNode> server =
      std::make_shared<apps::ServerNode>("server", kServerMac);
  std::shared_ptr<TappedClient> client =
      std::make_shared<TappedClient>("client", kClientMac, kSwitchMac);
  std::shared_ptr<apps::CacheService> cache =
      std::make_shared<apps::CacheService>("cache", kServerMac);
};

// The cache's RTS'd hit is read in place: once the client's program cache
// has its code, receiving one allocates nothing.
TEST(ClientNodeCapsules, ReturnedCacheReplyAllocatesNothing) {
  LiveCacheBed bed;
  ASSERT_TRUE(bed.cache->operational());
  u32 hits = 0;
  bed.cache->on_result = [&hits](u32, u64 key, u32 value, bool hit) {
    if (hit && key == 0x1234 && value == 99) ++hits;
  };
  bool populated = false;
  bed.cache->populate({{0x1234, 99}}, [&populated] { populated = true; });
  bed.sim.run_until(3 * kSecond);
  ASSERT_TRUE(populated);
  bed.cache->get(0x1234);
  bed.sim.run_until(4 * kSecond);
  ASSERT_EQ(hits, 1u);
  const std::vector<u8> reply = bed.client->last;  // the RTS'd hit

  bed.client->ClientNode::on_frame(bed.net.pool().copy(reply), 0);  // warm
  const unsigned long long before = g_alloc_count;
  for (int i = 0; i < 100; ++i) {
    bed.client->ClientNode::on_frame(bed.net.pool().copy(reply), 0);
  }
  EXPECT_EQ(g_alloc_count - before, 0u);
  EXPECT_EQ(hits, 102u);
}

// Both send_program overloads write the capsule ActivePacket::serialize
// would (preload and management flags included) straight into a pool
// frame: once warm, sending one allocates nothing.
TEST(ClientNodeCapsules, SentProgramCapsulesAreWrittenInPlace) {
  LiveCacheBed bed;
  ASSERT_TRUE(bed.cache->operational());
  bed.sw->tap_only = true;
  const Fid fid = bed.cache->fid();
  const packet::ArgumentHeader args{{3, 4, 5, 6}};
  const auto expected = [&](const active::Program& program,
                            packet::MacAddr dst, u8 flags,
                            std::vector<u8> payload) {
    auto pkt = packet::ActivePacket::make_program(fid, args, program);
    pkt.initial.flags |= flags;
    pkt.ethernet.dst = dst;
    pkt.ethernet.src = LiveCacheBed::kClientMac;
    pkt.payload = std::move(payload);
    return pkt.serialize();
  };

  active::Program program = active::assemble("MAR_LOAD $0\nMEM_READ\nRETURN");
  program.preload_mbr = true;
  bed.cache->send_program(program, args, {9, 8}, /*management=*/true);
  bed.sim.run_until(5 * kSecond);
  EXPECT_EQ(bed.sw->last,
            expected(program, LiveCacheBed::kSwitchMac,
                     packet::kFlagManagement, {9, 8}));

  const SynthesizedProgram& synth = *bed.cache->synthesized();
  ASSERT_NE(synth.compiled, nullptr);
  bed.cache->send_program(synth, args, {7}, false, LiveCacheBed::kServerMac);
  bed.sim.run_until(6 * kSecond);
  EXPECT_EQ(bed.sw->last,
            expected(synth.program, LiveCacheBed::kServerMac, 0, {7}));

  bed.cache->send_program(program, args);  // warm
  bed.cache->send_program(synth, args);
  bed.sim.run_until(7 * kSecond);
  const unsigned long long before = g_alloc_count;
  bed.cache->send_program(program, args);
  bed.cache->send_program(synth, args);
  EXPECT_EQ(g_alloc_count - before, 0u);
  bed.sim.run_until(8 * kSecond);
  EXPECT_EQ(bed.sw->last,
            expected(synth.program, LiveCacheBed::kSwitchMac, 0, {}));
}

}  // namespace
}  // namespace artmt::client
