// Integration tests for the exemplar services' active programs executed
// against a real pipeline + runtime + controller (no network): the cache
// query/populate pair, the frequent-item monitor, and the Cheetah LB.
// Also the application server's passive and capsule request paths over a
// network, and its key-value store against a std::unordered_map reference.
#include <gtest/gtest.h>

#include <unordered_map>

#include "alloc_counter.hpp"

#include "apps/kv.hpp"
#include "apps/programs.hpp"
#include "apps/server_node.hpp"
#include "client/compiler.hpp"
#include "common/rng.hpp"
#include "controller/controller.hpp"
#include "netsim/network.hpp"
#include "rmt/hash.hpp"

namespace artmt::apps {
namespace {

using client::ServiceSpec;
using client::SynthesizedProgram;
using packet::ActivePacket;
using packet::ArgumentHeader;
using runtime::Verdict;

class Fixture : public ::testing::Test {
 protected:
  Fixture()
      : pipeline_(rmt::PipelineConfig{}), runtime_(pipeline_),
        controller_(pipeline_, runtime_) {}

  Fid admit(const alloc::AllocationRequest& request) {
    const auto result = controller_.admit(request);
    EXPECT_TRUE(result.admitted);
    if (controller_.has_pending()) {
      controller_.timeout_pending();
      controller_.apply_pending();
    }
    return result.fid;
  }

  SynthesizedProgram synth(const ServiceSpec& spec, Fid fid) {
    return client::synthesize(spec, *controller_.mutant_of(fid),
                              controller_.response_for(fid), 20);
  }

  runtime::ExecutionResult run(Fid fid, const active::Program& program,
                               ArgumentHeader args, ActivePacket& out,
                               const runtime::PacketMeta& meta = {}) {
    out = ActivePacket::make_program(fid, args, program);
    out = ActivePacket::parse(out.serialize());
    return runtime_.execute(out, meta);
  }

  rmt::Pipeline pipeline_;
  runtime::ActiveRuntime runtime_;
  controller::Controller controller_;
};

// ---------- program shapes ----------

TEST(Programs, Listing1MatchesPaperLayout) {
  const auto p = cache_query_program();
  EXPECT_EQ(p.size(), 11u);
  const auto a = active::analyze(p);
  EXPECT_EQ(a.access_positions, (std::vector<u32>{1, 4, 8}));
  EXPECT_EQ(a.rts_positions, (std::vector<u32>{7}));
}

TEST(Programs, PopulateAlignsWithQueryViaPreload) {
  const auto p = cache_populate_program();
  EXPECT_TRUE(p.preload_mar);
  EXPECT_TRUE(p.preload_mbr);
  const auto a = active::analyze(p);
  ASSERT_EQ(a.access_positions.size(), 3u);
  // Populate accesses can always be padded out to the query's stages.
  const auto q = active::analyze(cache_query_program());
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_LE(a.access_positions[i], q.access_positions[i]);
  }
}

TEST(Programs, MonitorRecirculatesOnlyOnStore) {
  const auto p = hh_monitor_program();
  EXPECT_EQ(p.size(), 40u);
  const auto a = active::analyze(p);
  EXPECT_EQ(a.access_positions,
            (std::vector<u32>{7, 12, 16, 24, 29, 36}));
  // The early-out (CRETI at 19) keeps the common case in one pass.
}

TEST(Programs, LbProgramsAssemble) {
  EXPECT_EQ(active::analyze(lb_select_program()).access_positions,
            (std::vector<u32>{2, 5, 12}));
  EXPECT_TRUE(active::analyze(lb_route_program()).access_positions.empty());
}

// ---------- cache semantics ----------

class CacheFixture : public Fixture {
 protected:
  CacheFixture() {
    fid_ = admit(cache_request());
    query_ = synth(cache_service_spec(), fid_);
    ServiceSpec populate_spec;
    populate_spec.program = cache_populate_program();
    populate_spec.demands = {1, 1, 1};
    populate_ = synth(populate_spec, fid_);
  }

  u32 bucket_of(u64 key) const {
    const std::array<Word, 2> halves{key_half0(key), key_half1(key)};
    return rmt::hash_words(halves, 6) % query_.bucket_count();
  }

  void populate(u64 key, u32 value) {
    ArgumentHeader args;
    args.args[0] = populate_.access_base[0] + bucket_of(key);
    args.args[1] = key_half0(key);
    args.args[2] = key_half1(key);
    args.args[3] = value;
    ActivePacket pkt;
    const auto res = run(fid_, populate_.program, args, pkt);
    ASSERT_EQ(res.verdict, Verdict::kReturnToSender);  // populate ack
  }

  // Returns (hit, value).
  std::pair<bool, u32> query(u64 key) {
    ArgumentHeader args;
    args.args[0] = query_.access_base[0] + bucket_of(key);
    args.args[1] = key_half0(key);
    args.args[2] = key_half1(key);
    ActivePacket pkt;
    const auto res = run(fid_, query_.program, args, pkt);
    if (res.verdict == Verdict::kReturnToSender) {
      return {true, pkt.arguments->args[0]};
    }
    return {false, 0};
  }

  Fid fid_ = 0;
  SynthesizedProgram query_;
  SynthesizedProgram populate_;
};

TEST_F(CacheFixture, MissBeforePopulate) {
  const auto [hit, value] = query(0xdeadbeefcafeULL);
  EXPECT_FALSE(hit);
}

TEST_F(CacheFixture, HitAfterPopulate) {
  populate(0xdeadbeefcafeULL, 777);
  const auto [hit, value] = query(0xdeadbeefcafeULL);
  EXPECT_TRUE(hit);
  EXPECT_EQ(value, 777u);
}

TEST_F(CacheFixture, PartialKeyMatchIsMiss) {
  populate(0x1111111122222222ULL, 1);
  // Same first half, different second half: the second CRET fires.
  const auto [hit, value] = query(0x1111111133333333ULL);
  EXPECT_FALSE(hit);
}

TEST_F(CacheFixture, DifferentBucketsIndependent) {
  u64 a = 1, b = 2;
  // Find two keys in different buckets.
  while (bucket_of(a) == bucket_of(b)) ++b;
  populate(a, 10);
  populate(b, 20);
  EXPECT_EQ(query(a).second, 10u);
  EXPECT_EQ(query(b).second, 20u);
}

TEST_F(CacheFixture, CollisionLastWriterWins) {
  // Two keys forced into the same bucket: the second populate evicts.
  u64 a = 100, b = 101;
  while (bucket_of(b) != bucket_of(a)) ++b;
  populate(a, 1);
  populate(b, 2);
  EXPECT_FALSE(query(a).first);
  EXPECT_TRUE(query(b).first);
}

TEST_F(CacheFixture, QueryRunsInOnePass) {
  populate(42, 1);
  ArgumentHeader args;
  args.args[0] = query_.access_base[0] + bucket_of(42);
  args.args[1] = key_half0(42);
  args.args[2] = key_half1(42);
  ActivePacket pkt;
  const auto res = run(fid_, query_.program, args, pkt);
  // Listing 1: 11 instructions < 20 stages and RTS in ingress.
  EXPECT_EQ(res.passes, 1u);
}

TEST_F(CacheFixture, HitRateTracksZipfTopMass) {
  // Populate the top-64 keys of a Zipf universe and measure the hit rate
  // over draws: it should approximate the popularity mass of the top 64.
  const u32 kHot = 64;
  for (u32 rank = 0; rank < kHot; ++rank) {
    populate(0xa000000000ULL + rank, rank);
  }
  // Query hot and cold keys; hot ones must all hit.
  u32 hits = 0;
  for (u32 rank = 0; rank < kHot; ++rank) {
    if (query(0xa000000000ULL + rank).first) ++hits;
  }
  // A few collisions within the hot set are possible (last-writer-wins).
  EXPECT_GT(hits, kHot * 3 / 4);
  EXPECT_FALSE(query(0xb000000000ULL).first);
}

// ---------- frequent-item monitor semantics ----------

class HhFixture : public Fixture {
 protected:
  HhFixture() {
    fid_ = admit(hh_request());
    monitor_ = synth(hh_service_spec(), fid_);
  }

  runtime::ExecutionResult observe(u64 key) {
    ArgumentHeader args;
    args.args[0] = key_half0(key);
    args.args[1] = key_half1(key);
    ActivePacket pkt;
    return run(fid_, monitor_.program, args, pkt);
  }

  // Reads the stored key/threshold for `key`'s bucket directly.
  struct Bucket {
    Word key0, key1, threshold;
  };
  Bucket bucket_for(u64 key) {
    const std::array<Word, active::kHashdataWords> hashdata{
        key_half0(key), key_half1(key), 0, 0};
    const auto& mutant = *controller_.mutant_of(fid_);
    Bucket out{};
    const auto read = [&](u32 access) {
      const u32 stage = mutant[access] % 20;
      const auto* entry = pipeline_.stage(stage).lookup(fid_);
      const u32 index = rmt::hash_words(hashdata, 2) & entry->mask;
      return pipeline_.stage(stage).memory().read(entry->offset + index);
    };
    out.threshold = read(2);
    out.key0 = read(3);
    out.key1 = read(4);
    return out;
  }

  Fid fid_ = 0;
  SynthesizedProgram monitor_;
};

TEST_F(HhFixture, ColdKeyCompletesInOnePass) {
  // First observation: sketch = 1 > threshold 0 -> stores the key, which
  // needs the second pass.
  const auto res = observe(0x1234);
  EXPECT_EQ(res.verdict, Verdict::kForward);
  EXPECT_EQ(res.passes, 2u);
}

TEST_F(HhFixture, StoresKeyAndRaisesThreshold) {
  observe(0xabcdULL);
  const auto bucket = bucket_for(0xabcdULL);
  EXPECT_EQ(join_key(bucket.key0, bucket.key1), 0xabcdULL);
  EXPECT_EQ(bucket.threshold, 1u);
}

TEST_F(HhFixture, RepeatedKeyKeepsWinning) {
  for (int i = 0; i < 5; ++i) observe(0xabcdULL);
  const auto bucket = bucket_for(0xabcdULL);
  EXPECT_EQ(join_key(bucket.key0, bucket.key1), 0xabcdULL);
  EXPECT_EQ(bucket.threshold, 5u);
}

TEST_F(HhFixture, InfrequentKeyDoesNotEvictFrequentOne) {
  for (int i = 0; i < 10; ++i) observe(0x1111ULL);
  // A colliding-bucket challenger with fewer observations must not evict.
  // (Use the same key-bucket by construction: same key tables are indexed
  // by hash engine 2, so find a key with the same table index.)
  const auto& mutant = *controller_.mutant_of(fid_);
  const u32 stage = mutant[2] % 20;
  const auto* entry = pipeline_.stage(stage).lookup(fid_);
  const std::array<Word, 4> base{key_half0(0x1111ULL), key_half1(0x1111ULL),
                                 0, 0};
  const u32 want = rmt::hash_words(base, 2) & entry->mask;
  u64 challenger = 0x2222;
  for (;; ++challenger) {
    const std::array<Word, 4> h{key_half0(challenger),
                                key_half1(challenger), 0, 0};
    if ((rmt::hash_words(h, 2) & entry->mask) == want &&
        challenger != 0x1111ULL) {
      break;
    }
  }
  observe(challenger);  // sketch 1 <= threshold 10: early return
  const auto bucket = bucket_for(0x1111ULL);
  EXPECT_EQ(join_key(bucket.key0, bucket.key1), 0x1111ULL);
  EXPECT_EQ(bucket.threshold, 10u);
}

TEST_F(HhFixture, NonHeavyObservationIsOnePass) {
  for (int i = 0; i < 3; ++i) observe(0x7777ULL);
  // Build a distinct key that shares the threshold bucket (as above).
  const auto& mutant = *controller_.mutant_of(fid_);
  const u32 stage = mutant[2] % 20;
  const auto* entry = pipeline_.stage(stage).lookup(fid_);
  const std::array<Word, 4> base{key_half0(0x7777ULL), key_half1(0x7777ULL),
                                 0, 0};
  const u32 want = rmt::hash_words(base, 2) & entry->mask;
  u64 other = 0x9999;
  for (;; ++other) {
    const std::array<Word, 4> h{key_half0(other), key_half1(other), 0, 0};
    if ((rmt::hash_words(h, 2) & entry->mask) == want && other != 0x7777ULL) {
      break;
    }
  }
  const auto res = observe(other);
  EXPECT_EQ(res.passes, 1u);  // CRETI fired before the store pass
}

TEST_F(HhFixture, CmsCountsAcrossBothRows) {
  // Each observation bumps both CMS rows.
  observe(0x4242ULL);
  const auto& mutant = *controller_.mutant_of(fid_);
  const std::array<Word, 4> h{key_half0(0x4242ULL), key_half1(0x4242ULL), 0,
                              0};
  for (const u32 access : {0u, 1u}) {
    const u32 stage = mutant[access] % 20;
    const auto* entry = pipeline_.stage(stage).lookup(fid_);
    const u32 index = rmt::hash_words(h, access) & entry->mask;
    EXPECT_GE(pipeline_.stage(stage).memory().read(entry->offset + index),
              1u);
  }
}

// ---------- Cheetah LB semantics ----------

class LbFixture : public Fixture {
 protected:
  LbFixture() {
    fid_ = admit(lb_request());
    select_ = synth(lb_service_spec(), fid_);
    // Configure: pool mask and pool entries written straight into memory
    // (the service normally does this via memsync capsules).
    const auto& mutant = *controller_.mutant_of(fid_);
    const auto install = [&](u32 access, u32 index, Word value) {
      const u32 stage = mutant[access] % 20;
      const auto* entry = pipeline_.stage(stage).lookup(fid_);
      pipeline_.stage(stage).memory().write(entry->start_word + index, value);
    };
    install(0, 0, kPoolSize - 1);  // pool mask
    for (u32 i = 0; i < kPoolSize; ++i) install(2, i, kFirstPort + i);
  }

  static constexpr u32 kPoolSize = 4;
  static constexpr u32 kFirstPort = 10;

  runtime::ExecutionResult send_syn(u32 flow, ActivePacket& pkt) {
    ArgumentHeader args;
    args.args[0] = select_.access_base[0];
    args.args[1] = select_.access_base[1];
    args.args[2] = select_.access_base[2];
    runtime::PacketMeta meta;
    meta.five_tuple = {flow, flow * 7, flow * 13, 0};
    return run(fid_, select_.program, args, pkt, meta);
  }

  runtime::ExecutionResult send_data(u32 flow, Word cookie,
                                     ActivePacket& pkt) {
    ArgumentHeader args;
    args.args[0] = cookie;
    runtime::PacketMeta meta;
    meta.five_tuple = {flow, flow * 7, flow * 13, 0};
    return run(fid_, lb_route_program(), args, pkt, meta);
  }

  Fid fid_ = 0;
  SynthesizedProgram select_;
};

TEST_F(LbFixture, SynPicksServersRoundRobin) {
  std::vector<Word> picks;
  for (u32 flow = 1; flow <= 8; ++flow) {
    ActivePacket pkt;
    const auto res = send_syn(flow, pkt);
    ASSERT_EQ(res.verdict, Verdict::kForward);
    ASSERT_TRUE(res.phv.dst_overridden);
    picks.push_back(res.phv.dst_value);
  }
  // Round robin over 4 servers starting after the first increment.
  for (std::size_t i = 0; i < picks.size(); ++i) {
    EXPECT_EQ(picks[i], kFirstPort + (i + 1) % kPoolSize);
  }
}

TEST_F(LbFixture, CookieRoutesDataToSameServer) {
  for (u32 flow = 1; flow <= 10; ++flow) {
    ActivePacket syn;
    const auto syn_res = send_syn(flow, syn);
    const Word server = syn_res.phv.dst_value;
    const Word cookie = syn.arguments->args[3];

    ActivePacket data;
    const auto data_res = send_data(flow, cookie, data);
    ASSERT_TRUE(data_res.phv.dst_overridden);
    EXPECT_EQ(data_res.phv.dst_value, server) << "flow " << flow;
  }
}

TEST_F(LbFixture, WrongCookieRoutesElsewhere) {
  ActivePacket syn;
  const auto res = send_syn(1, syn);
  ActivePacket data;
  const auto wrong = send_data(1, syn.arguments->args[3] ^ 0x5, data);
  EXPECT_NE(wrong.phv.dst_value, res.phv.dst_value);
}

TEST_F(LbFixture, RoutingIsStateless) {
  // No memory accesses in the route program: works for any FID.
  ActivePacket syn;
  send_syn(3, syn);
  const Word cookie = syn.arguments->args[3];
  ArgumentHeader args;
  args.args[0] = cookie;
  runtime::PacketMeta meta;
  meta.five_tuple = {3, 21, 39, 0};
  ActivePacket pkt = ActivePacket::make_program(999, args, lb_route_program());
  const auto res = runtime_.execute(pkt, meta);
  EXPECT_TRUE(res.phv.dst_overridden);
}

// ---------- application server, passive requests ----------

class Peer : public netsim::Node {
 public:
  Peer() : netsim::Node("peer") {}
  void on_frame(netsim::Frame frame, u32 port) override {
    (void)port;
    frames.push_back(std::move(frame));
  }
  std::vector<netsim::Frame> frames;
};

TEST(ServerNodePassive, AnswersPassiveGetAndIgnoresBareHeaders) {
  constexpr packet::MacAddr kPeerMac = 0xcc;
  constexpr packet::MacAddr kServerMac = 0xbb;
  netsim::Simulator sim;
  netsim::Network net(sim);
  auto peer = std::make_shared<Peer>();
  auto server = std::make_shared<ServerNode>("server", kServerMac);
  net.attach(peer);
  net.attach(server);
  net.connect(*peer, 0, *server, 0);
  server->put(42, 777);

  ByteWriter get;
  packet::EthernetHeader eth;
  eth.dst = kServerMac;
  eth.src = kPeerMac;
  eth.ethertype = packet::kEtherTypeIpv4;
  eth.serialize(get);
  get.put_bytes(KvMessage{KvMessage::Type::kGet, /*request_id=*/5,
                          /*key=*/42, /*value=*/0}
                    .serialize());
  net.transmit(*peer, 0, net.pool().copy(get.bytes()));
  // Frames with no byte past the Ethernet header carry no request.
  const auto header_only = std::span<const u8>(get.bytes())
                               .first(packet::EthernetHeader::kWireSize);
  net.transmit(*peer, 0, net.pool().copy(header_only));
  net.transmit(*peer, 0, net.pool().copy(header_only.first(6)));
  sim.run();

  EXPECT_EQ(server->stats().gets_served, 1u);
  EXPECT_EQ(server->stats().ignored, 2u);
  ASSERT_EQ(peer->frames.size(), 1u);
  const std::vector<u8> reply = peer->frames[0].to_vector();
  ByteReader in(reply);
  const auto reply_eth = packet::EthernetHeader::parse(in);
  EXPECT_EQ(reply_eth.dst, kPeerMac);
  EXPECT_EQ(reply_eth.src, kServerMac);
  EXPECT_EQ(reply_eth.ethertype, packet::kEtherTypeIpv4);
  const auto msg = KvMessage::parse(
      std::span<const u8>(reply).subspan(packet::EthernetHeader::kWireSize));
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, KvMessage::Type::kReply);
  EXPECT_EQ(msg->request_id, 5u);
  EXPECT_EQ(msg->key, 42u);
  EXPECT_EQ(msg->value, 777u);
}

// A cache miss reaches the origin as the query capsule itself, its code
// still on the wire; a load-balancer SYN carries its cookie in args[3].
// The server reads both in place, so with a warm pool and event queue
// answering them allocates nothing.
TEST(ServerNode, ProgramCapsulesAllocateNothing) {
  constexpr packet::MacAddr kPeerMac = 0xcc;
  constexpr packet::MacAddr kServerMac = 0xbb;
  netsim::Simulator sim;
  netsim::Network net(sim);
  auto peer = std::make_shared<Peer>();
  auto server = std::make_shared<ServerNode>("server", kServerMac);
  net.attach(peer);
  net.attach(server);
  net.connect(*peer, 0, *server, 0);
  server->put(42, 777);

  const auto capsule = [](const active::Program& program, Word cookie,
                          const KvMessage& msg) {
    auto pkt = ActivePacket::make_program(
        1, ArgumentHeader{{10, 2, 3, cookie}}, program);
    pkt.ethernet.src = kPeerMac;
    pkt.ethernet.dst = kServerMac;
    pkt.payload = msg.serialize();
    return pkt.serialize();
  };
  const auto get = capsule(cache_query_program(), 0,
                           KvMessage{KvMessage::Type::kGet, 5, 42, 0});
  const auto syn = capsule(lb_select_program(), 0xc00c1e,
                           KvMessage{KvMessage::Type::kLbSyn, 6, 9, 0});
  const auto push = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      peer->frames.clear();
      net.transmit(*peer, 0, net.pool().copy(get));
      net.transmit(*peer, 0, net.pool().copy(syn));
      sim.run();
    }
  };
  push(16);  // warm the pool, the event queue and the program cache
  const unsigned long long before = g_alloc_count;
  push(1000);
  EXPECT_EQ(g_alloc_count - before, 0u);

  EXPECT_EQ(server->stats().gets_served, 1016u);
  EXPECT_EQ(server->stats().syns_answered, 1016u);
  EXPECT_EQ(server->stats().ignored, 0u);
  ASSERT_EQ(peer->frames.size(), 2u);
  for (const netsim::Frame& frame : peer->frames) {
    const auto msg = KvMessage::parse(
        std::span<const u8>(frame).subspan(packet::EthernetHeader::kWireSize));
    ASSERT_TRUE(msg.has_value());
    if (msg->type == KvMessage::Type::kReply) {
      EXPECT_EQ(msg->value, 777u);
    } else {
      EXPECT_EQ(msg->type, KvMessage::Type::kLbCookie);
      EXPECT_EQ(msg->value, 0xc00c1eu);
    }
  }
}

// ---------- the server's store ----------

// What ZipfGenerator::key_for_rank makes: a splitmix64 scramble.
u64 scrambled(u64 i) {
  u64 x = i + 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Key i of one of four sets: key 0 alone, small sequential integers,
// scrambled ranks, and keys that differ only above bit 40 (the tenant
// part of perfbench's keys).
u64 key_in_set(u64 set, u64 i) {
  switch (set) {
    case 0: return 0;
    case 1: return i + 1;
    case 2: return scrambled(i);
    default: return (i + 1) << 40;
  }
}

TEST(ServerNode, StoreMatchesUnorderedMap) {
  ServerNode server("server", 0xbb);
  std::unordered_map<u64, u32> reference;
  std::vector<u64> present;
  u64 next[4] = {};
  Rng rng(0x5e12);
  const auto check = [&](u64 key) {
    const auto it = reference.find(key);
    const std::optional<u32> got = server.get(key);
    ASSERT_EQ(got.has_value(), it != reference.end()) << "key " << key;
    if (got) {
      ASSERT_EQ(*got, it->second) << "key " << key;
    }
  };
  for (int op = 0; op < 200'000; ++op) {
    const u64 roll = rng.uniform(100);
    const u64 set = rng.uniform(4);
    const auto value = static_cast<u32>(rng.next_u64());
    if (roll < 45 || present.empty()) {  // put a new key (key 0 overwrites)
      const u64 key = key_in_set(set, next[set]++);
      if (!reference.contains(key)) present.push_back(key);
      reference[key] = value;
      server.put(key, value);
    } else if (roll < 65) {  // overwrite a present key
      const u64 key = present[rng.uniform(present.size())];
      reference[key] = value;
      server.put(key, value);
    } else if (roll < 85) {  // get a present key
      check(present[rng.uniform(present.size())]);
    } else {  // get a key not put yet (key 0 only before its first put)
      check(key_in_set(set, next[set]));
    }
    if (HasFatalFailure()) return;
  }
  // ~67,000 keys: the table doubled from 16 to 131,072 slots.
  EXPECT_GT(reference.size(), 60'000u);
  for (const auto& [key, value] : reference) check(key);
}

TEST(ServerNode, PutsAllocateOnlyWhenTheTableGrows) {
  ServerNode server("server", 0xbb);
  const auto allocs_before = g_alloc_count;
  const auto bytes_before = g_alloc_bytes;
  // serve_mix's store: 64 tenants x 4,096 keys, each tenant above bit 40.
  for (u64 tenant = 1; tenant <= 64; ++tenant) {
    for (u32 rank = 0; rank < 4096; ++rank) {
      server.put((tenant << 40) ^ scrambled(rank), rank);
    }
  }
  const auto allocs = g_alloc_count - allocs_before;
  const auto bytes = g_alloc_bytes - bytes_before;
  // A node per key makes 262,144 allocations. The table of 12-byte slots
  // doubles 15 times from its initial 16 slots and requests 12 MiB in all
  // (16-byte slots would request 16 MiB).
  EXPECT_LE(allocs, 20u);
  EXPECT_LE(bytes, 13u << 20);
  EXPECT_EQ(server.get((64ULL << 40) ^ scrambled(4095)), 4095u);
  EXPECT_FALSE(server.get((65ULL << 40) ^ scrambled(0)).has_value());
}

}  // namespace
}  // namespace artmt::apps
