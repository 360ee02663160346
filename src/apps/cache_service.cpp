#include "apps/cache_service.hpp"

#include "apps/programs.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"
#include "rmt/hash.hpp"

namespace artmt::apps {

namespace {
// Client-side bucket hash uses a hash engine the switch programs don't.
constexpr u32 kBucketEngine = 6;

client::ReliabilityTracker::Options populate_retry_options() {
  client::ReliabilityTracker::Options opts;
  opts.rto = 10 * kMillisecond;  // the former fixed sweep interval
  return opts;
}
}  // namespace

CacheService::CacheService(std::string name, packet::MacAddr server_mac)
    : client::Service(std::move(name), cache_service_spec()),
      server_mac_(server_mac),
      populate_retry_(
          "populate", [this]() -> netsim::Simulator& { return node().sim(); },
          populate_retry_options()) {
  // Writes hold off while the allocation is being renegotiated
  // (transmissions pause in kMemoryManagement; Section 5) without
  // charging the retry budget.
  populate_retry_.paused = [this] { return !operational(); };
  populate_retry_.on_give_up = [this](u32 request_id) {
    populate_resolved(request_id);
  };
}

u32 CacheService::bucket_count() const {
  const auto* synth = synthesized();
  return synth == nullptr ? 0 : synth->bucket_count();
}

u32 CacheService::bucket_for(u64 key) const {
  const u32 buckets = bucket_count();
  if (buckets == 0) throw UsageError("CacheService: no allocation yet");
  const std::array<Word, 2> halves{key_half0(key), key_half1(key)};
  return rmt::hash_words(halves, kBucketEngine) % buckets;
}

alloc::AllocationRequest CacheService::allocation_request() const {
  client::ServiceSpec populate_spec;
  populate_spec.program = cache_populate_program();
  populate_spec.demands = spec().demands;
  populate_spec.elastic = spec().elastic;
  const client::ServiceSpec members[] = {spec(), populate_spec};
  return client::compose_request(members);
}

void CacheService::resynthesize_populate() {
  client::ServiceSpec populate_spec;
  populate_spec.program = cache_populate_program();
  populate_spec.demands = spec().demands;
  populate_synth_ = client::synthesize(populate_spec, *mutant(), *regions(),
                                       node().logical_stages());
}

void CacheService::on_operational() {
  resynthesize_populate();
  if (on_ready) on_ready();
}

void CacheService::on_moved() {
  resynthesize_populate();
  // The switch zeroed the new region; the hot set must be written again.
  if (on_relocated) {
    on_relocated();
  } else if (!hot_set_.empty()) {
    populate(hot_set_);
  }
}

void CacheService::send_query(u64 key, u32 request_id) {
  const auto* synth = synthesized();
  packet::ArgumentHeader args;
  args.args[0] = synth->access_base[0] + bucket_for(key);
  args.args[1] = key_half0(key);
  args.args[2] = key_half1(key);
  KvMessage msg;
  msg.type = KvMessage::Type::kGet;
  msg.request_id = request_id;
  msg.key = key;
  send_program(*synth, args, msg.serialize(), false, server_mac_);
}

void CacheService::get(u64 key) {
  if (!operational()) {
    // While negotiating or yielding, requests go straight to the server
    // (transmissions of active programs are paused; Section 5).
    KvMessage msg;
    msg.type = KvMessage::Type::kGet;
    msg.request_id = next_request_++;
    msg.key = key;
    packet::ActivePacket pkt;
    pkt.initial.type = packet::ActiveType::kProgram;
    pkt.initial.fid = fid();
    pkt.arguments = packet::ArgumentHeader{};
    pkt.program = active::Program{};  // empty program: plain forwarding
    pkt.payload = msg.serialize();
    node().send_active_to(server_mac_, std::move(pkt));
    return;
  }
  send_query(key, next_request_++);
}

void CacheService::send_populate(u64 key, u32 value, u32 request_id) {
  packet::ArgumentHeader args;
  args.args[0] = populate_synth_.access_base[0] + bucket_for(key);
  args.args[1] = key_half0(key);
  args.args[2] = key_half1(key);
  args.args[3] = value;
  KvMessage msg;
  msg.type = KvMessage::Type::kPopulate;
  msg.request_id = request_id;
  msg.key = key;
  msg.value = value;
  ++stats_.populate_sent;
  send_program(populate_synth_, args, msg.serialize(),
               /*management=*/true);
}

void CacheService::populate(std::vector<std::pair<u64, u32>> items,
                            std::function<void()> done) {
  if (!operational()) throw UsageError("CacheService: not operational");
  hot_set_ = items;
  populate_done_ = std::move(done);
  for (const auto& [key, value] : items) {
    const u32 request_id = next_request_++;
    outstanding_populates_[request_id] = {key, value};
    send_populate(key, value, request_id);
    populate_retry_.track(request_id, [this](u32 id, u32) {
      const auto it = outstanding_populates_.find(id);
      if (it == outstanding_populates_.end()) return;
      send_populate(it->second.first, it->second.second, id);
    });
  }
}

void CacheService::populate_resolved(u32 request_id) {
  outstanding_populates_.erase(request_id);
  if (outstanding_populates_.empty() && populate_done_) {
    auto done = std::move(populate_done_);
    populate_done_ = nullptr;
    done();
  }
}

void CacheService::on_returned(const packet::ArgumentHeader& args,
                               std::span<const u8> payload) {
  const auto msg = KvMessage::parse(payload);
  if (!msg) return;
  switch (msg->type) {
    case KvMessage::Type::kGet: {
      // RTS'd query: cache hit; the value replaced args[0].
      ++stats_.hits;
      if (on_result) {
        on_result(msg->request_id, msg->key, args.args[0], true);
      }
      return;
    }
    case KvMessage::Type::kPopulate: {
      if (!outstanding_populates_.contains(msg->request_id)) return;
      ++stats_.populate_acks;
      populate_retry_.ack(msg->request_id);
      populate_resolved(msg->request_id);
      return;
    }
    default:
      return;
  }
}

void CacheService::handle_server_reply(const KvMessage& reply) {
  if (reply.type != KvMessage::Type::kReply) return;
  ++stats_.misses;
  if (on_result) {
    on_result(reply.request_id, reply.key, reply.value, false);
  }
}

}  // namespace artmt::apps
