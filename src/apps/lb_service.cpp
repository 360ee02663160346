#include "apps/lb_service.hpp"

#include "apps/programs.hpp"
#include "client/client_node.hpp"
#include "common/logging.hpp"

namespace artmt::apps {

namespace {
bool is_power_of_two(std::size_t n) { return n != 0 && (n & (n - 1)) == 0; }

client::ReliabilityTracker::Options write_retry_options() {
  client::ReliabilityTracker::Options opts;
  opts.rto = 10 * kMillisecond;  // the former fixed sweep interval
  return opts;
}
}  // namespace

CheetahLbService::CheetahLbService(std::string name, u32 pool_blocks)
    : client::Service(std::move(name), lb_service_spec(pool_blocks)),
      write_retry_(
          "lb_pool", [this]() -> netsim::Simulator& { return node().sim(); },
          write_retry_options()) {
  write_retry_.paused = [this] { return !operational(); };
  write_retry_.on_give_up = [this](u32 request_id) {
    write_resolved(request_id);
  };
}

client::MemRef CheetahLbService::ref_for_access(u32 access, u32 index) const {
  const auto* synth = synthesized();
  if (synth == nullptr) throw UsageError("CheetahLbService: no allocation");
  client::MemRef ref;
  ref.stage = (*mutant())[access] % node().logical_stages();
  ref.address = synth->access_base[access] + index;
  return ref;
}

void CheetahLbService::send_write(u32 request_id) {
  const auto& [ref, value] = outstanding_writes_.at(request_id);
  KvMessage tag;
  tag.type = KvMessage::Type::kMemSync;
  tag.request_id = request_id;
  send_program(client::make_write_program(ref),
               client::write_args(ref, value), tag.serialize());
}

void CheetahLbService::configure(std::vector<u32> server_ports,
                                 std::function<void()> done) {
  if (!operational()) throw UsageError("CheetahLbService: not operational");
  if (!is_power_of_two(server_ports.size())) {
    throw UsageError("CheetahLbService: pool size must be a power of two");
  }
  const auto* synth = synthesized();
  if (server_ports.size() > synth->access_words[kAccessPool]) {
    throw UsageError("CheetahLbService: pool larger than allocation");
  }
  configure_done_ = std::move(done);

  // Pool-size mask (size - 1), then the pool entries. args[2] of the SYN
  // program carries the pool base, so the counter region needs no init
  // (fresh allocations are zeroed).
  auto queue_write = [this](const client::MemRef& ref, Word value) {
    const u32 request_id = next_request_++;
    outstanding_writes_[request_id] = {ref, value};
    send_write(request_id);
    write_retry_.track(request_id, [this](u32 id, u32) {
      if (outstanding_writes_.contains(id)) send_write(id);
    });
  };
  queue_write(ref_for_access(kAccessPoolSize, 0),
              static_cast<Word>(server_ports.size() - 1));
  for (u32 i = 0; i < server_ports.size(); ++i) {
    queue_write(ref_for_access(kAccessPool, i), server_ports[i]);
  }
  configured_ = true;
}

void CheetahLbService::write_resolved(u32 request_id) {
  outstanding_writes_.erase(request_id);
  if (outstanding_writes_.empty() && configure_done_) {
    auto done = std::move(configure_done_);
    configure_done_ = nullptr;
    done();
  }
}

void CheetahLbService::open_flow(u32 flow_id) {
  if (!configured()) throw UsageError("CheetahLbService: pool not ready");
  const auto* synth = synthesized();
  packet::ArgumentHeader args;
  args.args[0] = synth->access_base[kAccessPoolSize];
  args.args[1] = synth->access_base[kAccessCounter];
  args.args[2] = synth->access_base[kAccessPool];
  KvMessage msg;
  msg.type = KvMessage::Type::kLbSyn;
  msg.request_id = flow_id;
  // SYN capsules are routed by SET_DST at the switch; the L2 destination
  // is a placeholder the program overrides.
  send_program(*synth, args, msg.serialize(), false,
               node().switch_mac());
}

void CheetahLbService::send_data(u32 flow_id) {
  const auto it = cookies_.find(flow_id);
  if (it == cookies_.end()) {
    throw UsageError("CheetahLbService: flow has no cookie yet");
  }
  packet::ArgumentHeader args;
  args.args[0] = it->second;
  KvMessage msg;
  msg.type = KvMessage::Type::kLbData;
  msg.request_id = flow_id;
  send_program(lb_route_program(), args, msg.serialize(), false,
               node().switch_mac());
}

void CheetahLbService::handle_cookie_reply(const KvMessage& reply) {
  if (reply.type != KvMessage::Type::kLbCookie) return;
  cookies_[reply.request_id] = reply.value;
  if (on_flow_opened) on_flow_opened(reply.request_id, reply.value);
}

void CheetahLbService::on_returned(const packet::ArgumentHeader& /*args*/,
                                   std::span<const u8> payload) {
  const auto msg = KvMessage::parse(payload);
  if (!msg) return;
  if (msg->type == KvMessage::Type::kMemSync) {
    if (!outstanding_writes_.contains(msg->request_id)) return;
    write_retry_.ack(msg->request_id);
    write_resolved(msg->request_id);
  }
}

}  // namespace artmt::apps
