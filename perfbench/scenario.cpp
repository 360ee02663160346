#include "scenario.hpp"

#include <algorithm>
#include <chrono>

#include "apps/kv.hpp"
#include "apps/programs.hpp"
#include "packet/ethernet.hpp"
#include "telemetry/metrics.hpp"
#include "trace.hpp"

namespace perfbench {

using namespace artmt;
using packet::ActiveType;

namespace {

// Trailer at the end of every request payload: magic, request id, and
// what the request is. The server resolves load-balanced data packets
// (which get no reply) from it without re-parsing the capsule.
constexpr u32 kTrailerMagic = 0x50425251;  // "PBRQ"
constexpr u32 kTrailerBytes = 9;
enum TrailerKind : u8 { kTrCache = 0, kTrMonitor = 1, kTrSyn = 2, kTrData = 3 };

// Resends (Workload::resend_lost_): the first after 1 ms -- a thousand
// times a round trip -- then doubling, 16 sends in all (about a minute).
constexpr SimTime kResendAfter = kMillisecond;
constexpr u32 kResendMaxSends = 16;

void put_u32_at(std::vector<u8>& p, std::size_t at, u32 v) {
  p[at] = static_cast<u8>(v >> 24);
  p[at + 1] = static_cast<u8>(v >> 16);
  p[at + 2] = static_cast<u8>(v >> 8);
  p[at + 3] = static_cast<u8>(v);
}

u32 get_u32_at(const u8* p) {
  return static_cast<u32>(p[0]) << 24 | static_cast<u32>(p[1]) << 16 |
         static_cast<u32>(p[2]) << 8 | static_cast<u32>(p[3]);
}

std::vector<u8> make_payload(const apps::KvMessage& msg, u32 size, u32 id,
                             TrailerKind kind) {
  std::vector<u8> p(size, 0);
  SpanWriter out(p);
  msg.serialize_into(out);
  const std::size_t at = size - kTrailerBytes;
  put_u32_at(p, at, kTrailerMagic);
  put_u32_at(p, at + 4, id);
  p[at + 8] = kind;
  return p;
}

// The active type of a frame, or nullopt for passive traffic.
std::optional<ActiveType> frame_type(const netsim::Frame& frame) {
  if (frame.size() < packet::EthernetHeader::kWireSize + 3) return {};
  const u16 ethertype = static_cast<u16>(frame[12] << 8 | frame[13]);
  if (ethertype != packet::kEtherTypeActive) return {};
  return static_cast<ActiveType>(frame[16]);
}

u32 value_of(u32 tenant, u32 rank) { return tenant * 7919u + rank + 1u; }

}  // namespace

u64 now_ns() {
  return static_cast<u64>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

const char* kind_name(Kind kind) {
  switch (kind) {
    case Kind::kCache: return "cache";
    case Kind::kMonitor: return "monitor";
    case Kind::kLb: return "lb";
  }
  return "?";
}

// ---------------------------------------------------------------- tracker

u32 RequestTracker::issue(u32 tenant, Kind kind, SimTime sched) {
  Request r;
  r.sched = sched;
  r.tenant = tenant;
  r.kind = kind;
  reqs_.push_back(r);
  return static_cast<u32>(reqs_.size());
}

void RequestTracker::resolve(u32 id, SimTime now, bool hit, u32 value) {
  if (id == 0 || id > reqs_.size()) {
    ++strays_;
    return;
  }
  Request& r = reqs_[id - 1];
  if (r.resolutions > 0) {
    ++duplicates_;
    if (r.resolutions < 255) ++r.resolutions;
    return;
  }
  r.resolutions = 1;
  r.done = now;
  r.hit = hit;
  r.value = value;
}

const Request* RequestTracker::find(u32 id) const {
  if (id == 0 || id > reqs_.size()) return nullptr;
  return &reqs_[id - 1];
}

// ------------------------------------------------------------ node shims

BenchClient::BenchClient(std::string name, packet::MacAddr mac,
                         packet::MacAddr switch_mac, Workload& owner)
    : client::ClientNode(std::move(name), mac, switch_mac), owner_(&owner) {}

void BenchClient::on_frame(netsim::Frame frame, u32 port) {
  const auto type = frame_type(frame);
  const bool control = type && *type != ActiveType::kProgram;
  LiveTimers& timers = owner_->timers_;
  if (timers.on) {
    const u64 t0 = now_ns();
    client::ClientNode::on_frame(std::move(frame), port);
    timers.receive_ns += now_ns() - t0;
    ++timers.receives;
  } else {
    client::ClientNode::on_frame(std::move(frame), port);
  }
  if (control) {
    for (Tenant* t : tenants) owner_->note_state(*t);
  }
}

BenchServer::BenchServer(std::string name, packet::MacAddr mac,
                         Workload& owner)
    : apps::ServerNode(std::move(name), mac), owner_(&owner) {}

void BenchServer::on_frame(netsim::Frame frame, u32 port) {
  LiveTimers& timers = owner_->timers_;
  if (timers.on) {
    const u64 t0 = now_ns();
    owner_->on_server_frame(frame);
    apps::ServerNode::on_frame(std::move(frame), port);
    timers.server_ns += now_ns() - t0;
    ++timers.server_frames;
  } else {
    owner_->on_server_frame(frame);
    apps::ServerNode::on_frame(std::move(frame), port);
  }
}

// -------------------------------------------------------------- workload

Workload::Workload(const WorkloadParams& params)
    : params_(params), zipf_(1, 1.2), lb_route_(apps::lb_route_program()) {}

Workload::~Workload() = default;

controller::SwitchNode::Config Workload::switch_config() {
  controller::SwitchNode::Config cfg;
  cfg.compute_model = alloc::ComputeModel::deterministic();
  return cfg;
}

netsim::LinkSpec Workload::host_link() {
  netsim::LinkSpec spec;
  spec.latency = 800 + static_cast<SimTime>(links_.uniform(400));
  return spec;
}

void Workload::build_star(u32 hosts) {
  links_ = Rng::substream(params_.seed, 4);
  star_switch_ =
      std::make_shared<controller::SwitchNode>("switch", switch_config());
  net_.attach(star_switch_);
  switches_.push_back(star_switch_.get());
  server_ = std::make_shared<BenchServer>("server", server_mac_, *this);
  net_.attach(server_);
  net_.connect(*star_switch_, 0, *server_, 0);
  star_switch_->bind(server_mac_, 0);
  for (u32 h = 0; h < hosts; ++h) {
    BenchClient& host = add_host(0xAA);
    net_.connect(*star_switch_, 1 + h, host, 0, host_link());
    star_switch_->bind(host.mac(), 1 + h);
  }
}

BenchClient& Workload::add_host(packet::MacAddr switch_mac) {
  const auto index = static_cast<u32>(hosts_.size());
  auto host = std::make_shared<BenchClient>(
      "host" + std::to_string(index), 0xC000 + index, switch_mac, *this);
  BenchClient* raw = host.get();
  host->on_passive = [this](netsim::Frame& frame) { on_passive(frame); };
  net_.attach(host);
  hosts_.push_back(std::move(host));
  return *raw;
}

u64 Workload::key_of(const Tenant& t, u32 rank) const {
  return (static_cast<u64>(t.index + 1) << 40) ^
         workload::ZipfGenerator::key_for_rank(rank);
}

void Workload::fill_server(const Tenant& t) {
  for (u32 rank = 0; rank < zipf_.universe(); ++rank) {
    server_->put(key_of(t, rank), value_of(t.index, rank));
  }
}

Tenant& Workload::add_tenant(Kind kind, BenchClient& host, u32 cms_blocks) {
  auto owned = std::make_unique<Tenant>();
  Tenant& t = *owned;
  t.index = static_cast<u32>(tenants_.size());
  t.kind = kind;
  t.host = &host;
  t.rng = Rng::substream(params_.seed, 0x7E000 + t.index);
  const std::string suffix = std::to_string(t.index);
  switch (kind) {
    case Kind::kCache: {
      t.cache = std::make_shared<apps::CacheService>("cache" + suffix,
                                                     server_mac_);
      t.cache->on_result = [this, &t](u32 id, u64 key, u32 value, bool hit) {
        tracker_.resolve(id, sim_.now(), hit, value);
        const auto expected = server_->get(key);
        if (!expected || *expected != value) ++bad_values_;
      };
      t.cache->on_ready = [this, &t] { populate_hot_set(t); };
      t.cache->on_relocated = [this, &t] { populate_hot_set(t); };
      t.service = t.cache.get();
      host.register_service(t.cache);
      break;
    }
    case Kind::kMonitor:
      t.monitor = std::make_shared<apps::FrequentItemService>(
          "hh" + suffix, server_mac_, cms_blocks);
      t.service = t.monitor.get();
      host.register_service(t.monitor);
      break;
    case Kind::kLb:
      t.lb = std::make_shared<apps::CheetahLbService>("lb" + suffix);
      // One backend: the server behind switch port 0.
      t.lb->on_ready = [&t] { t.lb->configure({0}); };
      t.service = t.lb.get();
      host.register_service(t.lb);
      break;
  }
  host.tenants.push_back(&t);
  tenants_.push_back(std::move(owned));
  return t;
}

void Workload::populate_hot_set(Tenant& t) {
  const u32 k = std::min({t.cache->bucket_count(), t.hot_keys,
                          zipf_.universe()});
  std::vector<std::pair<u64, u32>> items;
  items.reserve(k);
  for (u32 rank = k; rank-- > 0;) {
    items.emplace_back(key_of(t, rank), value_of(t.index, rank));
  }
  t.cache->populate(std::move(items));
}

void Workload::note_state(Tenant& t) {
  using State = client::Service::State;
  const State s = t.service->state();
  if (s == t.last_state) return;
  const SimTime now = sim_.now();
  if (t.last_state == State::kNegotiating &&
      (s == State::kOperational || s == State::kDenied)) {
    if (s == State::kOperational) {
      admit_ms_.emplace_back(t.requested_at,
                             static_cast<double>(now - t.requested_at) / 1e6);
    }
    (s == State::kOperational ? t.admitted : t.denied) = true;
    on_admission_decided(t);
  }
  if (s == State::kMemoryManagement) t.paused_at = now;
  if (t.last_state == State::kMemoryManagement && s == State::kOperational &&
      t.paused_at >= 0) {
    max_pause_ms_ = std::max(max_pause_ms_,
                             static_cast<double>(now - t.paused_at) / 1e6);
    t.paused_at = -1;
  }
  t.last_state = s;
  if (t.depart_pending && s == State::kOperational) {
    t.depart_pending = false;
    t.service->release();
  }
}

void Workload::request_admission(Tenant& t) {
  t.requested_at = sim_.now();
  t.service->request_allocation();
  t.last_state = t.service->state();
}

void Workload::start_generator(Tenant& t, SimTime first, SimTime stop) {
  t.stop = stop;
  const u32 generation = ++t.generation;
  sim_.schedule_at(first, [this, &t, generation] { fire(t, generation); });
}

void Workload::fire(Tenant& t, u32 generation) {
  using State = client::Service::State;
  const SimTime sched = sim_.now();
  if (generation != t.generation || sched >= t.stop) return;
  const State s = t.service->state();
  if (s == State::kReleased || s == State::kDenied) return;
  const auto gap = std::max<SimTime>(
      1, static_cast<SimTime>(t.rng.exponential(t.rate) * 1e9));
  sim_.schedule_at(sched + gap,
                   [this, &t, generation] { fire(t, generation); });
  if (!t.admitted) return;  // nothing to send before the first grant
  const bool burst = t.burst_p > 0.0 && t.rng.uniform_double() < t.burst_p;
  const u32 n = burst ? 2 + static_cast<u32>(t.rng.uniform(31)) : 1;
  for (u32 i = 0; i < n; ++i) send_one(t, sched, burst);
}

void Workload::send_one(Tenant& t, SimTime sched, bool burst_member) {
  Outgoing req;
  req.size = t.rng.uniform(2) == 0 ? kPayloadSmall : kPayloadLarge;
  const u64 t0 = timers_.on ? now_ns() : 0;
  switch (t.kind) {
    case Kind::kCache:
    case Kind::kMonitor:
      req.key = key_of(t, zipf_.next_rank(t.rng));
      req.id = tracker_.issue(t.index, t.kind, sched);
      req.trailer = t.kind == Kind::kCache ? kTrCache : kTrMonitor;
      break;
    case Kind::kLb:
      if (!t.lb->operational()) return;  // nothing can route it
      if (burst_member && !t.flows.empty()) {
        req.key = t.flows[t.rng.uniform(t.flows.size())];
        req.trailer = kTrData;
      } else {
        req.trailer = kTrSyn;
      }
      req.id = tracker_.issue(t.index, Kind::kLb, sched);
      break;
  }
  transmit(t, req);
  if (timers_.on) {
    timers_.request_ns += now_ns() - t0;
    ++timers_.requests;
  }
  if (resend_lost_) {
    req.deadline = sim_.now() + kResendAfter;
    t.outstanding.push_back(req);
    arm_resend(t, req.deadline);
  }
}

void Workload::transmit(Tenant& t, const Outgoing& req) {
  apps::KvMessage msg;
  packet::ArgumentHeader args;
  const auto trailer = static_cast<TrailerKind>(req.trailer);
  // A paused service sends plain forwarding capsules straight to the
  // origin, exactly like CacheService::get while not operational.
  const auto send_bare = [&](std::vector<u8> payload) {
    packet::ActivePacket pkt;
    pkt.initial.type = ActiveType::kProgram;
    pkt.initial.fid = t.service->fid();
    pkt.arguments = packet::ArgumentHeader{};
    pkt.program = active::Program{};
    pkt.payload = std::move(payload);
    t.host->send_active_to(server_mac_, std::move(pkt));
  };
  switch (trailer) {
    case kTrCache: {
      msg.type = apps::KvMessage::Type::kGet;
      msg.request_id = req.id;
      msg.key = req.key;
      auto payload = make_payload(msg, req.size, req.id, trailer);
      if (t.cache->operational()) {
        const auto* synth = t.cache->synthesized();
        args.args[0] = synth->access_base[0] + t.cache->bucket_for(req.key);
        args.args[1] = apps::key_half0(req.key);
        args.args[2] = apps::key_half1(req.key);
        t.cache->send_program(*synth, args, std::move(payload), false,
                              server_mac_);
      } else {
        send_bare(std::move(payload));
      }
      return;
    }
    case kTrMonitor: {
      msg.type = apps::KvMessage::Type::kGet;
      msg.request_id = req.id;
      msg.key = req.key;
      auto payload = make_payload(msg, req.size, req.id, trailer);
      if (t.monitor->operational()) {
        args.args[0] = apps::key_half0(req.key);
        args.args[1] = apps::key_half1(req.key);
        t.monitor->send_program(*t.monitor->synthesized(), args,
                                std::move(payload), false, server_mac_);
      } else {
        send_bare(std::move(payload));
      }
      return;
    }
    case kTrData: {
      // Data packet of an open flow: the flow id rides in the KvMessage
      // (the switch hashes it into the 5-tuple), the request id in the
      // trailer.
      const auto flow = static_cast<u32>(req.key);
      const auto cookie = t.lb->cookies().find(flow);
      if (!t.lb->operational() || cookie == t.lb->cookies().end()) return;
      msg.type = apps::KvMessage::Type::kLbData;
      msg.request_id = flow;
      args.args[0] = cookie->second;
      t.lb->send_program(lb_route_, args,
                         make_payload(msg, req.size, req.id, trailer), false,
                         t.host->switch_mac());
      return;
    }
    case kTrSyn: {
      // SYN: the new flow is named by its request id.
      if (!t.lb->operational()) return;
      const auto* synth = t.lb->synthesized();
      msg.type = apps::KvMessage::Type::kLbSyn;
      msg.request_id = req.id;
      args.args[0] = synth->access_base[0];
      args.args[1] = synth->access_base[1];
      args.args[2] = synth->access_base[2];
      t.lb->send_program(*synth, args,
                         make_payload(msg, req.size, req.id, trailer), false,
                         t.host->switch_mac());
      return;
    }
  }
}

void Workload::arm_resend(Tenant& t, SimTime at) {
  if (t.resend_at >= 0 && t.resend_at <= at) return;
  t.resend_at = at;
  const u32 generation = ++t.resend_generation;
  sim_.schedule_at(at, [this, &t, generation] {
    if (generation == t.resend_generation) resend_due(t);
  });
}

void Workload::resend_due(Tenant& t) {
  const SimTime now = sim_.now();
  t.resend_at = -1;
  SimTime next = -1;
  std::erase_if(t.outstanding, [&](Outgoing& req) {
    if (tracker_.find(req.id)->resolutions > 0) return true;
    if (req.deadline <= now) {
      if (req.sends >= kResendMaxSends) return true;  // stays unresolved
      transmit(t, req);
      ++resends_;
      req.deadline = now + (kResendAfter << req.sends);
      ++req.sends;
    }
    if (next < 0 || req.deadline < next) next = req.deadline;
    return false;
  });
  if (next >= 0) arm_resend(t, next);
}

void Workload::on_passive(netsim::Frame& frame) {
  const auto msg = apps::KvMessage::parse(std::span<const u8>(frame).subspan(
      packet::EthernetHeader::kWireSize));
  if (!msg) return;
  const Request* req = tracker_.find(msg->request_id);
  if (req == nullptr) {
    tracker_.resolve(msg->request_id, sim_.now());  // counted as a stray
    return;
  }
  Tenant& t = *tenants_[req->tenant];
  switch (msg->type) {
    case apps::KvMessage::Type::kReply:
      ++server_replies_[static_cast<u32>(t.kind)];
      if (t.kind == Kind::kCache) {
        t.cache->handle_server_reply(*msg);  // resolves via on_result
      } else {
        tracker_.resolve(msg->request_id, sim_.now(), false, msg->value);
      }
      return;
    case apps::KvMessage::Type::kLbCookie:
      ++server_replies_[static_cast<u32>(Kind::kLb)];
      if (t.lb) {
        t.lb->handle_cookie_reply(*msg);
        constexpr std::size_t kMaxFlows = 64;
        if (t.flows.size() < kMaxFlows) {
          t.flows.push_back(msg->request_id);
        } else {
          t.flows[t.flow_cursor++ % kMaxFlows] = msg->request_id;
        }
      }
      tracker_.resolve(msg->request_id, sim_.now(), false, msg->value);
      return;
    default:
      return;
  }
}

void Workload::on_server_frame(const netsim::Frame& frame) {
  if (frame.size() < packet::EthernetHeader::kWireSize + kTrailerBytes) return;
  const u8* tail = frame.data() + frame.size() - kTrailerBytes;
  if (get_u32_at(tail) != kTrailerMagic || tail[8] != kTrData) return;
  tracker_.resolve(get_u32_at(tail + 4), sim_.now());
}

void Workload::install_recorder(TransmitRecorder* recorder) {
  net_.set_transmit_hook(recorder);
}

PhaseCounters Workload::counters() {
  PhaseCounters c;
  for (controller::SwitchNode* sw : switches_) {
    c.capsules += sw->runtime().stats().packets;
    const auto& cs = sw->controller().stats();
    c.admissions += cs.admissions + cs.rejections;
    c.releases += cs.releases;
    c.transit += sw->metrics().counter_value("switch", "transit_frames");
    c.health_acks += sw->metrics().counter_value("switch", "health_acks");
  }
  c.events = sim_.events_dispatched();
  c.pool_ops = net_.pool().stats().acquired;
  c.frames = net_.frames_delivered();
  c.heap_allocs = heap_allocs();
  return c;
}

Workload::Reliability Workload::reliability() const {
  Reliability r;
  for (const auto& t : tenants_) {
    const auto add = [&r](const client::ReliabilityTracker& rt, bool data) {
      if (data) r.give_ups += rt.stats().give_ups;
      r.retransmits += rt.stats().retransmits;
    };
    // A handshake give-up only stops the ExtractComplete resends; the
    // switch still answers, so it is not a lost operation.
    add(t->service->handshake_reliability(), false);
    if (t->cache) add(t->cache->populate_reliability(), true);
    if (t->monitor) add(t->monitor->extract_reliability(), true);
    if (t->lb) add(t->lb->configure_reliability(), true);
  }
  return r;
}

void Workload::begin_measure() {
  rel_before_ = reliability();
  resends_before_ = resends_;
  before_ = counters();
  measured_from_ = tracker_.all().size();
}

void Workload::end_measure() {
  const PhaseCounters after = counters();
  phase_.capsules = after.capsules - before_.capsules;
  phase_.events = after.events - before_.events;
  phase_.pool_ops = after.pool_ops - before_.pool_ops;
  phase_.admissions = after.admissions - before_.admissions;
  phase_.releases = after.releases - before_.releases;
  phase_.heap_allocs = after.heap_allocs - before_.heap_allocs;
  phase_.transit = after.transit - before_.transit;
  phase_.health_acks = after.health_acks - before_.health_acks;
  phase_.frames = after.frames - before_.frames;
}

u64 register_digest(controller::SwitchNode& sw) {
  Digest d;
  rmt::Pipeline& pipeline = sw.pipeline();
  for (u32 s = 0; s < pipeline.stage_count(); ++s) {
    const rmt::RegisterArray& memory = pipeline.stage(s).memory();
    const u32 words = memory.size();
    for (u32 i = 0; i < words; ++i) {
      const Word w = memory.read(i);
      if (w != 0) {
        d.mix(i);
        d.mix(w);
      }
    }
    d.mix(s);
  }
  return d.h;
}

Outcome Workload::collect() {
  Outcome out;
  out.phase = phase_;
  Digest d;
  const std::vector<Request>& reqs = tracker_.all();
  for (std::size_t i = measured_from_; i < reqs.size(); ++i) {
    const Request& r = reqs[i];
    ++out.attempted;
    if (r.kind == Kind::kCache) ++out.cache_gets;
    if (r.resolutions == 0) {
      ++out.unresolved;
      ++out.unresolved_by_kind[static_cast<u32>(r.kind)];
      d.mix(0);
      continue;
    }
    ++out.resolved;
    if (r.hit) ++out.cache_hits;
    out.rtt_us.push_back(static_cast<double>(r.done - r.sched) / 1e3);
    d.mix(static_cast<u64>(r.done - r.sched));
    d.mix(r.hit ? 1 : 0);
    d.mix(r.value);
  }
  out.duplicates = tracker_.duplicates();
  out.strays = tracker_.strays();
  out.bad_values = bad_values_;
  for (const auto& [requested, ms] : admit_ms_) {
    if (requested < admit_from_) continue;
    out.admit_ms.push_back(ms);
    d.mix(static_cast<u64>(ms * 1e6));
  }
  for (const auto& t : tenants_) {
    if (t->requested_at < admit_from_) continue;
    ++out.admit_requested;
    if (t->admitted) ++out.admit_granted;
  }
  const Reliability rel = reliability();
  out.give_ups = rel.give_ups - rel_before_.give_ups;
  out.resends = resends_ - resends_before_;
  out.retransmits = rel.retransmits - rel_before_.retransmits + out.resends;
  out.downtime_max_ms = max_pause_ms_;
  for (u32 k = 0; k < 3; ++k) out.server_replies[k] = server_replies_[k];
  for (controller::SwitchNode* sw : switches_) d.mix(register_digest(*sw));
  if (out.duplicates > 0) {
    out.check_error = std::to_string(out.duplicates) +
                      " requests resolved more than once";
  } else if (out.strays > 0) {
    out.check_error =
        std::to_string(out.strays) + " results matched no request";
  } else if (out.bad_values > 0) {
    out.check_error =
        std::to_string(out.bad_values) + " cache results carried a wrong value";
  }
  finish(out);
  d.mix(static_cast<u64>(out.downtime_max_ms * 1e6));
  d.mix(out.evacuations);
  d.mix(out.state_loss_services);
  out.digest = d.h;
  return out;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        const WorkloadParams& params) {
  if (name == "serve_mix") return make_serve_mix(params);
  if (name == "churn") return make_churn(params);
  if (name == "fabric_failover") return make_fabric_failover(params);
  return nullptr;
}

}  // namespace perfbench
