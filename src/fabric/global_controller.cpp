#include "fabric/global_controller.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "proto/wire.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::fabric {

namespace {

// Private admission-sequence range: far above any client's negotiation
// sequence numbers, so a forwarded response is unambiguous.
constexpr u32 kFseqBase = 0x40000000;

// The controller's one port: its uplink into the fabric.
constexpr u32 kUplink = 0;

// Scoreboard-level feasibility heuristic (ranking only; the switch's
// allocator has the final word).
bool board_feasible(const Scoreboard& board,
                    const alloc::AllocationRequest& request) {
  if (board.stages == 0) return false;  // never seen, never seeded
  u32 max_demand = 0;
  u32 total_demand = 0;
  for (const auto& access : request.accesses) {
    max_demand = std::max(max_demand, access.demand_blocks);
    total_demand += access.demand_blocks;
  }
  if (board.free_blocks < total_demand) return false;
  if (!request.elastic && board.largest_free_run < max_demand) return false;
  return true;
}

}  // namespace

// The fabric counters with no typed home; the FabricReport totals reach a
// registry through export_metrics.
struct FabricMetrics {
  telemetry::Counter* admissions;
  telemetry::Counter* denials_retried;
  telemetry::Counter* denials_final;
  telemetry::Counter* parked_retries;
  telemetry::Counter* probes;
  telemetry::Counter* acks;
  telemetry::Counter* reconcile_deallocs;
  telemetry::Counter* forwarded;
  telemetry::Counter* resends;
  telemetry::Counter* stale_grants;
  telemetry::Counter* dropped;
  telemetry::Histogram* downtime_ns;
  telemetry::CounterFamily placements_on;    // fid = switch index
  telemetry::CounterFamily evacuations_from; // fid = switch index

  explicit FabricMetrics(telemetry::MetricsRegistry& reg)
      : admissions(&reg.counter("fabric", "admissions")),
        denials_retried(&reg.counter("fabric", "denials_retried")),
        denials_final(&reg.counter("fabric", "denials_final")),
        parked_retries(&reg.counter("fabric", "parked_retries")),
        probes(&reg.counter("fabric", "probes")),
        acks(&reg.counter("fabric", "acks")),
        reconcile_deallocs(&reg.counter("fabric", "reconcile_deallocs")),
        forwarded(&reg.counter("fabric", "forwarded")),
        resends(&reg.counter("fabric", "grant_resends")),
        stale_grants(&reg.counter("fabric", "stale_grants")),
        dropped(&reg.counter("fabric", "dropped")),
        downtime_ns(&reg.histogram("fabric", "downtime_ns")),
        placements_on(reg, "fabric", "placements_on"),
        evacuations_from(reg, "fabric", "evacuations_from") {}
};

GlobalController::GlobalController(std::string name, const Config& config)
    : netsim::Node(std::move(name)),
      mac_(config.mac),
      config_(config),
      next_fseq_(kFseqBase) {
  if (mac_ == 0) throw UsageError("GlobalController: zero MAC");
  if (config_.miss_threshold == 0)
    throw UsageError("GlobalController: zero miss_threshold");
  telemetry::MetricsRegistry* reg = config.metrics;
  if (reg == nullptr) {
    own_registry_ = std::make_unique<telemetry::MetricsRegistry>();
    reg = own_registry_.get();
  }
  metrics_ = std::make_unique<FabricMetrics>(*reg);
}

GlobalController::~GlobalController() = default;

void GlobalController::add_switch(packet::MacAddr mac, std::string name) {
  if (mac == 0 || mac == mac_)
    throw UsageError("add_switch: bad switch MAC");
  if (find_switch(mac) != nullptr)
    throw UsageError("add_switch: duplicate switch MAC");
  SwitchState sw;
  sw.mac = mac;
  sw.name = std::move(name);
  switches_.push_back(std::move(sw));
}

void GlobalController::seed_scoreboard(packet::MacAddr sw, Scoreboard board) {
  SwitchState* state = find_switch(sw);
  if (state == nullptr) throw UsageError("seed_scoreboard: unknown switch");
  state->board = std::move(board);
}

void GlobalController::start(SimTime until) {
  if (switches_.empty()) throw UsageError("GlobalController: no switches");
  if (started_) throw UsageError("GlobalController: already started");
  started_ = true;
  until_ = until;
  epoch_tick();
}

GlobalController::SwitchState* GlobalController::find_switch(
    packet::MacAddr mac) {
  for (auto& sw : switches_)
    if (sw.mac == mac) return &sw;
  return nullptr;
}

const GlobalController::SwitchState* GlobalController::find_switch(
    packet::MacAddr mac) const {
  for (const auto& sw : switches_)
    if (sw.mac == mac) return &sw;
  return nullptr;
}

bool GlobalController::alive(packet::MacAddr sw) const {
  const SwitchState* state = find_switch(sw);
  return state != nullptr && state->alive;
}

packet::MacAddr GlobalController::owner_of(Fid fid) const {
  const auto it = placements_.find(fid);
  return it == placements_.end() ? 0 : it->second.sw;
}

FabricReport GlobalController::report() const {
  FabricReport rep;
  rep.placements = placements_total_;
  rep.evacuations = evacuated_total_;
  rep.replaced = replaced_total_;
  rep.unplaced = unplaced_.size();
  rep.state_loss_services = state_loss_total_;
  rep.switch_deaths = deaths_total_;
  rep.revivals = revivals_total_;
  rep.downtimes = downtimes_;
  return rep;
}

void GlobalController::export_metrics(
    telemetry::MetricsRegistry& metrics) const {
  const auto add = [&metrics](const char* name, u64 value) {
    metrics.counter("fabric", name).merge_add(value);
  };
  add("placements", placements_total_);
  add("evacuations", evacuated_total_);
  add("replaced", replaced_total_);
  add("state_loss_services", state_loss_total_);
  add("switch_deaths", deaths_total_);
  add("revivals", revivals_total_);
  metrics.gauge("fabric", "unplaced")
      .merge_add(static_cast<i64>(unplaced_.size()));
}

GlobalController::SwitchState* GlobalController::pick_switch(
    const alloc::AllocationRequest& request,
    const std::vector<packet::MacAddr>& tried) {
  // Owned-placement counts skew the ranking between scoreboard refreshes
  // so a same-epoch admission burst still spreads across equal switches.
  std::map<packet::MacAddr, u32> owned;
  for (const auto& [fid, placement] : placements_) ++owned[placement.sw];

  SwitchState* best = nullptr;
  bool best_feasible = false;
  u32 best_owned = 0;
  u32 best_free = 0;
  u64 best_hot = 0;
  for (auto& sw : switches_) {
    if (!sw.alive) continue;
    if (std::find(tried.begin(), tried.end(), sw.mac) != tried.end())
      continue;
    const bool feasible = board_feasible(sw.board, request);
    const u32 owned_here = owned.contains(sw.mac) ? owned[sw.mac] : 0;
    const u32 free = sw.board.free_blocks;
    const u64 hot = sw.board.hotness_total;
    const bool wins =
        best == nullptr ||
        std::tuple(!feasible, owned_here, ~free, hot) <
            std::tuple(!best_feasible, best_owned, ~best_free, best_hot);
    if (wins) {
      best = &sw;
      best_feasible = feasible;
      best_owned = owned_here;
      best_free = free;
      best_hot = hot;
    }
  }
  return best;
}

void GlobalController::forward_admission(u32 fseq) {
  auto it = pending_.find(fseq);
  if (it == pending_.end()) return;
  PendingAdmit& admit = it->second;
  SwitchState* target = pick_switch(admit.request, admit.tried);
  if (target == nullptr) {
    if (admit.evacuation) {
      park(std::move(admit));
    } else {
      metrics_->denials_final->inc();
      packet::ActivePacket denial = proto::encode_denial(admit.client_seq);
      send_control(admit.client, std::move(denial));
    }
    pending_.erase(it);
    return;
  }
  admit.tried.push_back(target->mac);
  admit.issued_epoch = epoch_count_;
  packet::ActivePacket pkt = proto::encode_request(admit.request, fseq);
  send_control(target->mac, std::move(pkt));
}

void GlobalController::handle_admission(packet::ActivePacket pkt) {
  alloc::AllocationRequest request;
  try {
    request = proto::decode_request(pkt);
  } catch (const ParseError&) {
    metrics_->dropped->inc();
    return;
  }
  metrics_->admissions->inc();
  const u32 fseq = next_fseq_++;
  PendingAdmit admit;
  admit.client = pkt.ethernet.src;
  admit.client_seq = pkt.initial.seq;
  admit.request = std::move(request);
  pending_.emplace(fseq, std::move(admit));
  forward_admission(fseq);
}

void GlobalController::handle_response(packet::ActivePacket pkt) {
  const u32 fseq = pkt.initial.seq;
  auto it = pending_.find(fseq);
  if (it == pending_.end()) {
    // A target we had given up on answered after all: release the grant
    // so its allocation does not leak.
    if ((pkt.initial.flags & packet::kFlagAllocFailed) == 0 &&
        pkt.initial.fid != 0) {
      metrics_->stale_grants->inc();
      send_control(pkt.ethernet.src,
                   packet::ActivePacket::make_control(
                       pkt.initial.fid, packet::ActiveType::kDealloc));
    }
    return;
  }
  PendingAdmit& admit = it->second;
  if ((pkt.initial.flags & packet::kFlagAllocFailed) != 0) {
    metrics_->denials_retried->inc();
    forward_admission(fseq);  // falls through to the next candidate
    return;
  }

  const Fid fid = pkt.initial.fid;
  Placement placement;
  // Trust the frame's source over our own bookkeeping: a re-issued
  // evacuation can be answered by the *previous* target if it was merely
  // slow rather than dead.
  placement.sw = pkt.ethernet.src != 0
                     ? pkt.ethernet.src
                     : (admit.tried.empty() ? 0 : admit.tried.back());
  placement.client = admit.client;
  placement.client_seq = admit.client_seq;
  placement.request = admit.request;
  placements_[fid] = std::move(placement);
  ++placements_total_;
  for (u32 i = 0; i < switches_.size(); ++i) {
    if (switches_[i].mac == placements_[fid].sw) {
      metrics_->placements_on.at(static_cast<i32>(i)).inc();
      break;
    }
  }

  pkt.initial.seq = admit.client_seq;
  if (admit.evacuation) {
    const SimTime downtime =
        network().simulator().now() - admit.death_time;
    downtimes_.push_back(downtime);
    metrics_->downtime_ns->record(static_cast<u64>(downtime));
    ++replaced_total_;
    Resend resend;
    resend.pkt = pkt;
    resend.pkt.ethernet.dst = admit.client;
    resend.epochs_left = Config::kResendEpochs;
    resends_.push_back(std::move(resend));
  }
  forward(admit.client, std::move(pkt));  // src stays the owning switch
  pending_.erase(it);
}

void GlobalController::handle_health_ack(const packet::ActivePacket& pkt) {
  SwitchState* sw = find_switch(pkt.ethernet.src);
  if (sw == nullptr) return;
  metrics_->acks->inc();
  sw->acked_this_epoch = true;
  sw->seen = true;
  sw->misses = 0;
  sw->last_ack = network().simulator().now();
  if (!pkt.payload.empty()) {
    try {
      sw->board = Scoreboard::decode(pkt.payload);
    } catch (const ParseError&) {
      // keep the previous board
    }
  }
  if (!sw->alive) {
    sw->alive = true;
    ++revivals_total_;
    reconcile(*sw);
  }
}

void GlobalController::epoch_tick() {
  const SimTime now = network().simulator().now();
  if (now > until_) return;
  ++epoch_count_;

  // Detection: a switch that answered nothing since the previous round of
  // probes accrues a miss. Skipped on the first tick (no probes are out).
  if (epoch_count_ > 1) {
    for (auto& sw : switches_) {
      if (!sw.acked_this_epoch && sw.alive &&
          ++sw.misses >= config_.miss_threshold) {
        declare_dead(sw);
      }
      sw.acked_this_epoch = false;
    }
  }

  // Evacuation admissions whose target also died never get a response;
  // re-issue them toward the next candidate after the timeout.
  std::vector<u32> stale;
  for (const auto& [fseq, admit] : pending_) {
    if (admit.evacuation &&
        epoch_count_ - admit.issued_epoch >=
            static_cast<u64>(config_.evac_timeout_epochs)) {
      stale.push_back(fseq);
    }
  }
  for (const u32 fseq : stale) forward_admission(fseq);

  // Parked services retry every epoch (capacity may have revived).
  const std::size_t parked = unplaced_.size();
  for (std::size_t i = 0; i < parked; ++i) {
    Parked entry = std::move(unplaced_.front());
    unplaced_.pop_front();
    metrics_->parked_retries->inc();
    replay(entry.client, entry.client_seq, std::move(entry.request),
           entry.death_time, /*counted_loss=*/true);
  }

  // Re-send recent re-placement grants (the client may have been mid-
  // failover when the first copy went out; duplicates are idempotent).
  for (auto& resend : resends_) {
    metrics_->resends->inc();
    network().transmit(*this, kUplink,
                       network().pool().copy(resend.pkt.serialize()));
    --resend.epochs_left;
  }
  std::erase_if(resends_, [](const Resend& r) { return r.epochs_left == 0; });

  // Probe everyone, dead switches included (revival detection).
  for (const auto& sw : switches_) {
    packet::ActivePacket probe = packet::ActivePacket::make_control(
        0, packet::ActiveType::kHealthProbe);
    probe.initial.seq = ++probe_seq_;
    metrics_->probes->inc();
    send_control(sw.mac, std::move(probe));
  }

  if (now + Config::kEpoch <= until_) {
    network().simulator().schedule_after(Config::kEpoch,
                                         [this] { epoch_tick(); });
  }
}

void GlobalController::declare_dead(SwitchState& sw) {
  sw.alive = false;
  ++deaths_total_;
  log(LogLevel::kInfo, name(), ": switch ", sw.name, " declared dead");
  evacuate(sw);
}

void GlobalController::evacuate(SwitchState& dead) {
  const SimTime death_time = network().simulator().now();
  std::vector<Fid> victims;
  for (const auto& [fid, placement] : placements_) {
    if (placement.sw == dead.mac) victims.push_back(fid);
  }
  for (u32 i = 0; i < switches_.size(); ++i) {
    if (switches_[i].mac == dead.mac) {
      metrics_->evacuations_from.at(static_cast<i32>(i))
          .inc(victims.size());
      break;
    }
  }
  for (const Fid fid : victims) {  // ascending: map order
    Placement placement = std::move(placements_[fid]);
    placements_.erase(fid);
    ++evacuated_total_;
    replay(placement.client, placement.client_seq,
           std::move(placement.request), death_time);
  }
}

void GlobalController::replay(packet::MacAddr client, u32 client_seq,
                              alloc::AllocationRequest request,
                              SimTime death_time, bool counted_loss) {
  const u32 fseq = next_fseq_++;
  PendingAdmit admit;
  admit.client = client;
  admit.client_seq = client_seq;
  admit.request = std::move(request);
  admit.evacuation = true;
  admit.death_time = death_time;
  admit.counted_loss = counted_loss;
  admit.issued_epoch = epoch_count_;
  pending_.emplace(fseq, std::move(admit));
  forward_admission(fseq);
}

void GlobalController::reconcile(SwitchState& sw) {
  // The revived switch's allocator still carries every pre-death FID; the
  // ones the fabric re-placed elsewhere (or parked) are stale now.
  for (const Fid fid : sw.board.residents) {
    const auto it = placements_.find(fid);
    if (it != placements_.end() && it->second.sw == sw.mac) continue;
    metrics_->reconcile_deallocs->inc();
    send_control(sw.mac, packet::ActivePacket::make_control(
                             fid, packet::ActiveType::kDealloc));
  }
}

void GlobalController::park(PendingAdmit&& admit) {
  // State loss is counted once per service: the first park counts it,
  // and the flag rides every retry of the same evacuation afterwards.
  if (!admit.counted_loss) {
    ++state_loss_total_;
  }
  Parked parked;
  parked.client = admit.client;
  parked.client_seq = admit.client_seq;
  parked.request = std::move(admit.request);
  parked.death_time = admit.death_time;
  unplaced_.push_back(std::move(parked));
  log(LogLevel::kInfo, name(), ": service parked (no feasible sibling)");
}

void GlobalController::send_control(packet::MacAddr dst,
                                    packet::ActivePacket pkt) {
  pkt.ethernet.src = mac_;
  pkt.ethernet.dst = dst;
  network().transmit(*this, kUplink, network().pool().copy(pkt.serialize()));
}

void GlobalController::relay(packet::MacAddr dst, packet::ActivePacket pkt) {
  pkt.ethernet.src = mac_;
  forward(dst, std::move(pkt));
}

void GlobalController::forward(packet::MacAddr dst, packet::ActivePacket pkt) {
  if (pkt.ethernet.src == 0) pkt.ethernet.src = mac_;
  pkt.ethernet.dst = dst;
  metrics_->forwarded->inc();
  network().transmit(*this, kUplink, network().pool().copy(pkt.serialize()));
}

void GlobalController::on_frame(netsim::Frame frame, u32 port) {
  (void)port;
  std::optional<packet::ActivePacket> parsed = packet::try_parse(frame);
  if (!parsed) {
    metrics_->dropped->inc();
    return;
  }
  packet::ActivePacket& pkt = *parsed;

  switch (pkt.initial.type) {
    case packet::ActiveType::kHealthAck:
      if (pkt.initial.fid == 0) handle_health_ack(pkt);
      return;
    case packet::ActiveType::kAllocRequest:
      handle_admission(std::move(pkt));
      return;
    case packet::ActiveType::kAllocResponse: {
      if (pending_.contains(pkt.initial.seq) ||
          pkt.initial.seq >= kFseqBase) {
        handle_response(std::move(pkt));
        return;
      }
      // A seq-0 disturbed-layout response from an owning switch: relay it
      // to the service's client (matched there by FID).
      const auto it = placements_.find(pkt.initial.fid);
      if (it != placements_.end()) {
        forward(it->second.client, std::move(pkt));
      } else {
        metrics_->dropped->inc();
      }
      return;
    }
    case packet::ActiveType::kReallocNotice:
    case packet::ActiveType::kReactivated: {
      const auto it = placements_.find(pkt.initial.fid);
      if (it != placements_.end()) {
        forward(it->second.client, std::move(pkt));
      } else {
        metrics_->dropped->inc();
      }
      return;
    }
    case packet::ActiveType::kDealloc: {
      const auto it = placements_.find(pkt.initial.fid);
      if (it != placements_.end()) {
        // Relayed under our own MAC (see relay()); the switch's ack comes
        // back here and is forwarded to the releasing client.
        const packet::MacAddr sw = it->second.sw;
        placements_.erase(it);
        released_by_[pkt.initial.fid] = pkt.ethernet.src;
        relay(sw, std::move(pkt));
      } else {
        // Parked or already-gone service: confirm the release ourselves.
        packet::ActivePacket ack = packet::ActivePacket::make_control(
            pkt.initial.fid, packet::ActiveType::kDeallocAck);
        send_control(pkt.ethernet.src, std::move(ack));
      }
      return;
    }
    case packet::ActiveType::kExtractComplete: {
      const auto it = placements_.find(pkt.initial.fid);
      if (it != placements_.end()) {
        relay(it->second.sw, std::move(pkt));
      } else {
        metrics_->dropped->inc();
      }
      return;
    }
    case packet::ActiveType::kDeallocAck: {
      // A client's release we relayed: hand the ack back. Anything else
      // acks our own reconcile/stale-grant deallocations; nothing to
      // update (the placement was never recorded or is already gone).
      const auto it = released_by_.find(pkt.initial.fid);
      if (it != released_by_.end()) {
        const packet::MacAddr client = it->second;
        released_by_.erase(it);
        forward(client, std::move(pkt));
      }
      return;
    }
    case packet::ActiveType::kProgram: {
      // Safety net -- steered data-plane traffic normally bypasses us.
      const auto it = placements_.find(pkt.initial.fid);
      if (it != placements_.end()) {
        forward(it->second.sw, std::move(pkt));
      } else {
        metrics_->dropped->inc();
      }
      return;
    }
    default:
      metrics_->dropped->inc();
      return;
  }
}

}  // namespace artmt::fabric
