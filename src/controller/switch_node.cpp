#include "controller/switch_node.hpp"

#include "common/logging.hpp"
#include "telemetry/flight_recorder.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/span.hpp"

namespace artmt::controller {

using packet::ActivePacket;
using packet::ActiveType;

// The node's own counters ("switch" component) that have no typed home;
// the embedded runtime, controller, and allocator register theirs under
// their own component names in the same registry, and the typed totals
// join at export_metrics.
struct SwitchMetrics {
  explicit SwitchMetrics(telemetry::MetricsRegistry& r)
      : malformed(&r.counter("switch", "malformed")),
        control_rejects(&r.counter("switch", "control_rejects")),
        unknown_destination(&r.counter("switch", "unknown_destination")),
        forwarded(&r.counter("switch", "forwarded")),
        dropped(&r.counter("switch", "dropped")),
        register_wipes(&r.counter("switch", "register_wipes")),
        transit_frames(&r.counter("switch", "transit_frames")),
        health_acks(&r.counter("switch", "health_acks")),
        admission_deferred(&r.counter("alloc", "admission_deferred")),
        exec_latency_ns(&r.histogram("switch", "exec_latency_ns")) {}

  telemetry::Counter* malformed;
  telemetry::Counter* control_rejects;
  telemetry::Counter* unknown_destination;
  telemetry::Counter* forwarded;
  telemetry::Counter* dropped;
  telemetry::Counter* register_wipes;
  telemetry::Counter* transit_frames;   // fabric: forwarded through, unexecuted
  telemetry::Counter* health_acks;      // fabric: probes answered
  telemetry::Counter* admission_deferred;  // parked for a pending re-slide
  telemetry::Histogram* exec_latency_ns;
};

SwitchNode::SwitchNode(std::string name, const Config& config)
    : netsim::Node(std::move(name)),
      pipeline_(config.pipeline),
      runtime_(pipeline_),
      controller_(pipeline_, runtime_, config.scheme, config.policy,
                  config.costs),
      mac_(config.mac),
      default_recirc_budget_(config.default_recirc_budget),
      heatmap_(pipeline_.stage_count()),
      migration_enabled_(config.migration.enabled),
      migration_interval_(config.migration.interval),
      planner_(config.migration.policy) {
  if (migration_enabled_ && migration_interval_ <= 0) {
    throw UsageError("SwitchNode: migration interval must be positive");
  }
  mig_quiesce_ticks_ = alloc::HotnessTable::kColdTicks +
                       config.migration.policy.cooldown_cycles + 1;
  runtime_.set_enforce_privilege(config.enforce_privilege);
  controller_.set_compute_model(config.compute_model);
  if (config.fid_base != 0) controller_.set_fid_base(config.fid_base);
  if (config.metrics != nullptr) {
    metrics_registry_ = config.metrics;
  } else {
    own_registry_ = std::make_unique<telemetry::MetricsRegistry>();
    metrics_registry_ = own_registry_.get();
  }
  metrics_ = std::make_unique<SwitchMetrics>(*metrics_registry_);
  runtime_.set_metrics(metrics_registry_);
  runtime_.set_heatmap(&heatmap_);
  controller_.set_metrics(metrics_registry_);
}

SwitchNode::~SwitchNode() = default;

SwitchNode::NodeStats SwitchNode::node_stats() const {
  NodeStats s;
  s.malformed = metrics_->malformed->value();
  s.control_rejects = metrics_->control_rejects->value();
  s.unknown_destination = metrics_->unknown_destination->value();
  s.forwarded = metrics_->forwarded->value();
  s.returned = runtime_.stats().rts_packets;
  s.dropped = metrics_->dropped->value();
  return s;
}

void SwitchNode::export_metrics(telemetry::MetricsRegistry& metrics) const {
  runtime_.export_metrics(metrics);
  controller_.export_metrics(metrics);
  program_cache_.export_metrics(metrics);
  heatmap_.export_metrics(metrics);
  hotness_.export_metrics(metrics);
  const MigrationEngineStats engine = migration_stats();
  const auto add = [&metrics](const char* name, u64 value) {
    metrics.counter("switch", name).merge_add(value);
  };
  add("migration_ticks", engine.ticks);
  add("migration_deferred", engine.deferred);
  add("migration_executed", engine.executed);
  add("migration_noops", engine.noops);
  add("migration_departed", engine.departed);
  add("migration_cycles", engine.planner.cycles);
  add("migration_demotions_planned", engine.planner.demotions_planned);
  add("migration_promotions_planned", engine.planner.promotions_planned);
  add("migration_reslides_planned", engine.planner.reslides_planned);
  add("migration_cooldown_skips", engine.planner.cooldown_skips);
  add("migration_enqueued", engine.queue.enqueued);
  add("migration_popped", engine.queue.popped);
  add("migration_congestion_drops", engine.queue.congestion_drops);
  add("migration_duplicates", engine.queue.duplicates);
  add("migration_purged", engine.queue.purged);
  metrics.gauge("switch", "migration_queue_high_water")
      .merge_add(engine.queue.high_water);
}

namespace {

// The flow metadata the parser would extract (5-tuple surrogate: MAC pair
// plus the head of the passive payload).
runtime::PacketMeta derive_meta(const packet::EthernetHeader& eth,
                                std::span<const u8> payload) {
  runtime::PacketMeta meta;
  meta.five_tuple[0] = static_cast<Word>(eth.src >> 16);
  meta.five_tuple[1] = static_cast<Word>(eth.src) << 16 |
                       static_cast<Word>(eth.dst >> 32);
  meta.five_tuple[2] = static_cast<Word>(eth.dst);
  if (payload.size() >= 5) {
    // Skip the payload's leading message-type byte so a flow's SYN and
    // data packets share one flow identity (Cheetah's cookie scheme
    // depends on hash(5-tuple) being stable across a flow).
    meta.five_tuple[3] = static_cast<Word>(payload[1]) << 24 |
                         static_cast<Word>(payload[2]) << 16 |
                         static_cast<Word>(payload[3]) << 8 |
                         static_cast<Word>(payload[4]);
  }
  return meta;
}

// Span emission helper; call sites gate on telemetry::spans_active().
void emit_span(telemetry::SpanPhase phase, SimTime ts, u64 span, u64 parent,
               i32 fid, u32 node, u64 a = 0, u64 b = 0) {
  telemetry::span_emit_with([&](telemetry::SpanEvent& event) {
    event.ts = ts;
    event.span = span;
    event.parent = parent;
    event.fid = fid;
    event.phase = phase;
    event.node = static_cast<u16>(node);
    event.a = a;
    event.b = b;
  });
}

// An event that belongs to no transmission (span 0), at the node's
// current virtual time: a register wipe or a control-plane step.
void emit_node_event(const netsim::Node& node, telemetry::SpanPhase phase,
                     i32 fid, u64 a, u64 b) {
  if (!telemetry::spans_active()) return;
  emit_span(phase, node.network().simulator().now(), /*span=*/0,
            /*parent=*/0, fid, node.attach_index(), a, b);
}

}  // namespace

void SwitchNode::bind(packet::MacAddr mac, u32 port) {
  l2_table_[mac].port = port;  // a pinned entry stays pinned
}

void SwitchNode::bind_pinned(packet::MacAddr mac, u32 port) {
  l2_table_[mac] = L2Entry{port, /*pinned=*/true};
}

u64 SwitchNode::wipe_registers() {
  u64 wiped = 0;
  for (u32 s = 0; s < pipeline_.stage_count(); ++s) {
    rmt::RegisterArray& memory = pipeline_.stage(s).memory();
    memory.fill(0, memory.size(), 0);
    wiped += memory.size();
  }
  metrics_->register_wipes->inc();
  // Record the wipe itself, then dump: the forensic tail should contain
  // the brownout marker as its last event.
  emit_node_event(*this, telemetry::SpanPhase::kWipe, telemetry::kNoFid,
                  /*a=*/wiped, /*b=*/0);
  if (auto* recorder = telemetry::flight_recorder()) recorder->dump("brownout");
  return wiped;
}

void SwitchNode::send_to_mac(packet::MacAddr dst, ActivePacket pkt,
                             SimTime delay) {
  pkt.ethernet.dst = dst;
  // Fabric mode stamps the switch's identity on control replies: clients
  // learn per-FID steering from the src of their AllocResponse, and the
  // global controller attributes health acks to the right switch. The
  // legacy single-switch wire format (src 0) is preserved when mac_ == 0.
  if (mac_ != 0) pkt.ethernet.src = mac_;
  send_frame_to_mac(dst, pkt.serialize(), delay);
}

void SwitchNode::send_frame_to_mac(packet::MacAddr dst, netsim::Frame frame,
                                   SimTime delay) {
  const auto it = l2_table_.find(dst);
  if (it == l2_table_.end()) {
    metrics_->unknown_destination->inc();
    return;
  }
  const u32 port = it->second.port;
  if (delay == 0) {
    network().transmit(*this, port, std::move(frame));
    return;
  }
  network().simulator().schedule_after(
      delay, [this, port, span = telemetry::current_span(),
              f = std::move(frame)]() mutable {
        // The reply leaves under the inbound capsule's span, so the
        // client-bound send is causally chained to the request.
        telemetry::SpanScope scope(span);
        network().transmit(*this, port, std::move(f));
      });
}

void SwitchNode::on_frame(netsim::Frame frame, u32 port) {
  if (mac_ != 0 && frame.size() >= packet::EthernetHeader::kWireSize) {
    ByteReader in(frame);
    const auto eth = packet::EthernetHeader::parse(in);
    if (eth.src != 0 && eth.src != mac_) {
      L2Entry& entry = l2_table_[eth.src];
      if (!entry.pinned) entry.port = port;
    }
  }
  if (migration_enabled_ && !migration_armed_) {
    // Armed lazily from the first frame, not the constructor: by now the
    // node is attached to its network's simulator. Also how the engine
    // re-arms after quiescing on an idle switch.
    migration_armed_ = true;
    mig_idle_streak_ = 0;
    network().simulator().schedule_after(migration_interval_,
                                         [this] { migration_tick(); });
  }
  if (migration_enabled_) ++mig_frames_since_tick_;
  switch (packet::classify(frame)) {
    case packet::FrameClass::kProgram:
      on_program_frame(std::move(frame));
      return;
    case packet::FrameClass::kControl:
      on_control_frame(std::move(frame));
      return;
    case packet::FrameClass::kPassive:
      forward_passive(std::move(frame));
      return;
  }
}

void SwitchNode::forward_passive(netsim::Frame frame) {
  // Plain L2 forwarding by destination MAC; no route means malformed.
  if (frame.size() >= packet::EthernetHeader::kWireSize) {
    ByteReader in(frame);
    const auto eth = packet::EthernetHeader::parse(in);
    const auto it = l2_table_.find(eth.dst);
    if (it != l2_table_.end()) {
      metrics_->forwarded->inc();
      network().transmit(*this, it->second.port, std::move(frame));
      return;
    }
  }
  metrics_->malformed->inc();
}

void SwitchNode::on_program_frame(netsim::Frame frame) {
  if (mac_ != 0) {
    // Fabric transit: a program capsule whose FID is not resident here
    // is someone else's traffic -- forward it by destination untouched.
    // The peek is two fixed-offset header reads; the frame is never
    // decoded or interned, so transit at a spine costs no program-cache
    // churn.
    ByteReader in(frame);
    const auto eth = packet::EthernetHeader::parse(in);
    const Fid fid = in.get_u16();
    if (!controller_.resident(fid)) {
      metrics_->transit_frames->inc();
      send_frame_to_mac(eth.dst, std::move(frame), 0);
      return;
    }
  }
  // Parse the capsule in place -- no ActivePacket, no byte copies. A
  // program frame the in-place parse rejects is malformed; the owning
  // parser would reject it too, so it goes straight to passive handling.
  packet::ProgramView view;
  try {
    view = packet::ProgramView::parse(frame, program_cache_);
  } catch (const ParseError&) {
    forward_passive(std::move(frame));
    return;
  }
  handle_program(std::move(view), std::move(frame));
}

void SwitchNode::on_control_frame(netsim::Frame frame) {
  // Control capsules are materialized; a malformed one is passive.
  ActivePacket pkt;
  try {
    pkt = ActivePacket::parse(frame);
  } catch (const ParseError&) {
    forward_passive(std::move(frame));
    return;
  }

  if (mac_ != 0 && pkt.ethernet.dst != 0 && pkt.ethernet.dst != mac_) {
    // Control traffic addressed to another node (a sibling switch, the
    // global controller, or a client): plain L2 transit.
    metrics_->transit_frames->inc();
    send_frame_to_mac(pkt.ethernet.dst, std::move(frame), 0);
    return;
  }
  if (mac_ != 0 && pkt.initial.type == ActiveType::kHealthProbe) {
    // Health epoch: answer from the data plane immediately -- liveness
    // must not queue behind control ops -- with the allocator scoreboard
    // riding in the payload.
    ActivePacket ack =
        ActivePacket::make_control(0, ActiveType::kHealthAck);
    ack.initial.seq = pkt.initial.seq;
    if (scoreboard_provider_) ack.payload = scoreboard_provider_();
    metrics_->health_acks->inc();
    send_to_mac(pkt.ethernet.src, std::move(ack));
    return;
  }

  switch (pkt.initial.type) {
    case ActiveType::kAllocRequest:
    case ActiveType::kDealloc:
      enqueue_control(std::move(pkt));
      return;
    case ActiveType::kExtractComplete:
      // Handshake packets must not queue behind other control ops.
      if (txn_ && !txn_->applying &&
          controller_.extraction_complete(pkt.initial.fid)) {
        ready_to_apply(telemetry::ApplyCause::kExtracted);
      }
      return;
    default:
      return;  // responses/acks arriving at the switch are ignored
  }
}

void SwitchNode::handle_program(packet::ProgramView view,
                                netsim::Frame frame) {
  const runtime::PacketMeta meta =
      derive_meta(view.ethernet, view.payload(frame));
  active::ExecCursor cursor;
  const SimTime now = network().simulator().now();
  const runtime::ExecutionResult result =
      runtime_.execute(view, cursor, meta, now);
  if (telemetry::spans_active()) {
    // Before the verdict switch, so dropped capsules keep their execution
    // record (the phase breakdown needs exec cost even for drops) and
    // their fault. The in-place parse has no span of its own: the
    // capsule's kSend arrival and this kExec bound it.
    const u64 span = telemetry::current_span();
    emit_span(telemetry::SpanPhase::kExec, now, span,
              /*parent=*/static_cast<u64>(result.fault), view.initial.fid,
              attach_index(), result.passes, static_cast<u64>(result.latency));
    for (u32 pass = 1; pass < result.passes; ++pass) {
      emit_span(telemetry::SpanPhase::kRecirc, now,
                telemetry::recirc_span_id(span, pass), span, view.initial.fid,
                attach_index(), pass);
    }
  }
  metrics_->exec_latency_ns->record(static_cast<u64>(result.latency));
  if (result.verdict == runtime::Verdict::kDrop) {
    metrics_->dropped->inc();
    return;
  }
  if (result.verdict == runtime::Verdict::kForward) metrics_->forwarded->inc();
  // The reply is rewritten into the inbound buffer (the window slides
  // forward over the shrunk bytes): wire-in to wire-out without a copy.
  netsim::Frame out =
      proto::encode_executed(view, cursor, std::move(frame), network().pool());
  if (result.forked) {
    // The clone continues to the original destination as well (a shallow
    // buffer share; frames in flight are never mutated).
    send_frame_to_mac(view.ethernet.dst, out, result.latency);
  }
  if (result.phv.dst_overridden &&
      result.verdict == runtime::Verdict::kForward) {
    // SET_DST: the program chose an egress port directly (the Cheetah
    // select program stores server ports in the VIP pool).
    const u32 port = result.phv.dst_value;
    network().simulator().schedule_after(
        result.latency, [this, port, span = telemetry::current_span(),
                         f = std::move(out)]() mutable {
          telemetry::SpanScope scope(span);
          network().transmit(*this, port, std::move(f));
        });
    return;
  }
  send_frame_to_mac(view.ethernet.dst, std::move(out), result.latency);
}

void SwitchNode::enqueue_control(ActivePacket pkt) {
  ControlOp op;
  op.requester = pkt.ethernet.src;
  op.pkt = std::move(pkt);
  control_queue_.push_back(std::move(op));
  if (!control_busy_) process_next_control();
}

void SwitchNode::process_next_control() {
  if (control_queue_.empty()) {
    control_busy_ = false;
    return;
  }
  control_busy_ = true;
  ControlOp op = std::move(control_queue_.front());
  control_queue_.pop_front();
  // Digest delivery to the switch CPU.
  network().simulator().schedule_after(
      CostModel::kDigestLatency, [this, op = std::move(op)]() {
        if (op.pkt.initial.type == ActiveType::kAllocRequest) {
          run_admission(op);
        } else {
          run_release(op);
        }
      });
}

void SwitchNode::run_admission(const ControlOp& op) {
  const auto deny = [&](telemetry::DenyCause cause) {
    emit_node_event(*this, telemetry::SpanPhase::kDeny, telemetry::kNoFid,
                    op.pkt.initial.seq, static_cast<u64>(cause));
  };
  alloc::AllocationRequest request;
  try {
    request = proto::decode_request(op.pkt);
  } catch (const ParseError&) {
    metrics_->control_rejects->inc();
    deny(telemetry::DenyCause::kMalformed);
    finish_control();
    return;
  }

  AdmissionResult result;
  try {
    result = controller_.admit(request);
  } catch (const UsageError&) {
    // Structurally invalid request (e.g. crafted positions beyond the
    // program length): deny rather than wedge the control plane.
    metrics_->control_rejects->inc();
    deny(telemetry::DenyCause::kMalformed);
    send_to_mac(op.requester, proto::encode_denial(op.pkt.initial.seq));
    finish_control();
    return;
  }
  const SimTime compute_delay = result.compute_time();

  if (!result.admitted) {
    if (migration_enabled_ && !op.deferred && reslide_may_unblock(request)) {
      // Migration-pressure feedback: a queued re-slide is about to compact
      // the very contiguity this admission is missing. Park the op for one
      // migration interval instead of denying outright; the retry runs
      // the search again (front of the queue, so no newer op overtakes it)
      // and a second failure denies for real.
      metrics_->admission_deferred->inc();
      ControlOp retry = op;
      retry.deferred = true;
      network().simulator().schedule_after(compute_delay, [this] {
        finish_control();  // free the control plane so the re-slide can run
      });
      network().simulator().schedule_after(
          compute_delay + migration_interval_,
          [this, retry = std::move(retry)]() mutable {
            control_queue_.push_front(std::move(retry));
            if (!control_busy_) process_next_control();
          });
      return;
    }
    deny(result.denial);
    send_to_mac(op.requester, proto::encode_denial(op.pkt.initial.seq),
                compute_delay);
    network().simulator().schedule_after(compute_delay, [this] {
      finish_control();
    });
    return;
  }

  client_of_[result.fid] = op.requester;
  if (default_recirc_budget_.tokens_per_second > 0.0) {
    runtime_.set_recirc_budget(result.fid, default_recirc_budget_);
  }

  // The regions are final once admitted, so the grant is built now.
  PendingTxn txn;
  txn.fid = result.fid;
  txn.cause = telemetry::TxnCause::kAdmit;
  txn.requester = op.requester;
  txn.reply = proto::encode_response(
      result.fid, controller_.response_for(result.fid),
      *controller_.mutant_of(result.fid), op.pkt.initial.seq);
  txn.disturbed = result.disturbed;
  txn.apply_cost = result.apply_time();
  start_txn(std::move(txn), compute_delay, result.pending);
}

void SwitchNode::start_txn(PendingTxn txn, SimTime compute_delay,
                           bool pending) {
  txn.id = ++txn_counter_;
  txn.applying = !pending;
  txn_ = std::move(txn);
  emit_node_event(*this, telemetry::SpanPhase::kTxn, txn_->fid, txn_->id,
                  static_cast<u64>(txn_->cause));
  for (const Fid fid : txn_->disturbed) {
    if (fid == txn_->fid) continue;  // a migration's own target
    emit_node_event(*this, telemetry::SpanPhase::kTxn, fid, txn_->id,
                    static_cast<u64>(telemetry::TxnCause::kDisturb));
  }
  netsim::Simulator& sim = network().simulator();
  if (!pending) {
    // The layout is already applied: answer after the modeled compute +
    // install costs.
    sim.schedule_after(compute_delay + txn_->apply_cost,
                       [this] { finish_txn(); });
    return;
  }
  // Handshake: notify the disturbed apps, arm the extraction timeout.
  const u64 txn_id = txn_->id;
  sim.schedule_after(compute_delay, [this, txn_id] {
    if (!txn_ || txn_->id != txn_id) return;
    for (const Fid fid : txn_->disturbed) {
      const auto it = client_of_.find(fid);
      if (it == client_of_.end()) continue;
      send_to_mac(it->second,
                  ActivePacket::make_control(fid, ActiveType::kReallocNotice));
    }
  });
  sim.schedule_after(
      compute_delay + controller_.costs().extraction_timeout,
      [this, txn_id] {
        if (!txn_ || txn_->id != txn_id || txn_->applying) return;
        controller_.timeout_pending();
        ready_to_apply(telemetry::ApplyCause::kTimeout);
      });
}

void SwitchNode::migration_tick() {
  ++mig_ticks_;
  // Absorb the heatmap delta and decay every tick, busy or not: hotness
  // time advances with virtual time, not with control-plane luck.
  hotness_.tick(heatmap_);
  bool acted = false;
  if (control_busy_ || txn_ || controller_.has_pending()) {
    // Admissions/releases own the control plane; migration yields.
    ++mig_deferred_;
    acted = true;  // a busy control plane is not an idle switch
  } else {
    acted = planner_.plan(controller_, hotness_, remap_queue_) > 0;
    while (auto request = remap_queue_.pop()) {
      if (!controller_.resident(request->fid)) {
        ++mig_departed_;
        continue;
      }
      // At most one live handshake per tick: the interval is the engine's
      // rate limit, and the planner re-proposes anything still worth doing.
      if (start_migration(*request)) {
        acted = true;
        break;
      }
    }
  }
  // De-arm once the switch has been fully idle long enough that no plan
  // can ever materialize (every cold streak matured, every cooldown
  // expired); otherwise run()-style drains would never terminate. The
  // next frame re-arms the train.
  if (mig_frames_since_tick_ == 0 && !acted && remap_queue_.empty()) {
    if (++mig_idle_streak_ >= mig_quiesce_ticks_) {
      migration_armed_ = false;
      return;
    }
  } else {
    mig_idle_streak_ = 0;
  }
  mig_frames_since_tick_ = 0;
  network().simulator().schedule_after(migration_interval_,
                                       [this] { migration_tick(); });
}

bool SwitchNode::reslide_may_unblock(
    const alloc::AllocationRequest& request) const {
  if (request.elastic) return false;  // capacity problem, not contiguity
  u32 need = 0;
  for (const auto& access : request.accesses) {
    need = std::max(need, access.demand_blocks);
  }
  if (need == 0) return false;
  for (const RemapRequest& queued : remap_queue_.pending()) {
    if (queued.kind != RemapKind::kReslide) continue;
    const alloc::StageState& st = controller_.allocator().stage(queued.stage);
    // Enough free blocks in total, just not contiguous: compaction could
    // merge them into a run the bottleneck access fits.
    if (st.free_blocks() >= need && st.largest_free_run() < need) return true;
  }
  return false;
}

bool SwitchNode::start_migration(const RemapRequest& request) {
  // Hotness-directed placement: a re-slide's target search prefers calmer
  // stages when scheme scores tie, so compaction steers load away from
  // the hottest memory. The bias lives only for the synchronous allocator
  // op inside migrate().
  if (request.kind == RemapKind::kReslide) {
    controller_.set_stage_bias(hotness_.stage_totals(pipeline_.stage_count()));
  }
  const MigrationResult result = controller_.migrate(request);
  controller_.set_stage_bias({});
  if (!result.pending) {
    ++mig_noops_;
    return false;
  }
  ++mig_executed_;
  // The handshake occupies the control plane exactly like an admission:
  // arriving control ops queue behind it, kExtractComplete jumps the queue.
  // A migration has no requester, so nothing answers it.
  control_busy_ = true;
  PendingTxn txn;
  txn.fid = request.fid;
  txn.cause = telemetry::TxnCause::kMigrate;
  txn.disturbed = result.disturbed;
  txn.apply_cost = result.apply_time();
  start_txn(std::move(txn), result.compute_time(), result.pending);
  return true;
}

SwitchNode::MigrationEngineStats SwitchNode::migration_stats() const {
  MigrationEngineStats stats;
  stats.ticks = mig_ticks_;
  stats.deferred = mig_deferred_;
  stats.executed = mig_executed_;
  stats.noops = mig_noops_;
  stats.departed = mig_departed_;
  stats.planner = planner_.stats();
  stats.queue = remap_queue_.stats();
  return stats;
}

void SwitchNode::ready_to_apply(telemetry::ApplyCause cause) {
  if (!txn_ || txn_->applying) return;
  txn_->applying = true;
  txn_->applied_by = cause;
  network().simulator().schedule_after(txn_->apply_cost, [this] {
    controller_.apply_pending();
    finish_txn();
  });
}

void SwitchNode::finish_txn() {
  emit_node_event(*this, telemetry::SpanPhase::kApply, txn_->fid, txn_->id,
                  static_cast<u64>(txn_->applied_by));
  if (txn_->reply) send_to_mac(txn_->requester, std::move(*txn_->reply));
  // Every moved app learns its new layout.
  for (const Fid fid : txn_->disturbed) {
    const auto it = client_of_.find(fid);
    if (it == client_of_.end()) continue;
    send_to_mac(it->second,
                proto::encode_response(fid, controller_.response_for(fid),
                                       *controller_.mutant_of(fid), 0));
  }
  txn_.reset();
  finish_control();
}

void SwitchNode::run_release(const ControlOp& op) {
  const Fid fid = op.pkt.initial.fid;
  if (!controller_.resident(fid)) {
    finish_control();
    return;
  }
  const Reallocation result = controller_.release(fid);
  client_of_.erase(fid);
  runtime_.clear_recirc_budget(fid);
  // The FID is gone: drop its heatmap row (recorded whether or not the
  // engine runs) and hotness history, and purge any queued remap, so a
  // recycled FID starts cold instead of inheriting the departed tenant's
  // traffic.
  heatmap_.forget(static_cast<i32>(fid));
  hotness_.forget(static_cast<i32>(fid));
  remap_queue_.drop_fid(fid);

  // The controller has already applied the grown neighbours' layout: no
  // notice, and the ack goes out after the table updates and snapshots.
  PendingTxn txn;
  txn.fid = fid;
  txn.cause = telemetry::TxnCause::kRelease;
  txn.requester = op.requester;
  txn.reply = ActivePacket::make_control(fid, ActiveType::kDeallocAck);
  txn.disturbed = result.disturbed;
  txn.apply_cost = result.table_update_cost + result.snapshot_cost;
  start_txn(std::move(txn), 0, /*pending=*/false);
}

void SwitchNode::finish_control() { process_next_control(); }

}  // namespace artmt::controller
