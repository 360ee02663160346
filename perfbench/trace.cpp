#include "trace.hpp"

#include <algorithm>

#include "active/program_cache.hpp"
#include "alloc/allocator.hpp"
#include "controller/controller.hpp"
#include "fabric/scoreboard.hpp"
#include "fabric/topology.hpp"
#include "faults/injector.hpp"
#include "packet/program_view.hpp"
#include "proto/wire.hpp"
#include "stats.hpp"
#include "telemetry/metrics.hpp"

namespace perfbench {

using namespace artmt;
using packet::ActiveType;

namespace {

constexpr std::size_t kEthBytes = packet::EthernetHeader::kWireSize;

// Results replays compute only to keep them from being optimized away.
volatile u64 g_sink = 0;

packet::MacAddr dst_mac(const netsim::Frame& frame) {
  packet::MacAddr mac = 0;
  for (int i = 0; i < 6; ++i) mac = mac << 8 | frame[i];
  return mac;
}

Fid frame_fid(const netsim::Frame& frame) {
  return static_cast<Fid>(frame[kEthBytes] << 8 | frame[kEthBytes + 1]);
}

RecordedFrame record(const netsim::Frame& frame, const netsim::Node& from,
                     const netsim::Node& to, SimTime now, u64 tx_seq,
                     u32 index) {
  RecordedFrame r;
  r.bytes.assign(frame.begin(), frame.end());
  r.from = &from;
  r.to = &to;
  r.now = now;
  r.tx_seq = tx_seq;
  r.switch_index = index;
  return r;
}

// Median over rounds of a per-operation cost.
double median_ns(const std::vector<double>& per_op) { return median_of(per_op); }

}  // namespace

TransmitRecorder::TransmitRecorder(Workload& workload, u64 frame_stride,
                                   u64 transmit_stride)
    : workload_(&workload),
      frame_stride_(std::max<u64>(frame_stride, 1)),
      transmit_stride_(std::max<u64>(transmit_stride, 1)) {}

TransmitRecorder::Verdict TransmitRecorder::on_transmit(
    const netsim::Node& from, const netsim::Node& to, SimTime now, u64 tx_seq,
    netsim::Frame& frame, FramePool& pool) {
  if (switch_index_.empty()) {  // the topology exists once frames flow
    const auto& sws = workload_->switches();
    for (u32 i = 0; i < sws.size(); ++i) switch_index_[sws[i]] = i;
  }
  const u64 depth = workload_->sim().pending();
  depth_sum += depth;
  ++depth_samples;
  depth_max = std::max(depth_max, depth);
  if (measuring && ++measured_calls % transmit_stride_ == 0) {
    transmits.push_back(record(frame, from, to, now, tx_seq, 0));
  }

  const bool active =
      frame.size() > kEthBytes + 2 &&
      static_cast<u16>(frame[12] << 8 | frame[13]) == packet::kEtherTypeActive;
  if (active) {
    const auto type = static_cast<ActiveType>(frame[kEthBytes + 2]);
    const auto to_it = switch_index_.find(&to);
    const auto from_it = switch_index_.find(&from);
    if (to_it != switch_index_.end()) {
      controller::SwitchNode& sw = *workload_->switches()[to_it->second];
      const bool addressed = sw.mac() == 0 || dst_mac(frame) == sw.mac();
      if (type == ActiveType::kProgram) {
        // Only capsules the switch executes (not fabric transit).
        if (measuring &&
            (sw.mac() == 0 || sw.controller().resident(frame_fid(frame))) &&
            ++program_seen_ % frame_stride_ == 0) {
          program_frames.push_back(
              record(frame, from, to, now, tx_seq, to_it->second));
        }
      } else if (addressed && type == ActiveType::kAllocRequest) {
        ControlOp op;
        op.switch_index = to_it->second;
        op.admit = true;
        op.request = proto::decode_request(packet::ActivePacket::parse(frame));
        control.push_back(std::move(op));
      } else if (addressed && type == ActiveType::kDealloc) {
        ControlOp op;
        op.switch_index = to_it->second;
        op.fid = frame_fid(frame);
        control.push_back(std::move(op));
      }
    }
    if (type == ActiveType::kAllocRequest && from_it == switch_index_.end() &&
        &from != workload_->global_controller()) {
      client_requests.push_back(
          proto::decode_request(packet::ActivePacket::parse(frame)));
    }
    if (from_it != switch_index_.end()) {
      const Fid fid = frame_fid(frame);
      const auto key = std::make_pair(from_it->second, fid);
      if (type == ActiveType::kReallocNotice) {
        notice_at_.emplace(key, now);
      } else if (type == ActiveType::kAllocResponse) {
        const auto it = notice_at_.find(key);
        if (it != notice_at_.end()) {
          handshake_ms.push_back(static_cast<double>(now - it->second) / 1e6);
          notice_at_.erase(it);
        }
      }
    }
  }
  if (inner != nullptr) {
    return inner->on_transmit(from, to, now, tx_seq, frame, pool);
  }
  return {};
}

namespace {

struct Datapath {
  double copy_ns = 0, parse_ns = 0, intern_ns = 0, exec_ns = 0, encode_ns = 0;
};

// Pool copy -> parse -> intern -> execute -> encode, each stage timed as a
// loop over every recorded frame; the median of three rounds per stage.
Datapath replay_datapath(Workload& w, const std::vector<RecordedFrame>& rec) {
  Datapath dp;
  const std::size_t n = rec.size();
  if (n == 0) return dp;
  FramePool pool;
  pool.reserve(2 * n + 16);
  active::ProgramCache cache;
  std::vector<double> copy, parse, intern, exec, encode;
  std::vector<FrameBuf> bufs(n);
  std::vector<packet::ProgramView> views(n);
  std::vector<active::ExecCursor> cursors(n);
  std::vector<FrameBuf> outs(n);
  std::vector<u8> ok(n, 0);
  for (int round = 0; round < 3; ++round) {
    u64 t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) bufs[i] = pool.copy(rec[i].bytes);
    copy.push_back(static_cast<double>(now_ns() - t0) / n);

    if (round == 0) {  // warm the program cache (steady state)
      for (std::size_t i = 0; i < n; ++i) {
        try {
          (void)packet::ProgramView::parse(bufs[i], cache);
          ok[i] = 1;
        } catch (const ParseError&) {
          ok[i] = 0;
        }
      }
    }
    t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (ok[i]) views[i] = packet::ProgramView::parse(bufs[i], cache);
    }
    parse.push_back(static_cast<double>(now_ns() - t0) / n);

    t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (!ok[i]) continue;
      const packet::ProgramView& v = views[i];
      (void)cache.intern(
          std::span<const u8>(bufs[i].data() + v.code_begin,
                              v.code_end - v.code_begin),
          (v.initial.flags & packet::kFlagPreloadMar) != 0,
          (v.initial.flags & packet::kFlagPreloadMbr) != 0);
    }
    intern.push_back(static_cast<double>(now_ns() - t0) / n);

    t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (!ok[i]) continue;
      runtime::ActiveRuntime& rt =
          w.switches()[rec[i].switch_index]->runtime();
      (void)rt.execute(views[i], cursors[i], {}, rec[i].now);
    }
    exec.push_back(static_cast<double>(now_ns() - t0) / n);

    t0 = now_ns();
    for (std::size_t i = 0; i < n; ++i) {
      if (!ok[i]) continue;
      outs[i] = proto::encode_executed(views[i], cursors[i],
                                       std::move(bufs[i]), pool);
    }
    encode.push_back(static_cast<double>(now_ns() - t0) / n);
    for (std::size_t i = 0; i < n; ++i) {
      outs[i].reset();
      bufs[i].reset();
      views[i] = packet::ProgramView{};
    }
  }
  dp.copy_ns = median_ns(copy);
  dp.parse_ns = median_ns(parse);
  dp.intern_ns = median_ns(intern);
  dp.exec_ns = median_ns(exec);
  dp.encode_ns = median_ns(encode);
  return dp;
}

// One schedule + dispatch on a simulator holding `depth` pending events.
double replay_events(u64 depth) {
  netsim::Simulator sim;
  u64 fired = 0;
  for (u64 i = 0; i < depth; ++i) {
    sim.schedule_at(static_cast<SimTime>(1e15) + static_cast<SimTime>(i),
                    [&fired] { ++fired; });
  }
  constexpr u64 kOps = 200'000;
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    const u64 t0 = now_ns();
    for (u64 i = 0; i < kOps; ++i) {
      sim.schedule_after(1 + static_cast<SimTime>(i % 7), [&fired] { ++fired; });
      sim.step();
    }
    rounds.push_back(static_cast<double>(now_ns() - t0) / kOps);
  }
  return median_ns(rounds);
}

double replay_hook(Workload& w, const std::vector<RecordedFrame>& rec) {
  if (rec.empty()) return 0.0;
  faults::FaultInjector injector(w.fault_plan(), 1);
  FramePool pool;
  std::vector<FrameBuf> frames(rec.size());
  std::vector<double> rounds;
  for (int round = 0; round < 3; ++round) {
    for (std::size_t i = 0; i < rec.size(); ++i) frames[i] = pool.copy(rec[i].bytes);
    const u64 t0 = now_ns();
    for (std::size_t i = 0; i < rec.size(); ++i) {
      (void)injector.on_transmit(*rec[i].from, *rec[i].to, rec[i].now,
                                 rec[i].tx_seq, frames[i], pool);
    }
    rounds.push_back(static_cast<double>(now_ns() - t0) / rec.size());
  }
  return median_ns(rounds);
}

struct Control {
  u64 admits = 0, releases = 0, allocs = 0, deallocs = 0;
  double admit_ns = 0, release_ns = 0, alloc_ns = 0, dealloc_ns = 0;
  u64 entries = 0, disturbed = 0, mutants = 0, pruned = 0;
  double table_update_ns_virt = 0;
};

void release_one(controller::Controller& ctl, alloc::Allocator& al,
                 std::unordered_map<Fid, alloc::AppId>& app_of, Fid fid,
                 Control& c) {
  u64 t0 = now_ns();
  (void)ctl.release(fid);
  c.release_ns += static_cast<double>(now_ns() - t0);
  ++c.releases;
  const auto it = app_of.find(fid);
  if (it == app_of.end()) return;
  t0 = now_ns();
  (void)al.deallocate(it->second);
  c.dealloc_ns += static_cast<double>(now_ns() - t0);
  ++c.deallocs;
  app_of.erase(it);
}

// The recorded admission/departure sequence of every switch, replayed on
// a fresh Controller and, side by side, on a bare Allocator; residents
// left at the end are released so departures are always measured.
Control replay_control(Workload& w, const std::vector<ControlOp>& ops) {
  Control c;
  const auto cfg = Workload::switch_config();
  for (u32 s = 0; s < w.switches().size(); ++s) {
    bool any = false;
    for (const ControlOp& op : ops) any |= op.switch_index == s;
    if (!any) continue;
    rmt::Pipeline pipeline(cfg.pipeline);
    runtime::ActiveRuntime rt(pipeline);
    controller::Controller ctl(pipeline, rt, cfg.scheme, cfg.policy,
                               cfg.costs);
    ctl.set_compute_model(cfg.compute_model);
    if (const Fid base = w.fid_base(s); base != 0) ctl.set_fid_base(base);
    alloc::Allocator al(
        alloc::StageGeometry{cfg.pipeline.logical_stages,
                             cfg.pipeline.ingress_stages},
        cfg.pipeline.blocks_per_stage(), cfg.scheme, cfg.policy);
    al.set_compute_model(cfg.compute_model);
    std::unordered_map<Fid, alloc::AppId> app_of;
    for (const ControlOp& op : ops) {
      if (op.switch_index != s) continue;
      if (!op.admit) {
        if (ctl.resident(op.fid)) release_one(ctl, al, app_of, op.fid, c);
        continue;
      }
      const u64 entries_before = ctl.stats().table_entry_updates;
      u64 t0 = now_ns();
      controller::AdmissionResult r;
      try {
        r = ctl.admit(op.request);
        if (r.pending) {
          for (const Fid d : r.disturbed) (void)ctl.extraction_complete(d);
          ctl.apply_pending();
        }
      } catch (const UsageError&) {
        r = {};
      }
      c.admit_ns += static_cast<double>(now_ns() - t0);
      ++c.admits;
      c.entries += ctl.stats().table_entry_updates - entries_before;
      c.disturbed += r.disturbed.size();
      c.table_update_ns_virt += static_cast<double>(r.table_update_cost);
      t0 = now_ns();
      const alloc::AllocationOutcome o = al.allocate(op.request);
      c.alloc_ns += static_cast<double>(now_ns() - t0);
      ++c.allocs;
      c.mutants += o.mutants_considered;
      if (!o.success && o.mutants_considered == 0) ++c.pruned;
      if (o.success && r.admitted) app_of[r.fid] = o.app;
    }
    for (const Fid fid : ctl.resident_fids()) release_one(ctl, al, app_of, fid, c);
  }
  return c;
}

// A standalone GlobalController (on a small 4-leaf fabric) fed the
// recorded client allocation requests; times its admission handling.
double replay_fabric_admissions(
    const std::vector<alloc::AllocationRequest>& requests) {
  if (requests.empty()) return 0.0;
  netsim::Simulator sim;
  netsim::Network net(sim);
  fabric::TopologyConfig tc;
  tc.leaves = 4;
  tc.spines = 1;
  tc.switch_config = Workload::switch_config();
  fabric::Topology topo(net, tc);
  constexpr std::size_t kMax = 256;
  const std::size_t n = std::min(requests.size(), kMax);
  double total = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    packet::ActivePacket pkt =
        proto::encode_request(requests[i], static_cast<u32>(i + 1));
    pkt.ethernet.src = 0xD000;
    pkt.ethernet.dst = topo.controller_mac();
    netsim::Frame frame(pkt.serialize());
    const u64 t0 = now_ns();
    topo.controller().on_frame(std::move(frame), 0);
    total += static_cast<double>(now_ns() - t0);
    sim.run();
  }
  return total / static_cast<double>(n);
}

// build_scoreboard on every switch of the finished run.
double replay_scoreboards(Workload& w) {
  constexpr int kRounds = 50;
  u64 builds = 0;
  u64 free_blocks = 0;
  const u64 t0 = now_ns();
  for (int r = 0; r < kRounds; ++r) {
    for (controller::SwitchNode* sw : w.switches()) {
      free_blocks += fabric::build_scoreboard(*sw).free_blocks;
      ++builds;
    }
  }
  const double per = static_cast<double>(now_ns() - t0) / builds;
  g_sink = free_blocks;  // the builds cannot be elided
  return per;
}

double ratio(double num, double base) { return base == 0.0 ? 0.0 : num / base; }

}  // namespace

std::vector<Metric> analyze(Workload& w, TransmitRecorder& rec,
                            const Outcome& out, const TraceInputs& in) {
  // Live counts of the traced repetition, read before the replays (which
  // execute on the same switches).
  const PhaseCounters& live = w.phase();
  const LiveTimers& timers = w.timers();
  u64 packets = 0, recircs = 0, faults = 0, cache_hits = 0, cache_misses = 0;
  u64 distinct = 0, timeouts = 0, batched = 0;
  for (controller::SwitchNode* sw : w.switches()) {
    const runtime::RuntimeStats& rs = sw->runtime().stats();
    packets += rs.packets;
    recircs += rs.recirculations;
    faults += rs.drops_protection + rs.drops_no_allocation +
              rs.drops_recirc_limit + rs.drops_recirc_budget +
              rs.drops_privilege;
    cache_hits += sw->program_cache().stats().hits;
    cache_misses += sw->program_cache().stats().misses;
    distinct += sw->program_cache().size();
    timeouts += sw->controller().stats().extraction_timeouts;
    if (const auto* h = sw->metrics().find_histogram("switch", "batch_size")) {
      batched += h->sum() - h->bucket_count(1);
    }
  }
  const bool was_enabled = telemetry::enabled();
  telemetry::set_enabled(false);  // replays time the layers, not recording
  const Datapath dp = replay_datapath(w, rec.program_frames);
  const double depth_mean =
      rec.depth_samples == 0
          ? 1.0
          : static_cast<double>(rec.depth_sum) / rec.depth_samples;
  const double event_ns =
      replay_events(std::max<u64>(1, static_cast<u64>(depth_mean + 0.5)));
  const double hook_ns = replay_hook(w, rec.transmits);
  const Control ctl = replay_control(w, rec.control);
  const double fabric_admit_ns = replay_fabric_admissions(rec.client_requests);
  const double scoreboard_ns = replay_scoreboards(w);
  telemetry::set_enabled(was_enabled);

  const double capsules = static_cast<double>(live.capsules);
  const bool fault_hook = !w.fault_plan().empty();
  const double hook_calls =
      fault_hook ? static_cast<double>(rec.measured_calls) : 0.0;
  const double request_ns = ratio(static_cast<double>(timers.request_ns),
                                  static_cast<double>(timers.requests));
  const double receive_ns = ratio(static_cast<double>(timers.receive_ns),
                                  static_cast<double>(timers.receives));
  const double server_ns = ratio(static_cast<double>(timers.server_ns),
                                 static_cast<double>(timers.server_frames));
  const double admit_ns = ratio(ctl.admit_ns, ctl.admits);
  const double release_ns = ratio(ctl.release_ns, ctl.releases);
  const double alloc_ns = ratio(ctl.alloc_ns, ctl.allocs);
  const double dealloc_ns = ratio(ctl.dealloc_ns, ctl.deallocs);
  const double gc_admissions =
      w.global_controller() == nullptr ? 0.0 : static_cast<double>(
          w.global_controller()->report().placements);

  // Self time per layer over the traced measured phase. Nested calls are
  // subtracted where one timer contains another layer's operation: each
  // client request and server reply makes one pool copy and one transmit
  // through the hook.
  const double hook_each = fault_hook ? hook_ns : 0.0;
  std::map<std::string, double> self;
  self["common"] = dp.copy_ns * static_cast<double>(live.pool_ops);
  self["netsim"] = event_ns * static_cast<double>(live.events);
  self["faults"] = hook_ns * hook_calls;
  self["packet"] = std::max(0.0, dp.parse_ns - dp.intern_ns) * capsules;
  self["active"] = dp.intern_ns * capsules;
  self["runtime"] = dp.exec_ns * capsules;
  self["proto"] = dp.encode_ns * capsules;
  self["controller"] =
      std::max(0.0, admit_ns - alloc_ns) * static_cast<double>(live.admissions) +
      std::max(0.0, release_ns - dealloc_ns) * static_cast<double>(live.releases);
  self["alloc"] = alloc_ns * static_cast<double>(live.admissions) +
                  dealloc_ns * static_cast<double>(live.releases);
  self["client"] =
      std::max(0.0, request_ns - dp.copy_ns - hook_each) * timers.requests +
      receive_ns * timers.receives;
  self["apps"] =
      std::max(0.0, server_ns - dp.copy_ns - hook_each) * timers.server_frames;
  self["telemetry"] = in.record_share * in.wall_untraced_ns;
  self["fabric"] = scoreboard_ns * static_cast<double>(live.health_acks) +
                   fabric_admit_ns * gc_admissions;
  self["trace"] = std::max(0.0, in.wall_traced_ns - in.wall_untraced_ns);
  const Attribution a = attribute(self, in.wall_traced_ns);

  std::vector<Metric> m;
  const auto add = [&m](std::string name, double value, std::string unit) {
    m.push_back({std::move(name), value, std::move(unit)});
  };
  const double handshake_ms =
      rec.handshake_ms.empty()
          ? 0.0
          : [&] {
              double s = 0;
              for (const double v : rec.handshake_ms) s += v;
              return s / static_cast<double>(rec.handshake_ms.size());
            }();
  const double untraced_capsules = static_cast<double>(in.untraced.capsules);
  add("common.pool_copy_ns", dp.copy_ns, "ns");
  add("common.heap_allocs_per_capsule",
      ratio(static_cast<double>(in.untraced.heap_allocs), untraced_capsules),
      "count");
  add("netsim.events_per_capsule",
      ratio(static_cast<double>(in.untraced.events), untraced_capsules),
      "count");
  add("netsim.event_ns", event_ns, "ns");
  add("netsim.queue_depth_max", static_cast<double>(rec.depth_max), "count");
  add("faults.hook_ns", hook_ns, "ns");
  add("faults.hook_calls", hook_calls, "count");
  add("packet.parse_ns", dp.parse_ns, "ns");
  add("active.intern_ns", dp.intern_ns, "ns");
  add("active.cache_hit_ratio",
      ratio(static_cast<double>(cache_hits),
            static_cast<double>(cache_hits + cache_misses)),
      "ratio");
  add("active.programs_distinct", static_cast<double>(distinct), "count");
  add("runtime.exec_ns", dp.exec_ns, "ns");
  add("runtime.passes_per_capsule",
      ratio(static_cast<double>(packets + recircs), static_cast<double>(packets)),
      "count");
  add("runtime.fault_ratio",
      ratio(static_cast<double>(faults), static_cast<double>(packets)), "ratio");
  add("runtime.batched_share",
      ratio(static_cast<double>(batched), static_cast<double>(packets)),
      "ratio");
  add("proto.encode_ns", dp.encode_ns, "ns");
  add("controller.admit_us", admit_ns / 1e3, "us");
  add("controller.release_us", release_ns / 1e3, "us");
  add("controller.entries_per_admit",
      ratio(static_cast<double>(ctl.entries), static_cast<double>(ctl.admits)),
      "count");
  add("controller.disturbed_per_admit",
      ratio(static_cast<double>(ctl.disturbed), static_cast<double>(ctl.admits)),
      "count");
  add("controller.table_update_ms_virt",
      ratio(ctl.table_update_ns_virt, static_cast<double>(ctl.admits)) / 1e6,
      "ms");
  add("controller.handshake_ms_virt", handshake_ms, "ms");
  // The admission tail is reported here, not gated end to end: its
  // spread across seeds is wider than any end-to-end bound allows.
  add("controller.admit_tail_ms_virt", summarize(out.admit_ms).tail, "ms");
  add("controller.extraction_timeouts", static_cast<double>(timeouts), "count");
  add("switch.transit_per_capsule",
      ratio(static_cast<double>(live.transit), capsules), "count");
  add("alloc.allocate_us", alloc_ns / 1e3, "us");
  add("alloc.deallocate_us", dealloc_ns / 1e3, "us");
  add("alloc.mutants_per_allocate",
      ratio(static_cast<double>(ctl.mutants), static_cast<double>(ctl.allocs)),
      "count");
  add("alloc.pruned_share",
      ratio(static_cast<double>(ctl.pruned), static_cast<double>(ctl.allocs)),
      "ratio");
  add("client.request_ns", request_ns, "ns");
  add("client.receive_ns", receive_ns, "ns");
  add("client.retransmits", static_cast<double>(out.retransmits), "count");
  add("client.give_ups", static_cast<double>(out.give_ups), "count");
  add("apps.server_ns", server_ns, "ns");
  add("telemetry.record_share", in.record_share, "ratio");
  add("fabric.admit_us", fabric_admit_ns / 1e3, "us");
  add("fabric.scoreboard_us", scoreboard_ns / 1e3, "us");
  add("fabric.health_acks", static_cast<double>(live.health_acks), "count");
  add("fabric.evacuations", static_cast<double>(out.evacuations), "count");
  add("fabric.state_loss_services",
      static_cast<double>(out.state_loss_services), "count");
  for (const auto& [layer, share] : a.shares) {
    add("share." + layer, share, "ratio");
  }
  add("trace.unattributed_share", a.unattributed, "ratio");
  add("trace.overhead", in.wall_traced_ns / in.wall_untraced_ns - 1.0, "ratio");
  return m;
}

}  // namespace perfbench
