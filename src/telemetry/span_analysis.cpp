#include "telemetry/span_analysis.hpp"

#include <algorithm>
#include <cstdio>
#include <istream>
#include <map>
#include <ostream>
#include <unordered_map>
#include <unordered_set>

#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace artmt::telemetry {

namespace {

// The span event `rec` encodes; false (and *why) when its phase is
// unknown or a payload number is missing, not a number, or too big for
// its field.
bool decode_span(const TraceRecord& rec, SpanEvent* event, std::string* why) {
  if (!span_phase_from_name(rec.event, &event->phase)) {
    *why = "unknown span phase '" + rec.event + "'";
    return false;
  }
  const auto field = [&](const char* key, u64 max, u64* value) {
    const std::optional<u64> parsed = rec.unum(key, max);
    if (!parsed) {
      *why = std::string("bad or missing \"") + key + "\"";
      return false;
    }
    *value = *parsed;
    return true;
  };
  constexpr u64 kAny = ~u64{0};
  u64 node = 0;
  if (!field("span", kAny, &event->span) ||
      !field("parent", kAny, &event->parent) ||
      !field("node", 0xFFFF, &node) || !field("a", kAny, &event->a) ||
      !field("b", kAny, &event->b)) {
    return false;
  }
  event->node = static_cast<u16>(node);
  event->ts = rec.ts;
  event->fid = rec.fid;
  return true;
}

}  // namespace

bool load_span_events(std::istream& in, std::vector<SpanEvent>* out,
                      std::string* error) {
  out->clear();
  std::string line;
  std::string why;
  u64 lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty()) continue;
    TraceRecord rec;
    SpanEvent event;
    const bool parsed = parse_trace_line(line, &rec, &why);
    if (parsed && rec.component != "span") continue;  // e.g. flight header
    if (parsed && decode_span(rec, &event, &why)) {
      out->push_back(event);
      continue;
    }
    if (error != nullptr) {
      *error = "line " + std::to_string(lineno) + ": " + why;
    }
    return false;
  }
  return true;
}

namespace {

struct EventIndex {
  // First kSend per span id (dups re-use their own span ids, so this is
  // unique per transmission).
  std::unordered_map<u64, const SpanEvent*> send_by_span;
  // parent span -> child transmissions / recirc hops rooted under it.
  std::unordered_map<u64, std::vector<const SpanEvent*>> children;
  // span -> non-send events carried on that span (parse/exec/recv/...).
  std::unordered_map<u64, std::vector<const SpanEvent*>> on_span;
  // attempt span -> the kRetry edge leaving it (next attempt).
  std::unordered_map<u64, const SpanEvent*> retry_from;
  std::unordered_set<u64> retry_targets;  // spans created by a retransmit
};

EventIndex build_index(const std::vector<SpanEvent>& events) {
  EventIndex index;
  for (const SpanEvent& e : events) {
    switch (e.phase) {
      case SpanPhase::kSend:
      case SpanPhase::kDrop:
        index.send_by_span.emplace(e.span, &e);
        if (e.parent != 0) index.children[e.parent].push_back(&e);
        break;
      case SpanPhase::kRecirc:
        index.children[e.parent].push_back(&e);
        index.on_span[e.span].push_back(&e);
        break;
      case SpanPhase::kRetry:
        index.retry_from.emplace(e.parent, &e);
        index.retry_targets.insert(e.span);
        index.on_span[e.span].push_back(&e);
        break;
      default:
        index.on_span[e.span].push_back(&e);
    }
  }
  return index;
}

// Walks the causal tree under `attempt_root` (the attempt's transmission
// span), accumulating wire/exec/recircs and finding the earliest kRecv.
struct SubtreeStats {
  SimTime wire = 0;
  SimTime exec = 0;
  u32 recircs = 0;
  const SpanEvent* recv = nullptr;
  i32 fid = kNoFid;
};

void walk_subtree(const EventIndex& index, u64 root, SubtreeStats* stats) {
  std::vector<u64> frontier{root};
  std::unordered_set<u64> seen{root};
  while (!frontier.empty()) {
    const u64 span = frontier.back();
    frontier.pop_back();
    if (const auto it = index.send_by_span.find(span);
        it != index.send_by_span.end()) {
      const SpanEvent& send = *it->second;
      if (send.phase == SpanPhase::kSend &&
          static_cast<SimTime>(send.a) >= send.ts) {
        stats->wire += static_cast<SimTime>(send.a) - send.ts;
      }
      if (stats->fid == kNoFid) stats->fid = send.fid;
    }
    if (const auto it = index.on_span.find(span);
        it != index.on_span.end()) {
      for (const SpanEvent* e : it->second) {
        if (stats->fid == kNoFid && e->fid != kNoFid) stats->fid = e->fid;
        switch (e->phase) {
          case SpanPhase::kExec:
            stats->exec += static_cast<SimTime>(e->b);
            break;
          case SpanPhase::kRecirc:
            ++stats->recircs;
            break;
          case SpanPhase::kRecv:
            if (stats->recv == nullptr || e->ts < stats->recv->ts) {
              stats->recv = e;
            }
            break;
          default:
            break;
        }
      }
    }
    if (const auto it = index.children.find(span);
        it != index.children.end()) {
      for (const SpanEvent* child : it->second) {
        // Retransmit sends hang off the previous attempt span too; the
        // attempt chain is followed separately, so skip them here.
        if (index.retry_targets.count(child->span) != 0) continue;
        if (seen.insert(child->span).second) {
          frontier.push_back(child->span);
        }
      }
    }
  }
}

}  // namespace

std::vector<SpanRequest> reconstruct_requests(
    const std::vector<SpanEvent>& events) {
  const EventIndex index = build_index(events);

  // Roots in canonical order: kSend, parent == 0, not itself a
  // retransmit of an earlier attempt.
  std::vector<const SpanEvent*> roots;
  for (const SpanEvent& e : events) {
    if (e.phase != SpanPhase::kSend || e.parent != 0) continue;
    if (index.retry_targets.count(e.span) != 0) continue;
    if (index.send_by_span.at(e.span) != &e) continue;  // dup line
    roots.push_back(&e);
  }
  std::sort(roots.begin(), roots.end(),
            [](const SpanEvent* a, const SpanEvent* b) {
              return span_event_before(*a, *b);
            });

  std::vector<SpanRequest> requests;
  requests.reserve(roots.size());
  for (const SpanEvent* root : roots) {
    SpanRequest req;
    req.root = root->span;

    // Follow the retransmit chain to enumerate attempts.
    std::vector<u64> attempts{root->span};
    u64 cursor = root->span;
    while (true) {
      const auto it = index.retry_from.find(cursor);
      if (it == index.retry_from.end()) break;
      cursor = it->second->span;
      attempts.push_back(cursor);
      if (attempts.size() > 1024) break;  // corrupt-input guard
    }
    req.attempts = static_cast<u32>(attempts.size());

    // Give-up marks ride the last attempt's span.
    if (const auto it = index.on_span.find(attempts.back());
        it != index.on_span.end()) {
      for (const SpanEvent* e : it->second) {
        if (e->phase == SpanPhase::kGiveUp) req.gave_up = true;
      }
    }

    // Phase attribution uses the final attempt's subtree: earlier
    // attempts' cost is what retry_wait measures.
    SubtreeStats stats;
    for (auto it = attempts.rbegin(); it != attempts.rend(); ++it) {
      walk_subtree(index, *it, &stats);
      if (stats.recv != nullptr || stats.fid != kNoFid) break;
    }
    // Re-walk just the final attempt for the phase sums (the loop above
    // may have fallen back to an earlier attempt only for fid/recv).
    SubtreeStats last;
    walk_subtree(index, attempts.back(), &last);

    req.fid = stats.fid;
    req.recircs = last.recircs;
    if (const auto it = index.send_by_span.find(attempts.back());
        it != index.send_by_span.end()) {
      req.retry_wait = it->second->ts - root->ts;
    }
    if (last.recv != nullptr) {
      req.completed = true;
      req.total = last.recv->ts - root->ts;
      req.wire = last.wire;
      req.exec = last.exec;
      const SimTime accounted = req.retry_wait + req.wire + req.exec;
      req.queue = req.total > accounted ? req.total - accounted : 0;
    }
    requests.push_back(req);
  }
  return requests;
}

void print_span_breakdown(std::ostream& out,
                          const std::vector<SpanRequest>& requests) {
  struct FidStats {
    u64 total_reqs = 0;
    u64 completed = 0;
    u64 gave_up = 0;
    u64 retransmits = 0;
    u64 recircs = 0;
    Histogram total;
    Histogram queue;
    Histogram exec;
    Histogram wire;
    Histogram retry;
  };
  std::map<i32, FidStats> by_fid;
  for (const SpanRequest& req : requests) {
    FidStats& stats = by_fid[req.fid];
    ++stats.total_reqs;
    stats.retransmits += req.attempts - 1;
    stats.recircs += req.recircs;
    if (req.gave_up) ++stats.gave_up;
    if (!req.completed) continue;
    ++stats.completed;
    stats.total.record(static_cast<u64>(req.total));
    stats.queue.record(static_cast<u64>(req.queue));
    stats.exec.record(static_cast<u64>(req.exec));
    stats.wire.record(static_cast<u64>(req.wire));
    stats.retry.record(static_cast<u64>(req.retry_wait));
  }

  char line[192];
  for (const auto& [fid, stats] : by_fid) {
    const std::string fid_str =
        fid == kNoFid ? std::string("-") : std::to_string(fid);
    std::snprintf(line, sizeof(line),
                  "fid %-5s %llu reqs, %llu done, %llu give-ups, "
                  "%llu retransmits, %llu recirculations\n",
                  fid_str.c_str(),
                  static_cast<unsigned long long>(stats.total_reqs),
                  static_cast<unsigned long long>(stats.completed),
                  static_cast<unsigned long long>(stats.gave_up),
                  static_cast<unsigned long long>(stats.retransmits),
                  static_cast<unsigned long long>(stats.recircs));
    out << line;
    const auto row = [&](const char* phase, const Histogram& h) {
      std::snprintf(line, sizeof(line),
                    "  %-6s p50 %-10llu p90 %-10llu p99 %-10llu max %llu\n",
                    phase,
                    static_cast<unsigned long long>(h.percentile(0.50)),
                    static_cast<unsigned long long>(h.percentile(0.90)),
                    static_cast<unsigned long long>(h.percentile(0.99)),
                    static_cast<unsigned long long>(h.max()));
      out << line;
    };
    row("total", stats.total);
    row("queue", stats.queue);
    row("exec", stats.exec);
    row("wire", stats.wire);
    row("retry", stats.retry);
  }
  if (by_fid.empty()) out << "(no requests)\n";
}

}  // namespace artmt::telemetry
