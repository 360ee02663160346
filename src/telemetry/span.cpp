#include "telemetry/span.hpp"

#include <algorithm>
#include <ostream>
#include <tuple>

#include "telemetry/flight_recorder.hpp"
#include "telemetry/trace.hpp"

namespace artmt::telemetry {

namespace {

constexpr const char* kPhaseNames[] = {
    "send", "drop", "exec", "recirc", "recv", "retry",
    "give_up", "wipe", "txn", "apply", "deny",
};
constexpr u16 kPhaseCount = sizeof(kPhaseNames) / sizeof(kPhaseNames[0]);

void refresh_spans_on() {
  detail::g_spans_on.store(
      detail::g_span_sink.load(std::memory_order_relaxed) != nullptr ||
          detail::g_flight.load(std::memory_order_relaxed) != nullptr,
      std::memory_order_relaxed);
}

}  // namespace

namespace detail {
std::atomic<bool> g_spans_on{false};
std::atomic<SpanSink*> g_span_sink{nullptr};
std::atomic<FlightRecorder*> g_flight{nullptr};
thread_local u64 tls_current_span = 0;
thread_local u64 tls_last_tx_span = 0;
}  // namespace detail

const char* span_phase_name(SpanPhase phase) {
  const auto i = static_cast<u16>(phase);
  return i < kPhaseCount ? kPhaseNames[i] : "unknown";
}

bool span_phase_from_name(std::string_view name, SpanPhase* out) {
  for (u16 i = 0; i < kPhaseCount; ++i) {
    if (name == kPhaseNames[i]) {
      *out = static_cast<SpanPhase>(i);
      return true;
    }
  }
  return false;
}

bool span_event_before(const SpanEvent& a, const SpanEvent& b) {
  return std::tie(a.ts, a.span, a.parent, a.fid, a.phase, a.node, a.a, a.b) <
         std::tie(b.ts, b.span, b.parent, b.fid, b.phase, b.node, b.a, b.b);
}

std::vector<SpanEvent> SpanSink::sorted_events() const {
  std::vector<SpanEvent> sorted = events_;
  std::sort(sorted.begin(), sorted.end(), span_event_before);
  return sorted;
}

void SpanSink::dump(std::ostream& out) const {
  write_span_events(out, sorted_events());
}

void write_span_events(std::ostream& out,
                       const std::vector<SpanEvent>& events) {
  for (const SpanEvent& e : events) {
    write_trace_line(out, e.ts, "span", span_phase_name(e.phase), e.fid,
                     {{"span", e.span},
                      {"parent", e.parent},
                      {"node", e.node},
                      {"a", e.a},
                      {"b", e.b}});
  }
}

void set_span_sink(SpanSink* sink) {
  detail::g_span_sink.store(sink, std::memory_order_release);
  refresh_spans_on();
}

void set_flight_recorder(FlightRecorder* recorder) {
  detail::g_flight.store(recorder, std::memory_order_release);
  refresh_spans_on();
}

}  // namespace artmt::telemetry
