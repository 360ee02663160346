#include "telemetry/flight_recorder.hpp"

#include <algorithm>
#include <fstream>

#include "common/error.hpp"
#include "telemetry/trace.hpp"

namespace artmt::telemetry {

namespace {

// Next power of two >= n (n >= 1): the ring indexes with a mask instead
// of a modulo, keeping record() free of integer division.
std::size_t round_up_pow2(std::size_t n) {
  std::size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : capacity_(round_up_pow2(capacity == 0 ? 1 : capacity)),
      buf_(capacity_) {}

std::vector<SpanEvent> FlightRecorder::events() const {
  const u64 held = std::min<u64>(head_, capacity_);
  std::vector<SpanEvent> events;
  events.reserve(static_cast<std::size_t>(held));
  for (u64 i = 0; i < held; ++i) {
    // Oldest first: the ring's logical start is head - held.
    const u64 pos = (head_ - held + i) % capacity_;
    events.push_back(buf_[static_cast<std::size_t>(pos)]);
  }
  return events;
}

std::string FlightRecorder::dump(std::string_view reason) {
  if (dir_.empty()) return "";
  const std::vector<SpanEvent> held = events();
  const u64 seq = dump_seq_++;
  std::string path = dir_;
  if (!path.empty() && path.back() != '/') path += '/';
  path += "flight_" + std::to_string(seq) + "_" + std::string(reason) +
          ".json";
  std::ofstream out(path);
  if (!out) {
    throw UsageError("FlightRecorder: cannot write dump file " + path);
  }
  // Header line, then one span line per buffered event: the whole file
  // parses with the same telemetry::parse_trace_line readers the span
  // tools use.
  write_trace_line(out, 0, "flight", reason, kNoFid,
                   {{"events", static_cast<u64>(held.size())},
                    {"recorded", head_},
                    {"capacity", static_cast<u64>(capacity_)}});
  write_span_events(out, held);
  return path;
}

}  // namespace artmt::telemetry
