// Fault flight recorder: a fixed-size ring buffer holding the last N span
// events, with zero steady-state allocation -- the ring is sized once at
// construction and every record is a plain array store.
//
// On a trigger -- a brownout up-edge (SwitchNode::wipe_registers), a
// chaos-soak digest mismatch or an artmt_chaos gate failure -- the
// buffered tail is dumped to a JSON-lines file so the failure ships with
// its own forensic capture.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "telemetry/span.hpp"

namespace artmt::telemetry {

class FlightRecorder {
 public:
  // Default ring size for the always-on configuration: 256 events x 48
  // bytes = 12 KiB stays L1-resident next to the datapath's working set,
  // which is what keeps armed-recorder overhead low (a 48 KiB ring
  // cycling through L2 measurably slows the hot path). Forensic consumers
  // that want a deeper tail (artmt_chaos --flight-dir) pass a larger
  // capacity explicitly and pay for it only in those runs.
  static constexpr std::size_t kDefaultCapacity = 256;

  // `capacity` is rounded up to the next power of two so the hot-path
  // ring index is a mask, not a division.
  explicit FlightRecorder(std::size_t capacity = kDefaultCapacity);

  // Directory dump files land in ("" disables dumping; recording still
  // runs so tests can inspect events()).
  void set_dump_dir(std::string dir) { dir_ = std::move(dir); }

  // Hot path: overwrites the oldest slot once the ring is full. No
  // allocation, no synchronization.
  void record(const SpanEvent& event) { slot() = event; }

  // Claims the next ring slot for in-place construction (the caller
  // overwrites every field; span_emit_with resets the slot first).
  SpanEvent& slot() {
    SpanEvent& s = buf_[static_cast<std::size_t>(head_) & (capacity_ - 1)];
    ++head_;
    return s;
  }

  // Forget everything buffered (e.g. between chaos runs).
  void clear() { head_ = 0; }

  // Dumps the buffered events (oldest first) to
  // <dir>/flight_<seq>_<reason>.json. Returns the file path, or "" when
  // no dump dir is set.
  std::string dump(std::string_view reason);

  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  // Total events ever recorded (buffered or since overwritten).
  [[nodiscard]] u64 recorded() const { return head_; }
  [[nodiscard]] u64 dumps_written() const { return dump_seq_; }

  // The events currently buffered, oldest first (test hook; the same
  // view dump() serializes).
  [[nodiscard]] std::vector<SpanEvent> events() const;

 private:
  std::size_t capacity_;
  std::vector<SpanEvent> buf_;  // fixed capacity, preallocated
  u64 head_ = 0;                // total events ever recorded
  std::string dir_;
  u64 dump_seq_ = 0;
};

// Declared in span.hpp; defined here so the whole emission path -- the
// consumer loads and the stores -- inlines into the call sites (which all
// include this header).
inline void span_emit(const SpanEvent& event) {
  if (SpanSink* sink = detail::g_span_sink.load(std::memory_order_relaxed)) {
    sink->record(event);
  }
  if (FlightRecorder* recorder =
          detail::g_flight.load(std::memory_order_relaxed)) {
    recorder->record(event);
  }
}

// Emission with in-place construction: `fill` assigns the event's fields.
// In the always-on configuration -- flight recorder armed, no full-capture
// sink -- the event is built directly in the ring slot (the default-reset
// stores that `fill` overwrites are dead and fold away once this inlines),
// so each field is written exactly once. With a sink attached the event is
// staged on the stack and copied to each consumer, as span_emit does.
template <class Fill>
inline void span_emit_with(Fill&& fill) {
  SpanSink* sink = detail::g_span_sink.load(std::memory_order_relaxed);
  FlightRecorder* recorder = detail::g_flight.load(std::memory_order_relaxed);
  if (recorder != nullptr && sink == nullptr) {
    SpanEvent& slot = recorder->slot();
    slot = SpanEvent{};
    fill(slot);
    return;
  }
  SpanEvent event;
  fill(event);
  if (sink != nullptr) sink->record(event);
  if (recorder != nullptr) recorder->record(event);
}

}  // namespace artmt::telemetry
