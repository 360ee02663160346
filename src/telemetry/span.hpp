// Causal span tracing: one span per transmission, threaded through a
// capsule's full lifecycle (client send -> link transit -> parse ->
// execution -> recirculation hops -> reply -> client receive), with
// parent/child links across recirculations and retransmits.
//
// Determinism contract: a span id is derived from the sending node's
// (attach_index, tx_seq) pair -- the same simulation-state-only key the
// fault injector uses -- so ids are byte-identical across runs. Every
// emitted SpanEvent is a pure function of simulation state, and the
// canonical dump sorts the buffer over all fields, so two runs with the
// same seed dump the same bytes.
#pragma once

#include <atomic>
#include <cstddef>
#include <iosfwd>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::telemetry {

// Lifecycle phases. The payload fields `a`/`b` are phase-specific:
//   kSend    a = scheduled arrival time, b = frame bytes
//   kDrop    b = frame bytes (transmit-hook loss; the send never dispatched)
//   kExec    a = pipeline passes, b = modeled switch latency (ns),
//            parent = the capsule's runtime::Fault (0 = kNone; an
//            execution has no causal parent of its own)
//   kRecirc  a = 1-based extra pass index
//   kRecv    (none; a client service claimed the delivered frame)
//   kRetry   a = attempt number, b = the rto (ns) that expired
//   kGiveUp  a = attempts consumed
//   kWipe    a = register words wiped (brownout up-edge)
// The switch's control plane records three more, on span 0 (they belong
// to no transmission), each with a cause code in `b`:
//   kTxn     a = transaction id, b = TxnCause: one event per FID the
//            transaction admits, migrates, releases or disturbs
//   kApply   a = transaction id, b = ApplyCause: the new layout is live
//            and the replies go out; fid = the transaction's subject
//   kDeny    a = the request's sequence number, b = DenyCause; no fid
// A transaction id counts up from 1 per switch, so (node, a) names one.
enum class SpanPhase : u16 {
  kSend = 0,
  kDrop = 1,
  kExec = 2,
  kRecirc = 3,
  kRecv = 4,
  kRetry = 5,
  kGiveUp = 6,
  kWipe = 7,
  kTxn = 8,
  kApply = 9,
  kDeny = 10,
};

// kTxn causes: what the transaction does to the event's FID.
enum class TxnCause : u8 { kAdmit, kMigrate, kRelease, kDisturb };
// kApply causes: what let the layout apply.
enum class ApplyCause : u8 {
  kImmediate,  // nothing to extract (undisturbed admission, departure)
  kExtracted,  // every disturbed client reported extraction complete
  kTimeout,    // the extraction timeout fired first
};
// kDeny causes: why an admission was refused.
enum class DenyCause : u8 {
  kMalformed,     // the request did not decode or was structurally invalid
  kNoPlacement,   // the allocator found no feasible mutant
  kTcamHeadroom,  // a chosen stage had no range entry left
  kFidRangeFull,  // every FID in the switch's range is resident
};

[[nodiscard]] const char* span_phase_name(SpanPhase phase);
// Inverse of span_phase_name; false when `name` is unknown.
[[nodiscard]] bool span_phase_from_name(std::string_view name,
                                        SpanPhase* out);

// One lifecycle event. Plain data; every field is simulation-determined.
// Laid out wide-fields-first so the struct packs to exactly 48 bytes --
// the ring and sink stores on the hot path copy whole events, so the
// layout is part of the overhead budget.
struct SpanEvent {
  SimTime ts = 0;      // virtual time the event happened
  u64 span = 0;        // the span this event belongs to
  u64 parent = 0;      // causal parent span (0 = root / none)
  u64 a = 0;           // phase-specific payload (see SpanPhase)
  u64 b = 0;
  i32 fid = kNoFid;    // flow id when known (netsim sends don't parse)
  SpanPhase phase = SpanPhase::kSend;
  u16 node = 0;        // attach index of the node (0 for node-less owners;
                       // u16 -- simulations attach far fewer than 64k nodes)

  friend bool operator==(const SpanEvent&, const SpanEvent&) = default;
};
static_assert(sizeof(SpanEvent) == 48);

// Total order over all fields, virtual time first. Sorting with it makes
// a dump's bytes a function of its event multiset alone, not of the order
// the events were emitted or loaded in, so a dump read back and
// re-emitted (artmt_stats --span-events) reproduces itself byte for byte.
[[nodiscard]] bool span_event_before(const SpanEvent& a, const SpanEvent& b);

// A transmission's span id: attach order (biased by 1 so the id can never
// be 0, the "no span" sentinel) in the high bits, the sender's per-node
// transmit sequence in the low 40 (enough for ~10^12 frames).
[[nodiscard]] constexpr u64 span_id(u32 attach_index, u64 tx_seq) {
  return ((static_cast<u64>(attach_index) + 1) << 40) |
         (tx_seq & ((1ull << 40) - 1));
}

// Derived child id for recirculation pass `pass` of `parent` (top bit set
// so derived ids never collide with transmission ids).
[[nodiscard]] constexpr u64 recirc_span_id(u64 parent, u32 pass) {
  return 0x8000'0000'0000'0000ull |
         ((parent * 0x100000001b3ull + pass) & ~0x8000'0000'0000'0000ull);
}

// Collects SpanEvents and produces the canonical sorted dump. Install via
// set_span_sink before the run.
class SpanSink {
 public:
  // Pre-sizes the buffer so steady-state recording never allocates (the
  // bench's 0-allocs/frame gate records through a reserved sink).
  void reserve(std::size_t events) { events_.reserve(events); }

  void record(const SpanEvent& event) { events_.push_back(event); }

  void clear() { events_.clear(); }
  [[nodiscard]] u64 recorded() const { return events_.size(); }

  // Every recorded event, canonically sorted.
  [[nodiscard]] std::vector<SpanEvent> sorted_events() const;
  // Canonical JSON-lines dump (one trace line per event).
  void dump(std::ostream& out) const;

 private:
  std::vector<SpanEvent> events_;
};

// Serializes events through write_trace_line: component "span", event =
// phase name, the span/parent/node/a/b payload as fields. Shared by
// SpanSink::dump, the flight recorder's JSON dumps and artmt_stats
// --span-events.
void write_span_events(std::ostream& out,
                       const std::vector<SpanEvent>& events);

class FlightRecorder;  // flight_recorder.hpp

// --- process-global emission state ---------------------------------------
// Span capture is process-global: set_span_sink / set_flight_recorder
// attach consumers before the run; spans_active() is the one-relaxed-load
// gate every emission site checks first, so with neither attached the hot
// paths pay a load and a branch.
//
// The globals and causal context live in detail:: so the emission path
// (span_emit and the accessors below) inlines into every call site -- at
// ~3 span events per packet, an out-of-line call per access is measurable
// against the 5% overhead gate.

namespace detail {
extern std::atomic<bool> g_spans_on;
extern std::atomic<SpanSink*> g_span_sink;
extern std::atomic<FlightRecorder*> g_flight;
extern thread_local u64 tls_current_span;
extern thread_local u64 tls_last_tx_span;
}  // namespace detail

[[nodiscard]] inline bool spans_active() {
  return detail::g_spans_on.load(std::memory_order_relaxed);
}

void set_span_sink(SpanSink* sink);
[[nodiscard]] inline SpanSink* span_sink() {
  return detail::g_span_sink.load(std::memory_order_relaxed);
}
void set_flight_recorder(FlightRecorder* recorder);
[[nodiscard]] inline FlightRecorder* flight_recorder() {
  return detail::g_flight.load(std::memory_order_relaxed);
}

// Routes one event to the attached sink and/or flight recorder. Call only
// after a spans_active() check. Defined inline in flight_recorder.hpp (it
// needs FlightRecorder::record); every emitting translation unit includes
// that header. Hot-path sites use the span_emit_with template there
// instead, which builds the event in place in the ring slot when the
// recorder is the only consumer.
void span_emit(const SpanEvent& event);

// --- causal context --------------------------------------------------------
// The span whose causal context the current code runs under: set around
// every frame delivery and restored by SpanScope in deferred-send
// closures, so a transmit's parent is the delivery (or retransmit) that
// caused it.
[[nodiscard]] inline u64 current_span() { return detail::tls_current_span; }
inline void set_current_span(u64 span) { detail::tls_current_span = span; }

// The span id of the most recent transmit (recorded by Network::transmit
// while spans are active). Only meaningful within the
// same event handler as the send: ReliabilityTracker::track reads it right
// after the caller's initial send -- the repo's send-then-track idiom --
// to link retransmit chains without touching any service code.
[[nodiscard]] inline u64 last_tx_span() { return detail::tls_last_tx_span; }
inline void note_tx_span(u64 span) { detail::tls_last_tx_span = span; }

// RAII current-span context (restores the previous span on exit).
class SpanScope {
 public:
  explicit SpanScope(u64 span) : prev_(current_span()) {
    set_current_span(span);
  }
  ~SpanScope() { set_current_span(prev_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  u64 prev_;
};

}  // namespace artmt::telemetry
