// Offline span-trace analysis: loads a canonical span dump (SpanSink::dump
// or a flight-recorder file) back into SpanEvents, reconstructs one
// request record per root span -- stitching retransmit chains and
// recirculation children back together -- and reduces the records to
// per-FID, per-phase latency breakdowns (queue vs execute vs wire vs
// retry). Lives in the telemetry library (not the tools) so the
// round-trip is unit-testable; artmt_stats --spans, --span-requests and
// --span-events are thin wrappers over these functions.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "telemetry/span.hpp"

namespace artmt::telemetry {

// Parses a JSON-lines span dump. Lines whose component is not "span"
// (e.g. a flight-recorder header) are skipped; malformed lines or a
// schema-version mismatch fail the load. Returns false and sets *error
// (when non-null) on failure.
bool load_span_events(std::istream& in, std::vector<SpanEvent>* out,
                      std::string* error = nullptr);

// One reconstructed request: a root send (parent == 0) plus everything
// causally downstream of it -- retransmit attempts, switch execution,
// recirculation hops, and the reply. All durations are virtual
// nanoseconds.
struct SpanRequest {
  u64 root = 0;        // the root transmission's span id
  i32 fid = kNoFid;    // first fid seen anywhere in the request's tree
  u32 attempts = 1;    // 1 + retransmits
  u32 recircs = 0;     // recirculation hops across the tree
  bool completed = false;  // a kRecv terminates the tree
  bool gave_up = false;    // the tracker abandoned the request
  SimTime total = 0;   // root send -> recv (completed requests only)
  SimTime retry_wait = 0;  // root send -> final attempt's send
  SimTime wire = 0;    // link transit on the final attempt's path
  SimTime exec = 0;    // modeled switch latency on the final attempt's path
  SimTime queue = 0;   // total - retry_wait - wire - exec, clamped at 0

  friend bool operator==(const SpanRequest&, const SpanRequest&) = default;
};

// Rebuilds requests from a (canonically ordered or not) event list.
[[nodiscard]] std::vector<SpanRequest> reconstruct_requests(
    const std::vector<SpanEvent>& events);

// Per-FID p50/p90/p99 tables over total/queue/exec/wire/retry_wait,
// via telemetry::Histogram so the quantiles are deterministic. Printed by
// artmt_stats --spans.
void print_span_breakdown(std::ostream& out,
                          const std::vector<SpanRequest>& requests);

}  // namespace artmt::telemetry
