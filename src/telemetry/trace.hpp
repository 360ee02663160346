// JSON-lines trace schema: one flat JSON object per line, stamped with a
// virtual time. write_trace_line is the one writer -- span dumps
// (write_span_events), the flight recorder's header line and the
// debugger's artmt_trace --json all render through it -- and
// parse_trace_line is the one reader, so every file the tools exchange
// diffs and loads line by line.
//
// Envelope (stable field order):
//   {"v":3,"ts":<ns>,"component":"...","event":"...","fid":N, <fields...>}
// `fid` is omitted for events not attached to a flow (pass kNoFid).
//
// `v` is kTraceSchemaVersion. Every line stamps the same constant, and
// parse_trace_line() rejects lines from another version, so the writer
// and the readers can never drift apart silently again (they did once:
// artmt_trace --json predated the `ts` field and nothing noticed until a
// consumer broke).
#pragma once

#include <initializer_list>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/types.hpp"
#include "telemetry/metrics.hpp"

namespace artmt::telemetry {

// Bump when the envelope's shape or a field's meaning changes. v2 added
// the version stamp itself (v1 lines carried no "v" field); v3 gave span
// kExec's `parent` the capsule's fault code and added the control-plane
// span phases.
inline constexpr u32 kTraceSchemaVersion = 3;

// A typed key/value pair rendered into a trace line.
struct TraceField {
  enum class Kind { kBool, kInt, kUint, kString };

  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T> &&
                                        !std::is_same_v<T, bool>>>
  TraceField(std::string_view k, T v) : key(k) {
    if constexpr (std::is_signed_v<T>) {
      kind = Kind::kInt;
      i = static_cast<i64>(v);
    } else {
      kind = Kind::kUint;
      u = static_cast<u64>(v);
    }
  }
  TraceField(std::string_view k, bool v) : key(k), kind(Kind::kBool), b(v) {}
  TraceField(std::string_view k, std::string_view v)
      : key(k), kind(Kind::kString), s(v) {}
  TraceField(std::string_view k, const char* v)
      : TraceField(k, std::string_view(v)) {}

  std::string_view key;
  Kind kind;
  union {
    bool b;
    i64 i;
    u64 u;
  };
  std::string_view s;
};

// Writes one envelope line (newline-terminated) to `out`.
void write_trace_line(std::ostream& out, SimTime ts,
                      std::string_view component, std::string_view event,
                      i64 fid, std::initializer_list<TraceField> fields = {});

// One parsed trace line. Payload values are stored as the raw JSON token
// text (strings unescaped); a flat map is all the envelope needs -- the
// writer never nests.
struct TraceRecord {
  u32 version = 0;
  SimTime ts = 0;
  std::string component;
  std::string event;
  i32 fid = kNoFid;
  std::map<std::string, std::string> fields;

  // The value as an unsigned decimal integer no larger than `max`;
  // nullopt when the field is missing, is not a number, or is too big.
  [[nodiscard]] std::optional<u64> unum(std::string_view key,
                                        u64 max = ~u64{0}) const;
  // "" when missing.
  [[nodiscard]] std::string_view str(std::string_view key) const;
};

// Parses one envelope line into `out`. Returns false (and sets *error
// when non-null) on malformed JSON, a missing "ts", an envelope number
// ("v", "ts", "fid") that is not an integer or does not fit its type, or
// a schema-version mismatch -- the round-trip contract every trace
// producer is tested against.
bool parse_trace_line(std::string_view line, TraceRecord* out,
                      std::string* error = nullptr);

}  // namespace artmt::telemetry
