#include "telemetry/trace.hpp"

#include <charconv>
#include <ostream>
#include <system_error>

namespace artmt::telemetry {

namespace {

// Minimal JSON string escaping; trace payloads are identifiers and
// mnemonics, so the common case copies straight through.
void write_escaped(std::ostream& out, std::string_view s) {
  out << '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out << "\\\"";
        break;
      case '\\':
        out << "\\\\";
        break;
      case '\n':
        out << "\\n";
        break;
      case '\t':
        out << "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          const char* hex = "0123456789abcdef";
          out << "\\u00" << hex[(c >> 4) & 0xf] << hex[c & 0xf];
        } else {
          out << c;
        }
    }
  }
  out << '"';
}

// A tiny cursor over one line of flat JSON -- exactly the subset
// write_trace_line produces (string keys, scalar values, no nesting).
struct Cursor {
  std::string_view s;
  std::size_t i = 0;

  [[nodiscard]] bool done() const { return i >= s.size(); }
  [[nodiscard]] char peek() const { return s[i]; }
  bool eat(char c) {
    if (done() || s[i] != c) return false;
    ++i;
    return true;
  }
};

bool parse_string(Cursor& c, std::string* out) {
  if (!c.eat('"')) return false;
  out->clear();
  while (!c.done()) {
    const char ch = c.s[c.i++];
    if (ch == '"') return true;
    if (ch != '\\') {
      out->push_back(ch);
      continue;
    }
    if (c.done()) return false;
    const char esc = c.s[c.i++];
    switch (esc) {
      case '"': out->push_back('"'); break;
      case '\\': out->push_back('\\'); break;
      case '/': out->push_back('/'); break;
      case 'n': out->push_back('\n'); break;
      case 't': out->push_back('\t'); break;
      case 'r': out->push_back('\r'); break;
      case 'b': out->push_back('\b'); break;
      case 'f': out->push_back('\f'); break;
      case 'u': {
        if (c.i + 4 > c.s.size()) return false;
        u32 code = 0;
        for (int k = 0; k < 4; ++k) {
          const char h = c.s[c.i++];
          code <<= 4;
          if (h >= '0' && h <= '9') code |= static_cast<u32>(h - '0');
          else if (h >= 'a' && h <= 'f') code |= static_cast<u32>(h - 'a' + 10);
          else if (h >= 'A' && h <= 'F') code |= static_cast<u32>(h - 'A' + 10);
          else return false;
        }
        // The writer only escapes control characters this way.
        out->push_back(static_cast<char>(code & 0xff));
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

// Scalar value as raw token text ("true", "-12", "3.5") or, for strings,
// the unescaped contents.
bool parse_value(Cursor& c, std::string* out) {
  if (c.done()) return false;
  if (c.peek() == '"') return parse_string(c, out);
  const std::size_t start = c.i;
  while (!c.done() && c.peek() != ',' && c.peek() != '}') ++c.i;
  if (c.i == start) return false;
  *out = std::string(c.s.substr(start, c.i - start));
  return true;
}

bool fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

// `text` as an integer of type T: every character consumed, no sign on
// an unsigned type, no overflow.
template <typename T>
bool parse_int(std::string_view text, T* out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc{} && ptr == end;
}

}  // namespace

void write_trace_line(std::ostream& out, SimTime ts,
                      std::string_view component, std::string_view event,
                      i64 fid, std::initializer_list<TraceField> fields) {
  out << "{\"v\":" << kTraceSchemaVersion << ",\"ts\":" << ts
      << ",\"component\":";
  write_escaped(out, component);
  out << ",\"event\":";
  write_escaped(out, event);
  if (fid >= 0) out << ",\"fid\":" << fid;
  for (const TraceField& f : fields) {
    out << ',';
    write_escaped(out, f.key);
    out << ':';
    switch (f.kind) {
      case TraceField::Kind::kBool:
        out << (f.b ? "true" : "false");
        break;
      case TraceField::Kind::kInt:
        out << f.i;
        break;
      case TraceField::Kind::kUint:
        out << f.u;
        break;
      case TraceField::Kind::kString:
        write_escaped(out, f.s);
        break;
    }
  }
  out << "}\n";
}

std::optional<u64> TraceRecord::unum(std::string_view key, u64 max) const {
  const auto it = fields.find(std::string(key));
  u64 value = 0;
  if (it == fields.end() || !parse_int(it->second, &value) || value > max) {
    return std::nullopt;
  }
  return value;
}

std::string_view TraceRecord::str(std::string_view key) const {
  const auto it = fields.find(std::string(key));
  return it == fields.end() ? std::string_view{} : std::string_view(it->second);
}

bool parse_trace_line(std::string_view line, TraceRecord* out,
                      std::string* error) {
  *out = TraceRecord{};
  // Tolerate a trailing newline so callers can hand getline() results or
  // raw buffer slices interchangeably.
  while (!line.empty() && (line.back() == '\n' || line.back() == '\r')) {
    line.remove_suffix(1);
  }
  Cursor c{line};
  if (!c.eat('{')) return fail(error, "expected '{'");
  std::string key;
  std::string value;
  bool first = true;
  bool has_ts = false;
  while (!c.eat('}')) {
    if (!first && !c.eat(',')) return fail(error, "expected ','");
    first = false;
    if (!parse_string(c, &key)) return fail(error, "expected key string");
    if (!c.eat(':')) return fail(error, "expected ':'");
    if (!parse_value(c, &value)) return fail(error, "expected value");
    if (key == "v") {
      if (!parse_int(value, &out->version)) return fail(error, "bad \"v\"");
    } else if (key == "ts") {
      if (!parse_int(value, &out->ts)) return fail(error, "bad \"ts\"");
      has_ts = true;
    } else if (key == "component") {
      out->component = value;
    } else if (key == "event") {
      out->event = value;
    } else if (key == "fid") {
      if (!parse_int(value, &out->fid)) return fail(error, "bad \"fid\"");
    } else {
      out->fields[key] = value;
    }
  }
  if (!c.done()) return fail(error, "trailing bytes after '}'");
  if (out->version != kTraceSchemaVersion) {
    return fail(error, "trace schema version mismatch");
  }
  if (!has_ts) return fail(error, "missing \"ts\"");
  return true;
}

}  // namespace artmt::telemetry
