// Checked parsing of the tools' numeric flags. A value is accepted only
// when the whole argument parses and fits the target, so a typo, a
// wrapped 64-bit count or an out-of-range probability reaches the
// caller's usage line instead of throwing or being silently truncated.
#pragma once

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <optional>

#include "common/types.hpp"

namespace artmt::cli {

// An unsigned integer in strtoull's base-0 syntax (decimal, 0x hex,
// leading-0 octal). Signs and surrounding whitespace are rejected.
inline std::optional<u64> parse_u64(const char* text) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return std::nullopt;
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (*end != '\0' || errno == ERANGE) return std::nullopt;
  return value;
}

inline std::optional<u32> parse_u32(const char* text) {
  const std::optional<u64> value = parse_u64(text);
  if (!value || *value > 0xffffffffULL) return std::nullopt;
  return static_cast<u32>(*value);
}

// A probability: a decimal in [0, 1].
inline std::optional<double> parse_probability(const char* text) {
  if (text[0] == '\0' || std::isspace(static_cast<unsigned char>(text[0]))) {
    return std::nullopt;
  }
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text, &end);
  if (*end != '\0' || errno == ERANGE || !(value >= 0.0 && value <= 1.0)) {
    return std::nullopt;
  }
  return value;
}

}  // namespace artmt::cli
