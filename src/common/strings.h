#ifndef CVCP_COMMON_STRINGS_H_
#define CVCP_COMMON_STRINGS_H_

/// \file
/// Small string helpers used by the table printer, benches and tools.

#include <charconv>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

namespace cvcp {

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Fixed-width, `digits`-decimal representation of `v` ("0.7489"); NaN -> "—".
std::string FormatDouble(double v, int digits = 4);

/// Parses all of `text` as a base-10 integer of type `T`. Returns false,
/// leaving `*out` alone, when `text` is empty, holds anything but digits
/// after an optional '-' (no sign at all for an unsigned `T`, so "-1"
/// never wraps to a huge value), or names a value outside `T` (so
/// 4294967297 never narrows into an `int`).
template <typename T>
bool ParseInteger(std::string_view text, T* out) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [last, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc() || last != end) return false;
  *out = value;
  return true;
}

}  // namespace cvcp

#endif  // CVCP_COMMON_STRINGS_H_
