#ifndef CVCP_COMMON_STRINGS_H_
#define CVCP_COMMON_STRINGS_H_

/// \file
/// Small string helpers used by the table printer and benches.

#include <string>
#include <vector>

namespace cvcp {

/// printf-style formatting into a std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Joins `parts` with `sep` between elements.
std::string Join(const std::vector<std::string>& parts, const std::string& sep);

/// Splits on a single-character delimiter; keeps empty fields.
std::vector<std::string> Split(const std::string& s, char delim);

/// Removes leading/trailing ASCII whitespace.
std::string Trim(const std::string& s);

/// Fixed-width, `digits`-decimal representation of `v` ("0.7489"); NaN -> "—".
std::string FormatDouble(double v, int digits = 4);

}  // namespace cvcp

#endif  // CVCP_COMMON_STRINGS_H_
