#include "common/strings.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>

namespace cvcp {

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  if (needed <= 0) {
    va_end(args_copy);
    return std::string();
  }
  std::string out(static_cast<size_t>(needed), '\0');
  std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  va_end(args_copy);
  return out;
}

std::vector<std::string> Split(const std::string& s, char delim) {
  std::vector<std::string> out;
  std::string current;
  for (char c : s) {
    if (c == delim) {
      out.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  out.push_back(current);
  return out;
}

std::string FormatDouble(double v, int digits) {
  if (std::isnan(v)) return "—";
  return Format("%.*f", digits, v);
}

}  // namespace cvcp
