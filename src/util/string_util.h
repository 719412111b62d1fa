#ifndef PAYGO_UTIL_STRING_UTIL_H_
#define PAYGO_UTIL_STRING_UTIL_H_

/// \file string_util.h
/// \brief Small string helpers shared across the library.

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>
#include <vector>

namespace paygo {

/// Returns \p s with ASCII letters lowered.
std::string ToLowerAscii(std::string_view s);

/// Returns \p s without leading/trailing ASCII whitespace.
std::string Trim(std::string_view s);

/// Splits \p s on any character in \p delims; empty pieces are dropped.
std::vector<std::string> SplitAny(std::string_view s, std::string_view delims);

/// Splits \p s on the single character \p delim, keeping empty pieces.
std::vector<std::string> Split(std::string_view s, char delim);

/// Joins \p parts with \p sep.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

/// True iff \p s starts with \p prefix.
bool StartsWith(std::string_view s, std::string_view prefix);

/// True iff every character of \p s is an ASCII letter.
bool IsAlphaAscii(std::string_view s);

/// Returns \p s escaped for the inside of a JSON string literal: quote,
/// backslash, \\n, \\r and \\t as their short escapes, every other
/// control byte below 0x20 as \\u00XX. Other bytes pass through.
std::string JsonEscape(std::string_view s);

/// Formats a double with \p precision digits after the decimal point.
std::string FormatDouble(double value, int precision = 3);

/// Parses all of \p s as a decimal number of type \p T with
/// std::from_chars. Empty input, leading whitespace or '+', trailing
/// characters and values out of T's range are rejected, as is any sign for
/// an unsigned T and inf or nan for a floating-point T.
template <typename T>
std::optional<T> ParseNumber(std::string_view s) {
  T value{};
  const char* end = s.data() + s.size();
  const auto [ptr, ec] = std::from_chars(s.data(), end, value);
  if (ec != std::errc() || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}

}  // namespace paygo

#endif  // PAYGO_UTIL_STRING_UTIL_H_
