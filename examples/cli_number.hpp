// Whole-string numeric parsing for the example CLIs.
//
// std::atoi/strtoull/atof half-accept their input: "abc" reads as 0, "-1"
// wraps to 2^64-1 as an unsigned, "2x" reads as 2. parse_number accepts
// only a value that spans the whole string (no sign on unsigned types, no
// surrounding whitespace, finite floating-point values only), so a CLI can
// reject the rest with its usage message.
#pragma once

#include <charconv>
#include <cmath>
#include <optional>
#include <string>
#include <system_error>
#include <type_traits>

template <typename T>
std::optional<T> parse_number(const std::string& text) {
  T value{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (text.empty() || ec != std::errc{} || ptr != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(value)) return std::nullopt;
  }
  return value;
}
