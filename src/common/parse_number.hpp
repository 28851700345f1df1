#ifndef LIFTING_COMMON_PARSE_NUMBER_HPP
#define LIFTING_COMMON_PARSE_NUMBER_HPP

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

/// The one checked text-to-number parser, shared by the wire-scenario
/// decoder and every command-line flag that takes a number.

namespace lifting {

/// Parses `text` whole as a T. std::from_chars takes no '+', no leading
/// space and no sign for unsigned T, and refuses values that overflow T;
/// a floating-point T must also come out finite. `out` is only meaningful
/// when this returns true.
template <typename T>
[[nodiscard]] bool parse_number(std::string_view text, T& out) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end) return false;
  if constexpr (std::is_floating_point_v<T>) return std::isfinite(out);
  return true;
}

/// The value of command-line flag `flag`, parsed by parse_number. A value
/// that does not parse whole, overflows T or is not finite is refused:
/// the message names the flag and the text, and the program exits 2, so
/// an out-of-range value never runs as some other (wrapped) value.
template <typename T>
[[nodiscard]] T parse_arg(std::string_view flag, std::string_view text) {
  T value{};
  if (parse_number(text, value)) return value;
  const auto quoted = std::string(flag) + ": '" + std::string(text) + "'";
  if constexpr (std::is_floating_point_v<T>) {
    std::fprintf(stderr, "%s is not a finite number\n", quoted.c_str());
  } else {
    std::fprintf(stderr, "%s is not an integer in [%s, %s]\n",
                 quoted.c_str(),
                 std::to_string(std::numeric_limits<T>::min()).c_str(),
                 std::to_string(std::numeric_limits<T>::max()).c_str());
  }
  std::exit(2);
}

}  // namespace lifting

#endif  // LIFTING_COMMON_PARSE_NUMBER_HPP
