// Strict numeric flag parsing shared by the example command-line tools.

#ifndef RANKJOIN_EXAMPLES_PARSE_NUMBER_H_
#define RANKJOIN_EXAMPLES_PARSE_NUMBER_H_

#include <charconv>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <system_error>

/// Parses the whole of `text` as a T in [lo, hi]. std::from_chars
/// takes no leading space, '+' or trailing characters, and an unsigned
/// T takes no '-'. On failure prints a message naming `flag` and exits 2.
template <typename T>
T ParseNumber(const char* flag, const char* text, T lo, T hi) {
  T value{};
  const char* end = text + std::strlen(text);
  const auto [ptr, ec] = std::from_chars(text, end, value);
  // Written as !(in range) so that a NaN is rejected too.
  if (ec != std::errc() || ptr != end || !(value >= lo && value <= hi)) {
    std::ostringstream range;
    range << '[' << lo << ", " << hi << ']';
    std::fprintf(stderr, "%s: expected a number in %s, got '%s'\n", flag,
                 range.str().c_str(), text);
    std::exit(2);
  }
  return value;
}

#endif  // RANKJOIN_EXAMPLES_PARSE_NUMBER_H_
