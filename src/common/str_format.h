#ifndef MWSJ_COMMON_STR_FORMAT_H_
#define MWSJ_COMMON_STR_FORMAT_H_

#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <string_view>
#include <system_error>

namespace mwsj {

/// printf-style formatting into a std::string. Kept out-of-line-free and
/// tiny on purpose; the benches use it heavily for table rows.
inline std::string StrFormat(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

inline std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

/// Formats a duration in seconds as the paper's "hh:mm" column format
/// (rounded to the nearest minute, minimum "00:00").
std::string FormatHhMm(double seconds);

/// Formats a count like 64'300'000 as "64.3m", 3'900 as "0.0m"-avoiding
/// human-readable millions with one decimal, mirroring the paper's
/// "(in millions)" columns.
std::string FormatMillions(double count);

/// Parses all of `text` as one decimal number of type `T` (std::from_chars
/// syntax: no leading whitespace or '+'). Returns false for an empty or
/// non-numeric string, trailing characters, a sign on an unsigned type or
/// a value outside `T`'s range — never a wrapped, truncated or partial
/// value. `*out` is unspecified on failure.
template <typename T>
bool ParseWhole(std::string_view text, T* out) {
  const char* const end = text.data() + text.size();
  const auto [rest, ec] = std::from_chars(text.data(), end, *out);
  return ec == std::errc() && rest == end;
}

}  // namespace mwsj

#endif  // MWSJ_COMMON_STR_FORMAT_H_
