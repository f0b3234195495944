#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace smptree {

std::string StringPrintf(const char* format, ...) {
  va_list ap;
  va_start(ap, format);
  va_list ap_copy;
  va_copy(ap_copy, ap);
  const int needed = std::vsnprintf(nullptr, 0, format, ap);
  va_end(ap);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, format, ap_copy);
  }
  va_end(ap_copy);
  return out;
}

std::vector<std::string> SplitString(std::string_view s, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || s[i] == delim) {
      out.emplace_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
  return out;
}

std::string_view TrimWhitespace(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

namespace {

// Each parser below takes std::from_chars' verdict when from_chars accepts
// the whole token, and otherwise asks the C library, so the accepted grammar
// is exactly strto*'s: from_chars rejects a leading '+' and hex, and its
// range checks differ from strtod's (glibc also flags subnormal results).

template <typename T>
bool FromCharsWhole(std::string_view s, T* out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && ptr == s.data() + s.size();
}

// Runs `strto` on a NUL-terminated copy of `s`; sets `*out` only when it
// consumed all of `s` with no range error.
template <typename T, typename Strto>
bool StrtoWhole(std::string_view s, Strto strto, T* out) {
  const std::string buf(s);
  char* end = nullptr;
  errno = 0;
  const auto v = strto(buf.c_str(), &end);
  if (errno != 0 || end != buf.c_str() + buf.size()) return false;
  *out = static_cast<T>(v);
  return true;
}

}  // namespace

bool ParseDouble(std::string_view s, double* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  double v = 0.0;
  if (FromCharsWhole(s, &v) && std::isnormal(v)) {
    *out = v;
    return true;
  }
  return StrtoWhole(
      s, [](const char* p, char** e) { return std::strtod(p, e); }, out);
}

bool ParseInt64(std::string_view s, int64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty()) return false;
  int64_t v = 0;
  if (FromCharsWhole(s, &v)) {
    *out = v;
    return true;
  }
  return StrtoWhole(
      s, [](const char* p, char** e) { return std::strtoll(p, e, 10); }, out);
}

bool ParseUint64(std::string_view s, uint64_t* out) {
  s = TrimWhitespace(s);
  if (s.empty() || s[0] == '-') return false;
  uint64_t v = 0;
  if (FromCharsWhole(s, &v)) {
    *out = v;
    return true;
  }
  return StrtoWhole(
      s, [](const char* p, char** e) { return std::strtoull(p, e, 10); }, out);
}

std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < items.size(); ++i) {
    if (i) out.append(sep);
    out.append(items[i]);
  }
  return out;
}

std::string HumanBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  return StringPrintf("%.1f %s", v, units[u]);
}

}  // namespace smptree
