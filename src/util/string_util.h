// String formatting / parsing helpers shared by CSV, tree serialization and
// the benchmark table printers.

#ifndef SMPTREE_UTIL_STRING_UTIL_H_
#define SMPTREE_UTIL_STRING_UTIL_H_

#include <cstdarg>
#include <string>
#include <string_view>
#include <vector>

namespace smptree {

/// printf-style formatting into a std::string.
std::string StringPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

/// Splits `s` on `delim`; keeps empty fields.
std::vector<std::string> SplitString(std::string_view s, char delim);

/// Trims ASCII whitespace from both ends.
std::string_view TrimWhitespace(std::string_view s);

/// Parses a double from the whitespace-trimmed `s`. Accepts exactly the
/// tokens strtod consumes whole without a range error (glibc reports one
/// for subnormal results too). Tokens std::from_chars cannot decide (a
/// leading '+', hex, inf/nan, zero, subnormal or out of range) are handed to
/// strtod as a copy.
bool ParseDouble(std::string_view s, double* out);

/// Parses a signed base-10 64-bit integer from the whitespace-trimmed `s`,
/// with strtoll's grammar; returns false on any trailing garbage or overflow.
bool ParseInt64(std::string_view s, int64_t* out);

/// Parses an unsigned base-10 64-bit integer with strtoull's grammar, minus
/// a leading '-'; returns false on sign, garbage or overflow.
bool ParseUint64(std::string_view s, uint64_t* out);

/// Joins items with `sep`.
std::string JoinStrings(const std::vector<std::string>& items,
                        std::string_view sep);

/// Human-readable byte count ("1.5 MB").
std::string HumanBytes(uint64_t bytes);

}  // namespace smptree

#endif  // SMPTREE_UTIL_STRING_UTIL_H_
