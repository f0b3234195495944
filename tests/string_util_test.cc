#include "util/string_util.h"

#include <gtest/gtest.h>

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <string>

namespace smptree {
namespace {

TEST(StringPrintfTest, FormatsLikePrintf) {
  EXPECT_EQ(StringPrintf("%d-%s-%.2f", 7, "x", 1.5), "7-x-1.50");
  EXPECT_EQ(StringPrintf("empty"), "empty");
}

TEST(StringPrintfTest, LongOutput) {
  std::string long_arg(5000, 'a');
  EXPECT_EQ(StringPrintf("%s", long_arg.c_str()).size(), 5000u);
}

TEST(SplitStringTest, BasicSplit) {
  const auto parts = SplitString("a,b,c", ',');
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(SplitStringTest, KeepsEmptyFields) {
  const auto parts = SplitString(",x,,", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "");
  EXPECT_EQ(parts[1], "x");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(parts[3], "");
}

TEST(SplitStringTest, EmptyInputYieldsOneField) {
  EXPECT_EQ(SplitString("", ',').size(), 1u);
}

TEST(TrimWhitespaceTest, TrimsBothEnds) {
  EXPECT_EQ(TrimWhitespace("  a b \t\n"), "a b");
  EXPECT_EQ(TrimWhitespace("x"), "x");
  EXPECT_EQ(TrimWhitespace("   "), "");
}

TEST(ParseDoubleTest, AcceptsValid) {
  double v = 0;
  EXPECT_TRUE(ParseDouble("3.5", &v));
  EXPECT_DOUBLE_EQ(v, 3.5);
  EXPECT_TRUE(ParseDouble(" -2e3 ", &v));
  EXPECT_DOUBLE_EQ(v, -2000.0);
}

TEST(ParseDoubleTest, RejectsGarbage) {
  double v = 0;
  EXPECT_FALSE(ParseDouble("", &v));
  EXPECT_FALSE(ParseDouble("1.5x", &v));
  EXPECT_FALSE(ParseDouble("abc", &v));
}

// The C library's verdict on a whitespace-trimmed token: accepted only when
// consumed whole with no range error. ParseDouble/ParseInt64/ParseUint64
// must agree with it on every token.
template <typename T, typename Parse>
bool Reference(const char* token, Parse parse, T* out) {
  const std::string s(TrimWhitespace(token));
  if (s.empty()) return false;
  char* end = nullptr;
  errno = 0;
  *out = static_cast<T>(parse(s.c_str(), &end));
  return errno == 0 && end == s.c_str() + s.size();
}

const char* const kNumberTokens[] = {
    "+1",   " 7 ",  "1e-310", "1e400", "0x1p3", "inf", "nan",
    "-0",   ".5",   "5.",     "1e",    "",      "1,5", "-nan",
    "1e-400", "-1.5e-7", "3.40282347e+38", "0", "0.0", "00012", "-",
    "9223372036854775807", "9223372036854775808", "-9223372036854775808",
    "18446744073709551615", "18446744073709551616", "+-1", "1 2", "0x10",
    "INFINITY", "nan(7)", "2.2250738585072014e-308", "49025.6484"};

TEST(ParseDoubleTest, AgreesWithStrtod) {
  for (const char* token : kNumberTokens) {
    double want = 0.0;
    const bool want_ok = Reference(
        token, [](const char* s, char** e) { return std::strtod(s, e); },
        &want);
    double got = 0.0;
    ASSERT_EQ(ParseDouble(token, &got), want_ok) << "'" << token << "'";
    if (!want_ok) continue;
    if (std::isnan(want)) {
      EXPECT_TRUE(std::isnan(got)) << "'" << token << "'";
    } else {
      EXPECT_EQ(std::memcmp(&got, &want, sizeof(got)), 0)
          << "'" << token << "': " << got << " vs " << want;
    }
  }
}

TEST(ParseInt64Test, AgreesWithStrtoll) {
  for (const char* token : kNumberTokens) {
    int64_t want = 0;
    const bool want_ok = Reference(
        token, [](const char* s, char** e) { return std::strtoll(s, e, 10); },
        &want);
    int64_t got = 0;
    ASSERT_EQ(ParseInt64(token, &got), want_ok) << "'" << token << "'";
    if (want_ok) {
      EXPECT_EQ(got, want) << "'" << token << "'";
    }
  }
}

TEST(ParseUint64Test, AgreesWithStrtoullExceptNegatives) {
  for (const char* token : kNumberTokens) {
    uint64_t want = 0;
    const bool want_ok =
        TrimWhitespace(token).substr(0, 1) != "-" &&
        Reference(
            token,
            [](const char* s, char** e) { return std::strtoull(s, e, 10); },
            &want);
    uint64_t got = 0;
    ASSERT_EQ(ParseUint64(token, &got), want_ok) << "'" << token << "'";
    if (want_ok) {
      EXPECT_EQ(got, want) << "'" << token << "'";
    }
  }
}

TEST(ParseInt64Test, AcceptsValid) {
  int64_t v = 0;
  EXPECT_TRUE(ParseInt64("-42", &v));
  EXPECT_EQ(v, -42);
  EXPECT_TRUE(ParseInt64("9223372036854775807", &v));
  EXPECT_EQ(v, INT64_MAX);
}

TEST(ParseInt64Test, RejectsGarbage) {
  int64_t v = 0;
  EXPECT_FALSE(ParseInt64("", &v));
  EXPECT_FALSE(ParseInt64("12.5", &v));
  EXPECT_FALSE(ParseInt64("99999999999999999999999", &v));
}

TEST(ParseUint64Test, FullRangeAndSignRejection) {
  uint64_t v = 0;
  EXPECT_TRUE(ParseUint64("18446744073709551615", &v));
  EXPECT_EQ(v, UINT64_MAX);
  EXPECT_FALSE(ParseUint64("-1", &v));
}

TEST(JoinStringsTest, JoinsWithSeparator) {
  EXPECT_EQ(JoinStrings({"a", "b", "c"}, " AND "), "a AND b AND c");
  EXPECT_EQ(JoinStrings({}, ","), "");
  EXPECT_EQ(JoinStrings({"only"}, ","), "only");
}

TEST(HumanBytesTest, PicksUnits) {
  EXPECT_EQ(HumanBytes(512), "512.0 B");
  EXPECT_EQ(HumanBytes(1536), "1.5 KB");
  EXPECT_EQ(HumanBytes(3u << 20), "3.0 MB");
}

}  // namespace
}  // namespace smptree
