#include "data/csv.h"

#include <gtest/gtest.h>

#include <cfloat>
#include <iterator>
#include <limits>

#include "data/synthetic.h"
#include "util/string_util.h"

namespace smptree {
namespace {

Schema SmallSchema() {
  Schema s;
  s.AddContinuous("age");
  s.AddCategorical("car", 3, {"sedan", "sports", "truck"});
  s.SetClassNames({"yes", "no"});
  return s;
}

Dataset SmallData() {
  Dataset d(SmallSchema());
  TupleValues v(2);
  v[0].f = 23.5f;
  v[1].cat = 1;
  EXPECT_TRUE(d.Append(v, 0).ok());
  v[0].f = 68.0f;
  v[1].cat = 2;
  EXPECT_TRUE(d.Append(v, 1).ok());
  return d;
}

TEST(CsvTest, EmitsHeaderAndNames) {
  const std::string csv = ToCsvString(SmallData());
  EXPECT_NE(csv.find("age,car,class"), std::string::npos);
  EXPECT_NE(csv.find("sports"), std::string::npos);
  EXPECT_NE(csv.find("yes"), std::string::npos);
}

TEST(CsvTest, RoundTrip) {
  const Dataset original = SmallData();
  auto parsed = FromCsvString(SmallSchema(), ToCsvString(original));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_tuples(), original.num_tuples());
  for (int64_t t = 0; t < original.num_tuples(); ++t) {
    EXPECT_EQ(parsed->value(t, 0).f, original.value(t, 0).f);
    EXPECT_EQ(parsed->value(t, 1).cat, original.value(t, 1).cat);
    EXPECT_EQ(parsed->label(t), original.label(t));
  }
}

TEST(CsvTest, RoundTripSyntheticSample) {
  SyntheticConfig cfg;
  cfg.function = 3;
  cfg.num_tuples = 50;
  auto data = GenerateSynthetic(cfg);
  ASSERT_TRUE(data.ok());
  auto parsed = FromCsvString(data->schema(), ToCsvString(*data));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->num_tuples(), 50);
  for (int64_t t = 0; t < 50; ++t) {
    EXPECT_EQ(parsed->label(t), data->label(t));
  }
}

TEST(CsvTest, AcceptsNumericCodesWithoutNames) {
  Schema s;
  s.AddCategorical("c", 4);  // no value names
  s.SetClassNames({"A", "B"});
  auto parsed = FromCsvString(s, "c,class\n2,B\n0,A\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->value(0, 0).cat, 2);
  EXPECT_EQ(parsed->label(1), 0);
}

TEST(CsvTest, AcceptsNumericClassLabels) {
  auto parsed = FromCsvString(SmallSchema(), "age,car,class\n5,0,1\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->label(0), 1);
}

TEST(CsvTest, SkipsBlankLines) {
  auto parsed =
      FromCsvString(SmallSchema(), "age,car,class\n\n5,sedan,yes\n\n");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), 1);
}

TEST(CsvTest, RejectsBadHeader) {
  EXPECT_TRUE(FromCsvString(SmallSchema(), "wrong,car,class\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,class\n").status().IsCorruption());
}

TEST(CsvTest, RejectsBadValues) {
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\nxx,sedan,yes\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\n5,helicopter,yes\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\n5,sedan,maybe\n")
                  .status()
                  .IsCorruption());
  EXPECT_TRUE(FromCsvString(SmallSchema(), "age,car,class\n5,sedan\n")
                  .status()
                  .IsCorruption());
}

TEST(CsvTest, RejectsEmptyInput) {
  EXPECT_TRUE(FromCsvString(SmallSchema(), "").status().IsCorruption());
}

TEST(CsvTest, EmitsFloatCornersAsPercentNineG) {
  Schema s;
  s.AddContinuous("x");
  s.AddCategorical("c", 3);  // no value names: written as codes
  s.SetClassNames({"a", "b"});
  Dataset d(s);
  const float corners[] = {-0.0f,
                           std::numeric_limits<float>::denorm_min(),
                           FLT_MAX,
                           42.0f,
                           -7.0f,
                           1e-5f,
                           0.1f,
                           123456789.0f,
                           kMissingValue};
  TupleValues v(2);
  for (int i = 0; i < static_cast<int>(std::size(corners)); ++i) {
    v[0].f = corners[i];
    v[1].cat = i % 3;
    ASSERT_TRUE(d.Append(v, static_cast<ClassLabel>(i % 2)).ok());
  }
  EXPECT_EQ(ToCsvString(d),
            "x,c,class\n"
            "-0,0,a\n"
            "1.40129846e-45,1,b\n"
            "3.40282347e+38,2,a\n"
            "42,0,b\n"
            "-7,1,a\n"
            "9.99999975e-06,2,b\n"
            "0.100000001,0,a\n"
            "123456792,1,b\n"
            "?,2,a\n");
}

// A valid body of `rows` lines for SmallSchema, 15 bytes each, so a few
// hundred thousand rows span several loader blocks.
std::string ManyRows(int64_t rows) {
  std::string text = "age,car,class\n";
  for (int64_t r = 0; r < rows; ++r) {
    text += r % 2 ? "23.5,sedan,yes\n" : "68.25,truck,no\n";
  }
  return text;
}

// Replaces the row that holds byte `offset` (counting from the first row)
// with `bad`; returns its line number in the file (the header is line 1).
int64_t PlantBadRow(std::string* text, size_t offset, const std::string& bad) {
  const size_t body = text->find('\n') + 1;
  const size_t row = (offset / 15) * 15;
  text->replace(body + row, 15, bad + "\n");
  return static_cast<int64_t>(row / 15) + 2;
}

TEST(CsvTest, LateBlockErrorsCarryFileLineNumbers) {
  const int64_t rows = 4 * static_cast<int64_t>(kCsvBlockBytes) / 15;
  const size_t late = 7 * kCsvBlockBytes / 2;
  struct Case {
    std::string bad;
    std::string message;  // "%lld" stands for the planted line's number
  };
  const Case cases[] = {
      {"zz,sedan,yes", "Corruption: line %lld: bad continuous value 'zz' for "
                       "attribute 'age'"},
      {"5,sedan,maybe", "Corruption: line %lld: unknown class 'maybe'"},
      {"5,sedan", "Corruption: line %lld: 2 fields, expected 3"},
  };
  for (const Case& c : cases) {
    std::string text = ManyRows(rows);
    const int64_t line = PlantBadRow(&text, late, c.bad);
    const auto parsed = FromCsvString(SmallSchema(), text);
    ASSERT_FALSE(parsed.ok()) << c.bad;
    EXPECT_EQ(parsed.status().ToString(),
              StringPrintf(c.message.c_str(), static_cast<long long>(line)));
  }
}

TEST(CsvTest, EarliestBadLineWinsAcrossBlocks) {
  std::string text = ManyRows(4 * static_cast<int64_t>(kCsvBlockBytes) / 15);
  // The later error sits in a block that may finish parsing first.
  PlantBadRow(&text, 3 * kCsvBlockBytes + kCsvBlockBytes / 2, "1,2");
  const int64_t first = PlantBadRow(&text, kCsvBlockBytes + 100, "1,sedan,?");
  const auto parsed = FromCsvString(SmallSchema(), text);
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().ToString(),
            StringPrintf("Corruption: line %lld: unknown class '?'",
                         static_cast<long long>(first)));
}

TEST(CsvTest, BlankAndCrlfLinesCountInLineNumbers) {
  auto parsed = FromCsvString(
      SmallSchema(), "age,car,class\r\n\r\n5,sedan,yes\r\n  \n6,car,no\n");
  ASSERT_FALSE(parsed.ok());
  EXPECT_EQ(parsed.status().ToString(),
            "Corruption: line 5: bad categorical value 'car' for attribute "
            "'car'");
  parsed = FromCsvString(SmallSchema(),
                         "age,car,class\r\n\r\n5,sedan,yes\r\n  \n6,sedan\n");
  EXPECT_EQ(parsed.status().ToString(),
            "Corruption: line 5: 2 fields, expected 3");
}

TEST(CsvTest, ReadingADirectoryIsAnIOError) {
  const auto parsed = ReadCsv(SmallSchema(), "/tmp");
  EXPECT_TRUE(parsed.status().IsIOError()) << parsed.status().ToString();
}

TEST(CsvTest, FileRoundTrip) {
  const std::string path =
      "/tmp/smptree_csv_test_" + std::to_string(::getpid()) + ".csv";
  const Dataset original = SmallData();
  ASSERT_TRUE(WriteCsv(original, path).ok());
  auto parsed = ReadCsv(SmallSchema(), path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_tuples(), original.num_tuples());
  ::unlink(path.c_str());
}

}  // namespace
}  // namespace smptree
