// Parity of the block-parallel CSV loader with the original istream parser
// (tests/csv_oracle.h): on generated inputs spanning several blocks, and on
// seeded mutations of them, both must give the same verdict, the same error
// message and byte-identical Datasets.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "csv_oracle.h"
#include "data/csv.h"
#include "data/synthetic.h"
#include "util/random.h"
#include "util/string_util.h"

namespace smptree {
namespace {

// The synthetic schema, with value names on every other categorical
// attribute so that both names and codes are read.
Schema NamedSchema() {
  const Schema base = SyntheticSchema(12);
  Schema s;
  for (int a = 0; a < base.num_attrs(); ++a) {
    const AttrInfo& info = base.attr(a);
    if (!info.is_categorical()) {
      s.AddContinuous(info.name);
      continue;
    }
    std::vector<std::string> names;
    if (a % 2 == 1) {
      for (int v = 0; v < info.cardinality; ++v) {
        names.push_back(StringPrintf("%s_%d", info.name.c_str(), v));
      }
    }
    s.AddCategorical(info.name, info.cardinality, names);
  }
  s.SetClassNames(base.class_names());
  return s;
}

// F1-F10 tuples written with the variations the grammar allows: CRLF and
// LF endings, blank and whitespace-only lines, padded fields, '?' values,
// categorical names or codes, class names or codes. About 4 blocks.
std::string VariedCsv(const Schema& schema, Random* rng) {
  std::string text;
  for (int a = 0; a < schema.num_attrs(); ++a) {
    text += schema.attr(a).name + ",";
  }
  text += "class\r\n";
  const auto pad = [&] { return rng->Uniform(20) == 0 ? " \t" : ""; };
  for (int f = 1; f <= NumSyntheticFunctions(); ++f) {
    SyntheticConfig config;
    config.function = f;
    config.num_attrs = schema.num_attrs();
    config.num_tuples = 2000;
    config.seed = 100 + f;
    const Result<Dataset> data = GenerateSynthetic(config);
    EXPECT_TRUE(data.ok());
    for (int64_t t = 0; t < data->num_tuples(); ++t) {
      if (rng->Uniform(50) == 0) text += rng->Uniform(2) ? "\n" : "  \r\n";
      for (int a = 0; a < schema.num_attrs(); ++a) {
        const AttrInfo& info = schema.attr(a);
        const AttrValue v = data->value(t, a);
        text += pad();
        if (!info.is_categorical()) {
          text += rng->Uniform(50) == 0
                      ? std::string("?")
                      : StringPrintf("%.9g", static_cast<double>(v.f));
        } else if (!info.value_names.empty() && rng->Uniform(4) != 0) {
          text += info.value_names[v.cat];
        } else {
          text += StringPrintf("%d", v.cat);
        }
        text += pad();
        text += ',';
      }
      const ClassLabel label = data->label(t);
      text += rng->Uniform(5) == 0 ? StringPrintf("%d", label)
                                   : schema.class_name(label);
      text += rng->Uniform(3) == 0 ? "\r\n" : "\n";
    }
  }
  return text;
}

void ExpectSameDataset(const Dataset& got, const Dataset& want) {
  ASSERT_EQ(got.num_tuples(), want.num_tuples());
  ASSERT_EQ(got.num_attrs(), want.num_attrs());
  for (int a = 0; a < want.num_attrs(); ++a) {
    ASSERT_EQ(std::memcmp(got.column(a).data(), want.column(a).data(),
                          want.column(a).size_bytes()),
              0)
        << "column " << a;
  }
  ASSERT_EQ(std::memcmp(got.labels().data(), want.labels().data(),
                        want.labels().size_bytes()),
            0);
}

// Both parsers on `text`: same status (code and message) and, when OK, the
// same Dataset bytes.
void ExpectParity(const Schema& schema, const std::string& text) {
  std::istringstream in(text);
  const Result<Dataset> want = oracle::ParseCsv(schema, in);
  const Result<Dataset> got = FromCsvString(schema, text);
  ASSERT_EQ(got.status().ToString(), want.status().ToString());
  if (want.ok()) ExpectSameDataset(*got, *want);
}

class CsvParityTest : public testing::Test {
 protected:
  CsvParityTest() : schema_(NamedSchema()), rng_(20260419) {
    text_ = VariedCsv(schema_, &rng_);
  }

  Schema schema_;
  Random rng_;
  std::string text_;
};

TEST_F(CsvParityTest, GeneratedInputSpansSeveralBlocks) {
  ASSERT_GT(text_.size(), 3 * kCsvBlockBytes);
  std::istringstream in(text_);
  const Result<Dataset> want = oracle::ParseCsv(schema_, in);
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_EQ(want->num_tuples(), 2000 * NumSyntheticFunctions());
  ExpectParity(schema_, text_);
}

TEST_F(CsvParityTest, FileMatchesString) {
  const std::string path =
      testing::TempDir() + "/csv_parity_" + std::to_string(::getpid()) + ".csv";
  {
    std::ofstream out(path, std::ios::binary);
    out << text_;
  }
  const Result<Dataset> from_file = ReadCsv(schema_, path);
  const Result<Dataset> from_string = FromCsvString(schema_, text_);
  ::unlink(path.c_str());
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  ASSERT_TRUE(from_string.ok());
  ExpectSameDataset(*from_file, *from_string);
}

TEST_F(CsvParityTest, NoTrailingNewline) {
  while (text_.back() == '\n' || text_.back() == '\r') text_.pop_back();
  ExpectParity(schema_, text_);
}

TEST_F(CsvParityTest, LineLongerThanABlock) {
  const std::string padding(kCsvBlockBytes + kCsvBlockBytes / 3, ' ');
  // A valid row whose first field is padded past a whole block, placed so
  // that it also straddles a block edge.
  const size_t at = text_.find('\n', kCsvBlockBytes - 1000) + 1;
  const std::string row = text_.substr(at, text_.find('\n', at) + 1 - at);
  text_.insert(at, padding + row);
  ExpectParity(schema_, text_);
  // The same long line, but bad: its error names the right line.
  text_.insert(at, padding + "x" + row);
  ExpectParity(schema_, text_);
}

TEST_F(CsvParityTest, SeededMutations) {
  const std::string base = text_;
  // Offsets at and next to the edges of the loader's reads.
  std::vector<size_t> edges;
  for (size_t k = 1; k * kCsvBlockBytes < base.size(); ++k) {
    edges.push_back(k * kCsvBlockBytes);
  }
  const auto near_edge = [&] {
    const size_t edge = edges[rng_.Uniform(edges.size())];
    return std::min(base.size(),
                    edge + static_cast<size_t>(rng_.UniformRange(-3, 3)));
  };
  for (int round = 0; round < 36; ++round) {
    std::string text = base;
    std::string what;
    switch (round % 4) {
      case 0: {  // one bit flip, anywhere or just before a block edge
        const size_t pos = round % 8 == 0 ? rng_.Uniform(text.size())
                                          : near_edge() - 1 - rng_.Uniform(32);
        const int bit = static_cast<int>(rng_.Uniform(8));
        text[pos] = static_cast<char>(text[pos] ^ (1 << bit));
        what = StringPrintf("flip bit %d at %zu", bit, pos);
        break;
      }
      case 1: {  // truncation at or near a block edge, or at a line end
        size_t cut = near_edge();
        if (round % 8 == 5) cut = text.rfind('\n', cut) + rng_.Uniform(2);
        text.resize(cut);
        what = StringPrintf("truncate at %zu", cut);
        break;
      }
      case 2: {  // splice a run of bytes from elsewhere in at a block edge
        const size_t from = rng_.Uniform(text.size() - 300);
        const size_t len = 1 + rng_.Uniform(300);
        const size_t to = near_edge();
        text.insert(to, base.substr(from, len));
        what = StringPrintf("splice [%zu,+%zu) at %zu", from, len, to);
        break;
      }
      case 3: {  // join the lines on either side of the last '\n' before an
                 // edge, or of a random '\n'
        const size_t probe =
            round % 8 == 3 ? near_edge() : rng_.Uniform(text.size());
        const size_t nl = text.rfind('\n', probe);
        if (nl == std::string::npos) continue;
        text[nl] = rng_.Uniform(2) ? ',' : ' ';
        what = StringPrintf("join lines at %zu", nl);
        break;
      }
    }
    SCOPED_TRACE(what);
    ExpectParity(schema_, text);
    if (HasFatalFailure()) return;
  }
}

}  // namespace
}  // namespace smptree
