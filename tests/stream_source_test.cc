#include "stream/stream_source.h"

#include <gtest/gtest.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "data/csv.h"
#include "data/synthetic.h"
#include "stream/shard_io.h"

namespace smptree {
namespace {

SyntheticConfig SmallConfig(int64_t tuples) {
  SyntheticConfig cfg;
  cfg.function = 3;
  cfg.num_attrs = 9;
  cfg.num_tuples = tuples;
  cfg.seed = 77;
  return cfg;
}

/// Drains a source into one flat (tuples, labels) pair.
void Drain(StreamSource* source, int64_t batch_size,
           std::vector<TupleValues>* tuples, std::vector<ClassLabel>* labels) {
  StreamBatch batch;
  while (true) {
    auto n = source->NextBatch(batch_size, &batch);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;
    ASSERT_EQ(*n, batch.size());
    tuples->insert(tuples->end(), batch.tuples.begin(), batch.tuples.end());
    labels->insert(labels->end(), batch.labels.begin(), batch.labels.end());
  }
}

TEST(SyntheticStreamSourceTest, MatchesGenerateSyntheticExactly) {
  const SyntheticConfig cfg = SmallConfig(500);
  auto batch_data = GenerateSynthetic(cfg);
  ASSERT_TRUE(batch_data.ok());

  SyntheticStreamSource source(cfg);
  std::vector<TupleValues> tuples;
  std::vector<ClassLabel> labels;
  Drain(&source, 64, &tuples, &labels);

  ASSERT_EQ(static_cast<int64_t>(tuples.size()), batch_data->num_tuples());
  for (int64_t t = 0; t < batch_data->num_tuples(); ++t) {
    EXPECT_EQ(labels[static_cast<size_t>(t)], batch_data->label(t));
    const TupleValues expect = batch_data->Tuple(t);
    const TupleValues& got = tuples[static_cast<size_t>(t)];
    ASSERT_EQ(got.size(), expect.size());
    for (size_t a = 0; a < expect.size(); ++a) {
      if (batch_data->schema().attr(static_cast<int>(a)).is_categorical()) {
        EXPECT_EQ(got[a].cat, expect[a].cat) << "tuple " << t << " attr " << a;
      } else {
        EXPECT_EQ(got[a].f, expect[a].f) << "tuple " << t << " attr " << a;
      }
    }
  }
}

TEST(SyntheticStreamSourceTest, HonorsLimitAcrossUnevenBatches) {
  SyntheticStreamSource source(SmallConfig(100));
  std::vector<TupleValues> tuples;
  std::vector<ClassLabel> labels;
  Drain(&source, 33, &tuples, &labels);  // 33 + 33 + 33 + 1
  EXPECT_EQ(tuples.size(), 100u);
  // Exhausted stays exhausted.
  StreamBatch batch;
  auto n = source.NextBatch(10, &batch);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 0);
}

TEST(BinaryShardTest, RoundTripsDataset) {
  auto data = GenerateSynthetic(SmallConfig(200));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/round.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());

  auto loaded = ReadBinaryShard(data->schema(), path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_tuples(), data->num_tuples());
  for (int64_t t = 0; t < data->num_tuples(); ++t) {
    EXPECT_EQ(loaded->label(t), data->label(t));
    for (int a = 0; a < data->schema().num_attrs(); ++a) {
      if (data->schema().attr(a).is_categorical()) {
        EXPECT_EQ(loaded->column(a)[t].cat, data->column(a)[t].cat);
      } else {
        EXPECT_EQ(loaded->column(a)[t].f, data->column(a)[t].f);
      }
    }
  }
}

TEST(BinaryShardTest, RejectsWrongSchemaAndMissingFile) {
  auto data = GenerateSynthetic(SmallConfig(10));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/shape.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());

  Schema other;
  other.AddContinuous("only");
  other.SetClassNames({"a", "b"});
  EXPECT_FALSE(ReadBinaryShard(other, path).ok());
  EXPECT_FALSE(
      ReadBinaryShard(data->schema(), testing::TempDir() + "/nope.shard")
          .ok());
}

/// Expects reading `path` to fail with a message that names the file.
void ExpectShardRejected(const Schema& schema, const std::string& path) {
  auto loaded = ReadBinaryShard(schema, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_NE(loaded.status().ToString().find(path), std::string::npos)
      << loaded.status().ToString();
}

TEST(BinaryShardTest, RejectsTupleCountLargerThanFile) {
  auto data = GenerateSynthetic(SmallConfig(3));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/lie.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());
  // Overwrite the header's int64 tuple count (after the 8-byte magic and
  // two int32 counts) with 2^40, far past the bytes the file holds.
  std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
  const int64_t lie = int64_t{1} << 40;
  f.seekp(16);
  f.write(reinterpret_cast<const char*>(&lie), sizeof(lie));
  f.close();
  ExpectShardRejected(data->schema(), path);
}

TEST(BinaryShardTest, RejectsCategoricalCodesOutsideCardinality) {
  auto data = GenerateSynthetic(SmallConfig(50));
  ASSERT_TRUE(data.ok());
  const Schema& schema = data->schema();
  for (const auto& [name, code] :
       std::vector<std::pair<std::string, int32_t>>{{"car", 100000},
                                                    {"zipcode", 255}}) {
    // Dataset::Append takes codes as given, so the bad code reaches disk.
    Dataset bad(schema);
    const size_t attr = static_cast<size_t>(schema.FindAttr(name));
    for (int64_t t = 0; t < data->num_tuples(); ++t) {
      TupleValues values = data->Tuple(t);
      if (t == 20) values[attr].cat = code;
      ASSERT_TRUE(bad.Append(values, data->label(t)).ok());
    }
    const std::string path = testing::TempDir() + "/bad_" + name + ".shard";
    ASSERT_TRUE(WriteBinaryShard(bad, path).ok());
    ExpectShardRejected(schema, path);
  }
}

TEST(DiskStreamSourceTest, DeliversShardsInOrderMixedFormats) {
  // Three shards -- binary, csv, binary -- must come back as one stream in
  // exactly the order given, across both formats.
  const SyntheticConfig cfg = SmallConfig(300);
  auto all = GenerateSynthetic(cfg);
  ASSERT_TRUE(all.ok());
  const Schema& schema = all->schema();

  std::vector<std::string> paths;
  for (int s = 0; s < 3; ++s) {
    Dataset part(schema);
    for (int64_t t = s * 100; t < (s + 1) * 100; ++t) {
      ASSERT_TRUE(part.Append(all->Tuple(t), all->label(t)).ok());
    }
    if (s == 1) {
      paths.push_back(testing::TempDir() + "/part1.csv");
      ASSERT_TRUE(WriteCsv(part, paths.back()).ok());
    } else {
      paths.push_back(testing::TempDir() + "/part" + std::to_string(s) +
                      ".shard");
      ASSERT_TRUE(WriteBinaryShard(part, paths.back()).ok());
    }
  }

  auto source = DiskStreamSource::Open(schema, paths);
  ASSERT_TRUE(source.ok()) << source.status().ToString();
  std::vector<TupleValues> tuples;
  std::vector<ClassLabel> labels;
  // A batch size that straddles shard boundaries exercises the refill path.
  Drain(source->get(), 70, &tuples, &labels);

  ASSERT_EQ(static_cast<int64_t>(tuples.size()), all->num_tuples());
  for (int64_t t = 0; t < all->num_tuples(); ++t) {
    EXPECT_EQ(labels[static_cast<size_t>(t)], all->label(t)) << "tuple " << t;
    for (int a = 0; a < schema.num_attrs(); ++a) {
      if (schema.attr(a).is_categorical()) {
        EXPECT_EQ(tuples[static_cast<size_t>(t)][static_cast<size_t>(a)].cat,
                  all->column(a)[t].cat);
      }
    }
  }
}

TEST(DiskStreamSourceTest, SurfacesReaderErrorOnConsumerThread) {
  auto data = GenerateSynthetic(SmallConfig(50));
  ASSERT_TRUE(data.ok());
  const std::string good = testing::TempDir() + "/good.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, good).ok());

  auto source = DiskStreamSource::Open(
      data->schema(), {good, testing::TempDir() + "/missing.shard"});
  ASSERT_TRUE(source.ok());
  StreamBatch batch;
  int64_t total = 0;
  Status error = Status::OK();
  while (true) {
    auto n = (*source)->NextBatch(32, &batch);
    if (!n.ok()) {
      error = n.status();
      break;
    }
    if (*n == 0) break;
    total += *n;
  }
  // The good shard's tuples arrive; the missing shard then fails the stream.
  EXPECT_EQ(total, 50);
  EXPECT_FALSE(error.ok());
}

TEST(DiskStreamSourceTest, OpenRejectsEmptyShardList) {
  auto data = GenerateSynthetic(SmallConfig(1));
  ASSERT_TRUE(data.ok());
  EXPECT_FALSE(DiskStreamSource::Open(data->schema(), {}).ok());
}

TEST(DiskStreamSourceTest, DestructorJoinsWithUndrainedShards) {
  // Dropping the source while the reader still has shards queued must not
  // hang or leak the thread.
  auto data = GenerateSynthetic(SmallConfig(100));
  ASSERT_TRUE(data.ok());
  const std::string path = testing::TempDir() + "/undrained.shard";
  ASSERT_TRUE(WriteBinaryShard(*data, path).ok());
  auto source =
      DiskStreamSource::Open(data->schema(), {path, path, path, path});
  ASSERT_TRUE(source.ok());
  StreamBatch batch;
  ASSERT_TRUE((*source)->NextBatch(10, &batch).ok());
  // source drops here with three shards never consumed.
}

}  // namespace
}  // namespace smptree
