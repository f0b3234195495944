#include "stream/hoeffding_builder.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "binned/quantizer.h"
#include "data/sampling.h"
#include "data/synthetic.h"
#include "stream/stream_source.h"

namespace smptree {
namespace {

SyntheticConfig Config(int function, int64_t tuples, uint64_t seed) {
  SyntheticConfig cfg;
  cfg.function = function;
  cfg.num_attrs = 9;
  cfg.num_tuples = tuples;
  cfg.seed = seed;
  return cfg;
}

/// Streams `tuples` generator tuples through a fresh builder and returns it.
void StreamInto(HoeffdingTreeBuilder* builder, int function, int64_t tuples,
                uint64_t seed) {
  SyntheticStreamSource source(Config(function, tuples, seed));
  StreamBatch batch;
  while (true) {
    auto n = source.NextBatch(512, &batch);
    ASSERT_TRUE(n.ok()) << n.status().ToString();
    if (*n == 0) break;
    ASSERT_TRUE(builder->Ingest(batch).ok());
  }
}

double HeldOutAccuracy(const DecisionTree& tree, int function) {
  auto test = GenerateSynthetic(Config(function, 5000, 9999));
  EXPECT_TRUE(test.ok());
  int64_t hits = 0;
  for (int64_t t = 0; t < test->num_tuples(); ++t) {
    if (tree.Classify(*test, t) == test->label(t)) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(test->num_tuples());
}

TEST(HoeffdingBuilderTest, InitValidatesOptions) {
  const Schema schema = SyntheticSchema(9);
  HoeffdingOptions bad;
  bad.delta = 0.0;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.delta = 1.5;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.tau = -0.1;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.grace_period = 0;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.max_bins = 1;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad.max_bins = 257;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());
  bad = HoeffdingOptions();
  bad.reservoir_size = bad.max_bins - 1;
  EXPECT_FALSE(HoeffdingTreeBuilder(schema, bad).Init().ok());

  HoeffdingTreeBuilder ok(schema, HoeffdingOptions());
  EXPECT_TRUE(ok.Init().ok());
  // Ingest before Init is an error.
  HoeffdingTreeBuilder early(schema, HoeffdingOptions());
  StreamBatch batch;
  EXPECT_FALSE(early.Ingest(batch).ok());
}

/// Cut for cut equality of two quantizers.
void ExpectSameCuts(const Quantizer& got, const Quantizer& want) {
  ASSERT_EQ(got.num_attrs(), want.num_attrs());
  EXPECT_EQ(got.total_bins(), want.total_bins());
  for (int a = 0; a < want.num_attrs(); ++a) {
    ASSERT_EQ(got.num_bins(a), want.num_bins(a)) << "attr " << a;
    EXPECT_EQ(got.offset(a), want.offset(a)) << "attr " << a;
    ASSERT_EQ(got.num_cuts(a), want.num_cuts(a)) << "attr " << a;
    for (int i = 0; i < want.num_cuts(a); ++i) {
      EXPECT_EQ(got.cut(a, i), want.cut(a, i)) << "attr " << a << " cut " << i;
    }
  }
}

TEST(HoeffdingBuilderTest, CutsAreTheBatchQuantizersOverTheWarmup) {
  HoeffdingOptions options;
  options.warmup_tuples = 1500;  // within reservoir_size: no sampling
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, /*function=*/7, /*tuples=*/4000, /*seed=*/42);
  ASSERT_TRUE(builder.Stats().frozen);

  // The stream source replays GenerateSynthetic tuple for tuple.
  auto warmup = GenerateSynthetic(Config(7, options.warmup_tuples, 42));
  ASSERT_TRUE(warmup.ok());
  Quantizer batch;
  ASSERT_TRUE(batch.Build(*warmup, options.max_bins).ok());
  ExpectSameCuts(builder.quantizer(), batch);
}

TEST(HoeffdingBuilderTest, SampledCutsAreDeterministicPerSeed) {
  HoeffdingOptions options;
  options.max_bins = 32;
  options.reservoir_size = 300;
  options.warmup_tuples = 3000;  // cuts come from a 300-tuple sample
  const auto frozen_builder = [&](uint64_t seed) {
    options.seed = seed;
    auto builder =
        std::make_unique<HoeffdingTreeBuilder>(SyntheticSchema(9), options);
    EXPECT_TRUE(builder->Init().ok());
    StreamInto(builder.get(), /*function=*/5, /*tuples=*/3500, /*seed=*/8);
    EXPECT_TRUE(builder->Stats().frozen);
    return builder;
  };
  const auto a = frozen_builder(5);
  const auto b = frozen_builder(5);
  const auto c = frozen_builder(6);
  ExpectSameCuts(a->quantizer(), b->quantizer());

  // The sample is the seeded shuffle's prefix of the warmup tuples.
  auto warmup = GenerateSynthetic(Config(5, options.warmup_tuples, 8));
  ASSERT_TRUE(warmup.ok());
  auto shuffled = ShuffleDataset(*warmup, 5);
  ASSERT_TRUE(shuffled.ok());
  Quantizer sampled;
  ASSERT_TRUE(sampled
                  .Build(TakePrefix(*shuffled, options.reservoir_size),
                         options.max_bins)
                  .ok());
  ExpectSameCuts(a->quantizer(), sampled);

  bool seed_matters = false;
  const Quantizer& q = a->quantizer();
  for (int attr = 0; attr < q.num_attrs(); ++attr) {
    if (q.categorical(attr)) continue;
    EXPECT_LE(q.num_bins(attr), options.max_bins);
    EXPECT_LE(c->quantizer().num_bins(attr), options.max_bins);
    if (q.num_cuts(attr) != c->quantizer().num_cuts(attr)) {
      seed_matters = true;
      continue;
    }
    for (int i = 0; i < q.num_cuts(attr); ++i) {
      if (q.cut(attr, i) != c->quantizer().cut(attr, i)) seed_matters = true;
    }
  }
  EXPECT_TRUE(seed_matters);
}

TEST(HoeffdingBuilderTest, InitRejectsCategoricalOverTheBinBudget) {
  // SyntheticSchema's "car" has 20 values; 16 bins cannot hold them. With
  // the default warmup, Init runs long before the cuts would be built.
  HoeffdingOptions options;
  options.max_bins = 16;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  const Status status = builder.Init();
  EXPECT_TRUE(status.IsNotSupported()) << status.ToString();
  EXPECT_NE(status.ToString().find("'car' has cardinality 20 > max_bins 16"),
            std::string::npos)
      << status.ToString();
  EXPECT_EQ(builder.Stats().tuples, 0);

  options.max_bins = 20;
  EXPECT_TRUE(HoeffdingTreeBuilder(SyntheticSchema(9), options).Init().ok());
}

TEST(HoeffdingBuilderTest, SplitsOnSeparableStreamAndValidates) {
  HoeffdingOptions options;
  options.warmup_tuples = 1000;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, /*function=*/1, /*tuples=*/40000, /*seed=*/42);
  ASSERT_TRUE(builder.Finish().ok());

  const StreamStats stats = builder.Stats();
  EXPECT_EQ(stats.tuples, 40000);
  EXPECT_GT(stats.splits, 0);
  EXPECT_GT(stats.nodes, 1);
  EXPECT_TRUE(stats.frozen);
  EXPECT_EQ(stats.nodes, builder.tree().num_nodes());
  ASSERT_TRUE(builder.tree().Validate().ok())
      << builder.tree().Validate().ToString();
  EXPECT_GT(HeldOutAccuracy(builder.tree(), 1), 0.95);
}

TEST(HoeffdingBuilderTest, EveryMidStreamSnapshotPassesValidate) {
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.grace_period = 100;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());

  SyntheticStreamSource source(Config(2, 20000, 7));
  StreamBatch batch;
  int64_t routed = 0;
  while (true) {
    auto n = source.NextBatch(777, &batch);
    ASSERT_TRUE(n.ok());
    if (*n == 0) break;
    ASSERT_TRUE(builder.Ingest(batch).ok());
    routed += *n;
    // The serving invariant must hold at every batch boundary, including
    // inside warmup and right after splits.
    auto snapshot = builder.Snapshot();
    ASSERT_TRUE(snapshot.ok()) << snapshot.status().ToString();
    ASSERT_TRUE(snapshot->Validate().ok())
        << "after " << routed << " tuples: "
        << snapshot->Validate().ToString();
    // Snapshot and live tree agree on classifications.
    TupleValues probe = batch.tuples.back();
    EXPECT_EQ(snapshot->Classify(probe), builder.tree().Classify(probe));
  }
}

TEST(HoeffdingBuilderTest, FinishInsideWarmupStillBuildsATree) {
  HoeffdingOptions options;
  options.warmup_tuples = 100000;  // never reached
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 5000, 11);
  EXPECT_FALSE(builder.Stats().frozen);
  ASSERT_TRUE(builder.Finish().ok());

  const StreamStats stats = builder.Stats();
  EXPECT_TRUE(stats.frozen);
  EXPECT_EQ(stats.tuples, 5000);
  // The replayed warmup buffer fully lands in the root's counts.
  int64_t root_total = 0;
  const TreeNode& root = builder.tree().node(builder.tree().root());
  for (int64_t c : root.class_counts) root_total += c;
  EXPECT_EQ(root_total, 5000);
  ASSERT_TRUE(builder.tree().Validate().ok());
}

TEST(HoeffdingBuilderTest, MemoryBudgetDeactivatesLowPromiseLeaves) {
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.grace_period = 50;
  options.delta = 1e-3;  // split eagerly to grow many leaves
  // Room for only a handful of active leaf histograms.
  options.memory_budget_bytes = 4096;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 6, 60000, 5);
  ASSERT_TRUE(builder.Finish().ok());

  const StreamStats stats = builder.Stats();
  EXPECT_GT(stats.deactivated_leaves, 0);
  EXPECT_GE(stats.active_leaves, 1);
  EXPECT_LE(stats.histogram_bytes,
            options.memory_budget_bytes +
                static_cast<uint64_t>(builder.quantizer().total_bins()) *
                    2 * 8);  // at most one leaf over before enforcement
  // Deactivated leaves still route and count, so the tree stays exact.
  ASSERT_TRUE(builder.tree().Validate().ok());
}

TEST(HoeffdingBuilderTest, PublishHookFiresOnPeriodAndFinish) {
  int64_t publishes = 0;
  int64_t last_tuples = 0;
  HoeffdingOptions options;
  options.warmup_tuples = 200;
  options.snapshot_every = 1000;
  options.publish = [&](DecisionTree&& snapshot, int64_t tuples) {
    ++publishes;
    last_tuples = tuples;
    EXPECT_TRUE(snapshot.Validate().ok());
    return Status::OK();
  };
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 5500, 3);
  // Period boundaries at 1000..5000, plus the final publish from Finish.
  EXPECT_EQ(publishes, 5);
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_EQ(publishes, 6);
  EXPECT_EQ(last_tuples, 5500);
  EXPECT_EQ(builder.Stats().snapshots, 6);
}

TEST(HoeffdingBuilderTest, PublishFailureAbortsTheStream) {
  HoeffdingOptions options;
  options.warmup_tuples = 100;
  options.snapshot_every = 500;
  options.publish = [](DecisionTree&&, int64_t) {
    return Status::Internal("sink down");
  };
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());

  SyntheticStreamSource source(Config(1, 2000, 3));
  StreamBatch batch;
  ASSERT_TRUE(source.NextBatch(2000, &batch).ok());
  EXPECT_FALSE(builder.Ingest(batch).ok());
}

TEST(HoeffdingBuilderTest, StatsJsonCarriesEveryCounter) {
  HoeffdingOptions options;
  options.warmup_tuples = 100;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 3000, 1);
  const std::string json = builder.StatsJson();
  for (const char* key :
       {"\"tuples\": 3000", "\"splits\":", "\"active_leaves\":",
        "\"deactivated_leaves\":", "\"snapshots\":", "\"nodes\":",
        "\"sketch_bytes\":", "\"histogram_bytes\":", "\"frozen\": true"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " in " << json;
  }
}

TEST(HoeffdingBuilderTest, EntropyCriterionAlsoLearns) {
  HoeffdingOptions options;
  options.warmup_tuples = 500;
  options.gini.criterion = SplitCriterion::kEntropy;
  HoeffdingTreeBuilder builder(SyntheticSchema(9), options);
  ASSERT_TRUE(builder.Init().ok());
  StreamInto(&builder, 1, 30000, 42);
  ASSERT_TRUE(builder.Finish().ok());
  EXPECT_GT(builder.Stats().splits, 0);
  EXPECT_GT(HeldOutAccuracy(builder.tree(), 1), 0.9);
}

}  // namespace
}  // namespace smptree
