// The stream engine's cut-point sketch: the Quantizer a HoeffdingTreeBuilder
// freezes over its warmup tuples (or a seeded reservoir_size sample of them)
// and exposes as quantizer(). These cases drive it through the builder's
// public Init/IngestOne/Finish surface.

#include <gtest/gtest.h>

#include <cmath>

#include "binned/quantizer.h"
#include "data/schema.h"
#include "stream/hoeffding_builder.h"

namespace smptree {
namespace {

Schema MixedSchema() {
  Schema s;
  s.AddContinuous("x");
  s.AddCategorical("color", 3, {"red", "green", "blue"});
  s.AddContinuous("y");
  s.SetClassNames({"a", "b"});
  return s;
}

TupleValues Tuple(float x, int32_t color, float y) {
  TupleValues v(3);
  v[0].f = x;
  v[1].cat = color;
  v[2].f = y;
  return v;
}

TEST(SketchQuantizerTest, InitValidatesOptions) {
  HoeffdingOptions bad;
  bad.max_bins = 1;
  EXPECT_FALSE(HoeffdingTreeBuilder(MixedSchema(), bad).Init().ok());
  bad.max_bins = 257;
  EXPECT_FALSE(HoeffdingTreeBuilder(MixedSchema(), bad).Init().ok());
  bad.max_bins = 64;
  bad.reservoir_size = 8;  // smaller than max_bins
  EXPECT_FALSE(HoeffdingTreeBuilder(MixedSchema(), bad).Init().ok());

  Schema wide;
  wide.AddCategorical("huge", 300, {});
  wide.SetClassNames({"a", "b"});
  EXPECT_FALSE(HoeffdingTreeBuilder(wide, HoeffdingOptions()).Init().ok());

  HoeffdingTreeBuilder ok(MixedSchema(), HoeffdingOptions());
  ASSERT_TRUE(ok.Init().ok());
  EXPECT_FALSE(ok.Stats().frozen);
}

TEST(SketchQuantizerTest, BinInvariantHoldsOnEveryCut) {
  HoeffdingOptions opts;
  opts.max_bins = 8;
  opts.reservoir_size = 64;  // the 1000-tuple warmup is sampled down
  opts.warmup_tuples = 1000;
  HoeffdingTreeBuilder builder(MixedSchema(), opts);
  ASSERT_TRUE(builder.Init().ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(builder
                    .IngestOne(Tuple(static_cast<float>(i % 97), i % 3,
                                     static_cast<float>((i * 7) % 31)),
                               static_cast<ClassLabel>(i % 2))
                    .ok());
  }
  ASSERT_TRUE(builder.Stats().frozen);
  const Quantizer& q = builder.quantizer();

  for (int attr : {0, 2}) {
    ASSERT_GE(q.num_cuts(attr), 1);
    EXPECT_LE(q.num_bins(attr), opts.max_bins);
    EXPECT_EQ(q.num_bins(attr), q.num_cuts(attr) + 1);
    for (int i = 0; i < q.num_cuts(attr); ++i) {
      if (i > 0) {
        EXPECT_LT(q.cut(attr, i - 1), q.cut(attr, i));
      }
      // bin(v) = #{cuts <= v}: a cut value itself lands in the bin above it.
      AttrValue at_cut, below;
      at_cut.f = q.cut(attr, i);
      below.f = std::nextafter(q.cut(attr, i), -1e30f);
      EXPECT_EQ(q.BinOf(attr, at_cut), i + 1);
      EXPECT_EQ(q.BinOf(attr, below), i);
    }
  }
}

TEST(SketchQuantizerTest, CategoricalBinsAreCodes) {
  HoeffdingTreeBuilder builder(MixedSchema(), HoeffdingOptions());
  ASSERT_TRUE(builder.Init().ok());
  ASSERT_TRUE(builder.IngestOne(Tuple(0.0f, 2, 0.0f), 0).ok());
  ASSERT_TRUE(builder.Finish().ok());  // freezes inside warmup
  ASSERT_TRUE(builder.Stats().frozen);
  const Quantizer& q = builder.quantizer();
  EXPECT_TRUE(q.categorical(1));
  EXPECT_EQ(q.num_bins(1), 3);
  for (int32_t code = 0; code < 3; ++code) {
    AttrValue v;
    v.cat = code;
    EXPECT_EQ(q.BinOf(1, v), code);
  }
}

TEST(SketchQuantizerTest, OffsetsTileTheFlatBinSpace) {
  HoeffdingTreeBuilder builder(MixedSchema(), HoeffdingOptions());
  ASSERT_TRUE(builder.Init().ok());
  for (int i = 0; i < 500; ++i) {
    ASSERT_TRUE(builder
                    .IngestOne(Tuple(static_cast<float>(i), i % 3,
                                     static_cast<float>(-i)),
                               static_cast<ClassLabel>(i % 2))
                    .ok());
  }
  ASSERT_TRUE(builder.Finish().ok());
  const Quantizer& q = builder.quantizer();
  ASSERT_EQ(q.num_attrs(), 3);
  int expect_offset = 0;
  for (int a = 0; a < q.num_attrs(); ++a) {
    EXPECT_EQ(q.offset(a), expect_offset);
    expect_offset += q.num_bins(a);
  }
  EXPECT_EQ(q.total_bins(), expect_offset);
}

TEST(SketchQuantizerTest, QuantileCutsTrackTheDistribution) {
  Schema s;
  s.AddContinuous("u");
  s.SetClassNames({"a", "b"});
  HoeffdingOptions opts;
  opts.max_bins = 4;
  opts.reservoir_size = 4096;
  opts.warmup_tuples = 4096;
  HoeffdingTreeBuilder builder(s, opts);
  ASSERT_TRUE(builder.Init().ok());
  // Feed 0..4095 in order; the warmup fits the reservoir, so the cuts are
  // the exact quartiles of the input.
  for (int i = 0; i < 4096; ++i) {
    TupleValues v(1);
    v[0].f = static_cast<float>(i);
    ASSERT_TRUE(builder.IngestOne(v, static_cast<ClassLabel>(i % 2)).ok());
  }
  ASSERT_TRUE(builder.Stats().frozen);
  const Quantizer& q = builder.quantizer();
  ASSERT_EQ(q.num_cuts(0), 3);
  EXPECT_NEAR(q.cut(0, 0), 1024.0f, 1.0f);
  EXPECT_NEAR(q.cut(0, 1), 2048.0f, 1.0f);
  EXPECT_NEAR(q.cut(0, 2), 3072.0f, 1.0f);
}

TEST(SketchQuantizerTest, EmptyReservoirYieldsSingleBin) {
  Schema s;
  s.AddContinuous("never");
  s.SetClassNames({"a", "b"});
  HoeffdingTreeBuilder builder(s, HoeffdingOptions());
  ASSERT_TRUE(builder.Init().ok());
  ASSERT_TRUE(builder.Finish().ok());  // stream ended before any tuple
  ASSERT_TRUE(builder.Stats().frozen);
  const Quantizer& q = builder.quantizer();
  EXPECT_EQ(q.num_cuts(0), 0);
  EXPECT_EQ(q.num_bins(0), 1);
  AttrValue v;
  v.f = 123.0f;
  EXPECT_EQ(q.BinOf(0, v), 0);
  EXPECT_EQ(builder.Stats().sketch_bytes, 0u);
}

}  // namespace
}  // namespace smptree
