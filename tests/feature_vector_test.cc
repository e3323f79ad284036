#include "features/feature_vector.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

namespace vr {
namespace {

TEST(FeatureVectorTest, ToStringFromStringRoundTrip) {
  FeatureVector fv("glcm", {1.5, -2.25, 0.0, 6.821227228133351});
  Result<FeatureVector> back = FeatureVector::FromString(fv.ToString());
  ASSERT_TRUE(back.ok()) << back.status();
  EXPECT_EQ(*back, fv);
}

TEST(FeatureVectorTest, StringFormatMatchesPaperStyle) {
  FeatureVector fv("gabor", {1.0, 2.0});
  EXPECT_EQ(fv.ToString(), "gabor 2 1 2");
}

TEST(FeatureVectorTest, FromStringRejectsBadCounts) {
  for (const char* text : {"glcm 3 1 2", "glcm 1 1 2", "glcm", "", "glcm -1",
                           "glcm 2 abc"}) {  // the count is checked first
    EXPECT_TRUE(FeatureVector::FromString(text).status().IsCorruption())
        << text;
  }
  for (const char* text : {"glcm x 1", "glcm 1 abc"}) {
    EXPECT_TRUE(FeatureVector::FromString(text).status().IsInvalidArgument())
        << text;
  }
}

TEST(FeatureVectorTest, LegacySpellingsReadBackTheSameBits) {
  // Stores written before FormatDouble emitted the shortest to_chars form
  // hold "%.Ng" spellings; they must parse to the values the current
  // spelling writes.
  const FeatureVector current(
      "glcm", {100.0, 1.2345678901234568e+17, -0.0, 2.274446602930954e-4});
  Result<FeatureVector> legacy = FeatureVector::FromString(
      "glcm 4 1e+02 1.2345678901234568e+17 -0 2.274446602930954e-4");
  Result<FeatureVector> fresh = FeatureVector::FromString(current.ToString());
  ASSERT_TRUE(legacy.ok()) << legacy.status();
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  ASSERT_EQ(legacy->size(), current.size());
  ASSERT_EQ(fresh->size(), current.size());
  for (size_t i = 0; i < current.size(); ++i) {
    EXPECT_EQ(std::bit_cast<uint64_t>((*legacy)[i]),
              std::bit_cast<uint64_t>(current[i]))
        << i;
    EXPECT_EQ(std::bit_cast<uint64_t>((*fresh)[i]),
              std::bit_cast<uint64_t>(current[i]))
        << i;
  }
  EXPECT_EQ(current.ToString(),
            "glcm 4 100 123456789012345680 -0 0.0002274446602930954");
}

TEST(FeatureVectorTest, EmptyVectorRoundTrips) {
  FeatureVector fv("acc", {});
  Result<FeatureVector> back = FeatureVector::FromString(fv.ToString());
  ASSERT_TRUE(back.ok());
  EXPECT_TRUE(back->empty());
  EXPECT_EQ(back->type(), "acc");
}

TEST(FeatureVectorTest, SumNormAndNormalize) {
  FeatureVector fv("histogram", {1.0, 3.0});
  EXPECT_DOUBLE_EQ(fv.Sum(), 4.0);
  EXPECT_DOUBLE_EQ(fv.Norm(), std::sqrt(10.0));
  fv.NormalizeL1();
  EXPECT_DOUBLE_EQ(fv.Sum(), 1.0);
  EXPECT_DOUBLE_EQ(fv[0], 0.25);
}

TEST(FeatureVectorTest, NormalizeL1NoopOnZeroSum) {
  FeatureVector fv("x", {0.0, 0.0});
  fv.NormalizeL1();
  EXPECT_DOUBLE_EQ(fv[0], 0.0);
}

TEST(FeatureKindTest, NamesRoundTrip) {
  for (int i = 0; i < kNumFeatureKinds; ++i) {
    const FeatureKind kind = static_cast<FeatureKind>(i);
    Result<FeatureKind> back = FeatureKindFromName(FeatureKindName(kind));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, kind);
  }
  EXPECT_FALSE(FeatureKindFromName("nonsense").ok());
}

class IdentityExtractor : public FeatureExtractor {
 public:
  FeatureKind kind() const override { return FeatureKind::kColorHistogram; }
  Result<FeatureVector> Extract(const Image&) const override {
    return FeatureVector("id", {});
  }
};

TEST(FeatureExtractorTest, DefaultDistanceIsL2) {
  IdentityExtractor e;
  FeatureVector a("x", {0.0, 3.0});
  FeatureVector b("x", {4.0, 0.0});
  EXPECT_DOUBLE_EQ(e.Distance(a, b), 5.0);
  EXPECT_DOUBLE_EQ(e.Distance(a, a), 0.0);
}

TEST(FeatureExtractorTest, DefaultDistanceHandlesLengthMismatch) {
  IdentityExtractor e;
  FeatureVector a("x", {1.0});
  FeatureVector b("x", {1.0, 2.0});
  EXPECT_DOUBLE_EQ(e.Distance(a, b), 2.0);
  EXPECT_DOUBLE_EQ(e.Distance(b, a), 2.0);
}

}  // namespace
}  // namespace vr
