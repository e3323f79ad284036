/// \file feature_text_fuzz_test.cc
/// \brief Seeded mutational fuzzing of the stored feature text
/// (FeatureVector::FromString): truncations, byte flips, whitespace runs,
/// extra or missing tokens and corrupt counts must end in a faithful parse
/// or a typed error — never a crash or an allocation sized by a corrupt
/// count.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "features/feature_vector.h"
#include "util/rng.h"

namespace vr {
namespace {

/// Text a writer would produce: a type name and a few values of mixed
/// magnitudes and signs, including raw bit patterns.
std::string EncodedFeatureText(Rng* rng) {
  std::vector<double> values(rng->Next() % 12);
  for (double& v : values) {
    switch (rng->Next() % 3) {
      case 0:
        v = rng->UniformDouble(0.0, 100.0);
        break;
      case 1:
        v = -rng->UniformDouble(0.0, 1e-3);
        break;
      default:
        v = std::bit_cast<double>(rng->Next());
        break;
    }
  }
  return FeatureVector("glcm", std::move(values)).ToString();
}

/// The only acceptable outcomes: a parse whose re-encoding parses back to
/// the same type and bits, or a typed Corruption / InvalidArgument.
void ExpectParsedOrTyped(const std::string& text) {
  Result<FeatureVector> parsed = FeatureVector::FromString(text);
  if (!parsed.ok()) {
    EXPECT_TRUE(parsed.status().IsCorruption() ||
                parsed.status().IsInvalidArgument())
        << parsed.status().ToString() << " for '" << text << "'";
    return;
  }
  Result<FeatureVector> again = FeatureVector::FromString(parsed->ToString());
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->type(), parsed->type());
  ASSERT_EQ(again->size(), parsed->size());
  for (size_t i = 0; i < parsed->size(); ++i) {
    const double a = (*again)[i];
    const double b = (*parsed)[i];
    if (a != a) {
      EXPECT_TRUE(b != b);
    } else {
      EXPECT_EQ(std::bit_cast<uint64_t>(a), std::bit_cast<uint64_t>(b));
    }
  }
}

TEST(FeatureTextFuzzTest, EncodedTextParsesBackBitForBit) {
  Rng rng(0xFEA7E575);
  for (int round = 0; round < 500; ++round) {
    ExpectParsedOrTyped(EncodedFeatureText(&rng));
  }
}

TEST(FeatureTextFuzzTest, TruncationsAreTypedErrorsOrPrefixes) {
  Rng rng(0x7C0DE5);
  for (int round = 0; round < 40; ++round) {
    const std::string text = EncodedFeatureText(&rng);
    for (size_t cut = 0; cut <= text.size(); ++cut) {
      ExpectParsedOrTyped(text.substr(0, cut));
    }
  }
}

TEST(FeatureTextFuzzTest, ByteFlipsNeverCrash) {
  Rng rng(0xB17F11B5);
  for (int round = 0; round < 2000; ++round) {
    std::string text = EncodedFeatureText(&rng);
    const int flips = 1 + static_cast<int>(rng.Next() % 4);
    for (int f = 0; f < flips && !text.empty(); ++f) {
      text[rng.Next() % text.size()] ^=
          static_cast<char>(1u << (rng.Next() % 8));
    }
    ExpectParsedOrTyped(text);
  }
}

TEST(FeatureTextFuzzTest, WhitespaceRunsAndTabsParseTheSame) {
  Rng rng(0x5BACE5);
  static constexpr char kSpaces[] = {' ', '\t', '\n', '\r', '\v', '\f'};
  for (int round = 0; round < 300; ++round) {
    const std::string text = EncodedFeatureText(&rng);
    std::string spaced;
    for (char c : text) {
      if (c != ' ') {
        spaced += c;
        continue;
      }
      const size_t run = 1 + rng.Next() % 4;
      for (size_t i = 0; i < run; ++i) {
        spaced += kSpaces[rng.Next() % sizeof(kSpaces)];
      }
    }
    if (rng.Next() % 2 == 0) spaced = "\t " + spaced + " \n";
    Result<FeatureVector> plain = FeatureVector::FromString(text);
    Result<FeatureVector> mangled = FeatureVector::FromString(spaced);
    ASSERT_TRUE(plain.ok()) << plain.status().ToString();
    ASSERT_TRUE(mangled.ok()) << mangled.status().ToString();
    EXPECT_EQ(mangled->ToString(), plain->ToString());
  }
}

TEST(FeatureTextFuzzTest, ExtraOrMissingTokensAreCorruption) {
  Rng rng(0xE7A70CE5);
  for (int round = 0; round < 300; ++round) {
    const std::string text = EncodedFeatureText(&rng);
    EXPECT_TRUE(FeatureVector::FromString(text + " 1.5").status().IsCorruption())
        << text;
    const size_t last_space = text.rfind(' ');
    const size_t count_end = text.find(' ', text.find(' ') + 1);
    if (count_end == std::string::npos) continue;  // no values to drop
    EXPECT_TRUE(FeatureVector::FromString(text.substr(0, last_space))
                    .status()
                    .IsCorruption())
        << text;
  }
}

TEST(FeatureTextFuzzTest, CorruptCountsNeverDriveAllocation) {
  // A count the values do not back must be refused before anything is
  // sized from it; none of these may abort or throw bad_alloc.
  for (const char* text :
       {"glcm 99999999999999 1", "glcm 9223372036854775807 1 2",
        "glcm -9223372036854775808", "glcm -1", "glcm -1 1", "glcm 4 1 2 3",
        "glcm 2305843009213693952 1"}) {
    Result<FeatureVector> parsed = FeatureVector::FromString(text);
    EXPECT_TRUE(parsed.status().IsCorruption()) << text;
  }
  for (const char* text :
       {"glcm 99999999999999999999 1", "glcm 18446744073709551615 1",
        "glcm 1e3 1", "glcm +1 1",
        "glcm 0x10 1", "glcm 1.0 1"}) {
    Result<FeatureVector> parsed = FeatureVector::FromString(text);
    EXPECT_TRUE(parsed.status().IsInvalidArgument()) << text;
  }
  Rng rng(0xC0C0A7);
  for (int round = 0; round < 2000; ++round) {
    std::string text = "glcm ";
    const uint64_t raw = rng.Next();
    switch (rng.Next() % 3) {
      case 0:
        text += std::to_string(static_cast<int64_t>(raw));
        break;
      case 1:
        text += std::to_string(raw);
        break;
      default:
        text += std::to_string(raw % 16);
        break;
    }
    const size_t values = rng.Next() % 8;
    for (size_t i = 0; i < values; ++i) text += " 0.5";
    ExpectParsedOrTyped(text);
  }
}

}  // namespace
}  // namespace vr
