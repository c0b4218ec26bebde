// Tests for the embedding strategies of paper §5.2.2.

#include <gtest/gtest.h>

#include <cstring>

#include "core/embedding.h"

namespace carl {
namespace {

TEST(EmbeddingTest, MeanPlusCount) {
  std::unique_ptr<Embedding> e = MakeEmbedding(EmbeddingKind::kMean);
  EXPECT_EQ(e->dims(), 2u);
  EXPECT_EQ(e->DimNames(), (std::vector<std::string>{"mean", "count"}));
  std::vector<double> out = e->Apply({1, 0, 1, 1});
  EXPECT_DOUBLE_EQ(out[0], 0.75);
  EXPECT_DOUBLE_EQ(out[1], 4.0);
  out = e->Apply({});
  EXPECT_DOUBLE_EQ(out[0], 0.0);
  EXPECT_DOUBLE_EQ(out[1], 0.0);
}

TEST(EmbeddingTest, MedianPlusCount) {
  std::unique_ptr<Embedding> e = MakeEmbedding(EmbeddingKind::kMedian);
  std::vector<double> out = e->Apply({5, 1, 3});
  EXPECT_DOUBLE_EQ(out[0], 3.0);
  EXPECT_DOUBLE_EQ(out[1], 3.0);
}

TEST(EmbeddingTest, MomentsDimsFollowOption) {
  EmbeddingOptions options;
  options.moments = 2;
  std::unique_ptr<Embedding> e =
      MakeEmbedding(EmbeddingKind::kMoments, options);
  EXPECT_EQ(e->dims(), 3u);  // m1, m2, count
  std::vector<double> out = e->Apply({1, 2, 3, 4});
  EXPECT_DOUBLE_EQ(out[0], 2.5);   // mean
  EXPECT_DOUBLE_EQ(out[1], 1.25);  // population variance
  EXPECT_DOUBLE_EQ(out[2], 4.0);   // count
}

TEST(EmbeddingTest, MomentsThirdIsSkewness) {
  EmbeddingOptions options;
  options.moments = 3;
  std::unique_ptr<Embedding> e =
      MakeEmbedding(EmbeddingKind::kMoments, options);
  std::vector<double> sym = e->Apply({1, 2, 3});
  EXPECT_NEAR(sym[2], 0.0, 1e-12);
  std::vector<double> skewed = e->Apply({1, 1, 1, 10});
  EXPECT_GT(skewed[2], 0.0);
}

TEST(EmbeddingTest, PaddingFitsWidthAndPads) {
  EmbeddingOptions options;
  options.padding_value = -1.0;
  std::unique_ptr<Embedding> e =
      MakeEmbedding(EmbeddingKind::kPadding, options);
  e->Fit(3);  // widest group: {1, 1, 0}
  EXPECT_EQ(e->dims(), 3u);
  // Values sorted descending, padded with the out-of-band marker.
  EXPECT_EQ(e->Apply({0, 1}), (std::vector<double>{1, 0, -1}));
  EXPECT_EQ(e->Apply({}), (std::vector<double>{-1, -1, -1}));
  // Oversized groups truncate to the fitted width.
  EXPECT_EQ(e->Apply({5, 4, 3, 2}), (std::vector<double>{5, 4, 3}));
}

TEST(EmbeddingTest, PaddingRespectsMaxWidth) {
  EmbeddingOptions options;
  options.padding_max_width = 2;
  std::unique_ptr<Embedding> e =
      MakeEmbedding(EmbeddingKind::kPadding, options);
  e->Fit(5);
  EXPECT_EQ(e->dims(), 2u);
}

TEST(EmbeddingTest, ParseNames) {
  EXPECT_TRUE(ParseEmbeddingKind("mean").ok());
  EXPECT_TRUE(ParseEmbeddingKind("MEDIAN").ok());
  EXPECT_TRUE(ParseEmbeddingKind("moments").ok());
  EXPECT_TRUE(ParseEmbeddingKind("padding").ok());
  EXPECT_FALSE(ParseEmbeddingKind("rnn").ok());
  for (EmbeddingKind kind :
       {EmbeddingKind::kMean, EmbeddingKind::kMedian, EmbeddingKind::kMoments,
        EmbeddingKind::kPadding}) {
    Result<EmbeddingKind> parsed =
        ParseEmbeddingKind(EmbeddingKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
}

// Property sweep: every embedding returns exactly dims() values on any
// group size, and is permutation-invariant (sets, not sequences).
class EmbeddingPropertyTest
    : public ::testing::TestWithParam<EmbeddingKind> {};

TEST_P(EmbeddingPropertyTest, DimsStableAcrossGroupSizes) {
  std::unique_ptr<Embedding> e = MakeEmbedding(GetParam());
  e->Fit(4);
  for (size_t n : {0u, 1u, 2u, 4u}) {
    std::vector<double> group(n, 1.0);
    EXPECT_EQ(e->Apply(group).size(), e->dims()) << "n=" << n;
  }
  EXPECT_EQ(e->DimNames().size(), e->dims());
}

TEST_P(EmbeddingPropertyTest, PermutationInvariant) {
  std::unique_ptr<Embedding> e = MakeEmbedding(GetParam());
  e->Fit(3);
  std::vector<double> a = e->Apply({3, 1, 2});
  std::vector<double> b = e->Apply({2, 3, 1});
  EXPECT_EQ(a, b);
}

// The span form is the one virtual entry point: it writes every one of
// the dims() outputs and nothing past them, including for groups that a
// fitted padding width truncates.
TEST_P(EmbeddingPropertyTest, SpanApplyWritesExactlyDims) {
  std::unique_ptr<Embedding> e = MakeEmbedding(GetParam());
  e->Fit(3);
  const double sentinel = 12345.0;
  for (const std::vector<double>& group :
       {std::vector<double>{}, std::vector<double>{2.5},
        std::vector<double>{3, 1, 2}, std::vector<double>{4, 9, 1, 7, 7}}) {
    std::vector<double> out(e->dims() + 1, sentinel);
    e->Apply(group.data(), group.size(), out.data());
    for (size_t d = 0; d < e->dims(); ++d) {
      EXPECT_NE(out[d], sentinel) << "n=" << group.size() << " dim " << d;
    }
    EXPECT_EQ(out.back(), sentinel) << "n=" << group.size();
  }
}

// The span-over-rows form projects a column group's rows [first, rows) in
// one call; row r's outputs must carry exactly the bits Apply gives for
// row r's group, with empty rows, rows wider than a fitted padding width,
// and repeated values among them — projected in two calls, as an append
// to a table does.
TEST_P(EmbeddingPropertyTest, ApplyRowsMatchesApplyPerRow) {
  std::unique_ptr<Embedding> e = MakeEmbedding(GetParam());
  e->Fit(3);
  std::vector<double> values;
  std::vector<size_t> ends;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  for (size_t r = 0; r < 40; ++r) {
    const size_t n = r % 6;  // 0..5 values; 4 and 5 exceed the width 3
    for (size_t i = 0; i < n; ++i) {
      state = state * 6364136223846793005ull + 1442695040888963407ull;
      const double fresh = static_cast<double>(state >> 40) / 1024.0 - 3000.0;
      values.push_back(i == 2 ? values.back() : fresh);  // a repeat
    }
    ends.push_back(values.size());
  }
  const size_t dims = e->dims();
  std::vector<std::vector<double>> cols(dims);
  e->ApplyRows(values.data(), ends.data(), 0, 17, cols.data());
  for (const std::vector<double>& col : cols) ASSERT_EQ(col.size(), 17u);
  e->ApplyRows(values.data(), ends.data(), 17, ends.size(), cols.data());
  for (const std::vector<double>& col : cols) {
    ASSERT_EQ(col.size(), ends.size()) << "one appended value per row";
  }
  std::vector<double> out(dims);
  size_t begin = 0;
  for (size_t r = 0; r < ends.size(); ++r) {
    e->Apply(values.data() + begin, ends[r] - begin, out.data());
    for (size_t d = 0; d < dims; ++d) {
      EXPECT_EQ(std::memcmp(&cols[d][r], &out[d], sizeof(double)), 0)
          << "row " << r << " dim " << d << ": " << cols[d][r] << " vs "
          << out[d];
    }
    begin = ends[r];
  }
}

INSTANTIATE_TEST_SUITE_P(AllEmbeddings, EmbeddingPropertyTest,
                         ::testing::Values(EmbeddingKind::kMean,
                                           EmbeddingKind::kMedian,
                                           EmbeddingKind::kMoments,
                                           EmbeddingKind::kPadding),
                         [](const auto& info) {
                           return EmbeddingKindToString(info.param);
                         });

}  // namespace
}  // namespace carl
