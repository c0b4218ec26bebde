// Unit tests for src/common: Status/Result, Value, interner, RNG, string
// utilities, CSV round-tripping.

#include <gtest/gtest.h>

#include "common/csv.h"
#include "common/interner.h"
#include "common/result.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/str_util.h"
#include "common/value.h"

namespace carl {
namespace {

TEST(StatusTest, OkByDefault) {
  Status s;
  EXPECT_TRUE(s.ok());
  EXPECT_EQ(s.ToString(), "OK");
}

TEST(StatusTest, ErrorCarriesCodeAndMessage) {
  Status s = Status::InvalidArgument("bad rule");
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(s.message(), "bad rule");
  EXPECT_EQ(s.ToString(), "InvalidArgument: bad rule");
}

TEST(StatusTest, AllCodesHaveNames) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kAlreadyExists, StatusCode::kFailedPrecondition,
        StatusCode::kOutOfRange, StatusCode::kUnimplemented,
        StatusCode::kInternal}) {
    EXPECT_STRNE(StatusCodeToString(code), "Unknown");
  }
}

Result<int> Half(int x) {
  if (x % 2 != 0) return Status::InvalidArgument("odd");
  return x / 2;
}

Result<int> Quarter(int x) {
  CARL_ASSIGN_OR_RETURN(int h, Half(x));
  return Half(h);
}

TEST(ResultTest, ValueAndError) {
  Result<int> ok = Half(4);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  Result<int> err = Half(3);
  EXPECT_FALSE(err.ok());
  EXPECT_EQ(err.status().code(), StatusCode::kInvalidArgument);
}

TEST(ResultTest, AssignOrReturnChains) {
  Result<int> ok = Quarter(8);
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(*ok, 2);
  EXPECT_FALSE(Quarter(6).ok());  // 6/2 = 3 is odd
}

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_TRUE(Value().is_null());
  EXPECT_EQ(Value(true).type(), ValueType::kBool);
  EXPECT_EQ(Value(int64_t{42}).int_value(), 42);
  EXPECT_DOUBLE_EQ(Value(2.5).double_value(), 2.5);
  EXPECT_EQ(Value("abc").string_value(), "abc");
}

TEST(ValueTest, AsDoublePromotions) {
  EXPECT_DOUBLE_EQ(Value(true).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Value(false).AsDouble(), 0.0);
  EXPECT_DOUBLE_EQ(Value(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value(1.25).AsDouble(), 1.25);
  EXPECT_FALSE(Value("x").is_numeric());
  EXPECT_FALSE(Value().is_numeric());
}

TEST(ValueTest, EqualityAndHash) {
  EXPECT_EQ(Value(3), Value(3));
  EXPECT_NE(Value(3), Value(3.0));  // different types
  EXPECT_EQ(Value("a").Hash(), Value("a").Hash());
  EXPECT_NE(Value("a"), Value("b"));
  EXPECT_EQ(Value(), Value());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value().ToString(), "NULL");
  EXPECT_EQ(Value(true).ToString(), "true");
  EXPECT_EQ(Value(5).ToString(), "5");
  EXPECT_EQ(Value("hi").ToString(), "hi");
}

TEST(InternerTest, BijectiveAndStable) {
  StringInterner interner;
  SymbolId a = interner.Intern("alpha");
  SymbolId b = interner.Intern("beta");
  EXPECT_NE(a, b);
  EXPECT_EQ(interner.Intern("alpha"), a);
  EXPECT_EQ(interner.ToString(a), "alpha");
  EXPECT_EQ(interner.Lookup("beta"), b);
  EXPECT_EQ(interner.Lookup("gamma"), kInvalidSymbol);
  EXPECT_EQ(interner.size(), 2u);
}

TEST(RngTest, DeterministicWithSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(a.Uniform(), b.Uniform());
  }
}

TEST(RngTest, UniformIntInRange) {
  Rng rng(1);
  for (int i = 0; i < 1000; ++i) {
    int64_t v = rng.UniformInt(-3, 7);
    EXPECT_GE(v, -3);
    EXPECT_LE(v, 7);
  }
}

TEST(RngTest, BernoulliExtremes) {
  Rng rng(2);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.Bernoulli(0.0));
    EXPECT_TRUE(rng.Bernoulli(1.0));
  }
  // Out-of-range probabilities are clamped instead of UB.
  EXPECT_TRUE(rng.Bernoulli(2.0));
  EXPECT_FALSE(rng.Bernoulli(-1.0));
}

TEST(RngTest, CategoricalRespectsWeights) {
  Rng rng(3);
  std::vector<double> weights{0.0, 1.0, 0.0};
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(rng.Categorical(weights), 1u);
  }
}

TEST(StrUtilTest, SplitTrimJoin) {
  EXPECT_EQ(Split("a,b,,c", ',').size(), 4u);
  EXPECT_EQ(Trim("  x \t"), "x");
  EXPECT_EQ(Trim(""), "");
  EXPECT_EQ(Join(std::vector<std::string>{"a", "b"}, "-"), "a-b");
}

TEST(StrUtilTest, CaseHelpers) {
  EXPECT_TRUE(EqualsIgnoreCase("Where", "WHERE"));
  EXPECT_FALSE(EqualsIgnoreCase("Where", "W"));
  EXPECT_EQ(ToUpper("abZ9"), "ABZ9");
  EXPECT_TRUE(StartsWith("AVG_Score", "AVG_"));
  EXPECT_FALSE(StartsWith("A", "AVG_"));
}

TEST(StrUtilTest, StrFormat) {
  EXPECT_EQ(StrFormat("%d-%s", 5, "x"), "5-x");
  EXPECT_EQ(StrFormat("%.2f", 1.005), "1.00");
}

TEST(CsvTest, RoundTrip) {
  CsvDocument doc;
  doc.header = {"a", "b"};
  doc.rows = {{"1", "x,y"}, {"2", "he said \"hi\""}};
  std::string text = WriteCsv(doc);
  Result<CsvDocument> parsed = ParseCsv(text);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->header, doc.header);
  ASSERT_EQ(parsed->rows.size(), 2u);
  EXPECT_EQ(parsed->rows[0][1], "x,y");
  EXPECT_EQ(parsed->rows[1][1], "he said \"hi\"");
}

TEST(CsvTest, RejectsRaggedRows) {
  EXPECT_FALSE(ParseCsv("a,b\n1\n").ok());
}

TEST(CsvTest, RejectsUnterminatedQuote) {
  EXPECT_FALSE(ParseCsv("a\n\"x\n").ok());
}

TEST(CsvTest, FileRoundTrip) {
  CsvDocument doc;
  doc.header = {"col"};
  doc.rows = {{"v1"}, {"v2"}};
  std::string path = testing::TempDir() + "/carl_csv_test.csv";
  ASSERT_TRUE(WriteCsvFile(doc, path).ok());
  Result<CsvDocument> parsed = ReadCsvFile(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->rows.size(), 2u);
}

}  // namespace
}  // namespace carl
