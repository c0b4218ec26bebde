// Unit tests for src/relational: schema catalog, instances + indexes,
// conjunctive-query evaluation, aggregates, flat tables, universal table.

#include <gtest/gtest.h>

#include "datagen/review_toy.h"
#include "relational/aggregates.h"
#include "relational/conjunctive_query.h"
#include "relational/evaluator.h"
#include "relational/flat_table.h"
#include "relational/instance.h"
#include "relational/schema.h"
#include "relational/universal_table.h"

namespace carl {
namespace {

Schema MakeToySchema() {
  Schema schema;
  CARL_CHECK_OK(schema.AddEntity("Person").status());
  CARL_CHECK_OK(schema.AddEntity("Submission").status());
  CARL_CHECK_OK(
      schema.AddRelationship("Author", {"Person", "Submission"}).status());
  CARL_CHECK_OK(
      schema.AddAttribute("Prestige", "Person", true, ValueType::kBool)
          .status());
  CARL_CHECK_OK(
      schema.AddAttribute("Score", "Submission", true, ValueType::kDouble)
          .status());
  CARL_CHECK_OK(schema
                    .AddAttribute("Quality", "Submission", /*observed=*/false,
                                  ValueType::kDouble)
                    .status());
  return schema;
}

TEST(SchemaTest, RegistrationAndLookup) {
  Schema schema = MakeToySchema();
  EXPECT_EQ(schema.num_predicates(), 3u);
  EXPECT_EQ(schema.num_attributes(), 3u);
  ASSERT_TRUE(schema.FindPredicate("Author").ok());
  EXPECT_EQ(schema.predicate(*schema.FindPredicate("Author")).arity(), 2);
  EXPECT_FALSE(schema.FindPredicate("Nope").ok());
  EXPECT_FALSE(schema.FindAttribute("Nope").ok());
  EXPECT_FALSE(schema.attribute(*schema.FindAttribute("Quality")).observed);
}

TEST(SchemaTest, RejectsDuplicatesAndBadRefs) {
  Schema schema = MakeToySchema();
  EXPECT_EQ(schema.AddEntity("Person").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.AddAttribute("Prestige", "Person").status().code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(schema.AddRelationship("R", {"Person"}).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(schema.AddRelationship("R", {"Person", "Ghost"}).status().code(),
            StatusCode::kNotFound);
  // Relationships cannot be argument types of other relationships.
  EXPECT_EQ(
      schema.AddRelationship("R", {"Person", "Author"}).status().code(),
      StatusCode::kInvalidArgument);
}

TEST(InstanceTest, FactsAndAttributes) {
  Schema schema = MakeToySchema();
  Instance db(&schema);
  ASSERT_TRUE(db.AddFact("Person", {"Bob"}).ok());
  ASSERT_TRUE(db.AddFact("Person", {"Eva"}).ok());
  ASSERT_TRUE(db.AddFact("Author", {"Bob", "s1"}).ok());
  // Duplicate facts are deduplicated.
  ASSERT_TRUE(db.AddFact("Person", {"Bob"}).ok());
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Person")), 2u);

  ASSERT_TRUE(db.SetAttribute("Prestige", {"Bob"}, Value(true)).ok());
  AttributeId prestige = *schema.FindAttribute("Prestige");
  Tuple bob{db.LookupConstant("Bob")};
  ASSERT_TRUE(db.GetAttribute(prestige, bob).has_value());
  EXPECT_TRUE(db.GetAttribute(prestige, bob)->bool_value());
  Tuple eva{db.LookupConstant("Eva")};
  EXPECT_FALSE(db.GetAttribute(prestige, eva).has_value());
}

TEST(InstanceTest, ArityChecks) {
  Schema schema = MakeToySchema();
  Instance db(&schema);
  EXPECT_FALSE(db.AddFact("Author", {"Bob"}).ok());
  EXPECT_FALSE(db.AddFact("Ghost", {"x"}).ok());
  EXPECT_FALSE(db.SetAttribute("Prestige", {"a", "b"}, Value(1)).ok());
  EXPECT_FALSE(db.SetAttribute("Ghost", {"a"}, Value(1)).ok());
}

TEST(InstanceTest, MatchIndex) {
  Schema schema = MakeToySchema();
  Instance db(&schema);
  CARL_CHECK_OK(db.AddFact("Author", {"Bob", "s1"}));
  CARL_CHECK_OK(db.AddFact("Author", {"Eva", "s1"}));
  CARL_CHECK_OK(db.AddFact("Author", {"Eva", "s2"}));
  PredicateId author = *schema.FindPredicate("Author");
  SymbolId eva = db.LookupConstant("Eva");
  RowIdSpan rows = db.Match(author, {0}, {eva});
  EXPECT_EQ(rows.size(), 2u);
  SymbolId s1 = db.LookupConstant("s1");
  EXPECT_EQ(db.Match(author, {1}, {s1}).size(), 2u);
  EXPECT_EQ(db.Match(author, {0, 1}, {eva, s1}).size(), 1u);
  // Unseen key.
  EXPECT_TRUE(db.Match(author, {0}, {9999}).empty());
  // Empty position list returns all rows.
  EXPECT_EQ(db.Match(author, {}, {}).size(), 3u);
}

class EvaluatorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<datagen::Dataset> data = datagen::MakeReviewToy();
    CARL_CHECK_OK(data.status());
    data_ = std::move(*data);
  }
  datagen::Dataset data_;
};

TEST_F(EvaluatorTest, SingleAtom) {
  QueryEvaluator eval(data_.instance.get());
  ConjunctiveQuery q;
  q.atoms.push_back({"Person", {Term::Var("A")}});
  Result<BindingTable> rows = eval.Evaluate(q, {"A"});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);  // Bob, Carlos, Eva
}

TEST_F(EvaluatorTest, JoinAcrossAtoms) {
  QueryEvaluator eval(data_.instance.get());
  // Authors with a submission at ConfAI.
  ConjunctiveQuery q;
  q.atoms.push_back({"Author", {Term::Var("A"), Term::Var("S")}});
  q.atoms.push_back({"Submitted", {Term::Var("S"), Term::Const("ConfAI")}});
  Result<BindingTable> rows = eval.Evaluate(q, {"A"});
  ASSERT_TRUE(rows.ok());
  // s2 (Eva), s3 (Eva, Carlos) -> distinct authors {Eva, Carlos}.
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(EvaluatorTest, ExistentialProjectionDeduplicates) {
  QueryEvaluator eval(data_.instance.get());
  // People with at least one submission: all three.
  ConjunctiveQuery q;
  q.atoms.push_back({"Author", {Term::Var("A"), Term::Var("S")}});
  Result<BindingTable> rows = eval.Evaluate(q, {"A"});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 3u);
}

TEST_F(EvaluatorTest, AttributeConstraint) {
  QueryEvaluator eval(data_.instance.get());
  // Submissions at single-blind venues (Blind = true): only s1.
  ConjunctiveQuery q;
  q.atoms.push_back({"Submitted", {Term::Var("S"), Term::Var("C")}});
  AttributeConstraint c;
  c.attribute = "Blind";
  c.args = {Term::Var("C")};
  c.op = CompareOp::kEq;
  c.rhs = Value(true);
  q.constraints.push_back(c);
  Result<BindingTable> rows = eval.Evaluate(q, {"S"});
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 1u);
  EXPECT_EQ(data_.instance->ConstantName(rows->row(0)[0]), "s1");
}

TEST_F(EvaluatorTest, NumericConstraint) {
  QueryEvaluator eval(data_.instance.get());
  // Submissions scoring >= 0.4: s1, s2.
  ConjunctiveQuery q;
  q.atoms.push_back({"Submission", {Term::Var("S")}});
  AttributeConstraint c;
  c.attribute = "Score";
  c.args = {Term::Var("S")};
  c.op = CompareOp::kGe;
  c.rhs = Value(0.4);
  q.constraints.push_back(c);
  Result<BindingTable> rows = eval.Evaluate(q, {"S"});
  ASSERT_TRUE(rows.ok());
  EXPECT_EQ(rows->size(), 2u);
}

TEST_F(EvaluatorTest, MissingAttributeFailsConstraint) {
  QueryEvaluator eval(data_.instance.get());
  // Quality is unobserved -> no submission passes a Quality constraint.
  ConjunctiveQuery q;
  q.atoms.push_back({"Submission", {Term::Var("S")}});
  AttributeConstraint c;
  c.attribute = "Quality";
  c.args = {Term::Var("S")};
  c.op = CompareOp::kGt;
  c.rhs = Value(0.0);
  q.constraints.push_back(c);
  Result<BindingTable> rows = eval.Evaluate(q, {"S"});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(EvaluatorTest, RepeatedVariableWithinAtom) {
  // Author(A, A) never matches (authors and submissions are disjoint).
  QueryEvaluator eval(data_.instance.get());
  ConjunctiveQuery q;
  q.atoms.push_back({"Author", {Term::Var("A"), Term::Var("A")}});
  Result<BindingTable> rows = eval.Evaluate(q, {"A"});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(EvaluatorTest, UnknownConstantYieldsEmpty) {
  QueryEvaluator eval(data_.instance.get());
  ConjunctiveQuery q;
  q.atoms.push_back({"Author", {Term::Const("Nobody"), Term::Var("S")}});
  Result<BindingTable> rows = eval.Evaluate(q, {"S"});
  ASSERT_TRUE(rows.ok());
  EXPECT_TRUE(rows->empty());
}

TEST_F(EvaluatorTest, ExistenceAndCountThroughEvaluate) {
  QueryEvaluator eval(data_.instance.get());
  ConjunctiveQuery q;
  q.atoms.push_back({"Author", {Term::Var("A"), Term::Var("S")}});
  // Projected on every variable, the distinct bindings are the
  // satisfying assignments.
  Result<BindingTable> rows = eval.Evaluate(q, {"A", "S"});
  ASSERT_TRUE(rows.ok());
  EXPECT_FALSE(rows->empty());
  EXPECT_EQ(rows->size(), 5u);  // five authorship facts
}

TEST_F(EvaluatorTest, ErrorsOnBadQueries) {
  QueryEvaluator eval(data_.instance.get());
  ConjunctiveQuery q;
  q.atoms.push_back({"Ghost", {Term::Var("A")}});
  EXPECT_FALSE(eval.Evaluate(q, {"A"}).ok());

  ConjunctiveQuery arity;
  arity.atoms.push_back({"Author", {Term::Var("A")}});
  EXPECT_FALSE(eval.Evaluate(arity, {"A"}).ok());

  ConjunctiveQuery unsafe;
  unsafe.atoms.push_back({"Person", {Term::Var("A")}});
  EXPECT_FALSE(eval.Evaluate(unsafe, {"B"}).ok());  // B not in query
}

TEST(AggregatesTest, BasicKinds) {
  std::vector<double> v{1, 2, 3, 4};
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kAvg, v), 2.5);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kSum, v), 10.0);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kCount, v), 4.0);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kMin, v), 1.0);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kMax, v), 4.0);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kMedian, v), 2.5);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kVariance, v), 1.25);
}

TEST(AggregatesTest, MedianOddAndEmpty) {
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kMedian, {3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kMedian, {}), 0.0);
  EXPECT_DOUBLE_EQ(ApplyAggregate(AggregateKind::kCount, {}), 0.0);
}

TEST(AggregatesTest, SkewnessOfSymmetricIsZero) {
  EXPECT_NEAR(ApplyAggregate(AggregateKind::kSkewness, {1, 2, 3}), 0.0,
              1e-12);
  // Right-skewed sample.
  EXPECT_GT(ApplyAggregate(AggregateKind::kSkewness, {1, 1, 1, 10}), 0.0);
}

TEST(AggregatesTest, ParseNames) {
  EXPECT_TRUE(ParseAggregateKind("avg").ok());
  EXPECT_TRUE(ParseAggregateKind("MEAN").ok());
  EXPECT_TRUE(ParseAggregateKind("Median").ok());
  EXPECT_FALSE(ParseAggregateKind("fancy").ok());
}

TEST(FlatTableTest, RowsColumnsSelect) {
  FlatTable t({"a", "b"});
  t.AddRow({1, 10});
  t.AddRow({2, 20});
  t.AddRow({3, 30});
  EXPECT_EQ(t.num_rows(), 3u);
  EXPECT_DOUBLE_EQ(t.Column("b")[2], 30.0);
  EXPECT_FALSE(t.ColumnIndex("c").ok());
  FlatTable sel = t.SelectRows({2, 0});
  EXPECT_EQ(sel.num_rows(), 2u);
  EXPECT_DOUBLE_EQ(sel.Column("a")[0], 3.0);
  FlatTable filtered = t.Filter([&](size_t r) { return t.At(r, 0) > 1.5; });
  EXPECT_EQ(filtered.num_rows(), 2u);
}

TEST(FlatTableTest, AddColumnAndCsv) {
  FlatTable t({"x"});
  t.AddRow({1});
  t.AddColumn("y", {5});
  CsvDocument csv = t.ToCsv();
  EXPECT_EQ(csv.header.size(), 2u);
  EXPECT_EQ(csv.rows.size(), 1u);
}

TEST_F(EvaluatorTest, UniversalTableJoinsAndDropsMissing) {
  // Universal table over Author(A,S): prestige x score. All five
  // authorship pairs have both values (Quality would not).
  UniversalTableSpec spec;
  spec.join.atoms.push_back({"Author", {Term::Var("A"), Term::Var("S")}});
  spec.columns.push_back({"Prestige", {"A"}, "prestige"});
  spec.columns.push_back({"Score", {"S"}, "score"});
  Result<UniversalTableResult> result =
      BuildUniversalTable(*data_.instance, spec);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->table.num_rows(), 5u);
  EXPECT_EQ(result->dropped_rows, 0u);

  // Adding an unobserved column drops every row.
  spec.columns.push_back({"Quality", {"S"}, "quality"});
  Result<UniversalTableResult> dropped =
      BuildUniversalTable(*data_.instance, spec);
  ASSERT_TRUE(dropped.ok());
  EXPECT_EQ(dropped->table.num_rows(), 0u);
  EXPECT_EQ(dropped->dropped_rows, 5u);
}

TEST_F(EvaluatorTest, UniversalTableRejectsEmptySpecAndStrings) {
  UniversalTableSpec empty;
  empty.join.atoms.push_back({"Person", {Term::Var("A")}});
  EXPECT_FALSE(BuildUniversalTable(*data_.instance, empty).ok());
}

}  // namespace
}  // namespace carl
