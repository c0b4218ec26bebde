// Tests for RelationalCausalModel validation and grounding: checks the
// grounded rules/graph of the paper's Example 3.6 and Figures 4-5 exactly.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/causal_model.h"
#include "core/grounding.h"
#include "datagen/review_toy.h"
#include "lang/parser.h"

namespace carl {
namespace {

class ToyModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<datagen::Dataset> data = datagen::MakeReviewToy();
    CARL_CHECK_OK(data.status());
    data_ = std::move(*data);
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data_.schema, data_.model_text);
    CARL_CHECK_OK(model.status());
    model_.emplace(std::move(*model));
  }

  NodeId Node(const GroundedModel& g, const std::string& attr,
              const std::vector<std::string>& constants) {
    Result<AttributeId> aid = g.schema().FindAttribute(attr);
    CARL_CHECK_OK(aid.status());
    Tuple args;
    for (const std::string& c : constants) {
      args.push_back(data_.instance->LookupConstant(c));
    }
    return g.graph().FindNode(*aid, args);
  }

  datagen::Dataset data_;
  std::optional<RelationalCausalModel> model_;
};

TEST_F(ToyModelTest, ParsesAndValidates) {
  EXPECT_EQ(model_->rules().size(), 4u);
  EXPECT_EQ(model_->aggregate_rules().size(), 1u);
  // Implied unit atoms were added: the Quality rule's condition must
  // mention Submission(S) (head) and Person(A) (body) beyond Author(A,S).
  const CausalRule& quality_rule = model_->rules()[1];
  EXPECT_EQ(quality_rule.head.attribute, "Quality");
  EXPECT_GE(quality_rule.where.atoms.size(), 3u);
}

TEST_F(ToyModelTest, RejectsBadPrograms) {
  // Unknown attribute.
  EXPECT_FALSE(
      RelationalCausalModel::Parse(*data_.schema, "Ghost[A] <= Score[S]")
          .ok());
  // Arity mismatch.
  EXPECT_FALSE(RelationalCausalModel::Parse(*data_.schema,
                                            "Score[S, T] <= Prestige[A]")
                   .ok());
  // Unknown predicate in condition.
  EXPECT_FALSE(RelationalCausalModel::Parse(
                   *data_.schema, "Score[S] <= Prestige[A] WHERE Ghost(A, S)")
                   .ok());
  // Aggregate head duplicating an existing attribute.
  EXPECT_FALSE(RelationalCausalModel::Parse(
                   *data_.schema,
                   "AVG_Score[A] <= Score[S] WHERE Author(A, S)\n"
                   "AVG_Score[A] <= Score[S] WHERE Author(A, S)")
                   .ok());
  // Causal rule heading an aggregate-defined attribute.
  EXPECT_FALSE(RelationalCausalModel::Parse(
                   *data_.schema,
                   "AVG_Score[A] <= Score[S] WHERE Author(A, S)\n"
                   "AVG_Score[A] <= Prestige[A] WHERE Person(A)")
                   .ok());
}

TEST_F(ToyModelTest, AggregateHeadRegisteredOnInferredPredicate) {
  const Schema& schema = model_->extended_schema();
  Result<AttributeId> avg = schema.FindAttribute("AVG_Score");
  ASSERT_TRUE(avg.ok());
  EXPECT_EQ(schema.predicate(schema.attribute(*avg).predicate).name,
            "Person");
  EXPECT_TRUE(model_->IsAggregateAttribute(*avg));
  EXPECT_TRUE(model_->FindAggregateRule("AVG_Score").ok());
  EXPECT_FALSE(model_->FindAggregateRule("Score").ok());
}

// The rule facts of a derived variant (a copy of the model plus one
// aggregate rule, as CarlEngine::Resolve builds for §4.3) are its own:
// they report the new rule, its effect and the predicate its condition
// adds, every rule lookup reads the copy's rules, and the base reports
// as before.
TEST_F(ToyModelTest, DerivedVariantRebuildsItsRuleFacts) {
  const Schema& schema = model_->extended_schema();
  const AttributeId score = *schema.FindAttribute("Score");
  const AttributeId avg = *schema.FindAttribute("AVG_Score");
  const PredicateId submitted = *schema.FindPredicate("Submitted");
  auto contains = [](const std::vector<AttributeId>& ids, AttributeId id) {
    return std::count(ids.begin(), ids.end(), id) == 1;
  };
  ASSERT_FALSE(model_->GroundingReads(submitted));
  ASSERT_EQ(model_->EffectsOf(score), std::vector<AttributeId>{avg});

  Result<AggregateRule> rule = ParseAggregateRule(
      "MAX_Score[A] <= Score[S] WHERE Author(A, S), Submitted(S, C)");
  ASSERT_TRUE(rule.ok()) << rule.status();
  RelationalCausalModel variant = *model_;
  EXPECT_EQ(variant.AggregateRuleOf(avg), &variant.aggregate_rules()[0]);
  ASSERT_TRUE(variant.AddAggregateRule(*rule).ok());
  const Schema& variant_schema = variant.extended_schema();
  Result<AttributeId> max = variant_schema.FindAttribute("MAX_Score");
  ASSERT_TRUE(max.ok());
  ASSERT_EQ(variant.aggregate_rules().size(), 2u);
  EXPECT_EQ(variant.AggregateRuleOf(avg), &variant.aggregate_rules()[0]);
  ASSERT_EQ(variant.AggregateRuleOf(*max), &variant.aggregate_rules()[1]);
  EXPECT_EQ(variant.AggregateRuleOf(*max)->aggregate, AggregateKind::kMax);
  EXPECT_TRUE(variant.IsAggregateAttribute(*max));
  EXPECT_EQ(variant.AggregateRuleOf(score), nullptr);
  EXPECT_TRUE(contains(variant.EffectsOf(score), avg));
  EXPECT_TRUE(contains(variant.EffectsOf(score), *max));
  EXPECT_TRUE(variant.EffectsOf(*max).empty());
  EXPECT_TRUE(variant.GroundingReads(submitted));

  EXPECT_FALSE(model_->extended_schema().FindAttribute("MAX_Score").ok());
  EXPECT_EQ(model_->AggregateRuleOf(avg), &model_->aggregate_rules()[0]);
  EXPECT_EQ(model_->EffectsOf(score), std::vector<AttributeId>{avg});
  EXPECT_FALSE(model_->GroundingReads(submitted));
}

// Example 3.6: the exact grounded parent sets of Figure 4.
TEST_F(ToyModelTest, GroundingMatchesExample36) {
  Result<GroundedModel> grounded = GroundModel(*data_.instance, *model_);
  ASSERT_TRUE(grounded.ok());
  const CausalGraph& graph = grounded->graph();

  auto parent_names = [&](NodeId node) {
    std::vector<std::string> names;
    for (NodeId p : graph.Parents(node)) {
      names.push_back(grounded->NodeName(p));
    }
    std::sort(names.begin(), names.end());
    return names;
  };

  // Prestige[X] <= Qualification[X] for every author.
  for (const char* who : {"Bob", "Carlos", "Eva"}) {
    NodeId prestige = Node(*grounded, "Prestige", {who});
    ASSERT_NE(prestige, kInvalidNode);
    EXPECT_EQ(parent_names(prestige),
              (std::vector<std::string>{std::string("Qualification[") + who +
                                        "]"}));
  }

  // Quality[s1] <= Qualification[Bob], Qualification[Eva]  (+ Prestige per
  // rule (6) which also lists Prestige[A] in the body).
  NodeId q1 = Node(*grounded, "Quality", {"s1"});
  std::vector<std::string> q1_parents = parent_names(q1);
  EXPECT_TRUE(std::count(q1_parents.begin(), q1_parents.end(),
                         "Qualification[Bob]"));
  EXPECT_TRUE(std::count(q1_parents.begin(), q1_parents.end(),
                         "Qualification[Eva]"));
  EXPECT_FALSE(std::count(q1_parents.begin(), q1_parents.end(),
                          "Qualification[Carlos]"));

  // Score[s1] <= Quality[s1], Prestige[Bob], Prestige[Eva].
  NodeId s1 = Node(*grounded, "Score", {"s1"});
  EXPECT_EQ(parent_names(s1),
            (std::vector<std::string>{"Prestige[Bob]", "Prestige[Eva]",
                                      "Quality[s1]"}));
  // Score[s2] <= Quality[s2], Prestige[Eva].
  NodeId s2 = Node(*grounded, "Score", {"s2"});
  EXPECT_EQ(parent_names(s2),
            (std::vector<std::string>{"Prestige[Eva]", "Quality[s2]"}));
  // Score[s3] <= Quality[s3], Prestige[Carlos], Prestige[Eva].
  NodeId s3 = Node(*grounded, "Score", {"s3"});
  EXPECT_EQ(parent_names(s3),
            (std::vector<std::string>{"Prestige[Carlos]", "Prestige[Eva]",
                                      "Quality[s3]"}));
}

// Figure 5: aggregate nodes AVG_Score[X] with their Score parents.
TEST_F(ToyModelTest, AggregateGrounding) {
  Result<GroundedModel> grounded = GroundModel(*data_.instance, *model_);
  ASSERT_TRUE(grounded.ok());
  const CausalGraph& graph = grounded->graph();

  NodeId avg_eva = Node(*grounded, "AVG_Score", {"Eva"});
  ASSERT_NE(avg_eva, kInvalidNode);
  EXPECT_EQ(graph.Parents(avg_eva).size(), 3u);  // s1, s2, s3
  EXPECT_EQ(grounded->NodeAggregate(avg_eva), AggregateKind::kAvg);

  NodeId avg_bob = Node(*grounded, "AVG_Score", {"Bob"});
  EXPECT_EQ(graph.Parents(avg_bob).size(), 1u);  // s1

  // Aggregate values: Eva = (0.75+0.4+0.1)/3, Bob = 0.75.
  ASSERT_TRUE(grounded->NodeValue(avg_eva).has_value());
  EXPECT_NEAR(*grounded->NodeValue(avg_eva), (0.75 + 0.4 + 0.1) / 3.0, 1e-12);
  EXPECT_NEAR(*grounded->NodeValue(avg_bob), 0.75, 1e-12);
}

TEST_F(ToyModelTest, NodeValues) {
  Result<GroundedModel> grounded = GroundModel(*data_.instance, *model_);
  ASSERT_TRUE(grounded.ok());
  // Observed base attribute.
  NodeId score1 = Node(*grounded, "Score", {"s1"});
  EXPECT_DOUBLE_EQ(*grounded->NodeValue(score1), 0.75);
  // Unobserved attribute has no value.
  NodeId quality1 = Node(*grounded, "Quality", {"s1"});
  EXPECT_FALSE(grounded->NodeValue(quality1).has_value());
  // Bool promotes to 1/0.
  NodeId prestige_bob = Node(*grounded, "Prestige", {"Bob"});
  EXPECT_DOUBLE_EQ(*grounded->NodeValue(prestige_bob), 1.0);
  NodeId prestige_carlos = Node(*grounded, "Prestige", {"Carlos"});
  EXPECT_DOUBLE_EQ(*grounded->NodeValue(prestige_carlos), 0.0);
}

TEST_F(ToyModelTest, GroundedGraphIsAcyclicAndSized) {
  Result<GroundedModel> grounded = GroundModel(*data_.instance, *model_);
  ASSERT_TRUE(grounded.ok());
  EXPECT_TRUE(grounded->graph().IsAcyclic());
  // 3 authors x (Prestige, Qualification, AVG_Score) + 3 submissions x
  // (Score, Quality) + 2 conferences x Blind = 9 + 6 + 2 = 17 nodes.
  EXPECT_EQ(grounded->graph().num_nodes(), 17u);
  EXPECT_GT(grounded->num_groundings(), 0u);
}

TEST_F(ToyModelTest, RecursiveModelRejected) {
  // Score depends on itself through the same predicate: direct cycle.
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      *data_.schema, "Score[S] <= Score[S] WHERE Submission(S)");
  ASSERT_TRUE(model.ok());  // schema-valid...
  EXPECT_FALSE(GroundModel(*data_.instance, *model).ok());  // ...but cyclic
}

TEST_F(ToyModelTest, ConstantInRuleRestrictsGrounding) {
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      *data_.schema, R"(Score[S] <= Prestige["Eva"] WHERE Author("Eva", S))");
  ASSERT_TRUE(model.ok());
  Result<GroundedModel> grounded = GroundModel(*data_.instance, *model);
  ASSERT_TRUE(grounded.ok());
  // Eva's prestige has edges into s1, s2, s3 only.
  NodeId prestige_eva = Node(*grounded, "Prestige", {"Eva"});
  EXPECT_EQ(grounded->graph().Children(prestige_eva).size(), 3u);
  NodeId prestige_bob = Node(*grounded, "Prestige", {"Bob"});
  EXPECT_TRUE(grounded->graph().Children(prestige_bob).empty());
}

}  // namespace
}  // namespace carl
