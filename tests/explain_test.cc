// Tests for the query static-analysis API (ExplainQuery) and DOT export.

#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/explain.h"
#include "datagen/review_toy.h"
#include "fixtures.h"
#include "graph/dot_export.h"

namespace carl {
namespace {

class ExplainTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<datagen::Dataset> data = datagen::MakeReviewToy();
    CARL_CHECK_OK(data.status());
    data_ = std::move(*data);
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data_.schema, data_.model_text);
    CARL_CHECK_OK(model.status());
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(data_.instance.get(), std::move(*model));
    CARL_CHECK_OK(engine.status());
    engine_ = std::move(*engine);
  }
  datagen::Dataset data_;
  std::unique_ptr<CarlEngine> engine_;
};

TEST_F(ExplainTest, ReportsPlanForAggregateQuery) {
  Result<QueryExplanation> explanation =
      ExplainQuery(engine_.get(), "AVG_Score[A] <= Prestige[A]?");
  ASSERT_TRUE(explanation.ok());
  EXPECT_EQ(explanation->treatment_attribute, "Prestige");
  EXPECT_EQ(explanation->response_attribute, "AVG_Score");
  EXPECT_EQ(explanation->unit_predicate, "Person");
  EXPECT_FALSE(explanation->unified);
  EXPECT_EQ(explanation->num_units, 3u);
  EXPECT_TRUE(explanation->relational);
  EXPECT_EQ(explanation->max_peers, 2u);
  EXPECT_NEAR(explanation->mean_peers, (1 + 1 + 2) / 3.0, 1e-12);

  // Adjustment set: own and peer Qualification.
  ASSERT_EQ(explanation->covariates.size(), 2u);
  EXPECT_EQ(explanation->covariates[0].attribute, "Qualification");
  EXPECT_EQ(explanation->covariates[0].role, "own");
  EXPECT_EQ(explanation->covariates[1].role, "peer");

  std::string text = explanation->ToString();
  EXPECT_NE(text.find("Prestige"), std::string::npos);
  EXPECT_NE(text.find("Qualification"), std::string::npos);
  EXPECT_NE(text.find("relational"), std::string::npos);
}

TEST_F(ExplainTest, ReportsUnificationRule) {
  // An existing response off the treatment's predicate, and the AGG_<base>
  // shorthand: both derive a rule along Author(A, S).
  struct Case {
    const char* query;
    const char* response;
  };
  for (const Case& c : {Case{"Score[S] <= Prestige[A]?", "AVG_Score_unified"},
                        Case{"MAX_Score[A] <= Prestige[A]?", "MAX_Score"}}) {
    Result<QueryExplanation> explanation =
        ExplainQuery(engine_.get(), c.query);
    ASSERT_TRUE(explanation.ok()) << c.query;
    EXPECT_TRUE(explanation->unified) << c.query;
    EXPECT_EQ(explanation->response_attribute, c.response);
    EXPECT_EQ(explanation->unification_rule.rfind(c.response, 0), 0u)
        << explanation->unification_rule;
    EXPECT_NE(explanation->unification_rule.find("Author"),
              std::string::npos)
        << c.query;
  }
  // Explaining derives nothing into the engine.
  EXPECT_FALSE(engine_->model().FindAggregateRule("MAX_Score").ok());
}

std::optional<bool> AnsweredCriterion(const QueryResponse& response) {
  return response.answer.ate.has_value()
             ? response.answer.ate->criterion_ok
             : response.answer.effects->criterion_ok;
}

// Explain runs the criterion check Answer runs, on every unit, so the two
// report the same criterion_ok, and the seed changes neither.
TEST_F(ExplainTest, CriterionCheckIntegrated) {
  for (const char* query :
       {"AVG_Score[A] <= Prestige[A]?", "Score[S] <= Prestige[A]?",
        "AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED"}) {
    std::optional<bool> first_seed;
    for (uint64_t seed : {uint64_t{8}, uint64_t{15}}) {
      QueryRequest request{std::string(query)};
      request.options.check_criterion = true;
      request.options.seed = seed;
      Result<QueryExplanation> explanation =
          ExplainQuery(engine_.get(), query, request.options);
      ASSERT_TRUE(explanation.ok()) << query;
      EXPECT_TRUE(explanation->criterion_checked);
      EXPECT_TRUE(explanation->criterion_ok) << query;
      EXPECT_NE(explanation->ToString().find("holds on every unit"),
                std::string::npos);

      QueryResponse response = engine_->Answer(request);
      ASSERT_TRUE(response.status.ok()) << query;
      const std::optional<bool> answered = AnsweredCriterion(response);
      EXPECT_EQ(answered, std::optional<bool>(explanation->criterion_ok))
          << query << " seed " << seed;
      if (!first_seed.has_value()) first_seed = answered;
      EXPECT_EQ(answered, first_seed) << query << " seed " << seed;
    }
  }
}

// The adjustment-criterion probe (test_fixtures::MentorProbeDataset): one
// Mentor(a7, s7) fact makes the latent Quality[s7] a confounder of
// Prestige[a7] and of a7's own score. The criterion fails on that one
// unit of 400, so Answer reports it violated at every seed and Explain
// prints VIOLATED; without the fact both report that it holds. Either
// way Prestige heads a rule whose one parent is latent: the adjustment
// set is empty, yet the treatment is not exogenous.
TEST(ExplainProbeTest, CriterionFailsOnItsOneUnitAtEverySeed) {
  const std::string query = "AVG_Score[A] <= Prestige[A]?";
  for (bool mentor : {true, false}) {
    SCOPED_TRACE(mentor ? "with Mentor(a7, s7)" : "without a mentor");
    datagen::Dataset data = test_fixtures::MentorProbeDataset(
        mentor ? std::vector<std::pair<int, int>>{{7, 7}}
               : std::vector<std::pair<int, int>>{});
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data.schema, data.model_text);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(data.instance.get(), std::move(*model));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    for (uint64_t seed = 0; seed < 100; ++seed) {
      QueryRequest request(query);
      request.options.check_criterion = true;
      request.options.seed = seed;
      QueryResponse response = (*engine)->Answer(request);
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_EQ(AnsweredCriterion(response), std::optional<bool>(!mentor))
          << "seed " << seed;
    }

    EngineOptions options;
    options.check_criterion = true;
    Result<QueryExplanation> explanation =
        ExplainQuery(engine->get(), query, options);
    ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
    EXPECT_EQ(explanation->num_units, 400u);
    EXPECT_EQ(explanation->criterion_ok, !mentor);
    EXPECT_TRUE(explanation->covariates.empty());
    EXPECT_FALSE(explanation->treatment_exogenous);
    const std::string text = explanation->ToString();
    EXPECT_NE(text.find(mentor ? "d-separation criterion: VIOLATED"
                               : "d-separation criterion: holds on every unit"),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("(empty - no observed parent of the treatment)"),
              std::string::npos)
        << text;
    EXPECT_EQ(text.find("exogenous"), std::string::npos) << text;
  }
}

// A treatment no rule heads is exogenous: Blind has no parents in the toy.
TEST_F(ExplainTest, ExogenousTreatmentSaysSo) {
  Result<QueryExplanation> explanation =
      ExplainQuery(engine_.get(), "Score[S] <= Blind[C]?");
  ASSERT_TRUE(explanation.ok()) << explanation.status().ToString();
  EXPECT_TRUE(explanation->treatment_exogenous);
  EXPECT_NE(explanation->ToString().find(
                "(empty - treatment is exogenous in the model)"),
            std::string::npos)
      << explanation->ToString();
}

TEST_F(ExplainTest, NonRelationalQueryReportsSutva) {
  Result<QueryExplanation> explanation =
      ExplainQuery(engine_.get(), "Qualification[A] <= Prestige[A]?");
  ASSERT_TRUE(explanation.ok());
  EXPECT_FALSE(explanation->relational);
  EXPECT_NE(explanation->ToString().find("SUTVA"), std::string::npos);
}

TEST_F(ExplainTest, RejectsBadInput) {
  EXPECT_FALSE(ExplainQuery(nullptr, "AVG_Score[A] <= Prestige[A]?").ok());
  EXPECT_FALSE(ExplainQuery(engine_.get(), "not a query").ok());
  EXPECT_FALSE(ExplainQuery(engine_.get(), "Ghost[A] <= Prestige[A]?").ok());
}

TEST_F(ExplainTest, DotExportContainsNodesAndEdges) {
  Result<std::string> dot = ExportDot(engine_->grounded());
  ASSERT_TRUE(dot.ok());
  EXPECT_NE(dot->find("digraph carl"), std::string::npos);
  EXPECT_NE(dot->find("Score[s1]"), std::string::npos);
  EXPECT_NE(dot->find("->"), std::string::npos);
  // Latent Quality nodes render dashed; aggregates as triangles.
  EXPECT_NE(dot->find("style=dashed"), std::string::npos);
  EXPECT_NE(dot->find("shape=triangle"), std::string::npos);
}

TEST_F(ExplainTest, DotExportFiltersAttributes) {
  DotOptions options;
  options.attributes = {"Score"};
  Result<std::string> dot = ExportDot(engine_->grounded(), options);
  ASSERT_TRUE(dot.ok());
  EXPECT_NE(dot->find("Score[s1]"), std::string::npos);
  EXPECT_EQ(dot->find("Prestige[Bob]"), std::string::npos);

  DotOptions bad;
  bad.attributes = {"Ghost"};
  EXPECT_FALSE(ExportDot(engine_->grounded(), bad).ok());
}

TEST_F(ExplainTest, DotExportCapsNodes) {
  DotOptions options;
  options.max_nodes = 2;
  Result<std::string> dot = ExportDot(engine_->grounded(), options);
  ASSERT_TRUE(dot.ok());
  // Exactly two node declarations (lines with "[label=").
  size_t count = 0, pos = 0;
  while ((pos = dot->find("[label=", pos)) != std::string::npos) {
    ++count;
    ++pos;
  }
  EXPECT_EQ(count, 2u);
}

}  // namespace
}  // namespace carl
