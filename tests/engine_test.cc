// End-to-end engine tests on the toy instance: query resolution,
// automatic unification, filters, estimator/bootstrap plumbing.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.h"
#include "datagen/review_toy.h"
#include "fixtures.h"
#include "lang/parser.h"
#include "stats/bootstrap.h"

namespace carl {
namespace {

class EngineToyTest : public ::testing::Test {
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

QueryResponse AnswerText(const CarlEngine& engine, const std::string& text,
                         const EngineOptions& options = {}) {
  QueryRequest request(text);
  request.options = options;
  return engine.Answer(request);
}

TEST_F(EngineToyTest, AnswersAggregatedResponseQuery) {
  QueryResponse response =
      engine_->Answer(QueryRequest("AVG_Score[A] <= Prestige[A]?"));
  ASSERT_TRUE(response.status.ok());
  ASSERT_TRUE(response.answer.ate.has_value());
  const AteAnswer& ate = *response.answer.ate;
  EXPECT_EQ(ate.num_units, 3u);
  EXPECT_TRUE(ate.relational);
  EXPECT_EQ(ate.response_attribute, "AVG_Score");
  // Naive difference: treated (Bob .75, Eva .4166) vs control (Carlos .1).
  EXPECT_NEAR(ate.naive.difference,
              (0.75 + (0.75 + 0.4 + 0.1) / 3.0) / 2.0 - 0.1, 1e-9);
}

TEST_F(EngineToyTest, UnifiesResponseAutomatically) {
  // Score lives on Submission; the engine must derive the relational-path
  // aggregation (§4.3) and answer on author units.
  QueryResponse unified =
      engine_->Answer(QueryRequest("Score[S] <= Prestige[A]?"));
  ASSERT_TRUE(unified.status.ok());
  ASSERT_TRUE(unified.answer.ate.has_value());
  EXPECT_EQ(unified.answer.ate->response_attribute, "AVG_Score_unified");
  EXPECT_EQ(unified.answer.ate->num_units, 3u);
  // The derived aggregation equals the model's own AVG_Score rule, so both
  // queries agree on the naive contrast.
  QueryResponse direct =
      engine_->Answer(QueryRequest("AVG_Score[A] <= Prestige[A]?"));
  ASSERT_TRUE(direct.status.ok());
  EXPECT_NEAR(unified.answer.ate->naive.difference,
              direct.answer.ate->naive.difference, 1e-12);
  // The derived rule belongs to the query: the engine's model is
  // unchanged, and asking again answers the same.
  EXPECT_FALSE(engine_->model().FindAggregateRule("AVG_Score_unified").ok());
  QueryResponse again =
      engine_->Answer(QueryRequest("Score[S] <= Prestige[A]?"));
  ASSERT_TRUE(again.status.ok());
  EXPECT_EQ(again.answer.ate->ate.value, unified.answer.ate->ate.value);
}

TEST_F(EngineToyTest, WhereFilterRestrictsToVenue) {
  // Double-blind venue only (s2, s3): Bob drops out, Eva (treated) and
  // Carlos (control) remain.
  QueryResponse response = engine_->Answer(QueryRequest(
      R"(AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = FALSE)"));
  ASSERT_TRUE(response.status.ok());
  ASSERT_TRUE(response.answer.ate.has_value());
  EXPECT_EQ(response.answer.ate->num_units, 2u);
  EXPECT_EQ(response.answer.ate->dropped_units, 1u);

  // The single-blind filter leaves only treated authors (Bob, Eva): the
  // contrast is undefined and the engine reports it instead of crashing.
  QueryResponse degenerate = engine_->Answer(QueryRequest(
      R"(AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = TRUE)"));
  EXPECT_EQ(degenerate.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(EngineToyTest, FilterWithoutLinkVariableFails) {
  // The filter references no Submission-typed variable.
  QueryResponse response = engine_->Answer(
      QueryRequest(R"(AVG_Score[A] <= Prestige[A]? WHERE Blind[C] = TRUE)"));
  EXPECT_FALSE(response.status.ok());
}

TEST_F(EngineToyTest, RelationalEffectsQuery) {
  QueryResponse response = engine_->Answer(
      QueryRequest("AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED"));
  ASSERT_TRUE(response.status.ok());
  ASSERT_TRUE(response.answer.effects.has_value());
  const RelationalEffectsAnswer& effects = *response.answer.effects;
  EXPECT_EQ(effects.num_units, 3u);
  // Proposition 4.1 holds exactly in the decomposition regression.
  EXPECT_NEAR(effects.aoe.value, effects.aie.value + effects.are.value, 1e-9);
  EXPECT_EQ(effects.condition.kind, PeerCondition::Kind::kAll);
}

// The QueryRequest surface itself: exactly one of `query` / `query_text`,
// parse errors in the status, and the answer form follows the query form
// whether the query arrives parsed or as text.
TEST_F(EngineToyTest, QueryRequestSurface) {
  QueryResponse bad_text = engine_->Answer(QueryRequest("nope"));
  EXPECT_EQ(bad_text.status.code(), StatusCode::kInvalidArgument);
  EXPECT_FALSE(bad_text.answer.ate.has_value());
  EXPECT_FALSE(bad_text.answer.effects.has_value());

  Result<CausalQuery> ate_query = ParseQuery("AVG_Score[A] <= Prestige[A]?");
  ASSERT_TRUE(ate_query.ok());
  QueryRequest both(*ate_query);
  both.query_text = "AVG_Score[A] <= Prestige[A]?";
  EXPECT_EQ(engine_->Answer(both).status.code(),
            StatusCode::kInvalidArgument);

  QueryResponse ate = engine_->Answer(QueryRequest(*ate_query));
  ASSERT_TRUE(ate.status.ok());
  EXPECT_TRUE(ate.answer.ate.has_value());
  EXPECT_FALSE(ate.answer.effects.has_value());

  const std::string peer_text =
      "AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED";
  Result<CausalQuery> peer_query = ParseQuery(peer_text);
  ASSERT_TRUE(peer_query.ok());
  QueryResponse parsed = engine_->Answer(QueryRequest(*peer_query));
  QueryResponse text = engine_->Answer(QueryRequest(peer_text));
  ASSERT_TRUE(parsed.status.ok());
  ASSERT_TRUE(text.status.ok());
  ASSERT_TRUE(parsed.answer.effects.has_value());
  ASSERT_TRUE(text.answer.effects.has_value());
  EXPECT_FALSE(parsed.answer.ate.has_value());
  EXPECT_EQ(0, std::memcmp(&parsed.answer.effects->aoe.value,
                           &text.answer.effects->aoe.value, sizeof(double)));
}

TEST_F(EngineToyTest, BootstrapAttachesErrors) {
  EngineOptions options;
  options.bootstrap_replicates = 50;
  QueryResponse response =
      AnswerText(*engine_, "AVG_Score[A] <= Prestige[A]?", options);
  ASSERT_TRUE(response.status.ok());
  const EffectEstimate& ate = response.answer.ate->ate;
  EXPECT_TRUE(std::isfinite(ate.std_error));
  EXPECT_LE(ate.ci_low, ate.ci_high);
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// A peer-effect bootstrap runs once and keeps all four effects of each
// replicate. It must give exactly what one run per effect gives, each run
// re-estimating all four effects and keeping one.
TEST(EngineBootstrapTest, PeerEffectsMatchOneRunPerEffect) {
  datagen::Dataset data = test_fixtures::RealisticReviewDataset();
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  ASSERT_TRUE(model.ok()) << model.status();
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data.instance.get(), std::move(*model));
  ASSERT_TRUE(engine.ok()) << engine.status();
  EngineOptions options;
  options.bootstrap_replicates = 10;
  const std::pair<EffectEstimate RelationalEffectsAnswer::*,
                  double RelationalEffects::*>
      effects[] = {
          {&RelationalEffectsAnswer::aie, &RelationalEffects::aie},
          {&RelationalEffectsAnswer::are, &RelationalEffects::are},
          {&RelationalEffectsAnswer::aoe, &RelationalEffects::aoe},
          {&RelationalEffectsAnswer::aie_psi, &RelationalEffects::aie_psi},
      };
  for (int threads : {1, 4}) {
    test_fixtures::ScopedThreads scoped_threads(threads);
    for (const char* text :
         {"AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED",
          "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED"}) {
      SCOPED_TRACE(std::string(text) + " threads=" + std::to_string(threads));
      QueryResponse response = AnswerText(**engine, text, options);
      ASSERT_TRUE(response.status.ok()) << response.status;
      ASSERT_TRUE(response.answer.effects.has_value());
      Result<CausalQuery> query = ParseQuery(text);
      ASSERT_TRUE(query.ok()) << query.status();
      Result<UnitTable> table =
          (*engine)->BuildUnitTableForQuery(*query, options);
      ASSERT_TRUE(table.ok()) << table.status();
      for (const auto& [answer_member, effect_member] : effects) {
        Result<BootstrapResult> want = Bootstrap(
            table->data.num_rows(), options.bootstrap_replicates,
            options.seed,
            [&](const std::vector<size_t>& rows) -> Result<double> {
              CARL_ASSIGN_OR_RETURN(
                  RelationalEffects e,
                  EstimateRelationalEffects(*table,
                                            table->data.SelectRows(rows),
                                            *query->peer_condition,
                                            options.estimator));
              return e.*effect_member;
            });
        ASSERT_TRUE(want.ok()) << want.status();
        const EffectEstimate& got = (*response.answer.effects).*answer_member;
        EXPECT_TRUE(SameBits(got.std_error, want->sd));
        EXPECT_TRUE(SameBits(got.ci_low, want->ci_low));
        EXPECT_TRUE(SameBits(got.ci_high, want->ci_high));
        ASSERT_EQ(got.samples.size(), want->samples.size());
        for (size_t i = 0; i < got.samples.size(); ++i) {
          EXPECT_TRUE(SameBits(got.samples[i], want->samples[i])) << i;
        }
      }
    }
  }
}

TEST_F(EngineToyTest, CriterionCheckRuns) {
  EngineOptions options;
  options.check_criterion = true;
  QueryResponse response =
      AnswerText(*engine_, "AVG_Score[A] <= Prestige[A]?", options);
  ASSERT_TRUE(response.status.ok());
  ASSERT_TRUE(response.answer.ate->criterion_ok.has_value());
  EXPECT_TRUE(*response.answer.ate->criterion_ok);
}

TEST_F(EngineToyTest, UnknownAttributesRejected) {
  for (const char* text :
       {"Ghost[A] <= Prestige[A]?", "AVG_Score[A] <= Ghost[A]?",
        "AVG_Ghost[A] <= Prestige[A]?"}) {
    EXPECT_FALSE(engine_->Answer(QueryRequest(text)).status.ok()) << text;
  }
}

TEST_F(EngineToyTest, AggregateShorthandOverOwnPredicateRejected) {
  // AVG_Qualification over Person while treatment is also on Person:
  // ill-defined self-aggregation.
  EXPECT_FALSE(
      engine_->Answer(QueryRequest("AVG_Qualification[A] <= Prestige[A]?"))
          .status.ok());
}

TEST_F(EngineToyTest, UnitTableExposedForQueries) {
  Result<CausalQuery> query = ParseQuery("AVG_Score[A] <= Prestige[A]?");
  ASSERT_TRUE(query.ok());
  Result<UnitTable> table = engine_->BuildUnitTableForQuery(*query);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->data.num_rows(), 3u);
  EXPECT_TRUE(table->data.HasColumn("peer_t_mean"));
}

TEST_F(EngineToyTest, EstimatorVariantsRun) {
  // The toy's 3 units are too few for propensity estimators to say much,
  // but they must run or fail cleanly (never crash).
  for (EstimatorKind kind :
       {EstimatorKind::kRegression, EstimatorKind::kMatching,
        EstimatorKind::kIpw, EstimatorKind::kStratification}) {
    EngineOptions options;
    options.estimator = kind;
    QueryResponse response =
        AnswerText(*engine_, "AVG_Score[A] <= Prestige[A]?", options);
    if (response.status.ok()) {
      EXPECT_TRUE(std::isfinite(response.answer.ate->ate.value));
    }
  }
}

TEST_F(EngineToyTest, MedianUnificationAggregate) {
  EngineOptions options;
  options.unification_aggregate = AggregateKind::kMedian;
  QueryResponse response =
      AnswerText(*engine_, "Score[S] <= Prestige[A]?", options);
  ASSERT_TRUE(response.status.ok());
  EXPECT_EQ(response.answer.ate->response_attribute, "MEDIAN_Score_unified");
}

}  // namespace
}  // namespace carl
