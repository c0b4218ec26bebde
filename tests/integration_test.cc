// Integration tests: full pipeline on generated datasets — the paper's
// §6.3 claim in miniature. CaRL must recover generative ground truth on
// synthetic review data where naive contrasts are biased, and must show
// the qualitative Table 3 patterns on simulated MIMIC/NIS.

#include <gtest/gtest.h>

#include <cmath>

#include "core/engine.h"
#include "core/ground_truth.h"
#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"

namespace carl {
namespace {

datagen::ReviewConfig SmallSingleBlind() {
  datagen::ReviewConfig config;
  config.num_authors = 400;
  config.num_institutions = 20;
  config.num_papers = 2400;
  config.num_venues = 4;
  config.single_blind_fraction = 1.0;  // all venues biased
  config.tau_iso_single = 1.0;
  config.tau_rel = 0.5;
  config.seed = 31;
  return config;
}

class SyntheticReviewTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<datagen::ReviewData> data =
        datagen::GenerateReviewData(SmallSingleBlind());
    CARL_CHECK_OK(data.status());
    data_.emplace(std::move(*data));
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *data_->dataset.schema, data_->dataset.model_text);
    CARL_CHECK_OK(model.status());
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(data_->dataset.instance.get(), std::move(*model));
    CARL_CHECK_OK(engine.status());
    engine_ = std::move(*engine);
  }

  std::optional<datagen::ReviewData> data_;
  std::unique_ptr<CarlEngine> engine_;
};

TEST_F(SyntheticReviewTest, GeneratorShapes) {
  const Instance& db = *data_->dataset.instance;
  const Schema& schema = *data_->dataset.schema;
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Person")), 400u);
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Submission")), 2400u);
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Author")), 2400u);
  EXPECT_GT(db.NumRows(*schema.FindPredicate("Collaborator")), 100u);
  // Observed attributes written; latent ones not.
  AttributeId score = *schema.FindAttribute("Score");
  EXPECT_EQ(db.NumAttributeValues(score), 2400u);
  AttributeId quality = *schema.FindAttribute("Quality");
  EXPECT_EQ(db.NumAttributeValues(quality), 0u);
}

TEST_F(SyntheticReviewTest, RecoversIsolatedAndRelationalEffects) {
  QueryResponse response = engine_->Answer(QueryRequest(
      "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED"));
  ASSERT_TRUE(response.status.ok());
  const RelationalEffectsAnswer& effects = *response.answer.effects;

  // Interventional ground truth from the generating SCM.
  AttributeId prestige =
      *engine_->model().extended_schema().FindAttribute("Prestige");
  AttributeId avg_score =
      *engine_->model().extended_schema().FindAttribute("AVG_Score");
  GroundTruthOptions truth_options;
  truth_options.max_units = 150;
  Result<GroundTruthEffects> truth =
      ComputeGroundTruth(engine_->grounded(), data_->scm, prestige,
                         avg_score, truth_options);
  ASSERT_TRUE(truth.ok());

  // The generator was built so these are ~1.0 and ~0.5 (documented).
  EXPECT_NEAR(truth->aie, 1.0, 0.05);
  EXPECT_NEAR(truth->are, 0.5, 0.1);

  // CaRL estimates track the truth (paper Table 4's claim).
  EXPECT_NEAR(effects.aie.value, truth->aie, 0.25);
  EXPECT_NEAR(effects.are.value, truth->are, 0.3);
  EXPECT_NEAR(effects.aoe.value, effects.aie.value + effects.are.value,
              1e-9);
  EXPECT_NEAR(effects.aie_psi.value, truth->aie, 0.3);
}

TEST_F(SyntheticReviewTest, NaiveContrastIsConfounded) {
  QueryResponse response =
      engine_->Answer(QueryRequest("AVG_Score[A] <= Prestige[A]?"));
  ASSERT_TRUE(response.status.ok());
  const AteAnswer& ate = *response.answer.ate;
  // Qualification confounds prestige and score: the naive contrast
  // overshoots the adjusted isolated effect.
  EXPECT_GT(ate.naive.difference, 1.1);
  EXPECT_GT(ate.naive.correlation, 0.05);
  EXPECT_TRUE(ate.relational);
  // ATE (all treated vs none) exceeds the isolated effect because peers
  // contribute the relational term; it stays finite and positive.
  EXPECT_GT(ate.ate.value, 0.5);
  EXPECT_LT(ate.ate.value, 3.0);
}

TEST_F(SyntheticReviewTest, CriterionHoldsOnReviewModel) {
  QueryRequest request("AVG_Score[A] <= Prestige[A]?");
  request.options.check_criterion = true;
  QueryResponse response = engine_->Answer(request);
  ASSERT_TRUE(response.status.ok());
  ASSERT_TRUE(response.answer.ate->criterion_ok.has_value());
  EXPECT_TRUE(*response.answer.ate->criterion_ok);
}

TEST_F(SyntheticReviewTest, DoubleBlindHasNoIsolatedEffect) {
  datagen::ReviewConfig config = SmallSingleBlind();
  config.single_blind_fraction = 0.0;  // all double-blind
  config.seed = 33;
  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      *data->dataset.schema, data->dataset.model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->dataset.instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  QueryResponse response = (*engine)->Answer(QueryRequest(
      "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED"));
  ASSERT_TRUE(response.status.ok());
  const RelationalEffectsAnswer& effects = *response.answer.effects;
  // Isolated effect ~ 0 under double-blind; relational effect persists.
  EXPECT_NEAR(effects.aie.value, 0.0, 0.2);
  EXPECT_NEAR(effects.are.value, 0.5, 0.3);
  // The naive contrast still shows a (spurious) positive association.
  EXPECT_GT(effects.naive.difference, 0.15);
}

TEST(MimicIntegrationTest, NaiveMortalityGapVanishesUnderAdjustment) {
  datagen::MimicConfig config;
  config.num_patients = 6000;
  config.num_caregivers = 200;
  config.seed = 41;
  Result<datagen::Dataset> data = datagen::GenerateMimic(config);
  CARL_CHECK_OK(data.status());
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  // Query (34-a): mortality.
  QueryResponse death =
      (*engine)->Answer(QueryRequest("Death[P] <= SelfPay[P]?"));
  ASSERT_TRUE(death.status.ok());
  const AteAnswer& ate = *death.answer.ate;
  EXPECT_FALSE(ate.relational);  // no interference between patients
  EXPECT_GT(ate.naive.difference, 0.03);  // self-payers die visibly more...
  EXPECT_LT(ate.ate.value, ate.naive.difference * 0.55);  // ...mostly bias
  EXPECT_GT(ate.ate.value, -0.025);  // "almost no effect" (paper: +0.5pp)

  // Query (34-b): length of stay. Both negative, naive more extreme.
  QueryResponse len = (*engine)->Answer(QueryRequest("Len[P] <= SelfPay[P]?"));
  ASSERT_TRUE(len.status.ok());
  EXPECT_LT(len.answer.ate->naive.difference, len.answer.ate->ate.value);
  EXPECT_LT(len.answer.ate->ate.value, 0.0);
}

TEST(NisIntegrationTest, SignReversalOnHighBill) {
  datagen::NisConfig config;
  config.num_hospitals = 120;
  config.num_admissions = 12000;
  config.seed = 43;
  Result<datagen::Dataset> data = datagen::GenerateNis(config);
  CARL_CHECK_OK(data.status());
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  QueryResponse response =
      (*engine)->Answer(QueryRequest("HighBill[P] <= AdmittedToLarge[P]?"));
  ASSERT_TRUE(response.status.ok());
  const AteAnswer& ate = *response.answer.ate;
  // Paper's Simpson-style reversal: naive strongly positive, ATE negative.
  EXPECT_GT(ate.naive.difference, 0.2);
  EXPECT_LT(ate.ate.value, 0.0);
}

TEST(ReviewRealisticTest, MixedVenueFiltersWork) {
  datagen::ReviewConfig config = datagen::RealisticReviewConfig();
  config.num_authors = 600;
  config.num_papers = 1200;
  config.num_institutions = 40;
  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      *data->dataset.schema, data->dataset.model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->dataset.instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  QueryResponse single = (*engine)->Answer(QueryRequest(
      R"(AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = TRUE)"));
  QueryResponse dbl = (*engine)->Answer(QueryRequest(
      R"(AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = FALSE)"));
  ASSERT_TRUE(single.status.ok());
  ASSERT_TRUE(dbl.status.ok());
  const AteAnswer& single_ate = *single.answer.ate;
  const AteAnswer& dbl_ate = *dbl.answer.ate;
  // Single-blind shows the prestige effect; double-blind is ~0 (the paper's
  // Fig 7a contrast); both correlations remain positive.
  EXPECT_GT(single_ate.ate.value, dbl_ate.ate.value);
  EXPECT_NEAR(dbl_ate.ate.value, 0.0, 0.25);
  EXPECT_GT(single_ate.naive.correlation, 0.0);
  EXPECT_GT(dbl_ate.naive.correlation, 0.0);
}

}  // namespace
}  // namespace carl
