// Model-level tests on the simulated MIMIC-III: the engine must detect the
// paper's adjustment set (parents of SelfPay = demographics + diagnosis)
// and no spurious interference between patients.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/explain.h"
#include "datagen/mimic.h"

namespace carl {
namespace {

class MimicModelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::MimicConfig config;
    config.num_patients = 2500;
    config.num_caregivers = 120;
    config.seed = 77;
    Result<datagen::Dataset> data = datagen::GenerateMimic(config);
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

TEST_F(MimicModelTest, AdjustmentSetIsParentsOfSelfPay) {
  EngineOptions options;
  options.check_criterion = true;
  Result<QueryExplanation> explanation =
      ExplainQuery(engine_.get(), "Death[P] <= SelfPay[P]?", options);
  ASSERT_TRUE(explanation.ok());
  EXPECT_FALSE(explanation->relational);  // no patient interference
  EXPECT_TRUE(explanation->criterion_ok);

  // Every patient has a value of every parent of SelfPay, whatever the
  // value: each own covariate covers every unit.
  ASSERT_EQ(explanation->num_units, 2500u);
  std::vector<std::string> detected;
  for (const CovariateSummary& c : explanation->covariates) {
    EXPECT_EQ(c.role, "own");
    EXPECT_EQ(c.units_covered, explanation->num_units) << c.attribute;
    detected.push_back(c.attribute);
  }
  std::sort(detected.begin(), detected.end());
  // Parents of SelfPay in the model: Eth, Religion, Sex, Age, Diag.
  EXPECT_EQ(detected, (std::vector<std::string>{"Age", "Diag", "Eth",
                                                "Religion", "Sex"}));
}

TEST_F(MimicModelTest, DoseQueryUnifiesPrescriptionsOntoPatients) {
  // Dose lives on Prescription; asking about its effect on patient-level
  // Len requires unification through Given. (The inverse direction —
  // patient treatment, prescription response — is the common one; both
  // exercise the relational-path machinery.)
  QueryResponse response =
      engine_->Answer(QueryRequest("Dose[D] <= SelfPay[P]?"));
  ASSERT_TRUE(response.status.ok());
  const AteAnswer& ate = *response.answer.ate;
  EXPECT_EQ(ate.response_attribute, "AVG_Dose_unified");
  EXPECT_GT(ate.num_units, 1000u);
  // Self-payers are sicker and receive higher doses (naively); adjusting
  // for diagnosis removes most of it. Both estimates stay finite.
  EXPECT_GT(ate.naive.difference, 0.0);
}

TEST_F(MimicModelTest, LengthOfStayEffectIsNegative) {
  QueryResponse response =
      engine_->Answer(QueryRequest("Len[P] <= SelfPay[P]?"));
  ASSERT_TRUE(response.status.ok());
  const AteAnswer& ate = *response.answer.ate;
  EXPECT_LT(ate.ate.value, 0.0);                   // the causal -26h
  EXPECT_LT(ate.naive.difference, ate.ate.value);  // naive exaggerates
}

TEST_F(MimicModelTest, EstimatorsAgreeOnDirection) {
  for (EstimatorKind kind :
       {EstimatorKind::kRegression, EstimatorKind::kIpw,
        EstimatorKind::kStratification}) {
    QueryRequest request("Death[P] <= SelfPay[P]?");
    request.options.estimator = kind;
    QueryResponse response = engine_->Answer(request);
    ASSERT_TRUE(response.status.ok()) << EstimatorKindToString(kind);
    const AteAnswer& ate = *response.answer.ate;
    // Adjusted effect is far below the (confounded) naive difference.
    EXPECT_LT(ate.ate.value, ate.naive.difference * 0.75)
        << EstimatorKindToString(kind);
  }
}

}  // namespace
}  // namespace carl
