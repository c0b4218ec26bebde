// Failure-injection and robustness tests: the engine must degrade
// gracefully under missing data, degenerate treatment assignments, and
// unusual peer conditions — counting drops rather than crashing, and
// returning actionable Status errors when estimation is impossible.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/engine.h"
#include "datagen/review.h"

namespace carl {
namespace {

constexpr char kAteQuery[] = "AVG_Score[A] <= Prestige[A]?";

datagen::ReviewConfig SmallConfig(uint64_t seed) {
  datagen::ReviewConfig config;
  config.num_authors = 300;
  config.num_institutions = 15;
  config.num_papers = 1500;
  config.num_venues = 4;
  config.single_blind_fraction = 1.0;
  config.seed = seed;
  return config;
}

class RobustnessTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<datagen::ReviewData> data =
        datagen::GenerateReviewData(SmallConfig(71));
    CARL_CHECK_OK(data.status());
    data_.emplace(std::move(*data));
  }

  std::unique_ptr<CarlEngine> MakeEngine() {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *data_->dataset.schema, data_->dataset.model_text);
    CARL_CHECK_OK(model.status());
    Result<std::unique_ptr<CarlEngine>> engine = CarlEngine::Create(
        data_->dataset.instance.get(), std::move(*model));
    CARL_CHECK_OK(engine.status());
    return std::move(*engine);
  }

  // Clears a fraction of one attribute's values by resetting them to null.
  void DeleteAttributeFraction(const std::string& attribute, double fraction,
                               uint64_t seed) {
    Instance& db = *data_->dataset.instance;
    AttributeId aid = *data_->dataset.schema->FindAttribute(attribute);
    Rng rng(seed);
    std::vector<Tuple> to_clear;
    for (const auto& [tuple, value] : db.AttributeEntries(aid)) {
      (void)value;
      if (rng.Bernoulli(fraction)) to_clear.push_back(tuple);
    }
    for (const Tuple& t : to_clear) {
      CARL_CHECK_OK(db.SetAttributeIds(aid, t, Value::Null()));
    }
  }

  std::optional<datagen::ReviewData> data_;
};

TEST_F(RobustnessTest, MissingResponsesAreDroppedNotFatal) {
  DeleteAttributeFraction("Score", 0.30, 5);
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  QueryResponse response = engine->Answer(QueryRequest(kAteQuery));
  ASSERT_TRUE(response.status.ok());
  // Authors whose every paper lost its score drop out; most remain, and
  // the estimate stays finite and in a sane range.
  EXPECT_GT(response.answer.ate->num_units, 100u);
  EXPECT_TRUE(std::isfinite(response.answer.ate->ate.value));
  EXPECT_LT(std::abs(response.answer.ate->ate.value), 5.0);
}

TEST_F(RobustnessTest, MissingTreatmentsDropUnits) {
  DeleteAttributeFraction("Prestige", 0.25, 6);
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  QueryResponse response = engine->Answer(QueryRequest(kAteQuery));
  ASSERT_TRUE(response.status.ok());
  EXPECT_GT(response.answer.ate->dropped_units, 30u);
  EXPECT_TRUE(std::isfinite(response.answer.ate->ate.value));
}

TEST_F(RobustnessTest, MissingCovariatesStillEstimable) {
  // Qualification is the detected confounder; deleting some of its values
  // shrinks the embedded covariate groups but must not kill the query.
  DeleteAttributeFraction("Qualification", 0.40, 7);
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  QueryResponse response = engine->Answer(QueryRequest(kAteQuery));
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(std::isfinite(response.answer.ate->ate.value));
}

TEST_F(RobustnessTest, AllTreatedIsCleanError) {
  Instance& db = *data_->dataset.instance;
  AttributeId prestige = *data_->dataset.schema->FindAttribute("Prestige");
  std::vector<Tuple> units;
  for (const auto& [tuple, value] : db.AttributeEntries(prestige)) {
    (void)value;
    units.push_back(tuple);
  }
  for (const Tuple& t : units) {
    CARL_CHECK_OK(db.SetAttributeIds(prestige, t, Value(true)));
  }
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  QueryResponse response = engine->Answer(QueryRequest(kAteQuery));
  EXPECT_EQ(response.status.code(), StatusCode::kFailedPrecondition);
}

TEST_F(RobustnessTest, NonBinaryTreatmentIsCleanError) {
  Instance& db = *data_->dataset.instance;
  AttributeId prestige = *data_->dataset.schema->FindAttribute("Prestige");
  Tuple first = db.AttributeEntries(prestige).front().first;
  CARL_CHECK_OK(db.SetAttributeIds(prestige, first, Value(0.5)));
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  QueryResponse response = engine->Answer(QueryRequest(kAteQuery));
  EXPECT_EQ(response.status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(response.status.message().find("binary"), std::string::npos);
}

TEST_F(RobustnessTest, CountBasedPeerConditions) {
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  for (const char* cond :
       {"AT LEAST 1", "AT MOST 2", "EXACTLY 1", "LESS THAN 50%"}) {
    std::string query = std::string(
        "AVG_Score[A] <= Prestige[A]? WHEN ") + cond + " PEERS TREATED";
    QueryResponse response = engine->Answer(QueryRequest(query));
    ASSERT_TRUE(response.status.ok()) << cond;
    const RelationalEffectsAnswer& effects = *response.answer.effects;
    EXPECT_TRUE(std::isfinite(effects.are.value)) << cond;
    EXPECT_NEAR(effects.aoe.value, effects.aie.value + effects.are.value,
                1e-9)
        << cond;
  }
}

TEST_F(RobustnessTest, IncludeIsolatedUnitsOption) {
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  QueryRequest request("AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED");
  request.options.include_isolated_units = true;
  QueryResponse with_isolated = engine->Answer(request);
  request.options.include_isolated_units = false;
  QueryResponse without_isolated = engine->Answer(request);
  ASSERT_TRUE(with_isolated.status.ok());
  ASSERT_TRUE(without_isolated.status.ok());
  EXPECT_GE(with_isolated.answer.effects->num_units,
            without_isolated.answer.effects->num_units);
}

TEST_F(RobustnessTest, BootstrapSurvivesSmallStrata) {
  std::unique_ptr<CarlEngine> engine = MakeEngine();
  QueryRequest request(kAteQuery);
  request.options.bootstrap_replicates = 60;
  request.options.estimator = EstimatorKind::kMatching;
  QueryResponse response = engine->Answer(request);
  // Matching may fail on individual resamples; the bootstrap reports that
  // via fewer samples rather than failing the query.
  if (response.status.ok()) {
    EXPECT_LE(response.answer.ate->ate.samples.size(), 60u);
  }
}

TEST_F(RobustnessTest, DeterministicAcrossRuns) {
  std::unique_ptr<CarlEngine> engine1 = MakeEngine();
  std::unique_ptr<CarlEngine> engine2 = MakeEngine();
  QueryResponse a1 = engine1->Answer(QueryRequest(kAteQuery));
  QueryResponse a2 = engine2->Answer(QueryRequest(kAteQuery));
  ASSERT_TRUE(a1.status.ok() && a2.status.ok());
  EXPECT_DOUBLE_EQ(a1.answer.ate->ate.value, a2.answer.ate->ate.value);
  EXPECT_EQ(a1.answer.ate->num_units, a2.answer.ate->num_units);
}

}  // namespace
}  // namespace carl
