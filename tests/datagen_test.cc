// Generator shape guards: catch calibration drift in the simulated
// datasets (the Table 3 / Table 4 phenomena depend on these mechanisms).

#include <gtest/gtest.h>

#include "datagen/mimic.h"
#include "datagen/nis.h"
#include "datagen/review.h"
#include "datagen/review_toy.h"
#include "stats/descriptive.h"

namespace carl {
namespace {

std::vector<double> AttributeValues(const Instance& db,
                                    const std::string& attribute) {
  AttributeId aid = *db.schema().FindAttribute(attribute);
  std::vector<double> out;
  for (const auto& [tuple, value] : db.AttributeEntries(aid)) {
    (void)tuple;
    if (value.is_numeric()) out.push_back(value.AsDouble());
  }
  return out;
}

TEST(ReviewToyTest, MatchesFigure2Exactly) {
  Result<datagen::Dataset> data = datagen::MakeReviewToy();
  ASSERT_TRUE(data.ok());
  const Instance& db = *data->instance;
  const Schema& schema = *data->schema;
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Person")), 3u);
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Submission")), 3u);
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Author")), 5u);
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Submitted")), 3u);
  EXPECT_EQ(db.NumRows(*schema.FindPredicate("Conference")), 2u);
  AttributeId qual = *schema.FindAttribute("Qualification");
  EXPECT_DOUBLE_EQ(
      db.GetAttribute(qual, {db.LookupConstant("Bob")})->AsDouble(), 50.0);
}

TEST(MimicGeneratorTest, RatesAndMechanismsInRange) {
  datagen::MimicConfig config;
  config.num_patients = 8000;
  config.num_caregivers = 250;
  Result<datagen::Dataset> data = datagen::GenerateMimic(config);
  ASSERT_TRUE(data.ok());
  const Instance& db = *data->instance;

  std::vector<double> death = AttributeValues(db, "Death");
  std::vector<double> selfpay = AttributeValues(db, "SelfPay");
  std::vector<double> len = AttributeValues(db, "Len");
  ASSERT_EQ(death.size(), config.num_patients);
  // Base mortality around 10-16%, uninsured rate around 5-15%.
  EXPECT_GT(Mean(death), 0.06);
  EXPECT_LT(Mean(death), 0.22);
  EXPECT_GT(Mean(selfpay), 0.04);
  EXPECT_LT(Mean(selfpay), 0.20);
  // Stays are positive with a plausible ICU mean (days, in hours).
  EXPECT_GT(Mean(len), 120.0);
  EXPECT_LT(Mean(len), 400.0);

  // The deferred-admission confounding: self-payers are sicker (Diag).
  std::vector<double> diag = AttributeValues(db, "Diag");
  Result<GroupMeans> diag_by_pay = MeansByGroup(diag, selfpay);
  ASSERT_TRUE(diag_by_pay.ok());
  EXPECT_GT(diag_by_pay->difference, 0.05);

  // Every patient has a caregiver and at least one prescription.
  EXPECT_EQ(db.NumRows(*data->schema->FindPredicate("Care")),
            config.num_patients);
  EXPECT_GE(db.NumRows(*data->schema->FindPredicate("Given")),
            config.num_patients);
}

TEST(NisGeneratorTest, RoutingAndBillingMechanisms) {
  datagen::NisConfig config;
  config.num_hospitals = 150;
  config.num_admissions = 10000;
  Result<datagen::Dataset> data = datagen::GenerateNis(config);
  ASSERT_TRUE(data.ok());
  const Instance& db = *data->instance;

  std::vector<double> to_large = AttributeValues(db, "AdmittedToLarge");
  std::vector<double> severity = AttributeValues(db, "Severity");
  std::vector<double> highbill = AttributeValues(db, "HighBill");
  // Severe patients are routed to large hospitals (the confounder).
  Result<GroupMeans> severity_by_routing =
      MeansByGroup(severity, to_large);
  ASSERT_TRUE(severity_by_routing.ok());
  EXPECT_GT(severity_by_routing->difference, 0.2);
  // High-bill rates near the paper's 64%/31% split.
  Result<GroupMeans> bill_by_routing = MeansByGroup(highbill, to_large);
  ASSERT_TRUE(bill_by_routing.ok());
  EXPECT_NEAR(bill_by_routing->treated_mean, 0.64, 0.08);
  EXPECT_NEAR(bill_by_routing->control_mean, 0.31, 0.08);
}

TEST(NisGeneratorTest, RejectsDegenerateHospitalMix) {
  datagen::NisConfig config;
  config.num_hospitals = 5;
  config.num_admissions = 10;
  config.large_fraction = 0.0;  // no large hospitals possible
  Result<datagen::Dataset> data = datagen::GenerateNis(config);
  EXPECT_FALSE(data.ok());
}

TEST(ReviewGeneratorTest, ConfoundingAndEffectsPresent) {
  datagen::ReviewConfig config;
  config.num_authors = 800;
  config.num_institutions = 40;
  config.num_papers = 4000;
  config.num_venues = 8;
  config.single_blind_fraction = 1.0;
  config.seed = 67;
  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  ASSERT_TRUE(data.ok());
  const Instance& db = *data->dataset.instance;

  std::vector<double> prestige = AttributeValues(db, "Prestige");
  std::vector<double> qual = AttributeValues(db, "Qualification");
  // Prestige is binary and neither empty nor saturated.
  double prestige_rate = Mean(prestige);
  EXPECT_GT(prestige_rate, 0.15);
  EXPECT_LT(prestige_rate, 0.85);
  // Qualification confounds prestige.
  Result<GroupMeans> qual_by_prestige = MeansByGroup(qual, prestige);
  ASSERT_TRUE(qual_by_prestige.ok());
  EXPECT_GT(qual_by_prestige->difference, 5.0);
  // Every paper has exactly one credited author (substitution note).
  EXPECT_EQ(db.NumRows(*data->dataset.schema->FindPredicate("Author")),
            config.num_papers);
  // Collaboration is symmetric.
  PredicateId collab = *data->dataset.schema->FindPredicate("Collaborator");
  for (size_t i = 0; i < std::min<size_t>(50, db.NumRows(collab)); ++i) {
    TupleView row = db.Rows(collab)[i];
    EXPECT_FALSE(db.Match(collab, {0, 1}, {row[1], row[0]}).empty());
  }
}

TEST(ReviewGeneratorTest, SeedChangesData) {
  datagen::ReviewConfig a;
  a.num_authors = 100;
  a.num_papers = 300;
  a.num_venues = 2;
  a.num_institutions = 5;
  a.seed = 1;
  datagen::ReviewConfig b = a;
  b.seed = 2;
  Result<datagen::ReviewData> da = datagen::GenerateReviewData(a);
  Result<datagen::ReviewData> db_ = datagen::GenerateReviewData(b);
  ASSERT_TRUE(da.ok() && db_.ok());
  std::vector<double> sa =
      AttributeValues(*da->dataset.instance, "Score");
  std::vector<double> sb =
      AttributeValues(*db_->dataset.instance, "Score");
  ASSERT_EQ(sa.size(), sb.size());
  EXPECT_NE(Mean(sa), Mean(sb));

  // Same seed reproduces identical data.
  Result<datagen::ReviewData> da2 = datagen::GenerateReviewData(a);
  ASSERT_TRUE(da2.ok());
  EXPECT_EQ(Mean(sa), Mean(AttributeValues(*da2->dataset.instance, "Score")));
}

}  // namespace
}  // namespace carl
