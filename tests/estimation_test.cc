// Tests for core/estimation on hand-constructed unit tables with known
// linear generative structure — verifies the ATE ψ-difference conversion,
// the AIE/ARE/AOE decomposition, and the propensity-based estimators.

#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "core/estimation.h"
#include "core/unit_table.h"

namespace carl {
namespace {

// Builds a relational unit table: n units, peer counts 0..4, linear world
//   y = 2 + tau*t + gamma*frac_treated_peers + 0.5*z + noise,
// where z confounds t (P(t=1) depends on z).
UnitTable MakeRelationalTable(size_t n, double tau, double gamma,
                              double noise_sd, uint64_t seed) {
  Rng rng(seed);
  UnitTable table;
  table.relational = true;
  table.peer_count_col = "peer_count";
  table.peer_treated_count_col = "peer_treated_count";
  table.peer_t_cols = {"peer_t_mean", "peer_t_count"};
  table.own_covariate_cols = {"own_Z_mean"};
  table.embedding_kind = EmbeddingKind::kMean;
  table.peer_t_embedding = MakeEmbedding(EmbeddingKind::kMean);
  table.unit_arity = 1;
  table.data = FlatTable({"y", "t", "peer_count", "peer_treated_count",
                          "peer_t_mean", "peer_t_count", "own_Z_mean"});
  for (size_t i = 0; i < n; ++i) {
    double z = rng.Normal();
    double t = rng.Bernoulli(1.0 / (1.0 + std::exp(-1.2 * z))) ? 1.0 : 0.0;
    double peers = static_cast<double>(rng.UniformInt(0, 4));
    double treated = 0.0;
    for (int p = 0; p < static_cast<int>(peers); ++p) {
      if (rng.Bernoulli(0.5)) treated += 1.0;
    }
    double frac = peers > 0 ? treated / peers : 0.0;
    double y = 2.0 + tau * t + gamma * frac + 0.5 * z +
               rng.Normal(0.0, noise_sd);
    table.data.AddRow({y, t, peers, treated, frac, peers, z});
    table.unit_args.push_back(static_cast<SymbolId>(i));
  }
  return table;
}

TEST(EstimateAteTest, ConvertsPsiDifferenceForRelationalData) {
  // ATE(all vs none) = tau + gamma * P(unit has peers): units without
  // peers receive no relational contribution.
  const double tau = 1.5, gamma = 0.8;
  UnitTable table = MakeRelationalTable(4000, tau, gamma, 0.05, 7);
  Result<double> ate =
      EstimateAte(table, table.data, EstimatorKind::kRegression);
  ASSERT_TRUE(ate.ok());
  const std::vector<double>& peers = table.data.Column("peer_count");
  double frac_with_peers = 0.0;
  for (double p : peers) {
    if (p > 0) frac_with_peers += 1.0;
  }
  frac_with_peers /= static_cast<double>(peers.size());
  EXPECT_NEAR(*ate, tau + gamma * frac_with_peers, 0.05);
}

TEST(EstimateAteTest, NonRelationalReducesToCoefficient) {
  UnitTable table;
  table.relational = false;
  table.own_covariate_cols = {"own_Z_mean"};
  table.data = FlatTable({"y", "t", "own_Z_mean"});
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    double z = rng.Normal();
    double t = rng.Bernoulli(1.0 / (1.0 + std::exp(-z))) ? 1.0 : 0.0;
    table.data.AddRow({3.0 - 2.0 * t + 1.0 * z + rng.Normal(0, 0.05), t, z});
  }
  Result<double> ate =
      EstimateAte(table, table.data, EstimatorKind::kRegression);
  ASSERT_TRUE(ate.ok());
  EXPECT_NEAR(*ate, -2.0, 0.02);
}

TEST(EstimateAteTest, PropensityEstimatorsAdjustConfounding) {
  // Strong confounding through z; naive is far from tau, all the
  // propensity-based estimators get close.
  UnitTable table = MakeRelationalTable(8000, 1.0, 0.0, 0.1, 11);
  Result<NaiveContrast> naive = ComputeNaiveContrast(table, table.data);
  ASSERT_TRUE(naive.ok());
  EXPECT_GT(naive->difference, 1.25);  // biased upward by z
  for (EstimatorKind kind :
       {EstimatorKind::kMatching, EstimatorKind::kIpw,
        EstimatorKind::kStratification}) {
    Result<double> ate = EstimateAte(table, table.data, kind);
    ASSERT_TRUE(ate.ok()) << EstimatorKindToString(kind);
    EXPECT_NEAR(*ate, 1.0, 0.2) << EstimatorKindToString(kind);
  }
}

TEST(RelationalEffectsTest, DecompositionRecoversComponents) {
  const double tau = 1.5, gamma = 0.7;
  UnitTable table = MakeRelationalTable(6000, tau, gamma, 0.05, 13);
  // The generative relational effect is linear in the treated fraction,
  // so MORE THAN 50% as condition captures roughly gamma * E[frac | c=1]
  // - gamma * E[frac | c=0]; with ALL/NONE-style conditions on a linear
  // world the indicator regression still splits own vs peer effects.
  PeerCondition cond;
  cond.kind = PeerCondition::Kind::kMoreThanFrac;
  cond.value = 0.5;
  Result<RelationalEffects> effects = EstimateRelationalEffects(
      table, table.data, cond, EstimatorKind::kRegression);
  ASSERT_TRUE(effects.ok());
  EXPECT_NEAR(effects->aie, tau, 0.05);
  EXPECT_GT(effects->are, 0.2);  // positive peer contribution
  EXPECT_NEAR(effects->aoe, effects->aie + effects->are, 1e-12);
  EXPECT_NEAR(effects->aie_psi, tau, 0.05);
}

TEST(RelationalEffectsTest, ThresholdWorldRecoveredExactly) {
  // World where the relational effect is itself a threshold indicator —
  // the synthetic-review generative form. are should match gamma.
  Rng rng(17);
  UnitTable table;
  table.relational = true;
  table.peer_count_col = "peer_count";
  table.peer_treated_count_col = "peer_treated_count";
  table.peer_t_cols = {"peer_t_mean", "peer_t_count"};
  table.embedding_kind = EmbeddingKind::kMean;
  table.peer_t_embedding = MakeEmbedding(EmbeddingKind::kMean);
  table.data = FlatTable({"y", "t", "peer_count", "peer_treated_count",
                          "peer_t_mean", "peer_t_count"});
  const double tau = 1.0, gamma = 0.5;
  for (int i = 0; i < 6000; ++i) {
    double t = rng.Bernoulli(0.5) ? 1.0 : 0.0;
    double peers = static_cast<double>(rng.UniformInt(1, 5));
    double treated = 0.0;
    for (int p = 0; p < static_cast<int>(peers); ++p) {
      if (rng.Bernoulli(0.4)) treated += 1.0;
    }
    double frac = treated / peers;
    double c = frac > 1.0 / 3.0 ? 1.0 : 0.0;
    double y = tau * t + gamma * c + rng.Normal(0.0, 0.05);
    table.data.AddRow({y, t, peers, treated, frac, peers});
  }
  PeerCondition cond;
  cond.kind = PeerCondition::Kind::kMoreThanFrac;
  cond.value = 1.0 / 3.0;
  Result<RelationalEffects> effects = EstimateRelationalEffects(
      table, table.data, cond, EstimatorKind::kRegression);
  ASSERT_TRUE(effects.ok());
  EXPECT_NEAR(effects->aie, tau, 0.01);
  EXPECT_NEAR(effects->are, gamma, 0.01);
  EXPECT_NEAR(effects->aoe, tau + gamma, 0.02);
}

TEST(RelationalEffectsTest, RejectsNonRelationalTable) {
  UnitTable table;
  table.relational = false;
  table.data = FlatTable({"y", "t"});
  table.data.AddRow({1, 1});
  table.data.AddRow({0, 0});
  PeerCondition cond;
  cond.kind = PeerCondition::Kind::kAll;
  Result<RelationalEffects> effects = EstimateRelationalEffects(
      table, table.data, cond, EstimatorKind::kRegression);
  EXPECT_FALSE(effects.ok());
  EXPECT_EQ(effects.status().code(), StatusCode::kFailedPrecondition);
}

TEST(NaiveContrastTest, ComputesGroupStatistics) {
  UnitTable table;
  table.data = FlatTable({"y", "t"});
  table.data.AddRow({10, 1});
  table.data.AddRow({8, 1});
  table.data.AddRow({2, 0});
  table.data.AddRow({4, 0});
  Result<NaiveContrast> naive = ComputeNaiveContrast(table, table.data);
  ASSERT_TRUE(naive.ok());
  EXPECT_DOUBLE_EQ(naive->treated_mean, 9.0);
  EXPECT_DOUBLE_EQ(naive->control_mean, 3.0);
  EXPECT_DOUBLE_EQ(naive->difference, 6.0);
  EXPECT_EQ(naive->n_treated, 2u);
  EXPECT_EQ(naive->n_control, 2u);
  EXPECT_GT(naive->correlation, 0.9);
}

TEST(EstimatorKindTest, ParseRoundTrip) {
  for (EstimatorKind kind :
       {EstimatorKind::kRegression, EstimatorKind::kMatching,
        EstimatorKind::kIpw, EstimatorKind::kStratification}) {
    Result<EstimatorKind> parsed =
        ParseEstimatorKind(EstimatorKindToString(kind));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_TRUE(ParseEstimatorKind("PSM").ok());
  EXPECT_TRUE(ParseEstimatorKind("ols").ok());
  EXPECT_FALSE(ParseEstimatorKind("deep-iv").ok());
}

// Estimation on a row subset (the CATE path used by the Fig 8/10 benches).
TEST(EstimateAteTest, WorksOnRowSubsets) {
  UnitTable table = MakeRelationalTable(4000, 2.0, 0.0, 0.05, 23);
  std::vector<size_t> first_half(2000);
  for (size_t i = 0; i < 2000; ++i) first_half[i] = i;
  Result<double> ate = EstimateAte(table, table.data.SelectRows(first_half),
                                   EstimatorKind::kRegression);
  ASSERT_TRUE(ate.ok());
  EXPECT_NEAR(*ate, 2.0, 0.1);
}

}  // namespace
}  // namespace carl
