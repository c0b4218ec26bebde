// Tests for Algorithm 1: the unit table of the paper's Table 1, covariate
// detection (Theorem 5.2), peers (Def 4.3), and the adjustment-criterion
// check.

#include <gtest/gtest.h>

#include <string>

#include "core/causal_model.h"
#include "core/engine.h"
#include "core/grounding.h"
#include "core/unit_table.h"
#include "datagen/review_toy.h"
#include "fixtures.h"

namespace carl {
namespace {

class UnitTableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Result<datagen::Dataset> data = datagen::MakeReviewToy();
    CARL_CHECK_OK(data.status());
    data_ = std::move(*data);
    Result<RelationalCausalModel> model =
        RelationalCausalModel::Parse(*data_.schema, data_.model_text);
    CARL_CHECK_OK(model.status());
    model_.emplace(std::move(*model));
    Result<GroundedModel> grounded = GroundModel(*data_.instance, *model_);
    CARL_CHECK_OK(grounded.status());
    grounded_.emplace(std::move(*grounded));
  }

  UnitTableRequest Request() {
    UnitTableRequest request;
    request.treatment =
        *model_->extended_schema().FindAttribute("Prestige");
    request.response =
        *model_->extended_schema().FindAttribute("AVG_Score");
    return request;
  }

  size_t RowOf(const UnitTable& table, const std::string& author) {
    SymbolId id = data_.instance->LookupConstant(author);
    const RelationView units = table.units();
    for (size_t r = 0; r < units.size(); ++r) {
      if (units[r] == TupleView(Tuple{id})) return r;
    }
    CARL_CHECK(false) << "author not in unit table: " << author;
    return 0;
  }

  datagen::Dataset data_;
  std::optional<RelationalCausalModel> model_;
  std::optional<GroundedModel> grounded_;
};

// The paper's Table 1, column by column.
TEST_F(UnitTableTest, ReproducesTable1) {
  Result<UnitTable> table = BuildUnitTable(*grounded_, Request());
  ASSERT_TRUE(table.ok());
  ASSERT_EQ(table->data.num_rows(), 3u);
  EXPECT_TRUE(table->relational);
  EXPECT_EQ(table->dropped_units, 0u);

  const FlatTable& d = table->data;
  size_t bob = RowOf(*table, "Bob");
  size_t carlos = RowOf(*table, "Carlos");
  size_t eva = RowOf(*table, "Eva");

  // Outcome AVG_Score: Bob 0.75, Carlos 0.1, Eva 0.41667.
  const std::vector<double>& y = d.Column("y");
  EXPECT_NEAR(y[bob], 0.75, 1e-12);
  EXPECT_NEAR(y[carlos], 0.1, 1e-12);
  EXPECT_NEAR(y[eva], (0.75 + 0.4 + 0.1) / 3.0, 1e-12);

  // Own treatment.
  const std::vector<double>& t = d.Column("t");
  EXPECT_EQ(t[bob], 1.0);
  EXPECT_EQ(t[carlos], 0.0);
  EXPECT_EQ(t[eva], 1.0);

  // Embedded coauthors' treatments (mean): Bob 1 (Eva), Carlos 1 (Eva),
  // Eva 0.5 (Bob=1, Carlos=0) — Table 1's "Prestige (AVG)" column.
  const std::vector<double>& peer_t = d.Column("peer_t_mean");
  EXPECT_NEAR(peer_t[bob], 1.0, 1e-12);
  EXPECT_NEAR(peer_t[carlos], 1.0, 1e-12);
  EXPECT_NEAR(peer_t[eva], 0.5, 1e-12);

  // Centrality (COUNT): 1, 1, 2.
  const std::vector<double>& count = d.Column("peer_count");
  EXPECT_EQ(count[bob], 1.0);
  EXPECT_EQ(count[carlos], 1.0);
  EXPECT_EQ(count[eva], 2.0);

  // Embedded collaborators' h-index (AVG of peers' Qualification):
  // Bob 2 (Eva), Carlos 2 (Eva), Eva 35 ((50+20)/2).
  const std::vector<double>& peer_qual = d.Column("peer_Qualification_mean");
  EXPECT_NEAR(peer_qual[bob], 2.0, 1e-12);
  EXPECT_NEAR(peer_qual[carlos], 2.0, 1e-12);
  EXPECT_NEAR(peer_qual[eva], 35.0, 1e-12);

  // Own covariates: the unit's own qualification (parent of Prestige).
  const std::vector<double>& own_qual = d.Column("own_Qualification_mean");
  EXPECT_NEAR(own_qual[bob], 50.0, 1e-12);
  EXPECT_NEAR(own_qual[carlos], 20.0, 1e-12);
  EXPECT_NEAR(own_qual[eva], 2.0, 1e-12);

  // Treated-peer counts: Bob 1 (Eva), Carlos 1, Eva 1 (Bob only).
  const std::vector<double>& treated = d.Column("peer_treated_count");
  EXPECT_EQ(treated[bob], 1.0);
  EXPECT_EQ(treated[carlos], 1.0);
  EXPECT_EQ(treated[eva], 1.0);
}

TEST_F(UnitTableTest, ColumnBookkeepingConsistent) {
  Result<UnitTable> table = BuildUnitTable(*grounded_, Request());
  ASSERT_TRUE(table.ok());
  for (const std::string& col : table->AllCovariateCols()) {
    EXPECT_TRUE(table->data.HasColumn(col)) << col;
  }
  for (const std::string& col : table->peer_t_cols) {
    EXPECT_TRUE(table->data.HasColumn(col)) << col;
  }
  EXPECT_EQ(table->embedding_kind, EmbeddingKind::kMean);
  ASSERT_NE(table->peer_t_embedding, nullptr);
  EXPECT_EQ(table->peer_t_embedding->dims(), table->peer_t_cols.size());
}

TEST_F(UnitTableTest, BaseResponseOnSamePredicate) {
  // Prestige -> Qualification? No: use Qualification as response is not
  // binary-treatment related; instead test base response Prestige units:
  // response = AVG_Score is aggregate; base case: treatment Prestige,
  // response Qualification (both on Person). Units have no peers then
  // (no directed path Prestige[p] -> Qualification[x]).
  UnitTableRequest request;
  request.treatment = *model_->extended_schema().FindAttribute("Prestige");
  request.response =
      *model_->extended_schema().FindAttribute("Qualification");
  Result<UnitTable> table = BuildUnitTable(*grounded_, request);
  ASSERT_TRUE(table.ok());
  EXPECT_FALSE(table->relational);
  EXPECT_EQ(table->data.num_rows(), 3u);
  EXPECT_TRUE(table->peer_t_cols.empty());
}

TEST_F(UnitTableTest, FilterRestrictsSources) {
  // Only submissions at the single-blind venue (s1): Carlos has no such
  // submission, so only Bob and Eva remain; Eva's AVG is s1's score and
  // her peer set shrinks to Bob.
  UnitTableRequest request = Request();
  SymbolId s1 = data_.instance->LookupConstant("s1");
  request.allowed_sources.emplace(1);
  request.allowed_sources->InsertDistinct(Tuple{s1});
  Result<UnitTable> table = BuildUnitTable(*grounded_, request);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->data.num_rows(), 2u);
  EXPECT_EQ(table->dropped_units, 1u);
  size_t eva = RowOf(*table, "Eva");
  EXPECT_NEAR(table->data.Column("y")[eva], 0.75, 1e-12);
  EXPECT_EQ(table->data.Column("peer_count")[eva], 1.0);
}

TEST_F(UnitTableTest, IncludeIsolatedUnitsToggle) {
  UnitTableRequest request = Request();
  UnitTableOptions options;
  options.include_isolated_units = false;
  // Everyone has peers in the toy data, so nothing is dropped...
  Result<UnitTable> all = BuildUnitTable(*grounded_, request, options);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->data.num_rows(), 3u);
  // ...but restricting sources to s2 leaves only Eva (single author, hence
  // no peers), who is then dropped as isolated: the build fails with a
  // clear precondition error rather than returning an empty table.
  SymbolId s2 = data_.instance->LookupConstant("s2");
  request.allowed_sources.emplace(1);
  request.allowed_sources->InsertDistinct(Tuple{s2});
  Result<UnitTable> empty = BuildUnitTable(*grounded_, request, options);
  ASSERT_FALSE(empty.ok());
  EXPECT_EQ(empty.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(UnitTableTest, RejectsUnunifiedResponse) {
  UnitTableRequest request;
  request.treatment = *model_->extended_schema().FindAttribute("Prestige");
  request.response = *model_->extended_schema().FindAttribute("Score");
  Result<UnitTable> table = BuildUnitTable(*grounded_, request);
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(UnitTableTest, RejectsNonBinaryTreatment) {
  UnitTableRequest request;
  request.treatment =
      *model_->extended_schema().FindAttribute("Qualification");
  request.response = *model_->extended_schema().FindAttribute("AVG_Score");
  Result<UnitTable> table = BuildUnitTable(*grounded_, request);
  EXPECT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(UnitTableTest, EmbeddingKindChangesColumns) {
  UnitTableRequest request = Request();
  UnitTableOptions options;
  options.embedding = EmbeddingKind::kPadding;
  Result<UnitTable> table = BuildUnitTable(*grounded_, request, options);
  ASSERT_TRUE(table.ok());
  // Max peer count is 2 (Eva) -> padding width 2.
  EXPECT_EQ(table->peer_t_cols.size(), 2u);
  EXPECT_TRUE(table->data.HasColumn("peer_t_p0"));
  // Eva's padded peer treatments sorted descending: {1, 0}.
  size_t eva = RowOf(*table, "Eva");
  EXPECT_EQ(table->data.Column("peer_t_p0")[eva], 1.0);
  EXPECT_EQ(table->data.Column("peer_t_p1")[eva], 0.0);
  // Bob has one peer; second slot is the out-of-band marker.
  size_t bob = RowOf(*table, "Bob");
  EXPECT_EQ(table->data.Column("peer_t_p1")[bob], -1.0);
}

// Theorem 5.2's criterion holds on the toy model: conditioning on the
// (observed) Qualification parents plus the treatment nodes d-separates
// the response from the treatments' parents, for each unit and for all
// three at once.
TEST_F(UnitTableTest, AdjustmentCriterionHolds) {
  UnitTableRequest request = Request();
  Tuple all;
  for (const char* who : {"Bob", "Carlos", "Eva"}) {
    Tuple unit{data_.instance->LookupConstant(who)};
    all.push_back(unit[0]);
    Result<bool> ok = CheckAdjustmentCriterion(
        *grounded_, request, RelationView(unit.data(), 1, 1));
    ASSERT_TRUE(ok.ok()) << who;
    EXPECT_TRUE(*ok) << who;
  }
  Result<bool> ok = CheckAdjustmentCriterion(
      *grounded_, request, RelationView(all.data(), 1, all.size()));
  ASSERT_TRUE(ok.ok());
  EXPECT_TRUE(*ok);
  // A submission is no Person unit: it has no treatment node to check.
  Tuple submission{data_.instance->LookupConstant("s1")};
  EXPECT_EQ(CheckAdjustmentCriterion(*grounded_, request,
                                     RelationView(submission.data(), 1, 1))
                .status()
                .code(),
            StatusCode::kNotFound);
}

// A build that keeps no unit names what dropped them.
Status AnswerStatus(const datagen::Dataset& data, const std::string& query) {
  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data.schema, data.model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data.instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());
  return (*engine)->Answer(QueryRequest(query)).status;
}

TEST(UnitTableEmptyTest, PeerlessPeerEffectQueryNamesIsolation) {
  // Every MIMIC unit has treatment and response values, but none has a
  // relational peer, and a peer-effect query drops isolated units.
  Status status = AnswerStatus(test_fixtures::MiniMimicDataset(600, 30),
                               "Len[P] <= SelfPay[P]? WHEN ALL PEERS TREATED");
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(status.message().find("no unit has a relational peer"),
            std::string::npos)
      << status.ToString();
  EXPECT_NE(status.message().find("include_isolated_units"),
            std::string::npos)
      << status.ToString();
}

TEST(UnitTableEmptyTest, UnvaluedResponseNamesMissingValues) {
  // CollabPrestigious is latent: no unit has a response value.
  Status status =
      AnswerStatus(test_fixtures::SynthReviewDataset(200, 10, 1500, 8),
                   "CollabPrestigious[A] <= Prestige[A]?");
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(
      status.message().find("no unit has both treatment and response values"),
      std::string::npos)
      << status.ToString();
}

}  // namespace
}  // namespace carl
