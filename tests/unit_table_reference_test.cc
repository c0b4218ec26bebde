// Differential tests of Algorithm 1 and the relational ATE contrast.
//
// BuildUnitTable must match the plain per-unit reference
// (test_fixtures::UnitTableByUnit) bit for bit — column names and bits,
// units, dropped_units, relational, and the three column lists — at
// threads {1, 2, 4}, for every embedding with include_isolated_units on
// and off. The requests cover base responses (MIMIC, NIS), an aggregate
// response (REVIEW), a WHERE-filtered aggregate response, and the review
// toy. EstimateAte's ψ contrast must equal the per-unit loop it replaces.
// CheckAdjustmentCriterion must agree with the per-unit criterion
// reference on every unit, one unit at a time and over whole tables.

#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <string>
#include <vector>

#include "fixtures.h"

namespace carl {
namespace {

using test_fixtures::ScopedThreads;

struct Workload {
  const char* name;
  const datagen::Dataset* data;
  const char* query;
  // Appended to the dataset's model text.
  const char* extra_rules = "";
};

const EmbeddingKind kEmbeddings[] = {EmbeddingKind::kMean,
                                     EmbeddingKind::kMedian,
                                     EmbeddingKind::kMoments,
                                     EmbeddingKind::kPadding};

// The request `query` resolves to when its response is already on the
// treatment's predicate. A WHERE filter becomes the allowed response
// sources: the filter joined with the source predicate's unit atom on the
// one filter variable of that entity type, `link_var`.
UnitTableRequest RequestFor(const GroundedModel& grounded,
                            const CausalQuery& query,
                            const std::string& link_var) {
  const Schema& schema = grounded.schema();
  UnitTableRequest request;
  request.treatment = *schema.FindAttribute(query.treatment.attribute);
  request.response = *schema.FindAttribute(query.response.attribute);
  if (query.where.empty()) return request;
  AttributeId source = request.response;
  Result<const AggregateRule*> rule =
      grounded.model().FindAggregateRule(query.response.attribute);
  if (rule.ok()) source = *schema.FindAttribute((*rule)->source.attribute);
  ConjunctiveQuery filter = query.where;
  Atom unit_atom;
  unit_atom.predicate =
      schema.predicate(schema.attribute(source).predicate).name;
  unit_atom.args = {Term::Var(link_var)};
  filter.atoms.push_back(unit_atom);
  Result<BindingTable> allowed =
      QueryEvaluator(&grounded.instance()).Evaluate(filter, {link_var});
  CARL_CHECK_OK(allowed.status());
  request.allowed_sources = std::move(*allowed);
  return request;
}

class UnitTableReferenceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    mimic_ = new datagen::Dataset(test_fixtures::MiniMimicDataset(1500, 60));
    nis_ = new datagen::Dataset(test_fixtures::MiniNisDataset(3000, 40));
    review_ = new datagen::Dataset(
        test_fixtures::SynthReviewDataset(400, 20, 3000, 12));
    toy_ = new datagen::Dataset(test_fixtures::ReviewToyDataset());
  }
  static void TearDownTestSuite() {
    for (datagen::Dataset* d : {mimic_, nis_, review_, toy_}) delete d;
  }

  static std::vector<Workload> Workloads() {
    return {
        {"MIMIC", mimic_, "Len[P] <= SelfPay[P]?"},
        {"NIS", nis_, "HighBill[P] <= AdmittedToLarge[P]?"},
        {"REVIEW", review_, "AVG_Score[A] <= Prestige[A]?"},
        {"REVIEW-WHERE", review_,
         "AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), "
         "Blind[C] = TRUE"},
        {"TOY", toy_, "AVG_Score[A] <= Prestige[A]?"},
        // A parent shared by a unit's treatment and its coauthors': the
        // venue's Blind node must land once, as an own covariate.
        {"REVIEW-SHARED", review_, "AVG_Score[A] <= Prestige[A]?",
         "Prestige[A] <= Blind[C] WHERE Author(A, S), Submitted(S, C)"},
        // The treatment cannot reach the response (Qualification causes
        // Prestige), so the lifted peer search prunes at the start.
        {"REVIEW-UNREACHED", review_, "Qualification[A] <= Prestige[A]?"},
        // Peers only through an aggregate attribute three rule hops from
        // the treatment: SelfPay[p] -> AVG_SelfPay[c] -> Doc[c] ->
        // Dose[d] -> Len[x]. A lifted search that skips aggregate-rule
        // edges, or stops one hop from the treatment, finds none.
        {"MIMIC-AGGREGATE-PATH", mimic_, "Len[P] <= SelfPay[P]?",
         "AVG_SelfPay[C] <= SelfPay[P] WHERE Care(C, P)\n"
         "Doc[C] <= AVG_SelfPay[C] WHERE Caregiver(C)"},
    };
  }

  // Grounds the dataset's model plus `extra_rules`; the grounding refers
  // to model_.
  GroundedModel Ground(const datagen::Dataset& data,
                       const std::string& extra_rules = "") {
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *data.schema, data.model_text + "\n" + extra_rules);
    CARL_CHECK_OK(model.status());
    model_.emplace(std::move(*model));
    Result<GroundedModel> grounded = GroundModel(*data.instance, *model_);
    CARL_CHECK_OK(grounded.status());
    return std::move(*grounded);
  }

  std::optional<RelationalCausalModel> model_;

  static datagen::Dataset* mimic_;
  static datagen::Dataset* nis_;
  static datagen::Dataset* review_;
  static datagen::Dataset* toy_;
};

datagen::Dataset* UnitTableReferenceTest::mimic_ = nullptr;
datagen::Dataset* UnitTableReferenceTest::nis_ = nullptr;
datagen::Dataset* UnitTableReferenceTest::review_ = nullptr;
datagen::Dataset* UnitTableReferenceTest::toy_ = nullptr;

TEST_F(UnitTableReferenceTest, MatchesPerUnitReference) {
  for (const Workload& wl : Workloads()) {
    GroundedModel grounded = Ground(*wl.data, wl.extra_rules);
    Result<CausalQuery> query = ParseQuery(wl.query);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    const UnitTableRequest request = RequestFor(grounded, *query, "S");
    size_t compared = 0;
    for (EmbeddingKind kind : kEmbeddings) {
      for (bool isolated : {true, false}) {
        SCOPED_TRACE(std::string(wl.name) + " " +
                     EmbeddingKindToString(kind) +
                     (isolated ? " with" : " without") + " isolated units");
        UnitTableOptions options;
        options.embedding = kind;
        options.include_isolated_units = isolated;
        Result<UnitTable> want =
            test_fixtures::UnitTableByUnit(grounded, request, options);
        for (int threads : {1, 2, 4}) {
          SCOPED_TRACE("threads " + std::to_string(threads));
          ScopedThreads scoped(threads);
          Result<UnitTable> got = BuildUnitTable(grounded, request, options);
          ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString();
          if (!want.ok()) {
            EXPECT_EQ(got.status().code(), want.status().code());
            continue;
          }
          EXPECT_EQ(test_fixtures::UnitTableDiff(*want, *got), "");
          ++compared;
        }
      }
    }
    // Every workload compares real tables; only the peerless base
    // responses fail without isolated units.
    EXPECT_GE(compared, 12u) << wl.name;
  }
}

// EstimateAte projects ψ once per distinct peer count; the total must
// equal the per-unit loop's bit for bit, on the full table and on a
// bootstrap-style row subset.
double PerUnitAte(const UnitTable& table, const FlatTable& view) {
  std::vector<std::string> x_cols{table.t_col};
  for (const std::vector<std::string>* cols :
       {&table.peer_t_cols, &table.own_covariate_cols,
        &table.peer_covariate_cols}) {
    x_cols.insert(x_cols.end(), cols->begin(), cols->end());
  }
  Result<OlsFit> fit = FitOls(view, table.y_col, x_cols);
  CARL_CHECK_OK(fit.status());
  const double beta_t = fit->CoefficientOr(table.t_col, 0.0);
  double total = 0.0;
  for (double pc : view.Column(table.peer_count_col)) {
    size_t n = static_cast<size_t>(pc);
    double effect = beta_t;
    if (n > 0) {
      std::vector<double> one = table.peer_t_embedding->Apply(
          std::vector<double>(n, 1.0));
      std::vector<double> zero = table.peer_t_embedding->Apply(
          std::vector<double>(n, 0.0));
      for (size_t d = 0; d < table.peer_t_cols.size(); ++d) {
        effect += fit->CoefficientOr(table.peer_t_cols[d], 0.0) *
                  (one[d] - zero[d]);
      }
    }
    total += effect;
  }
  return total / static_cast<double>(view.num_rows());
}

TEST_F(UnitTableReferenceTest, AteContrastMatchesPerUnitLoop) {
  GroundedModel grounded = Ground(*review_);
  Result<CausalQuery> query = ParseQuery("AVG_Score[A] <= Prestige[A]?");
  ASSERT_TRUE(query.ok());
  const UnitTableRequest request = RequestFor(grounded, *query, "S");
  for (EmbeddingKind kind : kEmbeddings) {
    SCOPED_TRACE(EmbeddingKindToString(kind));
    UnitTableOptions options;
    options.embedding = kind;
    Result<UnitTable> table = BuildUnitTable(grounded, request, options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    ASSERT_TRUE(table->relational);
    const std::vector<double>& counts =
        table->data.Column(table->peer_count_col);
    std::vector<double> distinct = counts;
    std::sort(distinct.begin(), distinct.end());
    distinct.erase(std::unique(distinct.begin(), distinct.end()),
                   distinct.end());
    ASSERT_LT(distinct.size() * 4, counts.size()) << "peer counts repeat";

    std::vector<size_t> rows;
    for (size_t r = 0; r < counts.size(); r += 3) rows.push_back(r);
    for (const FlatTable& view :
         {table->data, table->data.SelectRows(rows)}) {
      Result<double> ate =
          EstimateAte(*table, view, EstimatorKind::kRegression);
      ASSERT_TRUE(ate.ok()) << ate.status().ToString();
      EXPECT_EQ(*ate, PerUnitAte(*table, view));
    }
  }
}

// CheckAdjustmentCriterion must agree with the per-unit reference
// (test_fixtures::AdjustmentCriterionByUnit) on every unit of each
// query's table, asked one unit at a time and over the whole table, and
// fail on exactly the units the workload's model makes fail: the probe's
// self-mentored authors, REVIEW-LATENT's units with a peer, and none
// elsewhere.
TEST_F(UnitTableReferenceTest, CriterionMatchesPerUnitReference) {
  const datagen::Dataset mimic = test_fixtures::MiniMimicDataset(2500, 100);
  const datagen::Dataset probe0 = test_fixtures::MentorProbeDataset({});
  const datagen::Dataset probe1 = test_fixtures::MentorProbeDataset({{7, 7}});
  // Two self-mentored authors (a7, a20), two mentored on a third
  // author's paper (a3 and a4 on s100), and one on the next author's
  // paper (a50 on s51).
  const datagen::Dataset probe5 = test_fixtures::MentorProbeDataset(
      {{7, 7}, {20, 20}, {3, 100}, {4, 100}, {50, 51}});
  struct CriterionWorkload {
    const char* name;
    const datagen::Dataset* data;
    const char* query;
    size_t failing;  // units the criterion fails on ...
    bool fails_with_peers = false;  // ... or every unit with a peer
    const char* extra_rules = "";   // appended to the model text
  };
  const CriterionWorkload workloads[] = {
      {"TOY", toy_, "AVG_Score[A] <= Prestige[A]?", 0},
      {"TOY-PEERS", toy_,
       "AVG_Score[A] <= Prestige[A]? WHEN ALL PEERS TREATED", 0},
      {"TOY-WHERE", toy_,
       "AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = TRUE",
       0},
      {"MIMIC-LEN", &mimic, "Len[P] <= SelfPay[P]?", 0},
      {"MIMIC-DEATH", &mimic, "Death[P] <= SelfPay[P]?", 0},
      {"REVIEW", review_, "AVG_Score[A] <= Prestige[A]?", 0},
      // The latent quality of collaborators' papers drives prestige, so a
      // peer b's treatment has the latent Quality of the unit's own paper
      // as a parent, confounding the unit's score; a unit without a peer
      // has only its observed Qualification behind its treatment.
      {"REVIEW-LATENT", review_, "AVG_Score[A] <= Prestige[A]?", 0, true,
       "Prestige[A] <= Quality[S] WHERE Collaborator(A, B), Author(B, S)"},
      {"PROBE-0", &probe0, "AVG_Score[A] <= Prestige[A]?", 0},
      {"PROBE-1", &probe1, "AVG_Score[A] <= Prestige[A]?", 1},
      {"PROBE-5", &probe5, "AVG_Score[A] <= Prestige[A]?", 2},
  };
  for (const CriterionWorkload& wl : workloads) {
    SCOPED_TRACE(wl.name);
    Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
        *wl.data->schema, wl.data->model_text + "\n" + wl.extra_rules);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    Result<std::unique_ptr<CarlEngine>> engine =
        CarlEngine::Create(wl.data->instance.get(), std::move(*model));
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    Result<CausalQuery> query = ParseQuery(wl.query);
    ASSERT_TRUE(query.ok()) << query.status().ToString();
    Result<CarlEngine::ResolvedQuery> resolved =
        (*engine)->Resolve(*query, EngineOptions());
    ASSERT_TRUE(resolved.ok()) << resolved.status().ToString();
    const GroundedModel& grounded = *resolved->grounded;
    Result<UnitTable> table = BuildUnitTable(grounded, resolved->request,
                                             resolved->unit_options);
    ASSERT_TRUE(table.ok()) << table.status().ToString();

    const RelationView units = table->units();
    ASSERT_GT(units.size(), 0u);
    size_t failing = 0;
    for (size_t r = 0; r < units.size(); ++r) {
      Result<bool> want = test_fixtures::AdjustmentCriterionByUnit(
          grounded, resolved->request, units[r]);
      ASSERT_TRUE(want.ok()) << want.status().ToString();
      Result<bool> got = CheckAdjustmentCriterion(
          grounded, resolved->request,
          RelationView(units[r].data(), units.arity(), 1));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_EQ(*got, *want) << "unit row " << r;
      if (!*want) ++failing;
    }
    size_t want_failing = wl.failing;
    if (wl.fails_with_peers) {
      const std::vector<double>& peers =
          table->data.Column(table->peer_count_col);
      want_failing = static_cast<size_t>(
          std::count_if(peers.begin(), peers.end(),
                        [](double count) { return count > 0.0; }));
      EXPECT_GT(want_failing, 0u);
      EXPECT_LT(want_failing, units.size());
    }
    EXPECT_EQ(failing, want_failing);
    Result<bool> all =
        CheckAdjustmentCriterion(grounded, resolved->request, units);
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    EXPECT_EQ(*all, failing == 0);
  }
}

}  // namespace
}  // namespace carl
