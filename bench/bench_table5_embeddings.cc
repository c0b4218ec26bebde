// Table 5 (paper §6.4): sensitivity of the treatment-effect estimate to
// the choice of embedding, against the universal-table baseline.
//
// For each regime (single-/double-blind) we generate R replicate synthetic
// datasets, estimate the isolated effect of query (37) with each embedding
// (mean / median / moment summary / padding), and report mean ± sd across
// replicates. The baseline joins all base relations into one universal
// table and runs propensity-score matching on it, ignoring the relational
// structure (paper: 0.54 ± 0.73 single-blind vs truth 1.0).

#include <cstdio>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/review.h"

namespace carl {
namespace {

datagen::ReviewConfig MakeConfig(double single_blind_fraction, uint64_t seed,
                                 const bench::BenchFlags& flags) {
  datagen::ReviewConfig config;
  config.num_authors = flags.quick ? 500 : 1500;
  config.num_institutions = flags.quick ? 25 : 60;
  config.num_papers = flags.quick ? 3000 : 9000;
  config.num_venues = flags.quick ? 10 : 20;
  config.single_blind_fraction = single_blind_fraction;
  config.tau_iso_single = 1.0;
  config.tau_iso_double = 0.0;
  config.tau_rel = 0.5;
  config.seed = seed;
  return config;
}

// Universal-table baseline: join Author x Collaborator, PSM on the rows.
Result<double> UniversalBaseline(const datagen::ReviewData& data) {
  UniversalTableSpec spec;
  spec.join.atoms.push_back({"Author", {Term::Var("A"), Term::Var("S")}});
  spec.join.atoms.push_back(
      {"Collaborator", {Term::Var("A"), Term::Var("B")}});
  spec.columns.push_back({"Score", {"S"}, "score"});
  spec.columns.push_back({"Prestige", {"A"}, "prestige"});
  spec.columns.push_back({"Qualification", {"A"}, "qual"});
  spec.columns.push_back({"Prestige", {"B"}, "peer_prestige"});
  spec.columns.push_back({"Qualification", {"B"}, "peer_qual"});
  CARL_ASSIGN_OR_RETURN(UniversalTableResult universal,
                        BuildUniversalTable(*data.dataset.instance, spec));
  const FlatTable& t = universal.table;
  CARL_ASSIGN_OR_RETURN(
      std::vector<double> ps,
      PropensityScores(t, "prestige", {"qual", "peer_prestige", "peer_qual"}));
  CARL_ASSIGN_OR_RETURN(
      MatchingResult m,
      PropensityScoreMatchingAte(t.Column("score"), t.Column("prestige"), ps));
  return m.ate;
}

struct Series {
  std::vector<double> values;
  double Mean() const {
    double s = 0;
    for (double v : values) s += v;
    return values.empty() ? 0 : s / static_cast<double>(values.size());
  }
  double Sd() const {
    if (values.size() < 2) return 0;
    double m = Mean(), s = 0;
    for (double v : values) s += (v - m) * (v - m);
    return std::sqrt(s / static_cast<double>(values.size() - 1));
  }
};

void RunRegime(const char* label, double single_blind_fraction, double truth,
               const bench::BenchFlags& flags) {
  const EmbeddingKind kinds[] = {EmbeddingKind::kMean, EmbeddingKind::kMedian,
                                 EmbeddingKind::kMoments,
                                 EmbeddingKind::kPadding};
  Series per_embedding[4];
  Series universal;

  const int replicates = flags.quick ? 2 : 8;
  for (int r = 0; r < replicates; ++r) {
    datagen::ReviewConfig config =
        MakeConfig(single_blind_fraction,
                   1000 + 17 * r +
                       (single_blind_fraction > 0.5 ? 0 : 500),
                   flags);
    Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
    CARL_CHECK_OK(data.status());
    std::unique_ptr<CarlEngine> engine = bench::MakeEngine(data->dataset);

    for (int k = 0; k < 4; ++k) {
      QueryRequest request(
          "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED");
      request.options.embedding = kinds[k];
      QueryResponse response = engine->Answer(request);
      CARL_CHECK_OK(response.status);
      per_embedding[k].values.push_back(
          response.answer.effects->aie_psi.value);
    }
    Result<double> baseline = UniversalBaseline(*data);
    CARL_CHECK_OK(baseline.status());
    universal.values.push_back(*baseline);
  }

  for (int k = 0; k < 4; ++k) {
    bench::PrintRow({"CaRL", EmbeddingKindToString(kinds[k]), label,
                     StrFormat("%.3f +/- %.2f", per_embedding[k].Mean(),
                               per_embedding[k].Sd()),
                     StrFormat("%.2f", truth)});
  }
  bench::PrintRow({"Universal", "n/a", label,
                   StrFormat("%.3f +/- %.2f", universal.Mean(),
                             universal.Sd()),
                   StrFormat("%.2f", truth)});
}

int Run(const bench::BenchFlags& flags) {
  bench::Stopwatch total;
  bench::PrintHeader(
      "Table 5 - embedding sensitivity vs universal-table baseline\n"
      "(isolated effect of query (37); mean +/- sd over replicates)");
  bench::PrintRow({"Method", "Embedding", "Regime", "Estimated", "True"});
  bench::PrintRule();
  RunRegime("Single-Blind", 1.0, 1.0, flags);
  bench::PrintRule();
  RunRegime("Double-Blind", 0.0, 0.0, flags);
  bench::PrintRule();
  std::printf(
      "Paper (single-blind / double-blind, true 1.0 / 0.0):\n"
      "  mean 1.124+/-0.43 / 0.192+/-0.40, median 1.119+/-0.36 / 0.115+/-0.37,\n"
      "  moments 1.020+/-0.36 / 0.109+/-0.32, padding 1.011+/-0.29 / 0.013+/-0.30,\n"
      "  universal table 0.54+/-0.73 / 0.201+/-0.64.\n"
      "Shape: every CaRL embedding is near the truth; the universal table\n"
      "is biased with much larger variance.\n");
  bench::EmitJson("table5_embeddings", "", "wall_s", total.Seconds());
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
