// Ablation (DESIGN.md §4): estimator choice x adjustment, on single-blind
// SYNTHETIC REVIEWDATA with known isolated effect 1.0.
//
// Rows: the naive contrast (no adjustment), then each estimator with the
// detected covariate set. The paper uses regression/matching implicitly;
// this bench makes the estimator an explicit, measured design choice and
// quantifies what covariate adjustment buys.

#include <cstdio>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/review.h"

namespace carl {
namespace {

int Run(const bench::BenchFlags& flags) {
  bench::Stopwatch total;
  bench::PrintHeader(
      "Ablation - estimator choice (single-blind synthetic, true isolated "
      "effect = 1.0)");

  datagen::ReviewConfig config;
  config.num_authors = flags.quick ? 800 : 3000;
  config.num_institutions = flags.quick ? 40 : 100;
  config.num_papers = flags.quick ? 4800 : 18000;
  config.num_venues = flags.quick ? 10 : 20;
  config.single_blind_fraction = 1.0;
  config.tau_iso_single = 1.0;
  config.tau_rel = 0.5;
  config.seed = 606;
  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  std::unique_ptr<CarlEngine> engine = bench::MakeEngine(data->dataset);

  const std::string query =
      "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED";

  bench::PrintRow({"Estimator", "Isolated est.", "+/- se", "Bias"});
  bench::PrintRule();

  // Naive (no adjustment): the difference of group means.
  {
    QueryResponse response = engine->Answer(QueryRequest(query));
    CARL_CHECK_OK(response.status);
    double naive = response.answer.effects->naive.difference;
    bench::PrintRow({"naive (none)", StrFormat("%+.3f", naive), "-",
                     StrFormat("%+.3f", naive - 1.0)});
  }

  for (EstimatorKind kind :
       {EstimatorKind::kRegression, EstimatorKind::kMatching,
        EstimatorKind::kIpw, EstimatorKind::kStratification}) {
    QueryRequest request(query);
    request.options.estimator = kind;
    request.options.bootstrap_replicates = flags.quick ? 20 : 60;
    QueryResponse response = engine->Answer(request);
    if (!response.status.ok()) {
      bench::PrintRow({EstimatorKindToString(kind), "failed",
                       response.status.ToString(), ""});
      continue;
    }
    const EffectEstimate& est = response.answer.effects->aie_psi;
    bench::PrintRow({EstimatorKindToString(kind),
                     StrFormat("%+.3f", est.value),
                     StrFormat("%.3f", est.std_error),
                     StrFormat("%+.3f", est.value - 1.0)});
  }
  bench::PrintRule();
  std::printf(
      "Reading: the naive contrast carries the confounding bias "
      "(qualification -> prestige, quality); every adjusted estimator\n"
      "removes most of it, with regression tightest on this linear "
      "generative model.\n");
  bench::EmitJson("ablation_estimators", "", "wall_s", total.Seconds());
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
