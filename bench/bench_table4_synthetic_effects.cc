// Table 4 (paper §6.3): estimated vs ground-truth isolated, relational,
// and overall effects on SYNTHETIC REVIEWDATA, for the single-blind and
// double-blind regimes. Ground truth is obtained by do()-surgery on the
// generating SCM (core/ground_truth.h), not by reading off generator
// constants.
//
// Paper:                 AIE      ARE      AOE
//  Single-blind est.     1.138    0.434    1.573   (truth 1.0, 0.5, 1.5)
//  Double-blind est.     0.101    0.429    0.538   (truth 0.0, 0.5, 0.5)

#include <cstdio>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/review.h"

namespace carl {
namespace {

void RunRegime(const char* label, double single_blind_fraction,
               uint64_t seed, const bench::BenchFlags& flags) {
  datagen::ReviewConfig config;
  config.num_authors = flags.quick ? 1500 : 10000;
  config.num_institutions = flags.quick ? 60 : 200;
  config.num_papers = flags.quick ? 9000 : 75000;
  config.num_venues = flags.quick ? 20 : 100;
  config.single_blind_fraction = single_blind_fraction;
  config.tau_iso_single = 1.0;
  config.tau_iso_double = 0.0;
  config.tau_rel = 0.5;
  config.seed = seed;

  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  std::unique_ptr<CarlEngine> engine = bench::MakeEngine(data->dataset);

  QueryResponse response = engine->Answer(QueryRequest(
      "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED"));
  CARL_CHECK_OK(response.status);
  const RelationalEffectsAnswer& effects = *response.answer.effects;

  AttributeId prestige =
      *engine->model().extended_schema().FindAttribute("Prestige");
  AttributeId avg_score =
      *engine->model().extended_schema().FindAttribute("AVG_Score");
  GroundTruthOptions truth_options;
  truth_options.max_units =
      flags.quick ? 100 : 400;  // sampled units for per-unit contrasts
  Result<GroundTruthEffects> truth = ComputeGroundTruth(
      engine->grounded(), data->scm, prestige, avg_score, truth_options);
  CARL_CHECK_OK(truth.status());

  bench::PrintRow({label, "Estimated", StrFormat("%.3f", effects.aie.value),
                   StrFormat("%.3f", effects.are.value),
                   StrFormat("%.3f", effects.aoe.value)});
  bench::PrintRow({"", "Ground Truth", StrFormat("%.3f", truth->aie),
                   StrFormat("%.3f", truth->are),
                   StrFormat("%.3f", truth->aoe)});
}

int Run(const bench::BenchFlags& flags) {
  bench::Stopwatch total;
  bench::PrintHeader(
      "Table 4 - AIE/ARE/AOE, estimated vs interventional ground truth\n"
      "(SYNTHETIC REVIEWDATA, 10k authors / 75k papers / 100 venues)");
  bench::PrintRow({"", "", "AIE", "ARE", "AOE"});
  bench::PrintRule();
  RunRegime("Single-Blind", /*single_blind_fraction=*/1.0, /*seed=*/101,
            flags);
  bench::PrintRule();
  RunRegime("Double-Blind", /*single_blind_fraction=*/0.0, /*seed=*/102,
            flags);
  bench::PrintRule();
  std::printf(
      "Paper: single-blind est (1.138, 0.434, 1.573) truth (1.0, 0.5, 1.5);\n"
      "       double-blind est (0.101, 0.429, 0.538) truth (0.0, 0.5, 0.5).\n"
      "Shape: estimates track truth; AOE = AIE + ARE (Proposition 4.1).\n");
  bench::EmitJson("table4_synthetic_effects", "", "wall_s", total.Seconds());
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
