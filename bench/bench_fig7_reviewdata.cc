// Figure 7 (paper §6.2), on simulated REVIEWDATA:
//  (a) average treatment effect estimates and Pearson correlation for
//      single-blind vs double-blind submissions (query 36, run twice with
//      a WHERE filter on Blind[C]);
//  (b) correlation, average isolated / relational / overall effect for
//      single-blind venues (query 37).
//
// Paper's qualitative result: correlation is significantly positive for
// BOTH review modes, but the causal effect of prestige is significant only
// under single-blind review; and AIE > ARE with AOE = AIE + ARE.

#include <cstdio>

#include "bench_timer.h"
#include "bench_util.h"
#include "datagen/review.h"

namespace carl {
namespace {

int Run(const bench::BenchFlags& flags) {
  bench::Stopwatch total;
  bench::PrintHeader(
      "Figure 7 - prestige effects on simulated REVIEWDATA (2,075 papers / "
      "4,490 authors / 10 venues)");

  datagen::ReviewConfig config = datagen::RealisticReviewConfig();
  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());
  std::unique_ptr<CarlEngine> engine = bench::MakeEngine(data->dataset);

  EngineOptions options;
  options.bootstrap_replicates = flags.quick ? 25 : 200;

  std::printf("\n(a) correlation, total ATE, and isolated effect by mode\n");
  bench::PrintRow({"Mode", "Pearson r", "ATE", "AIE", "AIE 95% CI",
                   "units"});
  bench::PrintRule();
  for (const auto& [mode, literal] :
       std::initializer_list<std::pair<const char*, const char*>>{
           {"Single-blind", "TRUE"}, {"Double-blind", "FALSE"}}) {
    std::string ate_query = StrFormat(
        "AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = %s",
        literal);
    QueryRequest ate_request(ate_query);
    ate_request.options = options;
    QueryResponse ate_response = engine->Answer(ate_request);
    CARL_CHECK_OK(ate_response.status);
    const AteAnswer& ate = *ate_response.answer.ate;
    // Isolated effect of the author's own prestige (the quantity whose
    // significance flips between review modes in the paper's Fig 7a).
    std::string iso_query = StrFormat(
        "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED "
        "WHERE Submitted(S, C), Blind[C] = %s",
        literal);
    QueryRequest iso_request(iso_query);
    iso_request.options = options;
    QueryResponse iso = engine->Answer(iso_request);
    CARL_CHECK_OK(iso.status);
    const EffectEstimate& aie = iso.answer.effects->aie;
    bench::PrintRow({mode, StrFormat("%.3f", ate.naive.correlation),
                     StrFormat("%+.3f", ate.ate.value),
                     StrFormat("%+.3f", aie.value),
                     StrFormat("[%+.2f, %+.2f]", aie.ci_low, aie.ci_high),
                     StrFormat("%zu", ate.num_units)});
  }
  std::printf(
      "Shape: correlation positive in both modes; the isolated prestige\n"
      "effect's CI excludes 0 only under single-blind review (generative\n"
      "tau_iso = %.2f vs %.2f; the double-blind total ATE retains the\n"
      "collaborator spill-over tau_rel = %.2f, which is real interference,\n"
      "not reviewer bias).\n",
      config.tau_iso_single, config.tau_iso_double, config.tau_rel);

  std::printf("\n(b) isolated / relational / overall effects, single-blind\n");
  bench::PrintRow({"Quantity", "Estimate", "+/- se", "95% CI"});
  bench::PrintRule();
  QueryRequest peers_request(
      "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED "
      "WHERE Submitted(S, C), Blind[C] = TRUE");
  peers_request.options = options;
  QueryResponse peers = engine->Answer(peers_request);
  CARL_CHECK_OK(peers.status);
  const RelationalEffectsAnswer& effects = *peers.answer.effects;
  auto print_effect = [](const char* name, const EffectEstimate& e) {
    bench::PrintRow({name, StrFormat("%+.3f", e.value),
                     StrFormat("%.3f", e.std_error),
                     StrFormat("[%+.2f, %+.2f]", e.ci_low, e.ci_high)});
  };
  bench::PrintRow({"Pearson r",
                   StrFormat("%.3f", effects.naive.correlation), "", ""});
  print_effect("AIE", effects.aie);
  print_effect("ARE", effects.are);
  print_effect("AOE", effects.aoe);
  bench::PrintRule();
  std::printf(
      "Shape (paper Fig 7b): AIE > ARE, AOE = AIE + ARE "
      "(here %.3f + %.3f = %.3f).\n",
      effects.aie.value, effects.are.value, effects.aoe.value);
  bench::EmitJson("fig7_reviewdata", "", "wall_s", total.Seconds());
  return 0;
}

}  // namespace
}  // namespace carl

int main(int argc, char** argv) {
  return carl::Run(carl::bench::ParseFlags(argc, argv));
}
