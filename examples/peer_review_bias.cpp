// Peer-review bias analysis (the paper's REVIEWDATA study, §6.2).
//
// Generates a realistic-scale review dataset (papers, authors,
// collaborations, venues — half single-blind, half double-blind), then:
//   1. contrasts correlation with causation per review mode (Fig 7a),
//   2. decomposes the effect into isolated and relational parts (Fig 7b),
//   3. shows how the conclusion would differ with a naive reading.
//
//   build/peer_review_bias

#include <cstdio>

#include "carl/carl.h"
#include "common/str_util.h"
#include "datagen/review.h"

using namespace carl;

int main() {
  datagen::ReviewConfig config = datagen::RealisticReviewConfig();
  std::printf(
      "Generating simulated REVIEWDATA: %zu authors, %zu papers, %zu venues "
      "(%.0f%% single-blind)...\n",
      config.num_authors, config.num_papers, config.num_venues,
      config.single_blind_fraction * 100);
  Result<datagen::ReviewData> data = datagen::GenerateReviewData(config);
  CARL_CHECK_OK(data.status());

  Result<RelationalCausalModel> model = RelationalCausalModel::Parse(
      *data->dataset.schema, data->dataset.model_text);
  CARL_CHECK_OK(model.status());
  std::printf("\nCausal model:\n%s\n", model->ToString().c_str());

  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->dataset.instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  EngineOptions options;
  options.bootstrap_replicates = 200;

  std::printf("%-14s %-12s %-12s %-22s\n", "Review mode", "Pearson r",
              "ATE", "95% CI");
  for (auto [mode, literal] : {std::pair{"single-blind", "TRUE"},
                               std::pair{"double-blind", "FALSE"}}) {
    QueryRequest request(StrFormat(
        "AVG_Score[A] <= Prestige[A]? WHERE Submitted(S, C), Blind[C] = %s",
        literal));
    request.options = options;
    QueryResponse response = (*engine)->Answer(request);
    CARL_CHECK_OK(response.status);
    const AteAnswer& ate = *response.answer.ate;
    bool significant = ate.ate.ci_low > 0.0 || ate.ate.ci_high < 0.0;
    std::printf("%-14s %-12.3f %-+12.3f [%+.3f, %+.3f]%s\n", mode,
                ate.naive.correlation, ate.ate.value, ate.ate.ci_low,
                ate.ate.ci_high, significant ? "  *significant*" : "");
  }

  std::printf(
      "\nReading correlation as causation would claim double-blind review\n"
      "does not reduce prestige bias; the causal analysis shows the effect\n"
      "survives only under single-blind review.\n");

  // Peer effects at single-blind venues.
  QueryRequest peers_request(
      "AVG_Score[A] <= Prestige[A]? WHEN MORE THAN 1/3 PEERS TREATED "
      "WHERE Submitted(S, C), Blind[C] = TRUE");
  peers_request.options = options;
  QueryResponse peers = (*engine)->Answer(peers_request);
  CARL_CHECK_OK(peers.status);
  const RelationalEffectsAnswer& effects = *peers.answer.effects;
  std::printf("\nPeer effects (single-blind):\n");
  std::printf("  own prestige (AIE):          %+.3f +/- %.3f\n",
              effects.aie.value, effects.aie.std_error);
  std::printf("  collaborators' prestige (ARE): %+.3f +/- %.3f\n",
              effects.are.value, effects.are.std_error);
  std::printf("  overall (AOE = AIE + ARE):   %+.3f\n", effects.aoe.value);
  std::printf(
      "\nAn author's own prestige matters more than the collaborators'\n"
      "(paper Fig 7b), but interference is real: ignoring it (SUTVA) would\n"
      "misattribute the spill-over to the author.\n");
  return 0;
}
