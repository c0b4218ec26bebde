// Healthcare analysis (the paper's MIMIC-III study, §6.2, queries 34a/34b):
// what is the effect of being uninsured (self-pay) on ICU mortality and on
// length of stay?
//
// Demonstrates covariate detection from the causal model: the engine
// adjusts for the parents of SelfPay (demographics + diagnosis — the
// "deferred admission" confounder) and leaves mediators alone, so the
// reported ATE is the total causal effect.
//
//   build/healthcare_insurance

#include <cstdio>

#include "carl/carl.h"
#include "datagen/mimic.h"

using namespace carl;

int main() {
  datagen::MimicConfig config;
  config.num_patients = 20000;
  config.num_caregivers = 700;
  std::printf("Generating simulated MIMIC-III (%zu patients)...\n",
              config.num_patients);
  Result<datagen::Dataset> data = datagen::GenerateMimic(config);
  CARL_CHECK_OK(data.status());

  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  CARL_CHECK_OK(model.status());
  std::printf("\nCausal model (paper §6.1):\n%s\n", model->ToString().c_str());

  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  // Query (34-a): mortality.
  QueryRequest death_request("Death[P] <= SelfPay[P]?");
  death_request.options.check_criterion = true;  // verify Theorem 5.2
  QueryResponse death_response = (*engine)->Answer(death_request);
  CARL_CHECK_OK(death_response.status);
  const AteAnswer& death = *death_response.answer.ate;
  std::printf("Death[P] <= SelfPay[P]?\n");
  std::printf("  mortality, self-pay:    %5.1f%%\n",
              death.naive.treated_mean * 100);
  std::printf("  mortality, insured:     %5.1f%%\n",
              death.naive.control_mean * 100);
  std::printf("  naive difference:       %+5.1f pp\n",
              death.naive.difference * 100);
  std::printf("  ATE:                    %+5.1f pp\n", death.ate.value * 100);
  std::printf("  adjustment criterion:   %s\n",
              *death.criterion_ok ? "holds" : "VIOLATED");

  // Query (34-b): length of stay.
  QueryResponse len_response =
      (*engine)->Answer(QueryRequest("Len[P] <= SelfPay[P]?"));
  CARL_CHECK_OK(len_response.status);
  const AteAnswer& len = *len_response.answer.ate;
  std::printf("\nLen[P] <= SelfPay[P]?\n");
  std::printf("  naive difference:       %+7.1f hours\n",
              len.naive.difference);
  std::printf("  ATE:                    %+7.1f hours\n", len.ate.value);

  std::printf(
      "\nInterpretation (paper §6.2): the raw mortality gap is driven by\n"
      "self-payers deferring admission until severely ill — caregivers do\n"
      "not discriminate. The length-of-stay effect is real but much\n"
      "smaller than the naive contrast suggests.\n");
  return 0;
}
