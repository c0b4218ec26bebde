// Hospital billing analysis (the paper's NIS study, §6.2, query 35): are
// patients admitted to large hospitals charged more?
//
// Shows the paper's Simpson-style reversal — large hospitals look ~33pp
// more expensive because they receive the sickest patients, yet all else
// equal they are cheaper — and compares all four estimators on the same
// unit table.
//
//   build/hospital_billing

#include <cstdio>

#include "carl/carl.h"
#include "datagen/nis.h"

using namespace carl;

int main() {
  datagen::NisConfig config;
  config.num_admissions = 100000;
  std::printf("Generating simulated NIS (%zu admissions, %zu hospitals)...\n",
              config.num_admissions, config.num_hospitals);
  Result<datagen::Dataset> data = datagen::GenerateNis(config);
  CARL_CHECK_OK(data.status());

  Result<RelationalCausalModel> model =
      RelationalCausalModel::Parse(*data->schema, data->model_text);
  CARL_CHECK_OK(model.status());
  Result<std::unique_ptr<CarlEngine>> engine =
      CarlEngine::Create(data->instance.get(), std::move(*model));
  CARL_CHECK_OK(engine.status());

  QueryRequest request("HighBill[P] <= AdmittedToLarge[P]?");
  QueryResponse naive_run = (*engine)->Answer(request);
  CARL_CHECK_OK(naive_run.status);
  const AteAnswer& first = *naive_run.answer.ate;
  std::printf("\nHighBill[P] <= AdmittedToLarge[P]?\n");
  std::printf("  P(high bill | large):  %5.1f%%\n",
              first.naive.treated_mean * 100);
  std::printf("  P(high bill | small):  %5.1f%%\n",
              first.naive.control_mean * 100);
  std::printf("  naive difference:      %+5.1f pp   <- looks 'less affordable'\n",
              first.naive.difference * 100);

  std::printf("\nAdjusted ATE by estimator:\n");
  for (EstimatorKind kind :
       {EstimatorKind::kRegression, EstimatorKind::kMatching,
        EstimatorKind::kIpw, EstimatorKind::kStratification}) {
    request.options.estimator = kind;
    QueryResponse response = (*engine)->Answer(request);
    if (response.status.ok()) {
      std::printf("  %-16s %+6.1f pp\n", EstimatorKindToString(kind),
                  response.answer.ate->ate.value * 100);
    } else {
      std::printf("  %-16s failed: %s\n", EstimatorKindToString(kind),
                  response.status.ToString().c_str());
    }
  }

  std::printf(
      "\nEvery estimator reverses the naive sign: severity routes patients\n"
      "to large hospitals AND inflates bills; once adjusted, economies of\n"
      "scale make the large hospital the cheaper choice (paper §6.2, [10]).\n");
  return 0;
}
